"""The platoon plant: the chain's state matrix and its control-tick maps.

Vehicles are double integrators with linear friction driven by PI
controllers on spacing errors. The two end vehicles either track external
position commands (ramps or wave-absorber outputs) or regulate spacing to
a reference. The linear plant is advanced by classical fourth-order
Runge-Kutta, folded into exact transition matrices so that an equilibrium
is a fixed point to machine precision.

One control tick is a single augmented matrix, composed once from the RK4
maps over the tick's plant steps. It acts on the plant states together
with the head ramp value and slope, the tail spacing reference, and the
held and fresh absorber commands. Every end input is affine in time within
a tick (a ramp, or a linear slew from the held to the fresh command), so
the RK4 samples of the inputs are exact and the matrix carries the ramp
forward itself. Distance noise enters through one precomputed block per
tick.

One builder, ``chain_matrix``, writes the chain's state matrix: the
simulator's plant uses it whole, and ``chain_state_space`` (the
head-driven chain used as an oracle) is its follower block.
"""

from numbers import Integral

import numpy as np

from .errors import InvalidConfig
from .lti import StateSpace


def build_platoon(config):
    """Plant state ``[x, v, z]`` per vehicle of a platoon at rest, evenly
    spaced by d_ref0 with integrators zeroed; the last vehicle sits at
    position zero."""
    m = config.n_vehicles
    s = np.zeros(3 * m)
    s[0::3] = (m - 1 - np.arange(m)) * config.d_ref0
    return s


def chain_matrix(m, kp, ki, xi, rear_commanded):
    """State matrix of an m-vehicle chain on ``[x, v, z]`` per vehicle,
    and its head-command, tail-input and distance-noise input columns.

    Interior vehicles are bidirectionally coupled PI loops on their
    spacing errors. The head servos to a position command. The tail
    servos to one when ``rear_commanded``; otherwise it regulates its gap
    to its predecessor, and its input is the spacing reference.
    """
    n = 3 * m
    a = np.zeros((n, n))
    b_front = np.zeros(n)
    b_rear = np.zeros(n)
    b_noise = np.zeros((n, m - 1))

    def couple(i, error_cols):
        # error_cols: list of (state column, weight) building e_i
        a[3 * i, 3 * i + 1] = 1.0
        a[3 * i + 1, 3 * i + 1] = -xi
        a[3 * i + 1, 3 * i + 2] = ki
        for col, w in error_cols:
            a[3 * i + 1, col] += kp * w
            a[3 * i + 2, col] += w

    def servo(i, b_vec):
        # dx/dt = kp*(u - x) + ki*z, dz/dt = u - x
        a[3 * i, 3 * i] = -kp
        a[3 * i, 3 * i + 2] = ki
        a[3 * i + 2, 3 * i] = -1.0
        b_vec[3 * i] = kp
        b_vec[3 * i + 2] = 1.0

    servo(0, b_front)
    for i in range(1, m - 1):
        couple(i, [(3 * (i - 1), 1.0), (3 * i, -2.0), (3 * (i + 1), 1.0)])
        b_noise[3 * i + 1, i - 1] = kp
        b_noise[3 * i + 2, i - 1] = 1.0
    last = m - 1
    if rear_commanded:
        servo(last, b_rear)
    else:
        couple(last, [(3 * (last - 1), 1.0), (3 * last, -1.0)])
        # spacing reference enters the tail error with weight -1
        b_rear[3 * last + 1] = -kp
        b_rear[3 * last + 2] = -1.0
        b_noise[3 * last + 1, last - 1] = kp
        b_noise[3 * last + 2, last - 1] = 1.0
    return a, b_front, b_rear, b_noise


def _rk4_maps(a, h):
    n = a.shape[0]
    eye = np.eye(n)
    a2 = a @ a
    a3 = a2 @ a
    a4 = a3 @ a
    m = eye + h * a + (h**2 / 2) * a2 + (h**3 / 6) * a3 + (h**4 / 24) * a4
    # input-weight matrices for samples at the start, middle, end of a tick
    w_start = (h / 6) * (eye + h * a + (h**2 / 2) * a2 + (h**3 / 4) * a3)
    w_mid = (h / 6) * (4 * eye + 2 * h * a + (h**2 / 2) * a2)
    w_end = (h / 6) * eye
    return m, w_start, w_mid, w_end


class PlatoonDynamics:
    """Transition maps for one platoon layout.

    The layout fixes which end vehicles track position commands: the head
    always does; the tail does when ``rear_commanded``, otherwise it
    regulates spacing to the reference input. A commanded end positions
    itself through the PI controller acting on its position error, so its
    velocity is the controller output rather than a separate state, and
    its velocity slot stays zero.

    ``a`` is the plant's state matrix from ``chain_matrix``. ``tick_map``
    advances one control tick (``config.substeps`` RK4 steps of
    ``config.dt``) of the augmented state
    ``z = [s, u, du, d, front held, front fresh, rear held, rear fresh]``:
    the head input is the ramp ``u + du*tau`` plus the slew from the held
    to the fresh head command, and the tail input is the spacing reference
    ``d`` plus the slew of the tail commands. (The slew turns absorber
    outputs into piecewise-linear setpoints, which keeps the end servo's
    velocity free of sampling ripple.) Every input is affine in the
    time ``tau`` into the tick, so the RK4 start, middle and end samples
    are exact. The map moves ``u`` along its slope and hands each fresh
    command over to the held slot. ``tick_noise`` adds one tick's distance
    noise draws to ``z``. ``velocity_rows`` maps ``z`` at the start of a
    tick to every vehicle's velocity ``dx/dt``: the velocity slot of a
    follower, the controller output of a commanded end.
    """

    AUX = 7  # augmented slots after the plant states

    def __init__(self, config, rear_commanded):
        self.config = config
        self.rear_commanded = rear_commanded
        m = config.n_vehicles
        a, b_front, b_rear, b_noise = chain_matrix(
            m, config.kp, config.ki, config.xi, rear_commanded
        )
        self.a = a
        h = config.dt
        trans, w_start, w_mid, w_end = _rk4_maps(a, h)
        noise_zoh = (w_start + w_mid + w_end) @ b_noise

        n = 3 * m
        self.n_states = n
        self.dim = n + self.AUX
        (self.ramp, self.ramp_slope, self.spacing, self.front_held,
         self.front_fresh, self.rear_held, self.rear_fresh) = range(n, self.dim)
        n_sub = config.substeps
        # RK4 input weights of the start, middle and end samples of a step
        samples = [
            (w @ b_front, w @ b_rear, tau)
            for w, tau in ((w_start, 0.0), (w_mid, 0.5), (w_end, 1.0))
        ]
        tick = np.eye(self.dim)
        tick_noise = np.zeros((self.dim, m - 1))
        for j in range(n_sub):
            sub = np.eye(self.dim)
            sub[:n, :n] = trans
            sub[self.ramp, self.ramp_slope] = h
            for front, rear, tau in samples:
                # share of the fresh command at this sample of the slew
                frac = (j + tau) / n_sub
                sub[:n, self.ramp] += front
                sub[:n, self.ramp_slope] += tau * h * front
                sub[:n, self.front_held] += (1.0 - frac) * front
                sub[:n, self.front_fresh] += frac * front
                sub[:n, self.spacing] += rear
                sub[:n, self.rear_held] += (1.0 - frac) * rear
                sub[:n, self.rear_fresh] += frac * rear
            tick = sub @ tick
            tick_noise = sub @ tick_noise
            tick_noise[:n] += noise_zoh
        tick[self.front_held] = tick[self.front_fresh]
        tick[self.rear_held] = tick[self.rear_fresh]
        self.tick_map = tick
        self.tick_noise = tick_noise
        # dx/dt at the start of a tick, where each end input is its ramp or
        # spacing slot plus its held command
        vel = np.zeros((m, self.dim))
        vel[:, :n] = a[0::3]
        vel[:, [self.ramp, self.front_held]] = b_front[0::3, None]
        vel[:, [self.spacing, self.rear_held]] = b_rear[0::3, None]
        self.velocity_rows = vel


def chain_state_space(kp, ki, xi, n_vehicles):
    """State-space model of the chain driven by the head position.

    The follower block of the spacing-regulated plant: the head position is
    the input (not a dynamic vehicle), the followers are bidirectionally
    coupled except the tail, which regulates spacing to its predecessor,
    and the output is the tail position. Deviation coordinates: all spacing
    references drop out.
    """
    if not isinstance(n_vehicles, Integral) or n_vehicles < 2:
        raise InvalidConfig("a chain needs a whole number, >= 2, of vehicles")
    a = chain_matrix(n_vehicles, kp, ki, xi, rear_commanded=False)[0]
    c = np.zeros((1, a.shape[0] - 3))
    c[0, -3] = 1.0
    return StateSpace(a[3:, 3:], a[3:, :1], c, 0.0)
