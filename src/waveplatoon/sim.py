"""Fixed-step time-domain simulation of a bidirectionally coupled vehicle
platoon with selectable end-vehicle strategies.

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
tick. With absorbers a run does one matrix-vector product per tick; without
them nothing changes between output samples and reference events, so the
run jumps between those with precomputed powers of the tick map, while a
stacked product still checks every tick's velocities against
``VELOCITY_LIMIT``.
"""

import functools
import math

import numpy as np
from dataclasses import dataclass

from .boundary import (
    Ramp,
    absorber_front_step,
    absorber_rear_step,
    kappa_front,
    kappa_rear,
    make_front_absorber,
    make_rear_absorber,
    ramp_slopes,
)
from .errors import InvalidConfig, NonFiniteState
from .lti import StateSpace
from .wave import (
    DEFAULT_FIR_SPAN,
    coupling_from_gains,
    wave_fir,
    wave_tf_approx,
)

VARIANTS = ("none", "front", "rear", "two_sided")
VELOCITY_LIMIT = 1e6
EVENT_KINDS = ("set_v_ref", "set_d_ref")


@dataclass(frozen=True)
class PlatoonConfig:
    """Plant, controller, and timing parameters shared by a whole platoon."""

    n_vehicles: int
    kp: float = 4.0
    ki: float = 4.0
    xi: float = 4.0
    d_ref0: float = 1.0
    v_ref: float = 1.0
    dt: float = 0.01
    fs_ctrl: float = 100.0

    def __post_init__(self):
        if self.n_vehicles < 2:
            raise InvalidConfig("a platoon needs at least two vehicles")
        if self.dt <= 0 or self.fs_ctrl <= 0:
            raise InvalidConfig("dt and fs_ctrl must be positive")
        sub = 1.0 / (self.fs_ctrl * self.dt)
        if abs(sub - round(sub)) > 1e-9 or round(sub) < 1:
            raise InvalidConfig("the control interval must be a multiple of dt")
        if self.d_ref0 < 0:
            raise InvalidConfig("d_ref0 must not be negative")

    @property
    def substeps(self):
        return int(round(1.0 / (self.fs_ctrl * self.dt)))

    def coupling(self):
        return coupling_from_gains(self.kp, self.ki, self.xi)


@dataclass
class VehicleState:
    """Position, velocity, and spacing-controller integrator of one vehicle."""

    x: float
    v: float
    z: float = 0.0


@dataclass(frozen=True)
class Event:
    time: float
    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise InvalidConfig(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class NoiseSpec:
    variance: float
    seed: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    """What happens during a run: duration, reference changes, noise, and
    which ends carry wave absorbers."""

    duration: float
    events: tuple = ()
    noise: NoiseSpec = None
    variant: str = "none"
    out_every: int = 1

    def __post_init__(self):
        if self.duration <= 0:
            raise InvalidConfig("duration must be positive")
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if self.out_every < 1:
            raise InvalidConfig("out_every must be >= 1")
        events = tuple(
            e if isinstance(e, Event) else Event(*e) for e in self.events
        )
        times = [e.time for e in events]
        if any(t < 0 or t > self.duration for t in times):
            raise InvalidConfig("event times must lie within the run")
        if any(b < a for a, b in zip(times, times[1:])):
            raise InvalidConfig("events must be in ascending time order")
        object.__setattr__(self, "events", events)


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled run output; distances are consecutive position gaps."""

    t: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    commands: np.ndarray
    variant: str

    @property
    def distances(self):
        return self.positions[:, :-1] - self.positions[:, 1:]

    @property
    def n_vehicles(self):
        return self.positions.shape[1]


def build_platoon(config):
    """Vehicles at rest, evenly spaced by d_ref0, integrators zeroed; the
    last vehicle sits at position zero."""
    m = config.n_vehicles
    return [
        VehicleState(x=(m - 1 - i) * config.d_ref0, v=0.0, z=0.0) for i in range(m)
    ]


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
    velocity is the controller output rather than a separate state; the
    unused velocity slot stays zero and the true velocity is computed on
    demand.

    ``trans`` and the ``*_zoh`` vectors advance the 3m plant states one
    step of ``dt`` under held inputs. ``tick_map`` advances one control
    tick (``config.substeps`` steps) of the augmented state
    ``z = [s, u, du, d, front held, front fresh, rear held, rear fresh]``:
    the head input is the ramp ``u + du*tau`` plus the slew from the held
    to the fresh head command, and the tail input is the spacing reference
    ``d`` plus the slew of the tail commands. (The slew turns absorber
    outputs into piecewise-linear setpoints, which keeps the end servo's
    velocity free of sampling ripple.) Every input is affine in the
    time ``tau`` into the tick, so the RK4 start, middle and end samples
    are exact. The map moves ``u`` along its slope and hands each fresh
    command over to the held slot. ``tick_noise`` adds one tick's distance
    noise draws to ``z``.
    """

    AUX = 7  # augmented slots after the plant states

    def __init__(self, config, rear_commanded, dt=None):
        self.config = config
        self.rear_commanded = rear_commanded
        self.dt = config.dt if dt is None else dt
        m = config.n_vehicles
        kp, ki, xi = config.kp, config.ki, config.xi
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

        self.a = a
        trans, w_start, w_mid, w_end = _rk4_maps(a, self.dt)
        w_zoh = w_start + w_mid + w_end
        self.trans = trans
        self.front_zoh = w_zoh @ b_front
        self.rear_zoh = w_zoh @ b_rear
        self.noise_zoh = w_zoh @ b_noise

        self.n_states = n
        self.dim = n + self.AUX
        (self.ramp, self.ramp_slope, self.spacing, self.front_held,
         self.front_fresh, self.rear_held, self.rear_fresh) = range(n, self.dim)
        n_sub = config.substeps
        h = self.dt
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
            tick_noise[:n] += self.noise_zoh
        tick[self.front_held] = tick[self.front_fresh]
        tick[self.rear_held] = tick[self.rear_fresh]
        self.tick_map = tick
        self.tick_noise = tick_noise

    def step_vec(self, s, front, rear, noise=None):
        """One plant step of ``dt`` with ``front`` and ``rear`` held."""
        out = self.trans @ s + self.front_zoh * front + self.rear_zoh * rear
        if noise is not None:
            out += self.noise_zoh @ noise
        return out

    def velocities(self, s, front_u, rear_u):
        """Per-vehicle velocities; commanded ends report their controller
        output since their velocity slot is not a state."""
        kp, ki = self.config.kp, self.config.ki
        v = s[1::3].copy()
        v[0] = kp * (front_u - s[0]) + ki * s[2]
        if self.rear_commanded:
            v[-1] = kp * (rear_u - s[-3]) + ki * s[-1]
        return v


def _states_to_vec(states):
    s = np.empty(3 * len(states))
    for i, st in enumerate(states):
        s[3 * i : 3 * i + 3] = (st.x, st.v, st.z)
    return s


def _vec_to_states(s):
    return [
        VehicleState(x=s[i], v=s[i + 1], z=s[i + 2]) for i in range(0, len(s), 3)
    ]


def _check_finite(s):
    v = s[1::3]
    if not np.all(np.isfinite(s)) or np.abs(v).max() > VELOCITY_LIMIT:
        raise NonFiniteState("simulation diverged")


@functools.lru_cache(maxsize=32)
def _cached_dynamics(config, rear_commanded, dt):
    return PlatoonDynamics(config, rear_commanded, dt=dt)


def step(states, config, end_commands, noise_draws, dt):
    """Advance the platoon one tick of length ``dt``.

    ``end_commands`` is a (front, rear) pair of absolute commanded
    positions; a rear command of None means the tail regulates spacing,
    and the spacing reference is then taken from ``config.d_ref0``.
    ``noise_draws`` perturbs the distance error of vehicles 1..N.
    """
    front, rear = end_commands
    rear_commanded = rear is not None
    dyn = _cached_dynamics(config, rear_commanded, dt)
    rear_input = rear if rear_commanded else config.d_ref0
    noise = None
    if noise_draws is not None:
        noise = np.asarray(noise_draws, dtype=float)
        if noise.shape != (config.n_vehicles - 1,):
            raise InvalidConfig("need one noise draw per follower vehicle")
    s = dyn.step_vec(_states_to_vec(states), front, rear_input, noise)
    _check_finite(s)
    out = _vec_to_states(s)
    v = dyn.velocities(s, front, rear_input)
    out[0].v = v[0]
    if rear_commanded:
        out[-1].v = v[-1]
    return out


def inject_noise(rng, variance, count):
    """Independent distance-error draws for the ``count`` follower vehicles."""
    if variance == 0.0:
        return np.zeros(count)
    return rng.normal(0.0, np.sqrt(variance), size=count)


class _ReferenceTracker:
    """Turns reference-change events into end-vehicle ramps.

    Slopes are computed from deviations relative to the initial equilibrium
    (at rest, spacing d_ref0), the regime every scenario here starts from.
    """

    def __init__(self, config, variant):
        self.config = config
        self.variant = variant
        coupling = config.coupling()
        self.k_front = (
            kappa_front(coupling) if variant in ("front", "two_sided") else 0.0
        )
        self.k_rear = (
            kappa_rear(coupling) if variant in ("rear", "two_sided") else 0.0
        )
        self.v_target = 0.0
        self.d_target = config.d_ref0
        self.front_ramp = Ramp(0.0)
        self.rear_ramp = Ramp(0.0)

    def apply(self, event, t):
        if event.kind == "set_v_ref":
            self.v_target = event.value
        else:
            self.d_target = event.value
        v_dev = self.v_target
        d_dev = self.d_target - self.config.d_ref0
        gains = ramp_slopes(v_dev, d_dev, self.k_front, self.k_rear)
        front_slope = (
            gains.w0 if self.variant in ("front", "two_sided") else v_dev
        )
        self.front_ramp = self.front_ramp.continued(front_slope, t)
        self.rear_ramp = self.rear_ramp.continued(gains.wr, t)


# the jump maps hold stride * dim**2 floats of powers and, with noise, about
# (stride * m)**2 more for the per-tick guard; the stride is capped so that
# neither exceeds this many floats (32 MB)
JUMP_MAP_FLOATS = 1 << 22


class _JumpMaps:
    """Advance the augmented state ``z`` by 1..``stride`` control ticks at
    once while every tick's velocities pass the divergence guard.

    Holds ``M**j`` for the tick map ``M``, the noise block of ``stride``
    ticks (``[M**(stride-1) N, ..., N]``, whose last ``j`` blocks serve a
    ``j``-tick jump), and the velocity rows of ``M**1 .. M**(stride-1)``
    and of their noise blocks, stacked so that one extra product gives the
    velocities of the ticks a jump passes over.
    """

    def __init__(self, dyn, stride, noisy):
        self.m = m = dyn.config.n_vehicles
        self.vel_rows = vel_rows = slice(1, dyn.n_states, 3)
        tick = dyn.tick_map
        self.powers = [None, tick]
        for _ in range(stride - 1):
            self.powers.append(tick @ self.powers[-1])
        passed = self.powers[1:stride]
        self.vel = np.vstack([p[vel_rows] for p in passed]) if passed else None
        self.noise = self.vel_noise = None
        if noisy:
            # blocks[d] = M**d N: one tick's draws, d ticks after that tick
            blocks = [dyn.tick_noise] + [p @ dyn.tick_noise for p in passed]
            self.noise = np.hstack(blocks[::-1])
            # velocities after tick i see draw l < i through blocks[i-1-l]
            k = m - 1
            self.vel_noise = np.zeros(((stride - 1) * m, (stride - 1) * k))
            for i in range(1, stride):
                for l in range(i):
                    self.vel_noise[(i - 1) * m : i * m, l * k : (l + 1) * k] = (
                        blocks[i - 1 - l][vel_rows]
                    )

    def advance(self, z, j, noise):
        """``z`` after ``j`` ticks; ``noise`` holds one row of draws per tick."""
        out = self.powers[j] @ z
        if noise is not None:
            draws = noise.ravel()
            out += self.noise[:, -draws.size :] @ draws
        ok = np.isfinite(out).all() and (
            np.abs(out[self.vel_rows]) <= VELOCITY_LIMIT
        ).all()
        if ok and j > 1:
            rows = (j - 1) * self.m
            passed = self.vel[:rows] @ z
            if noise is not None:
                cols = (j - 1) * (self.m - 1)
                passed += self.vel_noise[:rows, :cols] @ draws[:cols]
            ok = (np.abs(passed) <= VELOCITY_LIMIT).all()
        if not ok:
            raise NonFiniteState("simulation diverged")
        return out


def _jump_stride(out_every, dim, m, noisy):
    stride = min(out_every, JUMP_MAP_FLOATS // (dim * dim))
    if noisy:
        stride = min(stride, math.isqrt(JUMP_MAP_FLOATS) // m)
    return max(stride, 1)


def _event_tick(time, ctrl_dt):
    """First control tick k with ``time <= k*ctrl_dt + 1e-12``."""
    k = max(int(time / ctrl_dt) - 1, 0)
    while time > k * ctrl_dt + 1e-12:
        k += 1
    return k


def run_scenario(config, scenario, fir=None):
    """Simulate one scenario and return the sampled trace.

    The plant advances at ``config.dt``; absorbers and noise update at the
    control rate ``config.fs_ctrl``; end commands slew linearly from the
    held to the fresh value over each control tick. The trace is sampled
    every ``scenario.out_every`` control ticks.

    Each control tick is one product with the augmented tick map. With an
    absorber the loop visits every tick; without one nothing changes
    between output samples and event ticks, so the loop jumps between them
    with precomputed powers of the map.
    """
    m = config.n_vehicles
    variant = scenario.variant
    dyn = PlatoonDynamics(config, rear_commanded=variant in ("rear", "two_sided"))
    n = dyn.n_states
    z = np.zeros(dyn.dim)
    z[:n] = _states_to_vec(build_platoon(config))
    x_first0 = z[0]
    x_follower0 = z[3]
    x_prev0 = z[3 * (m - 2)]
    x_last0 = z[3 * (m - 1)]

    front_abs = rear_abs = None
    if variant in ("front", "rear", "two_sided"):
        if fir is None:
            fir = wave_fir(
                wave_tf_approx(config.coupling()), config.fs_ctrl, DEFAULT_FIR_SPAN
            )
        if abs(fir.fs - config.fs_ctrl) > 1e-9:
            raise InvalidConfig("absorber FIR rate must match fs_ctrl")
    refs = _ReferenceTracker(config, variant)
    if variant in ("front", "two_sided"):
        front_abs = make_front_absorber(fir, refs.front_ramp)
        # the command that drove the plant into the current sample; a
        # commanded end's instantaneous velocity is its controller output
        # under the held command, not under the one about to be applied
        z[dyn.front_held] = x_first0
    if variant in ("rear", "two_sided"):
        rear_abs = make_rear_absorber(fir, refs.rear_ramp, index=m - 2)
        z[dyn.rear_held] = x_last0

    rng = None
    sigma2 = 0.0
    if scenario.noise is not None and scenario.noise.variance > 0.0:
        sigma2 = scenario.noise.variance
        rng = np.random.default_rng(scenario.noise.seed)

    out_every = scenario.out_every
    stride = 1
    if front_abs is None and rear_abs is None:
        stride = _jump_stride(out_every, dyn.dim, m, rng is not None)
    jumps = _JumpMaps(dyn, stride, rng is not None)

    ctrl_dt = 1.0 / config.fs_ctrl
    n_ctrl = int(round(scenario.duration * config.fs_ctrl))
    n_out = n_ctrl // out_every + 1
    t_out = np.empty(n_out)
    x_out = np.empty((n_out, m))
    v_out = np.empty((n_out, m))
    c_out = np.full((n_out, 2), np.nan)
    row = 0

    events = list(scenario.events)
    event_ticks = [_event_tick(e.time, ctrl_dt) for e in events]
    next_event = 0
    k = 0
    while True:
        t = k * ctrl_dt
        while next_event < len(events) and event_ticks[next_event] <= k:
            refs.apply(events[next_event], t)
            if front_abs is not None:
                front_abs.ramp = refs.front_ramp
            if rear_abs is not None:
                rear_abs.ramp = refs.rear_ramp
            next_event += 1

        boundary = min(n_ctrl, k + stride, (k // out_every + 1) * out_every)
        if next_event < len(events):
            boundary = min(boundary, event_ticks[next_event])
        noise = None
        if rng is not None:
            noise = inject_noise(rng, sigma2, (max(boundary - k, 1), m - 1))

        if front_abs is not None:
            front_val = x_first0 + absorber_front_step(
                front_abs, z[3] - x_follower0, t
            )
            z[dyn.front_fresh] = front_val
            v_front = z[dyn.front_held]
        else:
            front_val = x_first0 + refs.front_ramp(t)
            z[dyn.ramp] = front_val
            z[dyn.ramp_slope] = refs.front_ramp.slope
            v_front = front_val
        if rear_abs is not None:
            measured = z[3 * (m - 2)] - x_prev0
            if noise is not None:
                measured += noise[0, m - 2]
            rear_cmd = x_last0 + absorber_rear_step(rear_abs, measured, t)
            z[dyn.rear_fresh] = rear_cmd
            v_rear = z[dyn.rear_held]
        else:
            z[dyn.spacing] = refs.d_target
            v_rear = 0.0

        if k % out_every == 0:
            t_out[row] = t
            x_out[row] = z[0:n:3]
            v_out[row] = dyn.velocities(z[:n], v_front, v_rear)
            c_out[row, 0] = front_val
            if rear_abs is not None:
                c_out[row, 1] = rear_cmd
            row += 1
        if k == n_ctrl:
            break
        z = jumps.advance(z, boundary - k, noise)
        k = boundary

    return SimulationTrace(
        t=t_out[:row],
        positions=x_out[:row],
        velocities=v_out[:row],
        commands=c_out[:row],
        variant=variant,
    )


def chain_state_space(kp, ki, xi, n_vehicles):
    """State-space model of the chain driven by the head position.

    The head position is the input (not a dynamic vehicle); followers are
    bidirectionally coupled except the tail, which regulates spacing to its
    predecessor. Output is the tail position. Deviation coordinates: all
    spacing references drop out.
    """
    n_follow = n_vehicles - 1
    if n_follow < 1:
        raise InvalidConfig("need at least one follower")
    n = 3 * n_follow
    a = np.zeros((n, n))
    b = np.zeros((n, 1))

    def couple(i, error_cols):
        a[3 * i, 3 * i + 1] = 1.0
        a[3 * i + 1, 3 * i + 1] = -xi
        a[3 * i + 1, 3 * i + 2] = ki
        for col, w in error_cols:
            a[3 * i + 1, col] += kp * w
            a[3 * i + 2, col] += w

    for i in range(n_follow):
        cols = [(3 * i, -2.0 if i < n_follow - 1 else -1.0)]
        if i > 0:
            cols.append((3 * (i - 1), 1.0))
        if i < n_follow - 1:
            cols.append((3 * (i + 1), 1.0))
        couple(i, cols)
    b[1, 0] = kp
    b[2, 0] = 1.0
    c = np.zeros((1, n))
    c[0, 3 * (n_follow - 1)] = 1.0
    return StateSpace(a, b, c, 0.0)


def trace_to_csv(trace, path):
    """Write a trace as CSV with columns t, x0.., v0.., d0.. ."""
    m = trace.n_vehicles
    header = (
        ["t"]
        + [f"x{i}" for i in range(m)]
        + [f"v{i}" for i in range(m)]
        + [f"d{i}" for i in range(m - 1)]
    )
    data = np.column_stack(
        [trace.t, trace.positions, trace.velocities, trace.distances]
    )
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="")
