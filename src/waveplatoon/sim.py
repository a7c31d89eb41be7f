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
tick.

A run advances in blocks of ticks that end at output samples, reference
events and the end of the run. The absorbers are linear in the samples
they measure, so the FIR feedback within a block is a unit lower-triangular
linear system, solved once per run into precomputed maps. These give every
tick's commands and velocities, the block's samples and the state at its
end; the absorbers' FIR histories enter as known terms. The simulator owns
the ramps and the tick clock and hands every absorber the ramp values it
sends.
Every run advances its consecutive full blocks a chunk at a time. What the
state does not touch is worked out once per chunk: the reference inputs,
the noise, and each absorber's ramp and the echo of it. Only the
end-state recursion and, with absorbers, each block's samples and the FIR
over the samples before it run block by block. One product over the chunk
then gives every tick's commands and velocities. Velocities are one linear
readout of the augmented state, shared by the trace and the check of every
tick against ``VELOCITY_LIMIT``.
"""

from typing import NamedTuple

import numpy as np
from dataclasses import dataclass

# the per-tick steps stay importable here
from .boundary import absorber_front_step, absorber_rear_step  # noqa: F401
from .boundary import (
    VARIANTS,
    Ramp,
    absorber_commit,
    absorber_front_block,
    absorber_past,
    absorber_rear_block,
    kappa_front,
    kappa_rear,
    make_front_absorber,
    make_rear_absorber,
    past_taps,
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

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance >= 0.0):
            raise InvalidConfig(
                f"noise variance must be finite and >= 0, got {self.variance}"
            )


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
    """Plant state ``[x, v, z]`` per vehicle of a platoon at rest, evenly
    spaced by d_ref0 with integrators zeroed; the last vehicle sits at
    position zero."""
    m = config.n_vehicles
    s = np.zeros(3 * m)
    s[0::3] = (m - 1 - np.arange(m)) * config.d_ref0
    return s


def _chain_matrix(m, kp, ki, xi, rear_commanded):
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

    ``a`` is the plant's state matrix from ``_chain_matrix``. ``tick_map``
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
        a, b_front, b_rear, b_noise = _chain_matrix(
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
        # the end gains weigh only the spacing deviation and are formed only
        # for one: a run whose gains have none (ki <= 0) and whose spacing
        # stays put still ends at the divergence guard
        k_front = k_rear = 0.0
        if d_dev:
            coupling = self.config.coupling()
            if self.variant in ("front", "two_sided"):
                k_front = kappa_front(coupling)
            if self.variant in ("rear", "two_sided"):
                k_rear = kappa_rear(coupling)
        w0, wr = ramp_slopes(v_dev, d_dev, k_front, k_rear)
        front_slope = w0 if self.variant in ("front", "two_sided") else v_dev
        self.front_ramp = self.front_ramp.continued(front_slope, t)
        self.rear_ramp = self.rear_ramp.continued(wr, t)


# the block maps hold each tick's rows over every input of a stride; the
# stride is capped so that they stay under this many floats (32 MB)
JUMP_MAP_FLOATS = 1 << 22
# a run advances up to this many consecutive full blocks per chunk
CHUNK_BLOCKS = 128


class _Channel(NamedTuple):
    """One absorber end as the block stepper sees it.

    ``block`` is the absorber's ``absorber_*_block`` function and ``state``
    its ``AbsorberState``, which holds only FIR histories. The absorber
    sends the values of the ``_ReferenceTracker`` ramp named ``ramp`` at
    the block's ticks. The command written to ``z[fresh]`` is ``command0``
    plus the absorber's output; the absorber measures ``z[row] - sample0``
    plus, when ``noise`` is a column index, that tick's noise draw.
    """

    state: object
    block: object
    ramp: str
    fresh: int
    row: int
    noise: object
    command0: float
    sample0: float


class _BlockMaps:
    """Advance the augmented state ``z`` by 1..``stride`` control ticks at
    once, solving the absorbers' FIR feedback inside the block.

    With ``A`` the tick map with the fresh command columns zeroed and ``G``
    those columns, one tick is ``z' = A z + G u + N w`` (``tick`` is
    ``[A, N, G]``). Each channel's commands over a block are
    ``u = kappa + lookback + T y``: ``kappa`` is known before the block,
    ``lookback`` is the FIR over the samples taken before it, ``y`` are
    the block's samples (the measured state entry plus a known ``offset``)
    and ``T`` is the lower-triangular Toeplitz matrix of the FIR ``taps``.
    So every tick's commands and the velocities after it, the block's
    samples and its end state are linear in
    ``x = [z0, lookback, (w_0, kappa_0, offset_0), (w_1, kappa_1, offset_1), ...]``,
    where ``lookback`` holds each channel's ``stride`` values in turn.
    Forward substitution (the unit lower-triangular solve of the feedback)
    builds these maps once: ``full`` stacks a stride's per-tick rows
    ``[commands, velocities]``, then its end state and each channel's
    samples. The maps are causal, so a shorter ``j``-tick block takes the
    leading rows of the same maps, and its end state comes from the
    commands tick by tick through ``tick``.

    ``chunk`` advances many full blocks with the same maps. The inputs
    known before the chunk enter through one product; the reference slots
    in ``ref_slots``, which each block overwrites, are among them, and
    ``carry``, the map of ``[z, lookback]`` to ``[end state, samples]``,
    has their columns zeroed. Only the recursion through ``carry`` and
    the lookback of each block run block by block.
    """

    def __init__(self, dyn, stride, channels, noisy, taps, ref_slots):
        self.dim = dim = dyn.dim
        m = dyn.config.n_vehicles
        self.c = c = len(channels)
        self.k = k = m - 1 if noisy else 0
        self.q = q = k + 2 * c
        self.r = r = c + m
        self.stride = stride
        self.ref_slots = ref_slots
        fresh = [ch.fresh for ch in channels]
        a = dyn.tick_map.copy()
        a[:, fresh] = 0.0
        inputs = np.hstack([dyn.tick_noise[:, :k], dyn.tick_map[:, fresh]])
        self.tick = np.hstack([a, inputs])

        h = np.zeros(stride)
        h[: min(stride, len(taps))] = taps[:stride]
        cols = dim + stride * q
        coef = np.eye(dim, cols)  # z after i ticks as a map of x
        samples = np.zeros((stride, c, cols))
        rows = np.zeros((stride, r, cols))
        sample_rows = [ch.row for ch in channels]
        for i in range(stride):
            w = dim + i * q
            samples[i] = coef[sample_rows]
            samples[i, range(c), range(w + k + c, w + q)] += 1.0
            for ci, ch in enumerate(channels):
                if noisy and ch.noise is not None:
                    samples[i, ci, w + ch.noise] += 1.0
            u = np.tensordot(h[i::-1], samples[: i + 1], axes=1)
            u[range(c), range(w + k, w + k + c)] += 1.0
            coef = a @ coef + inputs @ np.vstack([np.eye(k, cols, w), u])
            rows[i, :c] = u
            rows[i, c:] = dyn.velocity_rows @ coef
        full = np.vstack([
            rows.reshape(stride * r, cols),
            coef,
            samples.transpose(1, 0, 2).reshape(c * stride, cols),
        ])
        # the lookback enters each command as its known part does
        kappa = (dim + k + np.arange(c)[:, None] + q * np.arange(stride)).ravel()
        self.head = head = dim + c * stride
        self.full = np.hstack([full[:, :dim], full[:, kappa], full[:, dim:]])
        self.next = self.full[stride * r :]
        self.carry = self.next[:, :head].copy()
        self.carry[:, ref_slots] = 0.0
        self.past = past_taps(taps, stride)
        self.span = len(self.past)

    def chunk(self, z, ref, x, hist):
        """Consecutive full blocks from ``z``, one row of ``x`` each.

        Row ``b`` of ``ref`` holds block ``b``'s reference slots, and row
        ``b`` of ``x`` its known inputs after the lookback columns. Each
        channel's row of ``hist`` starts with the ``span`` samples before
        the chunk and takes the chunk's samples after them. ``x`` gets
        each block's ``z`` (with its reference slots) and lookback.
        Returns every tick's ``[commands, velocities]`` and ``z`` after the
        last block.
        """
        dim, head, c, s, span = self.dim, self.head, self.c, self.stride, self.span
        u = (ref @ self.next[:, self.ref_slots].T
             + x[:, head:] @ self.next[:, head:].T)
        for b, u_b in enumerate(u):
            x[b, :dim] = z
            if not c:
                z = self.carry @ z + u_b
                continue
            x[b, dim:head] = (hist[:, b * s : b * s + span] @ self.past).ravel()
            out = self.carry @ x[b, :head] + u_b
            hist[:, span + b * s : span + (b + 1) * s] = out[dim:].reshape(c, s)
            z = out[:dim]
        x[:, self.ref_slots] = ref
        rows = x @ self.full[: s * self.r].T
        return rows.reshape(len(x), s, self.r), z

    def step(self, z, ref, x, hist):
        """One block of ``j`` ticks, fewer than a stride or the run's last
        tick, with ``ref``, ``x`` and ``hist`` laid out as for ``chunk``
        (one row of ``x``, ``j`` samples after the ``span`` in ``hist``).
        Returns the block's rows as ``chunk`` does and ``z`` at its end."""
        dim, head, c, k, q, s = self.dim, self.head, self.c, self.k, self.q, self.stride
        span = self.span
        j = hist.shape[1] - span
        xb = x[0]
        xb[:dim] = z
        xb[self.ref_slots] = ref[0]
        xb[dim:head].reshape(c, s)[:, :j] = hist[:, :span] @ self.past[:, :j]
        cols = head + j * q
        rows = (self.full[: j * self.r, :cols] @ xb[:cols]).reshape(j, self.r)
        if c:
            samples = self.next[dim:, :cols] @ xb[:cols]
            hist[:, span:] = samples.reshape(c, s)[:, :j]
        z = xb[:dim]
        noise = xb[head:cols].reshape(j, q)[:, :k]
        for w, u in zip(noise, rows[:, :c]):
            z = self.tick @ np.concatenate([z, w, u])
        return rows[None], z


def _block_stride(out_every, dim, rows, cols):
    """Largest stride up to ``out_every`` whose maps fit JUMP_MAP_FLOATS:
    ``rows`` and ``cols`` per tick, over ``dim`` state rows and columns."""

    def floats(b):
        return (b * rows + dim) * (dim + b * cols)

    stride = max(min(out_every, JUMP_MAP_FLOATS // (dim * dim)), 1)
    while stride > 1 and floats(stride) > JUMP_MAP_FLOATS:
        stride -= 1
    return stride


def _event_tick(time, fs_ctrl):
    """Control tick of an event time or a run's end; the time must lie on
    the control grid, up to the roundoff of ``time * fs_ctrl`` (a few ulps
    of the tick count)."""
    k = round(time * fs_ctrl)
    if abs(time * fs_ctrl - k) > max(1e-9, 4 * np.finfo(float).eps * abs(k)):
        raise InvalidConfig(
            f"time {time} is not on the {fs_ctrl:g} Hz control grid"
        )
    return k


def _guard(speed, *arrays):
    """The divergence guard: raise ``NonFiniteState`` unless ``speed`` is
    within ``VELOCITY_LIMIT`` and every entry of ``arrays`` is finite."""
    if not (speed <= VELOCITY_LIMIT and all(np.isfinite(a).all() for a in arrays)):
        raise NonFiniteState("simulation diverged")


def run_scenario(config, scenario, fir=None):
    """Simulate one scenario and return the sampled trace.

    The plant advances at ``config.dt``; absorbers and noise update at the
    control rate ``config.fs_ctrl``; end commands slew linearly from the
    held to the fresh value over each control tick. The trace is sampled
    every ``scenario.out_every`` control ticks. Event times and the
    duration must lie on the control grid.

    The run advances in blocks that end at output samples, event ticks and
    the end of the run. Within a block the absorbers' commands are linear
    in the samples they measure, so precomputed maps give every tick's
    commands and velocities and the state at the block's end. Consecutive
    full blocks go through those maps in chunks of up to ``CHUNK_BLOCKS``;
    a block cut short by an event or the run's end takes the leading part
    of the same maps. Each chunk or short block draws its noise and
    samples its ramps in one call, and is checked whole before the
    absorbers record its samples: the divergence guard sees every
    vehicle's velocity at every tick.
    """
    m = config.n_vehicles
    variant = scenario.variant
    front_abs = variant in ("front", "two_sided")
    rear_abs = variant in ("rear", "two_sided")
    dyn = PlatoonDynamics(config, rear_commanded=rear_abs)
    n = dyn.n_states
    z = np.zeros(dyn.dim)
    z[:n] = build_platoon(config)
    x_first0 = z[0]
    x_last0 = z[3 * (m - 1)]

    if front_abs or rear_abs:
        if fir is None:
            fir = wave_fir(
                wave_tf_approx(config.coupling()), config.fs_ctrl, DEFAULT_FIR_SPAN
            )
        if abs(fir.fs - config.fs_ctrl) > 1e-9:
            raise InvalidConfig("absorber FIR rate must match fs_ctrl")
    refs = _ReferenceTracker(config, variant)
    channels = []
    if front_abs:
        channels.append(_Channel(
            make_front_absorber(fir), absorber_front_block, "front_ramp",
            dyn.front_fresh, 3, None, x_first0, z[3],
        ))
        # the command that drove the plant into the current sample; a
        # commanded end's instantaneous velocity is its controller output
        # under the held command, not under the one about to be applied
        z[dyn.front_held] = x_first0
    if rear_abs:
        channels.append(_Channel(
            make_rear_absorber(fir), absorber_rear_block, "rear_ramp",
            dyn.rear_fresh, 3 * (m - 2), m - 2, x_last0, z[3 * (m - 2)],
        ))
        z[dyn.rear_held] = x_last0

    rng = None
    sigma2 = 0.0
    if scenario.noise is not None and scenario.noise.variance > 0.0:
        sigma2 = scenario.noise.variance
        rng = np.random.default_rng(scenario.noise.seed)

    out_every = scenario.out_every
    c = len(channels)
    noise_cols = m - 1 if rng is not None else 0
    stride = _block_stride(out_every, dyn.dim, 2 * c + m, noise_cols + 3 * c)
    # the reference slots each block sets
    ref_slots = [] if front_abs else [dyn.ramp, dyn.ramp_slope]
    if not rear_abs:
        ref_slots.append(dyn.spacing)
    blocks = _BlockMaps(
        dyn, stride, channels, rng is not None,
        fir.taps if channels else np.zeros(1), ref_slots,
    )
    command0 = np.array([ch.command0 for ch in channels])
    sample0 = np.array([ch.sample0 for ch in channels])

    ctrl_dt = 1.0 / config.fs_ctrl
    n_ctrl = _event_tick(scenario.duration, config.fs_ctrl)
    n_out = n_ctrl // out_every + 1
    t_out = np.empty(n_out)
    x_out = np.empty((n_out, m))
    v_out = np.empty((n_out, m))
    c_out = np.full((n_out, 2), np.nan)
    row = 0

    events = list(scenario.events)
    event_ticks = [_event_tick(e.time, config.fs_ctrl) for e in events]
    next_event = 0
    k = 0
    while True:
        while next_event < len(events) and event_ticks[next_event] <= k:
            refs.apply(events[next_event], k * ctrl_dt)
            next_event += 1

        limit = n_ctrl
        if next_event < len(events):
            limit = min(limit, event_ticks[next_event])
        next_out = (k // out_every + 1) * out_every
        j = min(limit, k + stride, next_out) - k
        nb = 1
        if j == stride:
            # full blocks follow one another up to the limit while they
            # tile the output grid, else up to the next output sample
            tiled = out_every % stride == 0 and (next_out - k) % stride == 0
            last = limit if tiled else min(limit, next_out)
            nb = min((last - k) // stride, CHUNK_BLOCKS)
        # the last tick is a one-tick block that gives its commands only
        j = max(j, 1)
        starts = k + stride * np.arange(nb)
        t = starts * ctrl_dt
        ref = np.empty((nb, len(ref_slots)))
        if not front_abs:
            ref[:, 0] = x_first0 + refs.front_ramp.sample(t)
            ref[:, 1] = refs.front_ramp.slope
        if not rear_abs:
            ref[:, -1] = refs.d_target
        x = np.zeros((nb, blocks.head + stride * blocks.q))
        feed = x[:, blocks.head : blocks.head + j * blocks.q].reshape(nb, j, -1)
        if rng is not None:
            noise = inject_noise(rng, sigma2, (nb * j, noise_cols))
            feed[:, :, :noise_cols] = noise.reshape(nb, j, noise_cols)
        hist = np.empty((c, blocks.span + nb * j))
        if channels:
            times = (t[:, None] + np.arange(j) / config.fs_ctrl).ravel()
            for i, ch in enumerate(channels):
                known, offset = ch.block(ch.state, getattr(refs, ch.ramp).sample(times))
                feed[:, :, noise_cols + i] = (known + command0[i]).reshape(nb, j)
                feed[:, :, noise_cols + c + i] = (offset - sample0[i]).reshape(nb, j)
                hist[i, : blocks.span] = absorber_past(ch.state)
        # a diverging chunk may overflow; the guard reports it
        with np.errstate(over="ignore", invalid="ignore"):
            advance = blocks.chunk if j == stride else blocks.step
            rows, end = advance(z, ref, x, hist)
        samples = hist[:, blocks.span :]
        if k < n_ctrl:
            speeds = rows[:, :, c:]
            _guard(np.abs(speeds, out=speeds).max(), x, rows[:, :, :c], samples, end)

        sampled = starts % out_every == 0
        states = x[sampled, : dyn.dim]
        rows_out = slice(row, row + len(states))
        t_out[rows_out] = t[sampled]
        x_out[rows_out] = states[:, 0:n:3]
        v_out[rows_out] = states @ dyn.velocity_rows.T
        c_out[rows_out, 0] = rows[sampled, 0, 0] if front_abs else states[:, dyn.ramp]
        if rear_abs:
            c_out[rows_out, 1] = rows[sampled, 0, c - 1]
        row += len(states)
        if k == n_ctrl:
            break
        for ch, y in zip(channels, samples):
            absorber_commit(ch.state, y)
        z = end
        k += nb * j

    return SimulationTrace(
        t=t_out[:row],
        positions=x_out[:row],
        velocities=v_out[:row],
        commands=c_out[:row],
        variant=variant,
    )


def chain_state_space(kp, ki, xi, n_vehicles):
    """State-space model of the chain driven by the head position.

    The follower block of the spacing-regulated plant: the head position is
    the input (not a dynamic vehicle), the followers are bidirectionally
    coupled except the tail, which regulates spacing to its predecessor,
    and the output is the tail position. Deviation coordinates: all spacing
    references drop out.
    """
    if n_vehicles < 2:
        raise InvalidConfig("need at least one follower")
    a = _chain_matrix(n_vehicles, kp, ki, xi, rear_commanded=False)[0]
    c = np.zeros((1, a.shape[0] - 3))
    c[0, -3] = 1.0
    return StateSpace(a[3:, 3:], a[3:, :1], c, 0.0)


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
