"""Fixed-step time-domain simulation of a bidirectionally coupled vehicle
platoon with selectable end-vehicle strategies.

A run advances the plant's control ticks (``plant.PlatoonDynamics``) in
blocks. A full block starts on an output sample and spans a whole number
of output intervals, or a whole fraction of one when an interval's maps
would be too large: its length, the run's stride, is the one with the
least estimated cost per tick (``_block_stride``). Full blocks stop short
of reference events and the end of the run, and an event off the output
grid moves them to the next output sample; the ticks between run as
one-tick blocks. The absorbers are linear in the samples they measure, so
the FIR feedback within a block is a unit lower-triangular linear system,
solved once per run into precomputed maps. A block is time-invariant, so
the solve runs over the block's start state and its first tick's inputs
alone, and each later tick's inputs take that response shifted. The maps
give the commands, velocities and positions the trace reads, the block's
samples and the state at its end, and every tick's commands and
velocities on demand; the FIR over the samples before a block enters as a
known term. The simulator owns the ramps, the tick clock and each
absorber's samples, in a rolling array that ``boundary``'s stateless
equations read. Each end's ramp is held only as its slope changes, a sum
of hinges, so its echo has a closed form in them
(``boundary.ramp_echo``); a run without events forms none. The reference
slots of the augmented state are set at the start of a run and at each
event, and the tick map carries them between events. Every run advances
its consecutive blocks a chunk at a time, full blocks and one-tick blocks
alike, on the maps of their stride. What the state does not touch is
worked out once per chunk: the noise, and each absorber's ramp and the
echo of it. Only the end-state recursion and, with absorbers, each
block's samples and the FIR over the samples before it run block by
block, written in place into the chunk's arrays. One product over the
chunk then gives the rows the trace reads.
Velocities are one linear readout of the augmented state, shared by the
trace and the check of every tick against ``VELOCITY_LIMIT``: the largest
weights each velocity has over a block's ticks bound every tick at once,
and a chunk that the bound does not clear forms every tick's velocities
exactly.
"""

import ctypes
import os
import threading
from contextlib import ContextDecorator
from itertools import takewhile
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from dataclasses import dataclass

# the per-tick steps are looked up here by tracers that time them
from .boundary import absorber_front_step, absorber_rear_step  # noqa: F401
from .boundary import (
    VARIANTS,
    echo_taps,
    kappa_front,
    kappa_rear,
    past_taps,
    ramp_echo,
    ramp_response,
    ramp_slopes,
)
from .errors import InvalidConfig, NonFiniteState
from .plant import PlatoonDynamics, build_platoon
# looked up here by tracers that time it
from .plant import chain_state_space  # noqa: F401
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
        if not isinstance(self.n_vehicles, Integral) or self.n_vehicles < 2:
            raise InvalidConfig("a platoon needs a whole number, >= 2, of vehicles")
        values = (self.kp, self.ki, self.xi, self.d_ref0, self.dt, self.fs_ctrl)
        if not np.isfinite(values).all():
            raise InvalidConfig("gains, d_ref0, dt and fs_ctrl must be finite")
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
        if not np.isfinite([self.time, self.value]).all():
            raise InvalidConfig("event time and value must be finite")


@dataclass(frozen=True)
class NoiseSpec:
    variance: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.variance) and self.variance >= 0.0):
            raise InvalidConfig(
                f"noise variance must be finite and >= 0, got {self.variance}"
            )
        if not isinstance(self.seed, Integral) or self.seed < 0:
            raise InvalidConfig(
                f"noise seed must be a whole number >= 0, got {self.seed}"
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
        if not (np.isfinite(self.duration) and self.duration > 0):
            raise InvalidConfig("duration must be finite and positive")
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}")
        if not isinstance(self.out_every, Integral) or self.out_every < 1:
            raise InvalidConfig("out_every must be a whole number >= 1")
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


def inject_noise(rng, variance, count):
    """Independent distance-error draws in an array of shape ``count`` (one
    follower count, or ticks by followers)."""
    if variance == 0.0:
        return np.zeros(count)
    # the draws of ``rng.normal(0.0, sqrt(variance), count)``, scaled in place
    draws = rng.standard_normal(count)
    draws *= np.sqrt(variance)
    return draws


class _ReferenceTracker:
    """Turns reference-change events into end-vehicle ramps.

    Slopes are computed from deviations relative to the initial equilibrium
    (at rest, spacing d_ref0), the regime every scenario here starts from.
    Each end's ramp starts at zero with slope ``slope[end]``, and
    ``bends[end]`` lists its slope changes as ``(tick, change)``: the ramp
    is their sum of hinges (``sent``), from which an absorber's echo of it
    has a closed form.
    """

    def __init__(self, config, variant):
        self.config = config
        self.variant = variant
        self.v_target = 0.0
        self.d_target = config.d_ref0
        self.slope = {"front": 0.0, "rear": 0.0}
        self.bends = {"front": [], "rear": []}

    def sent(self, end, ticks):
        """The ramp of ``end`` at ``ticks`` (a number or an array):
        ``dt * sum change * max(0, ticks - tick)`` over its bends."""
        return (1.0 / self.config.fs_ctrl) * sum(
            change * np.maximum(0, ticks - tick) for tick, change in self.bends[end])

    def apply(self, event, tick):
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
        for end, slope in (("front", front_slope), ("rear", wr)):
            if slope != self.slope[end]:
                self.bends[end].append((tick, slope - self.slope[end]))
                self.slope[end] = slope


# the arrays a run's block maps keep grow with the stride (their rows over
# every input of a stride); ``_block_stride`` keeps them under this many
# floats (32 MB) unless one tick alone needs more
JUMP_MAP_FLOATS = 1 << 22
# a run advances up to this many consecutive full blocks per chunk
CHUNK_BLOCKS = 128


class _Channel(NamedTuple):
    """One absorber end as the block stepper sees it.

    ``end`` is ``"front"`` or ``"rear"``: the absorber sends that end's
    ``_ReferenceTracker`` ramp (``sent``), and ``echo`` is its echo taps'
    ramp response (``boundary.ramp_response``), which turns the ramp's
    bends into its echo. The command written to ``z[fresh]`` is
    ``command0`` plus the absorber's output; the absorber measures
    ``z[row] - sample0`` plus, when ``noise`` is a column index, that
    tick's noise draw.
    """

    end: str
    echo: object
    fresh: int
    row: int
    noise: object
    command0: float
    sample0: float


class _BlockMaps:
    """Advance the augmented state ``z`` by blocks of ``stride`` control
    ticks, solving the absorbers' FIR feedback inside each block.

    With ``A`` the tick map with the fresh command columns zeroed and ``G``
    those columns, one tick is ``z' = A z + G u + N w``. Each channel's
    commands over a block are ``u = kappa + lookback + T y``: ``kappa`` is
    known before the block, ``lookback`` is the FIR over the samples taken
    before it, ``y`` are the block's samples (the measured state entry plus
    a known ``offset``) and ``T`` is the lower-triangular Toeplitz matrix
    of the FIR ``taps``. So every tick's commands and the velocities after
    it, the block's samples and its end state are linear in
    ``x = [z0, lookback, (w_0, kappa_0, offset_0), (w_1, kappa_1, offset_1), ...]``,
    where ``lookback`` holds each channel's ``stride`` values in turn.
    The block is time-invariant: an input at tick ``w`` moves everything
    after it as the same input at tick 0 does, ``w`` ticks later. So the
    build works out the response to ``z0`` and tick 0's inputs alone, and
    every later tick's columns are that response shifted.

    The build takes no Python step per tick beyond one small product: the
    open loop's Markov rows ``obs A^t`` (each channel's sample, each
    vehicle's velocity) and columns ``A^t [N, G]`` come by recursion, and
    the positions at the interior samples hop ``A^every`` at a time. The
    feedback is block lower-triangular Toeplitz over the ticks, so its
    inverse is too: its first block column doubles in a few products, and
    one batched product applies it. The commands' share of every row then
    comes from the Markov parameters in one more, and index arithmetic
    lays the rows out over ``x``. Only the maps below outlive the build.

    ``full`` holds the maps a chunk multiplies, rows over ``x``: first
    the rows the trace reads (the commands at the output samples, every
    ``every`` ticks from the block's start; the velocities after the tick
    before each interior sample; the positions at the interior samples),
    then the end state and each channel's samples (``next``). Every
    tick's commands and velocities stay in their tick-0 form,
    ``response``, from which ``_every_tick`` forms them when the guard
    needs them exactly. ``peak`` holds, entry by entry, the largest
    magnitude a command or velocity row reaches over the block's ticks.

    ``chunk`` is the only way blocks advance: many of them at once, with
    the same maps. A run's full blocks take the maps of its stride, and
    the ticks a block cut short leaves take one-tick maps (stride 1). The
    inputs known before the chunk enter through one product; the
    reference slots ride in ``z``, and the maps carry them like any other
    state. Only the recursion through ``carry``, the map of ``[z,
    lookback]`` to ``[end state, samples]``, and the lookback of each
    block run block by block.
    """

    def __init__(self, dyn, stride, every, channels, noisy, taps):
        self.dim = dim = dyn.dim
        self.m = m = dyn.config.n_vehicles
        self.c = c = len(channels)
        self.k = k = m - 1 if noisy else 0
        self.q = q = k + 2 * c
        self.r = r = c + m
        self.stride = s = stride
        d = dim + q
        picks = (np.arange(0, s, every), np.arange(every - 1, s - 1, every))
        fresh = [ch.fresh for ch in channels]
        a = dyn.tick_map.copy()
        a[:, fresh] = 0.0

        # the open loop, one small product a tick: the Markov rows after
        # each tick, in the response's slots over z0, and the columns
        eye = np.eye(dim)
        obs = np.vstack([eye[[ch.row for ch in channels]], dyn.velocity_rows])
        rows = np.empty((s, r, d))
        grid = rows[:, :, :dim]
        np.matmul(obs, a, out=grid[0])
        for t in range(1, s):
            np.matmul(grid[t - 1], a, out=grid[t])
        impulse = np.empty((s, dim, k + c))
        impulse[0] = np.hstack([dyn.tick_noise[:, :k], dyn.tick_map[:, fresh]])
        for t in range(1, s if k + c else 0):
            np.matmul(a, impulse[t - 1], out=impulse[t])
        positions = np.empty((len(picks[1]), m, dim))
        position = eye[0 : dyn.n_states : 3]
        # ``A^every`` (interior samples exist only when every < s)
        hop = np.linalg.matrix_power(a, min(every, s))
        for i in range(len(positions)):
            position = positions[i] = position @ hop
        end = np.linalg.matrix_power(a, s)
        # the state after each tick over tick 0's inputs
        moved = np.zeros((s, dim, q))
        moved[:, :, :k] = impulse[:, :, :k]
        # tick 0's own share of each sample: its offset (and the tail's
        # noise draw)
        direct = np.zeros((c, q))
        direct[range(c), range(k + c, q)] = 1.0
        for i, ch in enumerate(channels):
            if noisy and ch.noise is not None:
                direct[i, ch.noise] = 1.0

        def sampled():
            # each channel's sample at each tick over z0 and tick 0's inputs
            out = np.empty((s, c, d))
            out[0, :, :dim] = obs[:c]
            out[1:, :, :dim] = grid[: s - 1, :c]
            out[0, :, dim:] = direct
            np.matmul(obs[:c], moved[: s - 1], out=out[1:, :, dim:])
            return out

        u = np.zeros((s, c, d))
        if c:
            # the commands. With ``free`` the samples without them, ``H``
            # the FIR's block-Toeplitz map and ``L`` the FIR of the samples'
            # response to the commands before them,
            # ``(I - L) u = H free + kappa``. The inverse of ``I - L`` is
            # block Toeplitz too. Its first block column ``inverse``
            # doubles: the next ``n`` blocks are the first ``n`` applied to
            # what ``L`` carries from those ``n`` into the next ``n``
            def flat(lagged):
                return lagged.transpose(0, 2, 1, 3).reshape(
                    len(lagged) * lagged.shape[2], -1)

            fir = _lagged(taps[:s, None, None], s)[:, :, 0, 0]
            gain = np.matmul(obs, impulse[:, :, k:])
            feedback = np.zeros((2 * s, c, c))
            feedback[1:s] = (fir[:-1, :-1] @ gain[:-1, :c].reshape(s - 1, c * c)).reshape(
                s - 1, c, c)
            inverse = np.eye(c)[None]
            while len(inverse) < s:
                n = len(inverse)
                ahead = feedback[n + np.subtract.outer(np.arange(n), np.arange(n))]
                fed = flat(ahead) @ inverse.reshape(n * c, c)
                inverse = np.concatenate(
                    [inverse, (flat(_lagged(inverse, n)) @ fed).reshape(n, c, c)])
            inverse = inverse[:s]
            drive = (fir @ inverse.reshape(s, c * c)).reshape(s, c, c)
            np.matmul(flat(_lagged(drive, s)).reshape(s, c, s * c),
                      sampled().reshape(s * c, d), out=u)
            u[:, :, dim + k : dim + k + c] += inverse
            # the commands' share of every Markov row and of the state:
            # ``recent[t]`` holds the commands up to tick t, newest first
            recent = _lagged(u, s).reshape(s, s * c, d)
            grid += np.matmul(gain.transpose(1, 0, 2).reshape(r, s * c), recent[:, :, :dim])
            steer = impulse[:, :, k:].transpose(1, 0, 2).reshape(dim, s * c)
            moved += np.matmul(steer, recent[:, :, dim:])
            end += steer @ recent[-1, :, :dim]
            positions += np.matmul(steer[0 : dyn.n_states : 3], recent[picks[1], :, :dim])
        samples = sampled()
        rows[:, :c] = u
        np.matmul(obs[c:], moved, out=rows[:, c:, dim:])

        self.head = head = dim + c * s
        width = head + s * q

        def spread(out, now, lagged, picks):
            # ``out[i]`` gets the rows over ``x`` of the responses at tick
            # ``picks[i]``: ``now[i]`` over z0, and over tick w's inputs
            # ``lagged[picks[i] - w]`` (none before w), the lookback as the
            # known part of the command
            if not out.size:
                return
            count, size = now.shape[:2]
            lags = np.concatenate([lagged, np.zeros((s,) + lagged.shape[1:])])
            lags = lags.transpose(1, 0, 2)[:, np.subtract.outer(picks, np.arange(s))]
            out[:, :, :dim] = now
            out[:, :, dim:head].reshape(count, size, c, s)[:] = (
                lags[..., k : k + c].transpose(1, 0, 3, 2))
            out[:, :, head:].reshape(count, size, s, q)[:] = lags.transpose(1, 0, 2, 3)

        self.outputs = g, v = (len(picks[0]), len(picks[1]))
        self.traced = g * c + 2 * v * m
        self.full = np.empty((self.traced + dim + c * s, width))
        spread(self.full[: g * c].reshape(g, c, width),
               u[picks[0], :, :dim], u[:, :, dim:], picks[0])
        spread(self.full[g * c : g * c + v * m].reshape(v, m, width),
               rows[picks[1], c:, :dim], rows[:, c:, dim:], picks[1])
        spread(self.full[g * c + v * m : self.traced].reshape(v, m, width),
               positions, moved[:, 0 : dyn.n_states : 3], picks[1])
        spread(self.full[None, self.traced : self.traced + dim], end[None], moved, [s - 1])
        spread(self.full[self.traced + dim :].reshape(c, s, width).transpose(1, 0, 2),
               samples[:, :, :dim], samples[:, :, dim:], np.arange(s))
        self.next = self.full[self.traced :]
        self.carry = self.next[:, :head].copy()
        self.past = past_taps(taps, s)
        self.span = len(self.past)
        self.response = rows
        self.peak = np.empty((r, width))
        spread(self.peak[None], np.maximum(grid.max(axis=0), -grid.min(axis=0))[None],
               np.maximum.accumulate(np.abs(rows[:, :, dim:]), axis=0), [s - 1])
        # the rounding of a product over ``width`` terms, and of its bound
        self.slack = 2.0 * width * np.finfo(float).eps

    def _split(self, out):
        # the traced rows of each block: commands, velocities, positions
        g, v = self.outputs
        c, m, nb = self.c, self.m, len(out)
        return (out[:, : g * c].reshape(nb, g, c),
                out[:, g * c : g * c + v * m].reshape(nb, v, m),
                out[:, g * c + v * m : self.traced].reshape(nb, v, m))

    def _every_tick(self, x):
        """Every tick's ``[commands, velocities]`` in each block of ``x``,
        from the tick-0 ``response``: tick ``i`` takes ``response[i]`` of
        z0 and ``response[i - w]`` of tick ``w``'s inputs, each channel's
        lookback entering as its known part.
        """
        dim, head, c, k, q, s = self.dim, self.head, self.c, self.k, self.q, self.stride
        nb = len(x)
        drive = x[:, head:].reshape(nb, s, q).copy()
        drive[:, :, k : k + c] += x[:, dim:head].reshape(nb, c, s).transpose(0, 2, 1)
        out = (self.response[:, :, :dim].reshape(s * self.r, dim) @ x[:, :dim].T
               ).reshape(s, self.r, nb).transpose(2, 0, 1)
        # a run with neither noise nor absorbers has no inputs to lag
        for lag in range(s if q else 0):
            out[:, lag:] += drive[:, : s - lag] @ self.response[lag, :, dim:].T
        return out

    def chunk(self, z, x, hist):
        """Consecutive blocks from ``z``, one row of ``x`` each.

        Row ``b`` of ``x`` holds block ``b``'s known inputs after the
        lookback columns. Each channel's row of ``hist`` starts with the
        ``span`` samples before the chunk and takes the chunk's samples
        after them. ``x`` gets each block's ``z`` and lookback.
        Returns each block's commands at its output samples, velocities
        after the tick before each interior sample and positions at them,
        ``z`` after the last block, and a bound on every tick's |velocity|
        that is NaN when a command may not be finite.

        The per-block loop makes no temporaries beyond its carry product:
        the lookback goes straight into the block's row of ``x``. The
        readout multiplies only the traced rows. ``|x| @ peak.T`` bounds
        every tick's commands and velocities; when it does not prove them
        finite and within ``VELOCITY_LIMIT``, every tick's rows are formed
        and their exact peak returned.
        """
        dim, head, c, s, span = self.dim, self.head, self.c, self.stride, self.span
        u = x[:, head:] @ self.next[:, head:].T
        for b, u_b in enumerate(u):
            x[b, :dim] = z
            if c:
                np.matmul(hist[:, b * s : b * s + span], self.past,
                          out=x[b, dim:head].reshape(c, s))
            out = self.carry @ x[b, :head]
            out += u_b
            if c:
                hist[:, span + b * s : span + (b + 1) * s] = out[dim:].reshape(c, s)
            z = out[:dim]
        traced = self._split(x @ self.full[: self.traced].T)
        bound = np.abs(x) @ self.peak.T
        speed = bound[:, c:].max()
        if not (np.isfinite(bound).all()
                and speed * (1.0 + self.slack) <= VELOCITY_LIMIT):
            speed = _peak(self._every_tick(x), c)
        return (*traced, z, speed)


def _lagged(blocks, n):
    """``out[i, j] = blocks[i - j]`` for ``i, j < n``: zero where ``j > i``
    or past the blocks given."""
    pad = np.zeros((2 * n,) + blocks.shape[1:])
    pad[: min(n, len(blocks))] = blocks[:n]
    return pad[np.subtract.outer(np.arange(n), np.arange(n))]


def _peak(rows, c):
    """The largest |velocity| in per-tick ``rows`` of ``[commands,
    velocities]``, or NaN when a command is not finite."""
    speed = np.abs(rows[..., c:]).max()
    return speed if np.isfinite(rows[..., :c]).all() else np.nan


def _block_stride(out_every, n_ctrl, dim, m, c, k, span):
    """Ticks per block, from the run's shape: ``n_ctrl`` ticks, ``dim``
    state slots, ``m`` vehicles, ``c`` absorber channels, ``k`` noise
    columns and an FIR lookback of ``span`` samples.

    The stride minimizes an estimate of a tick's cost in picoseconds. A
    block's maps are ``rows`` (the rows the trace reads, then the end state
    and each tick's samples) by ``cols`` (the state, then per tick each
    channel's lookback and ``q = k + 2c`` inputs); beside them the run
    keeps each tick's response to tick 0 and the guard's weights, and the
    budget also counts ``A``'s powers of two and the input columns ``A^t
    [N, G]``, which only the build holds. A tick pays its
    share of a block step: a fixed ``step`` of Python (with absorbers,
    ``7 us`` more to form the lookback and keep the samples), the carry
    product, the lookback over ``span`` samples per channel and the
    block's readout (the rows the trace reads, the guard's bound, the end
    state and samples). It also pays its share of the map build, spread
    over the run: one product per tick of the stride for the open loop's
    rows and one more for its input columns, the floats the build writes
    (its maps and the lagged commands, moved by gathers) and its
    multiply-adds. Measured on a 2-core x86-64 host with OpenBLAS at its
    default threads, before runs stepped at one thread (``_OneBlasThread``):
    ``step`` 4 us, the carry 290 ps an entry, the lookback 100 ps and the
    readout 40 ps a multiply-add, and in the build 3 ns a float written and
    50 ps a multiply-add. The cost is convex in
    the stride but for the small step ``A``'s powers of two take at each
    power of two. The candidates tile the output grid: multiples of
    ``out_every`` whose maps hold at most JUMP_MAP_FLOATS floats or, when
    ``out_every`` alone overflows them, its divisors that fit (else one
    tick).
    """
    q = k + 2 * c
    step = 4_000_000

    def cols(s):
        return dim + s * (c + q)

    def rows(s):
        # the rows the trace reads, then the end state and samples
        return (len(range(0, s, out_every)) * c
                + 2 * len(range(out_every, s, out_every)) * m + dim + c * s)

    def held(s):
        # ``full`` and ``peak``, ``carry``, ``past``, ``response``, and
        # the build's powers of ``A`` and input columns
        return ((rows(s) + c + m) * cols(s) + (dim + c * s) ** 2 + span * s
                + s * (c + m) * (dim + q) + int(s).bit_length() * dim * dim
                + s * dim * (k + c))

    def fits(s):
        return held(s) <= JUMP_MAP_FLOATS

    def cost(s):
        block = (step + 7_000_000 * (c > 0) + 290 * (dim + c * s) ** 2
                 + 100 * c * span * s + 40 * (rows(s) + c + m) * cols(s))
        build = (step * s * (1 + (k + c > 0)) + 3000 * (held(s) + c * s * s * (dim + q))
                 + 50 * dim * s * ((2 * c + m + k) * dim + c * s * (c + m + q)))
        return block / s + build / n_ctrl

    if not fits(out_every):
        divisors = (s for s in range(1, out_every) if out_every % s == 0)
        return min(takewhile(fits, divisors), key=cost, default=1)
    stride = out_every
    while fits(stride + out_every) and cost(stride + out_every) < cost(stride):
        stride += out_every
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


# the OpenBLAS that numpy and scipy each bundle: the package, the library
# beside it and the suffix of its symbols
_BLAS_LIBS = (
    (np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
    (scipy, "scipy.libs/libscipy_openblas-*.so", ""),
)
# why a bundled OpenBLAS was left at the caller's thread count, set on the
# first run; empty when each was found
BLAS_LEFT_ALONE = ""


def _find_blas():
    """The ``(get, set)`` thread-count calls of each bundled OpenBLAS that
    the process has loaded; each one missing adds its reason to
    ``BLAS_LEFT_ALONE``."""
    global BLAS_LEFT_ALONE
    calls, reasons = [], []
    for package, pattern, suffix in _BLAS_LIBS:
        found = sorted(Path(package.__file__).parents[1].glob(pattern))
        if not found:
            reasons.append(f"{package.__name__}: no {pattern}")
            continue
        try:
            # RTLD_NOLOAD: the library the package loaded, never a new copy
            lib = ctypes.CDLL(str(found[0]), mode=os.RTLD_NOLOAD)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (OSError, AttributeError) as err:
            reasons.append(f"{package.__name__}: {err}")
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        calls.append((get, put))
    BLAS_LEFT_ALONE = "; ".join(reasons)
    return calls


class _OneBlasThread(ContextDecorator):
    """Run the body at one OpenBLAS thread in each library ``_find_blas``
    finds on the first entry, and restore the caller's counts on the way
    out, on error too; a library it does not find is left alone, and
    ``BLAS_LEFT_ALONE`` says why. A threaded product's sums depend on the
    thread count, and on a 2-core host the threads made runs erratic and
    the sweep about a third slower. The count is process-wide, so entries
    are counted under a lock: the first of nested or concurrent runs saves
    the counts and sets 1, and the last to leave restores them.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.calls = None
        self.saved = []

    def __enter__(self):
        with self.lock:
            if not self.depth:
                if self.calls is None:
                    self.calls = _find_blas()
                self.saved = [(put, get()) for get, put in self.calls]
                for put, _ in self.saved:
                    put(1)
            self.depth += 1

    def __exit__(self, *exc):
        with self.lock:
            self.depth -= 1
            if not self.depth:
                for put, count in self.saved:
                    put(count)


_one_blas_thread = _OneBlasThread()


@_one_blas_thread
def run_scenario(config, scenario, fir=None):
    """Simulate one scenario and return the sampled trace.

    The plant advances at ``config.dt``; absorbers and noise update at the
    control rate ``config.fs_ctrl``; end commands slew linearly from the
    held to the fresh value over each control tick. The trace is sampled
    every ``scenario.out_every`` control ticks. Event times and the
    duration must lie on the control grid.

    The run advances in blocks of ``_block_stride`` ticks, sized from the
    run's shape; a stride above ``out_every`` is a multiple of it, so a
    block from an output sample holds several, and one below it divides
    it, so full blocks tile each output interval. Within a block the
    absorbers' commands are linear in the samples they measure, so
    precomputed maps give the commands, velocities and positions the trace
    reads and the state at the block's end. Consecutive full blocks go
    through those maps in chunks of up to ``CHUNK_BLOCKS``. A block cut
    short by an event or the run's end, and after an event off the output
    grid the block up to the next output sample, runs as one chunk of
    one-tick blocks, on maps of stride 1 built when the first such block
    occurs; so does the run's last tick, which gives its commands only.
    The state's reference slots are set at the start and at each event,
    and the maps carry them in between. Each chunk draws its noise,
    samples the absorbers' ramps and forms their echo in one call, and is
    checked whole before its samples join the absorber histories: the
    divergence guard sees every vehicle's velocity at every tick, through
    a bound over the chunk's ticks or, when that does not clear it, each
    tick's exact value.

    The whole run, the FIR build included, steps at one OpenBLAS thread
    (``_OneBlasThread``), so a rerun gives the same bits whatever thread
    count the caller or ``OPENBLAS_NUM_THREADS`` set.
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
            "front", ramp_response(echo_taps(fir, "front")), dyn.front_fresh, 3, None,
            x_first0, z[3],
        ))
        # the command that drove the plant into the current sample; a
        # commanded end's instantaneous velocity is its controller output
        # under the held command, not under the one about to be applied
        z[dyn.front_held] = x_first0
    if rear_abs:
        channels.append(_Channel(
            "rear", ramp_response(echo_taps(fir, "rear")), dyn.rear_fresh, 3 * (m - 2),
            m - 2, x_last0, z[3 * (m - 2)],
        ))
        z[dyn.rear_held] = x_last0

    rng = None
    sigma2 = 0.0
    if scenario.noise is not None and scenario.noise.variance > 0.0:
        sigma2 = scenario.noise.variance
        rng = np.random.default_rng(scenario.noise.seed)

    ctrl_dt = 1.0 / config.fs_ctrl
    n_ctrl = _event_tick(scenario.duration, config.fs_ctrl)
    out_every = scenario.out_every
    c = len(channels)
    noisy = rng is not None
    noise_cols = m - 1 if noisy else 0
    taps = fir.taps if channels else np.zeros(1)
    stride = _block_stride(
        out_every, n_ctrl, dyn.dim, m, c, noise_cols, len(taps) - 1
    )
    blocks = _BlockMaps(dyn, stride, out_every, channels, noisy, taps)
    # the maps of the blocks cut short, built when the first one occurs
    one_tick = blocks if stride == 1 else None
    command0 = np.array([ch.command0 for ch in channels])
    sample0 = np.array([ch.sample0 for ch in channels])
    # each channel's samples: the ``span`` before a chunk, then the
    # chunk's; the newest ``span`` move to the front after it
    span = blocks.span
    samples = np.zeros((c, span + CHUNK_BLOCKS * stride))

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
        reset = k == 0
        while next_event < len(events) and event_ticks[next_event] <= k:
            refs.apply(events[next_event], k)
            next_event += 1
            reset = True
        if reset:
            # the reference slots, which the tick map carries to the next
            # event
            if not front_abs:
                z[dyn.ramp] = x_first0 + refs.sent("front", k)
                z[dyn.ramp_slope] = refs.slope["front"]
            if not rear_abs:
                z[dyn.spacing] = refs.d_target

        limit = n_ctrl
        if next_event < len(events):
            limit = min(limit, event_ticks[next_event])
        # a block from an output sample runs a stride, one from off the
        # output grid up to the next sample
        gap = -k % out_every
        j = min(limit - k, stride, gap or stride)
        if j == stride:
            # full blocks follow one another up to the limit while they
            # keep to the output grid, else up to the next output sample
            tiled = (stride % out_every == 0
                     or out_every % stride == gap % stride == 0)
            last = limit if tiled else min(limit, k + (gap or out_every))
            maps, nb = blocks, min((last - k) // stride, CHUNK_BLOCKS)
        else:
            # a block cut short runs as one-tick blocks; the last tick is
            # one that gives its commands only
            if one_tick is None:
                one_tick = _BlockMaps(dyn, 1, out_every, channels, noisy, taps)
            maps, nb = one_tick, max(j, 1)
        s = maps.stride
        starts = k + s * np.arange(nb)
        x = np.zeros((nb, maps.head + s * maps.q))
        feed = x[:, maps.head :].reshape(nb, s, -1)
        if noisy:
            feed[:, :, :noise_cols] = inject_noise(rng, sigma2, (nb, s, noise_cols))
        size = span + nb * s
        if channels:
            block_ticks = starts[:, None] + np.arange(s)
            for i, ch in enumerate(channels):
                known = refs.sent(ch.end, block_ticks)
                offset = 0.0
                if refs.bends[ch.end]:
                    echo = ramp_echo(ch.echo, refs.bends[ch.end], block_ticks, ctrl_dt)
                    if ch.end == "front":
                        known -= echo
                    else:
                        offset = -echo
                feed[:, :, noise_cols + i] = known + command0[i]
                feed[:, :, noise_cols + c + i] = offset - sample0[i]
        # a diverging chunk may overflow; the guard reports it
        with np.errstate(over="ignore", invalid="ignore"):
            cmds, vels, inner, end, peak = maps.chunk(z, x, samples[:, :size])
        if k < n_ctrl:
            _guard(peak, x, samples[:, span:size], end)

        # a block that starts on the output grid holds a sample every
        # out_every ticks: its start state, then the positions the maps
        # give, the velocities after the tick before and the tick's
        # commands; a ramp-commanded head reads its ramp
        sampled = starts % out_every == 0
        states = x[sampled, : dyn.dim]
        ticks = starts[sampled, None] + np.arange(0, s, out_every)
        out = slice(row, row + ticks.size)
        t_out[out] = (ticks * ctrl_dt).ravel()
        pos = x_out[out].reshape(*ticks.shape, m)
        pos[:, 0] = states[:, 0:n:3]
        pos[:, 1:] = inner[sampled]
        vel = v_out[out].reshape(pos.shape)
        vel[:, 0] = states @ dyn.velocity_rows.T
        vel[:, 1:] = vels[sampled]
        cmd = c_out[out].reshape(*ticks.shape, 2)
        if front_abs:
            cmd[:, :, 0] = cmds[sampled, :, 0]
        else:
            c_out[out, 0] = x_first0 + refs.sent("front", ticks.ravel())
        if rear_abs:
            cmd[:, :, 1] = cmds[sampled, :, c - 1]
        row += ticks.size
        if k == n_ctrl:
            break
        samples[:, :span] = samples[:, size - span : size]
        z = end
        k += nb * s

    return SimulationTrace(
        t=t_out[:row],
        positions=x_out[:row],
        velocities=v_out[:row],
        commands=c_out[:row],
        variant=variant,
    )


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
