"""End-vehicle boundary behavior for platoon position waves.

Online wave absorbers, the end gains and ramp slopes that turn velocity
and spacing targets into end-vehicle ramp commands, and wave-model
transfer functions of whole chains.

An absorber is a linear filter of the neighbour samples it measures and
the ramp values it sends. It keeps only the FIR histories of both; the
caller owns the ramps and the clock and hands it the sent values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, InvalidConfig
from .lti import FrequencyResponse, _check_grid, eval_at, tf_add
from .wave import DEFAULT_ITERATIONS, WaveFIR, wave_tf_exact

SQUARED_FIR_TAIL_LIMIT = 0.01


def _origin_curvature(coupling):
    """The coefficient ``c`` of the coupling's series at the origin,
    ``alpha(s) = 2 + c s**2 + O(s**3)``; ``xi/ki`` for the friction plant
    with PI control.

    Then ``G = 1 - s sqrt(c) + O(s**2)``, so both end gains are closed
    forms in ``c``. A coupling whose series starts otherwise, or with
    ``c <= 0``, has no such gains and raises ``InvalidConfig``.
    """
    shifted = tf_add(coupling.tf, -2.0)
    n0, n1, n2 = np.append(shifted.num.coeffs, [0.0, 0.0])[:3]
    d0 = shifted.den.coeffs[0]
    if n0 != 0.0 or n1 != 0.0 or d0 == 0.0 or not n2 / d0 > 0.0:
        raise InvalidConfig(
            "coupling ratio is not 2 + c s^2 + O(s^3) with c > 0 at s = 0"
        )
    return float(n2 / d0)


def kappa_front(coupling):
    """Steady velocity produced at the head of the platoon per unit of
    reference-spacing change, for a wave-commanded leader:
    ``-1/sqrt(c)``, which is -sqrt(ki/xi) for the friction plant with PI
    control."""
    return -1.0 / math.sqrt(_origin_curvature(coupling))


def kappa_rear(coupling):
    """Steady spacing change per unit of sustained head velocity at a
    spacing-regulated tail, as the static gain of (1 - G)/s: ``sqrt(c)``,
    which is sqrt(xi/ki) for the friction plant with PI control."""
    return math.sqrt(_origin_curvature(coupling))


def ramp_slopes(v_ref, d_ref, kappa_front, kappa_rear):
    """Ramp slopes ``(w0, wr)`` for the two command ends.

    The head command ramps at w0 = (v_ref - kappa_front*d_ref)/2 and the
    tail command at wr = (v_ref - kappa_rear*d_ref)/2; v_ref and d_ref are
    deviations from the current equilibrium.
    """
    w0 = 0.5 * (v_ref - kappa_front * d_ref)
    wr = 0.5 * (v_ref - kappa_rear * d_ref)
    return w0, wr


@dataclass(frozen=True)
class Ramp:
    """Piecewise-linear command: offset + slope*(t - start), flat before start."""

    slope: float
    start: float = 0.0
    offset: float = 0.0

    def __call__(self, t):
        return self.offset + self.slope * max(0.0, t - self.start)

    def sample(self, times):
        """The ramp at each of an array of ``times``."""
        return self.offset + self.slope * np.maximum(0.0, times - self.start)

    def continued(self, slope, at):
        """New ramp with a different slope, continuous at time ``at``."""
        return Ramp(slope, at, self(at))


class FirBuffer:
    """Bounded history of the most recent samples for causal FIR products.

    Samples are appended oldest first. The buffer starts with ``size``
    zeros (missing history counts as zero) and, when it fills, moves its
    newest ``size - 1`` samples to the front, so any window over the newest
    samples is one contiguous slice and memory stays bounded.
    """

    def __init__(self, size):
        if size < 1:
            raise ValueError("buffer size must be >= 1")
        self.size = size
        self._buf = np.zeros(4 * size)
        self._end = size

    def extend(self, values):
        """Append samples, oldest first."""
        count = len(values)
        if self._end + count > len(self._buf):
            keep = self.size - 1
            newest = self._buf[self._end - keep : self._end].copy()
            if keep + count > len(self._buf):
                self._buf = np.zeros(2 * (keep + count))
            self._buf[:keep] = newest
            self._end = keep
        self._buf[self._end : self._end + count] = values
        self._end += count

    def window(self, count):
        """The newest ``size - 1 + count`` samples, oldest first: the FIR
        products at the last ``count`` samples are
        ``np.correlate(window, taps[::-1], "valid")``."""
        start = self._end - self.size + 1 - count
        if start < 0:
            raise ValueError("window reaches past the kept history")
        return self._buf[start : self._end]


def squared_fir(fir):
    """FIR of the squared wave transfer: self-convolved taps, truncated back
    to the original length. The discarded tail must carry less than
    SQUARED_FIR_TAIL_LIMIT of the total absolute mass."""
    full = np.convolve(fir.taps, fir.taps)
    keep = len(fir.taps)
    tail = np.abs(full[keep:]).sum()
    total = np.abs(full).sum()
    if total > 0 and tail / total >= SQUARED_FIR_TAIL_LIMIT:
        raise InvalidConfig(
            f"squared-FIR truncation would drop {tail / total:.1%} of its mass"
        )
    return WaveFIR(taps=full[:keep].copy(), fs=fir.fs, span=fir.span)


class AbsorberState:
    """Online state for one wave-absorbing end vehicle: its two bounded
    FIR histories.

    One history holds the samples the absorber measures, which the wave
    FIR filters into the incoming wave. The other holds the ramp values it
    sends out, which ``echo_taps`` filter into the echo of its own
    outgoing wave. The absorber keeps no clock and no ramp: whoever steps
    it hands over the values it sends at each tick. Positions are
    deviations from the starting pose.
    """

    def __init__(self, fir, echo_taps):
        self.fir = fir
        m = len(fir.taps)
        self._samples = FirBuffer(m)
        self._sent = FirBuffer(m)
        # reversed once, so the echo over many ticks is one correlation
        self._echo_rev = echo_taps[::-1].copy()


def make_front_absorber(fir):
    """Head absorber: its echo filter is the squared FIR with the current
    tap zeroed, so it sees its own wave only up to the previous sample."""
    echo = squared_fir(fir).taps
    return AbsorberState(fir, np.concatenate([[0.0], echo[1:]]))


def make_rear_absorber(fir):
    """Tail absorber: its echo filter is the wave FIR."""
    return AbsorberState(fir, fir.taps)


def _echo(state, sent):
    """Record the ramp values sent over some ticks; return their echo."""
    state._sent.extend(sent)
    return np.correlate(state._sent.window(len(sent)), state._echo_rev, "valid")


# Both absorbers are linear in the samples they measure. Over ticks in which
# the absorber sends the ramp values ``sent``, its commands are
# ``known + lookback + T @ y``, with ``y = measured + offset`` the samples
# of those ticks and ``T`` the lower-triangular Toeplitz matrix of the wave
# FIR. ``known`` and ``offset`` depend on ``sent`` alone, so ``*_block``
# gives them for any number of ticks at once, many blocks included.
# ``lookback`` is the wave FIR over the samples taken before a block:
# ``absorber_past(state) @ past_taps(taps, count)``. Only it and the
# block's own samples depend on the state, so they are what a stepper
# works out block by block; ``absorber_commit`` then records the samples.
# The per-tick steps are the one-tick case. With ``h`` the wave FIR, ``h2``
# the squared FIR, ``r`` the sent ramp values and missing history zero,
# tick ``k`` gives (sums over the taps)
#   head: u_k = r_k + sum_i h_i y_{k-i} - sum_{i>=1} h2_i r_{k-i}
#   tail: y_k = measured_k - sum_i h_i r_{k-i},
#         u_k = r_k + sum_i h_i y_{k-i}


def absorber_front_block(state, sent):
    """The head absorber's known commands and sample offsets over ticks
    that send ``sent``.

    The head sends the reference ramp as its outgoing wave; its command is
    the ramp plus the incoming wave (the filtered first-follower samples,
    which the lookback and ``T`` add) minus the echo of its own past ramp.
    """
    return sent - _echo(state, sent), np.zeros(len(sent))


def absorber_rear_block(state, sent):
    """The tail absorber's known commands and sample offsets over ticks
    that send ``sent``.

    The tail sends the reference ramp; its sample is the neighbour's
    position less the echo of that ramp, and its command is the ramp plus
    that sample propagated one vehicle down (the lookback and ``T``).
    """
    return sent.copy(), -_echo(state, sent)


def past_taps(taps, count):
    """Weights of the lookback at a block's first ``count`` ticks.

    Row ``j`` weighs the ``j``-th oldest of the ``len(taps) - 1`` samples
    before the block and column ``i`` is tick ``i``: the entry is the tap
    ``h_l`` of that sample's lag ``l`` from the tick, or zero where ``l``
    is past the FIR's span.
    """
    span = len(taps) - 1
    out = np.zeros((span, count))
    for i in range(min(count, span)):
        out[i:, i] = taps[span:i:-1]
    return out


def absorber_past(state):
    """The ``len(fir.taps) - 1`` newest samples, oldest first."""
    return state._samples.window(0)


def absorber_commit(state, samples):
    """Record a block's samples (measured plus offset)."""
    state._samples.extend(samples)


def _absorber_step(block, state, measured, sent):
    known, offset = block(state, np.array([sent], dtype=float))
    sample = measured + offset[0]
    lookback = absorber_past(state) @ past_taps(state.fir.taps, 1)[:, 0]
    command = known[0] + lookback + state.fir.taps[0] * sample
    absorber_commit(state, (sample,))
    return command


def absorber_front_step(state, x1_sample, sent):
    """One tick of the head absorber that sends the ramp value ``sent``;
    returns the commanded head position.

    The incoming wave is filtered off the first follower's position, the
    echo of the absorber's own past output wave is subtracted, and the
    command adds the ramp value back on top.
    """
    return _absorber_step(absorber_front_block, state, x1_sample, sent)


def absorber_rear_step(state, x_prev_sample, sent):
    """One tick of the tail absorber that sends the ramp value ``sent``;
    returns the commanded tail position.

    The neighbor's incoming wave is reconstructed by subtracting the
    filtered history of the tail's own outgoing wave (the ramp), then
    propagated one vehicle down and stacked on the ramp value.
    """
    return _absorber_step(absorber_rear_block, state, x_prev_sample, sent)


VARIANTS = ("none", "front", "rear", "two_sided")


@dataclass(frozen=True)
class ChainModel:
    """Wave-model view of a platoon: coupling, size, and how the wave
    transfer function is evaluated ("exact" branch or the rational
    approximant evaluated by its defining recursion)."""

    coupling: object
    n_vehicles: int
    mode: str = "exact"
    iterations: int = DEFAULT_ITERATIONS

    def __post_init__(self):
        if self.n_vehicles < 2:
            raise InvalidConfig("chain needs at least two vehicles")
        if self.mode not in ("exact", "approx"):
            raise InvalidConfig(f"unknown evaluation mode {self.mode!r}")


class WaveTransferEvaluator:
    """Evaluator for a composition of the wave transfer function, at one
    point or over a whole frequency grid."""

    def __init__(self, model, formula):
        self.model = model
        self.formula = formula

    def _wave_values(self, s_values):
        alphas = eval_at(self.model.coupling.tf, np.asarray(s_values, dtype=complex))
        if self.model.mode == "exact":
            return wave_tf_exact(alphas)
        g = np.ones_like(alphas)
        for _ in range(self.model.iterations):
            g = 1.0 / (alphas - g)
        return g

    def __call__(self, s):
        return complex(self.formula(self._wave_values([s])[0]))

    def freq_response(self, omegas):
        w = _check_grid(omegas)
        g = self._wave_values(1j * w)
        return FrequencyResponse(w, self.formula(g))


@dataclass(frozen=True)
class ChainPrediction:
    """Wave-model transfer functions from the end commands to one vehicle."""

    variant: str
    vehicle: int
    from_front: WaveTransferEvaluator
    from_rear: object = None


def chain_tf_prediction(config, variant, n):
    """Wave-model transfer function(s) from end inputs to vehicle ``n``.

    Variants: "none" (commanded head, spacing-regulated tail), "front"
    (absorbing head, free tail), "rear" (commanded head, absorbing tail),
    "two_sided" (both ends absorbing).
    """
    model = config
    last = model.n_vehicles - 1
    if not 0 <= n <= last:
        raise IndexOutOfRange(f"vehicle {n} outside 0..{last}")
    if variant not in VARIANTS:
        raise InvalidConfig(f"unknown variant {variant!r}")
    back = 2 * last + 1

    if variant == "none":
        front = WaveTransferEvaluator(
            model, lambda g, n=n: (g**n + g ** (back - n)) / (1.0 + g**back)
        )
        return ChainPrediction(variant, n, front)
    if variant == "front":
        front = WaveTransferEvaluator(
            model, lambda g, n=n: g**n + g ** (back - n)
        )
        return ChainPrediction(variant, n, front)
    if variant == "rear":
        front = WaveTransferEvaluator(model, lambda g, n=n: g**n)
        rear = WaveTransferEvaluator(
            model, lambda g, n=n: g ** (last - n) - g ** (last + n)
        )
        return ChainPrediction(variant, n, front, rear)
    front = WaveTransferEvaluator(model, lambda g, n=n: g**n)
    rear = WaveTransferEvaluator(model, lambda g, n=n: g ** (last - n))
    return ChainPrediction(variant, n, front, rear)
