"""End-vehicle boundary behavior for platoon position waves.

Online wave absorbers, the end gains and ramp slopes that turn velocity
and spacing targets into end-vehicle ramp commands, and wave-model
transfer functions of whole chains.

An absorber is a pair of linear filters: the wave FIR over the neighbour
samples it measures and its echo taps over the ramp values it sends. Its
equations here keep no state; whoever steps it owns the samples, the
ramps and the clock. A ramp's echo has a closed form in the ramp's slope
changes (``ramp_response``). The per-tick steps hold both histories in
windows of the FIR's length.
"""

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import IndexOutOfRange, InvalidConfig
from .lti import FrequencyResponse, check_grid, eval_at, tf_add
from .wave import DEFAULT_ITERATIONS, WaveFIR, check_depth, wave_tf_exact

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
    """Slopes ``(w0, wr)`` of the ramps the two command ends follow.

    The head command ramps at w0 = (v_ref - kappa_front*d_ref)/2 and the
    tail command at wr = (v_ref - kappa_rear*d_ref)/2; v_ref and d_ref are
    deviations from the current equilibrium.
    """
    w0 = 0.5 * (v_ref - kappa_front * d_ref)
    wr = 0.5 * (v_ref - kappa_rear * d_ref)
    return w0, wr


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


# Both absorbers are linear filters of the samples they measure and the
# ramp values they send. With ``h`` the wave FIR, ``e`` the end's echo taps
# (``echo_taps``), ``r`` the sent ramp values and missing history zero,
# tick ``k`` has the echo ``c_k = sum_i e_i r_{k-i}`` of the end's own
# outgoing wave and gives (sums over the taps)
#   head: y_k = measured_k,        u_k = r_k - c_k + sum_i h_i y_{k-i}
#   tail: y_k = measured_k - c_k,  u_k = r_k + sum_i h_i y_{k-i}
# So over any run of ticks the commands are ``known + lookback + T @ y``,
# with ``y = measured + offset`` the samples of those ticks, ``T`` the
# lower-triangular Toeplitz matrix of ``h`` and ``lookback`` ``h`` over the
# ``len(h) - 1`` samples before them (``past_taps``); ``known`` and
# ``offset`` depend on the sent values alone. What an end sends is a ramp
# from zero that bends only where its slope changes: a sum of hinges
# ``ds_p * T * max(0, k - k_p)`` with ``T`` the tick. Its echo is then
# ``T * sum_p ds_p * R[k - k_p]`` with ``R`` the taps' ramp response
# (``ramp_response``), so no history of sent values is needed. The caller
# owns the sample history; the per-tick steps below keep their own windows.


def echo_taps(fir, end):
    """Echo taps of the ``"front"`` or ``"rear"`` absorber. The head's are
    the squared FIR with the current tap zeroed, so it sees its own wave
    only up to the previous sample; the tail's are the wave FIR."""
    if end == "front":
        return np.concatenate([[0.0], squared_fir(fir).taps[1:]])
    return fir.taps


def ramp_response(echo):
    """The echo through taps ``echo`` of a unit-slope ramp that starts at
    tick 0, as a function of the ticks ``n`` since its start:
    ``R[n] = sum_i e_i max(0, n - i)``.

    With ``E0`` and ``E1`` the prefix sums of ``e_i`` and ``i e_i``,
    ``R[n] = n E0[j] - E1[j]`` at ``j = min(n, span)``: linear past the
    span, and zero for ``n <= 0``. The returned function takes an array of
    whole ``n``.
    """
    span = len(echo) - 1
    e0 = np.cumsum(echo)
    e1 = np.cumsum(np.arange(len(echo)) * echo)

    def response(n):
        n = np.maximum(n, 0)
        j = np.minimum(n, span)
        return n * e0[j] - e1[j]

    return response


def ramp_echo(response, bends, ticks, dt):
    """The echo at ``ticks`` of a ramp that starts at zero and changes its
    slope by ``change`` at each ``(tick, change)`` of ``bends``, ticks
    ``dt`` apart, through taps of ramp ``response``: ``dt * sum_p change_p
    R[ticks - tick_p]``."""
    return dt * sum(change * response(ticks - tick) for tick, change in bends)


def past_taps(taps, count):
    """Weights of the lookback at a block's first ``count`` ticks.

    Row ``j`` weighs the ``j``-th oldest of the ``len(taps) - 1`` samples
    before the block and column ``i`` is tick ``i``: the entry is the tap
    ``h_l`` of that sample's lag ``l`` from the tick, or zero where ``l``
    is past the FIR's span.
    """
    span = len(taps) - 1
    # row j holds the taps from lag span - j on, then zeros
    ext = np.concatenate([taps, np.zeros(count)])
    return np.lib.stride_tricks.sliding_window_view(ext, count)[span:0:-1].copy()


class AbsorberState:
    """One absorber end stepped a tick at a time: its wave FIR, its echo
    taps and its ``len(fir.taps)`` newest samples and sent ramp values,
    oldest first and zero before the first tick. The newest slot of each
    is the tick being stepped. Positions are deviations from the starting
    pose."""

    def __init__(self, fir, echo):
        self.fir = fir
        self.echo = echo
        self.samples = np.zeros(len(fir.taps))
        self.sent = np.zeros(len(echo))


def make_front_absorber(fir):
    """Per-tick state of the head absorber."""
    return AbsorberState(fir, echo_taps(fir, "front"))


def make_rear_absorber(fir):
    """Per-tick state of the tail absorber."""
    return AbsorberState(fir, echo_taps(fir, "rear"))


def _absorber_step(end, state, measured, sent):
    # one tick of the equations above over the windows; both then move on
    state.sent[-1] = sent
    echoed = state.sent @ state.echo[::-1]
    known, offset = (sent - echoed, 0.0) if end == "front" else (sent, -echoed)
    state.samples[-1] = measured + offset
    command = known + state.samples @ state.fir.taps[::-1]
    state.sent[:-1] = state.sent[1:]
    state.samples[:-1] = state.samples[1:]
    return command


def absorber_front_step(state, x1_sample, sent):
    """One tick of the head absorber that sends the ramp value ``sent``;
    returns the commanded head position.

    The incoming wave is filtered off the first follower's position, the
    echo of the absorber's own past output wave is subtracted, and the
    command adds the ramp value back on top.
    """
    return _absorber_step("front", state, x1_sample, sent)


def absorber_rear_step(state, x_prev_sample, sent):
    """One tick of the tail absorber that sends the ramp value ``sent``;
    returns the commanded tail position.

    The neighbor's incoming wave is reconstructed by subtracting the
    filtered history of the tail's own outgoing wave (the ramp), then
    propagated one vehicle down and stacked on the ramp value.
    """
    return _absorber_step("rear", state, x_prev_sample, sent)


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
        if not isinstance(self.n_vehicles, Integral) or self.n_vehicles < 2:
            raise InvalidConfig("chain needs a whole number, >= 2, of vehicles")
        if self.mode not in ("exact", "approx"):
            raise InvalidConfig(f"unknown evaluation mode {self.mode!r}")
        check_depth(self.iterations)


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
        w = check_grid(omegas)
        g = self._wave_values(1j * w)
        return FrequencyResponse(w, self.formula(g))


@dataclass(frozen=True)
class ChainPrediction:
    """Wave-model transfer functions from the end commands to one vehicle."""

    variant: str
    vehicle: int
    from_front: WaveTransferEvaluator
    from_rear: object = None


def chain_tf_prediction(model, variant, n):
    """Wave-model transfer function(s) from end inputs to vehicle ``n``.

    Variants: "none" (commanded head, spacing-regulated tail), "front"
    (absorbing head, free tail), "rear" (commanded head, absorbing tail),
    "two_sided" (both ends absorbing).
    """
    last = model.n_vehicles - 1
    if not isinstance(n, Integral):
        raise InvalidConfig(f"vehicle index {n} is not a whole number")
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
