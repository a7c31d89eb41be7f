"""End-vehicle boundary behavior for platoon position waves.

Reflection transfer functions at commanded and spacing-regulated ends,
online wave absorbers, and the gain bookkeeping that turns velocity and
spacing targets into end-vehicle ramp commands.
"""

import numpy as np
from dataclasses import dataclass

from .errors import (
    DegenerateDenominator,
    IndexOutOfRange,
    InvalidConfig,
    NonMonotonicTime,
    SampleRateMismatch,
    ZeroNumerator,
)
from .lti import FrequencyResponse, _check_grid, eval_at, origin_limit, tf_add, tf_inv, tf_mul
from .wave import (
    DEFAULT_ITERATIONS,
    WaveApprox,
    WaveFIR,
    wave_tf_exact,
    wave_tf_exact_shifted,
)

SQUARED_FIR_TAIL_LIMIT = 0.01


def _approx_tf(approx):
    return approx.approx if isinstance(approx, WaveApprox) else approx


def forced_end_reflection_tf(coupling, approx):
    """Transfer pair at a position-commanded end vehicle.

    Returns (command term, incoming-wave term): the outgoing wave equals
    G*command - G^2*incoming, so an incoming wave reflects with opposite
    sign when the command is held.
    """
    g = _approx_tf(approx)
    return g, tf_mul(g, g) * (-1.0)


def free_end_reflection_tf(coupling, approx):
    """Transfer pair at a spacing-regulated end vehicle.

    Returns (incoming-wave term, spacing-reference term): the outgoing wave
    equals G*incoming + (G-1)/(alpha-2)*d_ref, a same-sign reflection plus
    reference forcing.
    """
    g = _approx_tf(approx)
    shifted = tf_add(coupling.tf, -2.0)
    if shifted.num.is_zero:
        raise DegenerateDenominator("coupling ratio is identically 2")
    try:
        ref_term = tf_mul(tf_add(g, -1.0), tf_inv(shifted))
    except ZeroNumerator as exc:
        raise DegenerateDenominator(str(exc)) from exc
    return g, ref_term


def _exact_wave(coupling, s):
    return wave_tf_exact(eval_at(coupling.tf, s))


def kappa_front(coupling, approx=None, vehicles=1):
    """Steady velocity produced at the head of the platoon per unit of
    reference-spacing change, for a wave-commanded leader.

    Evaluated on the exact wave transfer function near s=0; finite
    approximants flatten at the origin and would report zero. The result
    does not depend on ``vehicles`` because the wave transfer function has
    unit static gain; the argument is accepted for callers that track it.
    """
    if vehicles < 1:
        raise ValueError("vehicles must be >= 1")
    shifted = tf_add(coupling.tf, -2.0)
    if shifted.num.is_zero:
        raise DegenerateDenominator("coupling ratio is identically 2")

    def path(s):
        # evaluate the shift as its own rational: forming coupling(s) - 2
        # at tiny s would cancel away all significant digits
        d = eval_at(shifted, s)
        g = wave_tf_exact_shifted(d)
        return g**vehicles * s * (g - 1.0) / d

    return origin_limit(path)


def kappa_rear(coupling, approx=None, diagnostics=False):
    """Steady spacing change per unit of sustained head velocity at a
    spacing-regulated tail, as the static gain of (1 - G)/s.

    With ``diagnostics`` the numeric limit is returned together with the
    two closed forms it may be compared against: sqrt(xi/k_i) and k_i/xi
    (equal when k_i = xi). Gains are read off the coupling's plant and
    controller when their shapes allow it.
    """
    shifted = tf_add(coupling.tf, -2.0)
    if shifted.num.is_zero:
        raise DegenerateDenominator("coupling ratio is identically 2")

    def path(s):
        g = wave_tf_exact_shifted(eval_at(shifted, s))
        return (1.0 - g) / s

    value = origin_limit(path)
    if not diagnostics:
        return value
    forms = {"numeric": value, "sqrt_ratio": None, "gain_ratio": None}
    try:
        ki = coupling.controller.num.coeffs[0]
        xi = coupling.plant.den.coeffs[1]
        if ki > 0 and xi > 0:
            forms["sqrt_ratio"] = float(np.sqrt(xi / ki))
            forms["gain_ratio"] = float(ki / xi)
    except (AttributeError, IndexError):
        pass
    return value, forms


@dataclass(frozen=True)
class GainReport:
    """End-vehicle gains and the ramp slopes derived from them."""

    kappa_front: float
    kappa_rear: float
    w0: float
    wr: float


def ramp_slopes(v_ref, d_ref, kappa_front, kappa_rear):
    """Ramp slopes for the two command ends.

    The head command ramps at w0 = (v_ref - kappa_front*d_ref)/2 and the
    tail command at wr = (v_ref - kappa_rear*d_ref)/2; v_ref and d_ref are
    deviations from the current equilibrium.
    """
    w0 = 0.5 * (v_ref - kappa_front * d_ref)
    wr = 0.5 * (v_ref - kappa_rear * d_ref)
    return GainReport(kappa_front, kappa_rear, w0, wr)


@dataclass(frozen=True)
class Ramp:
    """Piecewise-linear command: offset + slope*(t - start), flat before start."""

    slope: float
    start: float = 0.0
    offset: float = 0.0

    def __call__(self, t):
        return self.offset + self.slope * max(0.0, t - self.start)

    def continued(self, slope, at):
        """New ramp with a different slope, continuous at time ``at``."""
        return Ramp(slope, at, self(at))


class FirBuffer:
    """Ring buffer over the most recent samples for causal FIR dot products.

    Each sample is written twice, ``size`` apart, in a buffer of twice the
    length, moving backwards; the newest ``size`` samples then always sit
    newest first in one contiguous window.
    """

    def __init__(self, size):
        if size < 1:
            raise ValueError("buffer size must be >= 1")
        self.size = size
        self._buf = np.zeros(2 * size)
        self._pos = 0

    def push(self, value):
        self._pos = (self._pos - 1) % self.size
        self._buf[self._pos] = self._buf[self._pos + self.size] = value

    def dot(self, taps):
        """sum_j taps[j]*sample[k-j], missing history counted as zero."""
        if len(taps) != self.size:
            raise ValueError("taps length must match buffer size")
        return float(taps @ self._buf[self._pos : self._pos + self.size])


class WaveComponents:
    """Latest forward (``a``) and backward (``b``) wave samples of one
    vehicle; None before the first step."""

    def __init__(self, index=0):
        self.index = index
        self.a = None
        self.b = None


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
    """Online state for one wave-absorbing end vehicle.

    Ring buffers carry the windows the FIR products need, so memory stays
    bounded over any run length. Positions are deviations from the starting
    pose.
    """

    def __init__(self, fir, ramp, fir_squared=None, index=0):
        self.fir = fir
        self.fir_squared = fir_squared
        self.ramp = ramp
        self.own_wave = WaveComponents(index)
        self.last_t = None
        m = len(fir.taps)
        self._neighbor_buf = FirBuffer(m)
        self._a_buf = FirBuffer(m)
        self._b_buf = FirBuffer(m)
        if fir_squared is not None:
            # shift one tap: the echo convolution sees own-wave history
            # only through the previous sample
            self._echo_taps = np.concatenate([fir_squared.taps[1:], [0.0]])
            self._a_buf = FirBuffer(len(self._echo_taps))

    @property
    def ramp_slope(self):
        return self.ramp.slope

    @property
    def ramp_start(self):
        return self.ramp.start


def make_front_absorber(fir, ramp, fir_squared=None):
    if fir_squared is None:
        fir_squared = squared_fir(fir)
    if fir_squared.fs != fir.fs:
        raise SampleRateMismatch("squared FIR must share the sample rate")
    return AbsorberState(fir, ramp, fir_squared=fir_squared, index=0)


def make_rear_absorber(fir, ramp, index=0):
    return AbsorberState(fir, ramp, index=index)


def _advance_time(state, t):
    if state.last_t is not None:
        if t <= state.last_t:
            raise NonMonotonicTime(f"step at t={t} after t={state.last_t}")
        if abs((t - state.last_t) * state.fir.fs - 1.0) > 1e-6:
            raise SampleRateMismatch(
                f"step interval {t - state.last_t} does not match fs={state.fir.fs}"
            )
    state.last_t = t


def absorber_front_step(state, x1_sample, t):
    """One tick of the head absorber; returns the commanded head position.

    The incoming wave is filtered off the first follower's position, the
    echo of the absorber's own past output wave is subtracted, and the
    command adds the reference ramp back on top.
    """
    if state.fir_squared is None:
        raise InvalidConfig("head absorber requires the squared FIR")
    _advance_time(state, t)
    state._neighbor_buf.push(x1_sample)
    incoming = state._neighbor_buf.dot(state.fir.taps)
    echo = state._a_buf.dot(state._echo_taps)
    b = incoming - echo
    command = state.ramp(t) + b
    a = command - b
    state.own_wave.a = a
    state.own_wave.b = b
    state._a_buf.push(a)
    return command


def absorber_rear_step(state, x_prev_sample, t):
    """One tick of the tail absorber; returns the commanded tail position.

    The neighbor's incoming wave is reconstructed by subtracting the
    filtered history of the tail's own outgoing wave (the ramp), then
    propagated one vehicle down and stacked on the tail reference ramp.
    """
    _advance_time(state, t)
    outgoing = state.ramp(t)
    state._b_buf.push(outgoing)
    echo = state._b_buf.dot(state.fir.taps)
    a_prev = x_prev_sample - echo
    state.own_wave.a = a_prev
    state.own_wave.b = echo
    state._a_buf.push(a_prev)
    return outgoing + state._a_buf.dot(state.fir.taps)


CHAIN_VARIANTS = ("none", "front", "rear", "two_sided")


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
    """Pointwise evaluator for a composition of the wave transfer function."""

    def __init__(self, model, formula):
        self.model = model
        self.formula = formula

    def _wave_values(self, s_values):
        alphas = np.array(
            [eval_at(self.model.coupling.tf, s) for s in s_values], dtype=complex
        )
        if self.model.mode == "exact":
            return np.array([wave_tf_exact(a) for a in alphas])
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
    if variant not in CHAIN_VARIANTS:
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
