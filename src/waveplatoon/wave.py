"""Wave transfer function of a bidirectional vehicle chain.

An in-platoon vehicle under symmetric bidirectional control obeys
``X_n = (X_{n-1} + X_{n+1}) / coupling`` where the coupling ratio is
``1/(P*C) + 2``. Positional changes travel along the chain as waves; the
wave transfer function maps one vehicle's wave component to its
neighbour's. This module evaluates that function exactly (per complex
probe or over an array of them), approximates it by a rational function
via a continued-fraction recursion, and samples the approximant into an
FIR filter usable online.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegreeOverflow, ZeroNumerator, DegenerateDenominator
from .lti import RationalTF, _trim, impulse_response, sample_count, tf_add, tf_inv, tf_mul

# Denominator-degree cap for the continued-fraction recursion. At depth L
# the degree is at most L times the coupling's numerator degree (exactly 3L
# for the friction plant with PI control, so the cap admits depths up to 66).
MAX_APPROX_DEGREE = 200

DEFAULT_ITERATIONS = 20
DEFAULT_FIR_RATE = 100.0
DEFAULT_FIR_SPAN = 15.0


def friction_plant(xi):
    """Double-integrator vehicle with linear friction: 1/(s^2 + xi*s)."""
    return RationalTF([1.0], [0.0, float(xi), 1.0])


def pi_controller(kp, ki):
    """PI controller acting on distance error: (kp*s + ki)/s."""
    return RationalTF([float(ki), float(kp)], [0.0, 1.0])


@dataclass(frozen=True)
class CouplingRatio:
    """Neighbour-coupling ratio 1/(P*C) + 2."""

    tf: RationalTF

    def __call__(self, s):
        return self.tf(s)


def make_coupling(plant, controller):
    """Build the coupling ratio 1/(P*C) + 2 for the given loop pieces."""
    loop = tf_mul(plant, controller)
    if loop.num.is_zero:
        raise ZeroNumerator("plant*controller has zero numerator")
    tf = tf_add(tf_inv(loop), RationalTF.constant(2.0))
    return CouplingRatio(tf=tf)


def coupling_from_gains(kp, ki, xi):
    """Coupling ratio for the standard friction plant + PI controller."""
    return make_coupling(friction_plant(xi), pi_controller(kp, ki))


def wave_tf_exact(coupling_value):
    """Downstream wave transfer value for a complex coupling sample, or
    elementwise over an array of them.

    Returns the root of ``G**2 - a*G + 1 = 0`` with magnitude <= 1. When
    both roots sit on the unit circle the one with non-positive imaginary
    part is returned.
    """
    a = np.asarray(coupling_value, dtype=complex)
    sq = np.sqrt(a * a - 4.0)
    # Form the larger-magnitude root first to dodge cancellation, then
    # use the product-of-roots identity for the smaller one.
    big = np.where(np.abs(a + sq) >= np.abs(a - sq), a + sq, a - sq) / 2.0
    small = 1.0 / big
    tie = (np.abs(np.abs(small) - 1.0) < 1e-9) & (small.imag > 0)
    return np.where(tie, big, small)[()]


def wave_tf_pair(coupling_value):
    """Both wave roots (downstream, upstream); their product is 1.
    Elementwise over an array of coupling samples."""
    g = wave_tf_exact(coupling_value)
    return g, np.asarray(coupling_value, dtype=complex) - g


@dataclass(frozen=True)
class WaveApprox:
    """Rational approximant of the wave transfer function."""

    approx: RationalTF
    iterations: int
    coupling: CouplingRatio

    def __call__(self, s):
        return self.approx(s)


def wave_tf_approx(coupling, iterations=DEFAULT_ITERATIONS):
    """Continued-fraction rational approximation of the wave transfer function.

    Starting from 1, the recursion ``g <- 1/(coupling - g)`` is applied
    ``iterations`` times. The result equals the leader-to-first-follower
    transfer function of a chain of ``iterations`` vehicles. For the
    friction plant with PI control it has degree exactly (3L-2, 3L) at
    depth L, so no pole/zero pair cancels and the result is not reduced.

    That chain's standing waves set the error against the exact value G:
    at depth L it is ``-G**(2L+1) * (G - 1/G) / (1 + G**(2L+1))``, which
    resonates where ``G**(2L+1) = -1``. The approximant is accurate only
    above the chain's first standing-wave frequency, about
    ``pi / ((2L+1) * sqrt(xi/ki))`` rad/s for the friction plant with PI
    control.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    degree = iterations * coupling.tf.num.degree
    if degree > MAX_APPROX_DEGREE:
        raise DegreeOverflow(
            f"depth {iterations} gives approximant degree {degree}, "
            f"above {MAX_APPROX_DEGREE}"
        )
    # g = p/q with q monic, stepped on coefficient arrays with tf_add's and
    # tf_inv's arithmetic: coupling - g = (a_num*q - p*a_den)/(a_den*q) has
    # a monic denominator, so normalizing the sum divides by exactly 1.0
    a_num, a_den = coupling.tf.num.coeffs, coupling.tf.den.coeffs
    p, q = np.ones(1), np.ones(1)
    for _ in range(iterations):
        left, right = np.convolve(a_num, q), np.convolve(-p, a_den)
        den = np.convolve(a_den, q)
        num = np.zeros(max(len(left), len(right)))
        num[: len(left)] += left
        num[: len(right)] += right
        num = _trim(num)
        if len(num) == 1 and num[0] == 0.0:
            _check_finite(den)
            raise DegenerateDenominator("recursion step produced a zero denominator")
        # a coefficient that is not finite anywhere in the step stays so
        # after the division by the nonzero lead
        p, q = den / num[-1], num / num[-1]
        _check_finite(p, q)
    return WaveApprox(approx=RationalTF(p, q), iterations=iterations, coupling=coupling)


def _check_finite(*coeffs):
    """Raise as ``Polynomial`` does on coefficients that are not finite."""
    if not np.isfinite(np.concatenate(coeffs)).all():
        raise ValueError("coefficients must be finite")


@dataclass(frozen=True)
class WaveFIR:
    """Truncated, sampled impulse response of the wave transfer function.

    Taps are pre-scaled by 1/fs so that a plain dot product with position
    samples approximates the continuous convolution and ``sum(taps)``
    equals the DC gain.
    """

    taps: np.ndarray
    fs: float
    span: float

    def __post_init__(self):
        expect = sample_count(self.fs, self.span)
        if len(self.taps) != expect:
            raise ValueError(f"expected {expect} taps, got {len(self.taps)}")

    @property
    def dc(self):
        return float(np.sum(self.taps))


def wave_fir(approx, fs=DEFAULT_FIR_RATE, span=DEFAULT_FIR_SPAN):
    """Sample the approximant's impulse response into FIR taps."""
    h = impulse_response(approx.approx, fs, span)
    return WaveFIR(taps=h / fs, fs=float(fs), span=float(span))
