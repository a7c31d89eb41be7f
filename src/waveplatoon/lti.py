"""Rational transfer-function algebra, realization and discretization.

Everything downstream (wave approximants, wave absorbers, the platoon
simulator) is built on the small set of carriers defined here:
real-coefficient :class:`Polynomial`, :class:`RationalTF` in the Laplace
variable, controllable-canonical :class:`StateSpace` realizations, and
sampled :class:`FrequencyResponse` grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npp
from scipy.linalg import expm

from .errors import (
    DegenerateDenominator,
    ImproperTF,
    PoleAtProbe,
    UnstablePoles,
    ZeroNumerator,
)

# Grid points per batched solve in StateSpace.freq_response: whole grids at
# once would hold len(grid) complex n-by-n matrices.
SOLVE_CHUNK = 32


def _trim(coeffs):
    """Drop trailing coefficients that are exactly zero."""
    c = np.asarray(coeffs, dtype=float)
    nz = np.nonzero(c)[0]
    if len(nz) == 0:
        return np.zeros(1)
    return c[: nz[-1] + 1].copy()


class Polynomial:
    """Real polynomial in s, coefficients stored in ascending powers.

    The zero polynomial is represented as exactly ``[0.0]``; otherwise the
    leading coefficient is nonzero after construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must form a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        self.coeffs = _trim(c)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    def __call__(self, s):
        return npp.polyval(s, self.coeffs)

    def magnitude_scale(self, s):
        """Sum of |c_k|*|s|^k, the scale against which p(s) counts as zero."""
        return npp.polyval(np.abs(s), np.abs(self.coeffs))

    def roots(self):
        if self.degree < 1:
            return np.array([], dtype=complex)
        return np.roots(self.coeffs[::-1])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial([0.0])
            return Polynomial(np.convolve(self.coeffs, other.coeffs))
        return Polynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([float(other)])
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return Polynomial(c)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(-self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else -float(other))

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()})"


class RationalTF:
    """Ratio of two real polynomials in s with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise DegenerateDenominator("denominator is the zero polynomial")
        lead = den.coeffs[-1]
        self.num = Polynomial(num.coeffs / lead)
        self.den = Polynomial(den.coeffs / lead)

    @classmethod
    def constant(cls, value):
        return cls([float(value)], [1.0])

    @property
    def is_proper(self):
        return self.num.degree <= self.den.degree or self.num.is_zero

    @property
    def is_strictly_proper(self):
        return self.num.is_zero or self.num.degree < self.den.degree

    def poles(self):
        return self.den.roots()

    def __neg__(self):
        return RationalTF(-self.num, self.den)

    def __call__(self, s):
        return eval_at(self, s)

    def __repr__(self):
        return f"RationalTF({self.num.coeffs.tolist()}, {self.den.coeffs.tolist()})"


def as_tf(x):
    """Coerce a scalar or Polynomial into a RationalTF."""
    if isinstance(x, RationalTF):
        return x
    if isinstance(x, Polynomial):
        return RationalTF(x, Polynomial([1.0]))
    return RationalTF.constant(x)


def tf_add(a, b):
    """Sum of two rational functions over the product of their denominators;
    common factors are left in place."""
    a, b = as_tf(a), as_tf(b)
    return RationalTF(a.num * b.den + b.num * a.den, a.den * b.den)


def tf_mul(a, b):
    """Product of two rational functions, normalized to a monic denominator."""
    a, b = as_tf(a), as_tf(b)
    return RationalTF(a.num * b.num, a.den * b.den)


def tf_inv(a):
    """Reciprocal of a rational function."""
    a = as_tf(a)
    if a.num.is_zero:
        raise ZeroNumerator("cannot invert a transfer function with zero numerator")
    return RationalTF(a.den, a.num)


def eval_at(a, s):
    """Evaluate ``a`` at a complex point, or elementwise over an array of
    them, by Horner's scheme."""
    dv = a.den(s)
    scale = a.den.magnitude_scale(s)
    bad = (scale == 0.0) | (np.abs(dv) < 1e-12 * scale)
    if np.any(bad):
        first = np.atleast_1d(s)[np.atleast_1d(bad)][0]
        raise PoleAtProbe(f"denominator vanishes at s={first}")
    return a.num(s) / dv


@dataclass(frozen=True)
class StateSpace:
    """Single-input single-output realization dx/dt = Ax + Bu, y = Cx + Du."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float

    @property
    def order(self):
        return self.A.shape[0]

    def freq_response(self, omegas):
        omegas = _check_grid(omegas)
        s = 1j * omegas[:, None]
        diag = np.arange(self.order)
        # sI - A in the arithmetic of s*eye - A: 0 - A off the diagonal (a
        # zero of A stays +0.0) and s - A on it; the solves leave their input
        # alone, so each chunk rewrites only the diagonal
        block = np.zeros((min(SOLVE_CHUNK, len(s)), self.order, self.order), complex)
        block -= self.A
        values = np.empty(len(omegas), dtype=complex)
        for i in range(0, len(s), SOLVE_CHUNK):
            si = s[i : i + SOLVE_CHUNK]
            m = block[: len(si)]
            m[:, diag, diag] = si - np.diag(self.A)
            # b gets a's stack dimension: numpy < 2 would read a 2-D b as a
            # stack of vectors
            x = np.linalg.solve(m, np.broadcast_to(self.B, (len(m),) + self.B.shape))
            values[i : i + SOLVE_CHUNK] = (self.C @ x)[:, 0, 0] + self.D
        return FrequencyResponse(omegas, values)


def to_state_space(a):
    """Controllable canonical realization of a proper rational function."""
    if not a.is_proper:
        raise ImproperTF(
            f"numerator degree {a.num.degree} exceeds denominator degree {a.den.degree}"
        )
    n = a.den.degree
    if n == 0:
        return StateSpace(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
            float(a.num.coeffs[0] / a.den.coeffs[0]),
        )
    den = a.den.coeffs  # monic by construction
    num = np.zeros(n + 1)
    num[: len(a.num.coeffs)] = a.num.coeffs
    d = num[n]
    c = num[:n] - den[:n] * d
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -den[:n]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    return StateSpace(A, B, c.reshape(1, n), float(d))


def _stability_check(poles):
    if len(poles) == 0:
        return
    scale = max(1.0, float(np.max(np.abs(poles))))
    re = poles.real
    if np.any(re > 1e-9 * scale):
        raise UnstablePoles(f"pole(s) in the right half-plane: {poles[re > 0]}")
    if np.any(re > -1e-9 * scale):
        raise UnstablePoles("pole(s) on the imaginary axis")


def sample_count(fs, T):
    """Number of samples at times k/fs, k = 0..floor(T*fs), in a span of
    ``T`` seconds; a span within 1e-9 samples of a whole count takes it."""
    return int(np.floor(T * fs + 1e-9)) + 1


def impulse_response(a, fs, T):
    """Samples of the continuous impulse response at times k/fs, k=0..floor(T*fs).

    The continuous impulse response is sampled exactly, not held: the
    companion realization's state transition over one sample, expm(A/fs),
    is applied recursively to the input vector, one tap at a time. ``a``
    must be strictly proper, with its poles in the open left half-plane.
    """
    if fs <= 0 or T <= 0:
        raise ValueError("fs and T must be positive")
    if not a.is_strictly_proper:
        raise ImproperTF("impulse sampling requires a strictly proper function")
    count = sample_count(fs, T)
    if a.num.is_zero:
        return np.zeros(count)
    _stability_check(a.poles())
    ss = to_state_space(a)
    M = expm(ss.A / fs)
    x = ss.B.ravel().copy()
    y = np.empty_like(x)
    c = ss.C.ravel()
    h = np.empty(count)
    # one product per tap, in sequence: with companion coefficients up to
    # 1e27, batched or blocked products round differently
    for k in range(count):
        h[k] = c.dot(x)
        M.dot(x, out=y)
        x, y = y, x
    return h


def _check_grid(omegas):
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("frequency grid must be a non-empty 1-D sequence")
    if not np.isfinite(w).all():
        raise ValueError("frequency grid must be finite")
    if np.any(w <= 0) or np.any(np.diff(w) <= 0):
        raise ValueError("frequency grid must be positive and strictly increasing")
    return w


@dataclass(frozen=True)
class FrequencyResponse:
    """Complex response values on a positive, strictly increasing grid."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.omegas) != len(self.values):
            raise ValueError("omegas and values must have equal length")


def freq_response(a, omegas):
    """Evaluate ``a`` along the imaginary axis on the given grid."""
    w = _check_grid(omegas)
    return FrequencyResponse(w, eval_at(a, 1j * w))
