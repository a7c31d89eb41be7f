"""Hypothesis strategies and per-point references shared by the test
modules."""

import cmath

import numpy as np
from hypothesis import strategies as st


@st.composite
def routh_gains(draw):
    """(kp, ki, xi) with kp, xi in [2, 8], ki in [1, 9] and xi*kp >= 2*ki:
    the Routh-stable region the benchmark's gain draws cover."""
    kp = draw(st.floats(2.0, 8.0))
    xi = draw(st.floats(2.0, 8.0))
    ki = draw(st.floats(1.0, min(9.0, 0.5 * xi * kp)))
    return kp, ki, xi


@st.composite
def jw_grids(draw, sizes=st.integers(1, 100)):
    """Log-spaced frequency grids inside [1e-3, 1e3] rad/s spanning at
    least one decade, so every grid is strictly increasing."""
    lo = draw(st.floats(-3.0, 2.0))
    hi = draw(st.floats(lo + 1.0, 3.0))
    return np.logspace(lo, hi, draw(sizes))


def rel_err(got, want):
    """Largest elementwise relative error of ``got`` against ``want``."""
    return float(np.max(np.abs(got - want) / np.abs(want)))


def root_reference(a):
    """Per-point downstream wave root of ``G**2 - a*G + 1 = 0`` in plain
    complex arithmetic: the larger root first, then 1/big, and the big root
    where both sit on the unit circle and the small one has positive
    imaginary part."""
    sq = cmath.sqrt(a * a - 4.0)
    big = (a + sq) / 2.0 if abs(a + sq) >= abs(a - sq) else (a - sq) / 2.0
    small = 1.0 / big
    return big if abs(abs(small) - 1.0) < 1e-9 and small.imag > 0 else small


def deviation_reference(d):
    """Per-point ``G - 1`` of the downstream wave root from the coupling
    less 2, ``d = a - 2``: the root ``w`` of ``w**2 - d*w - d = 0`` with
    the smaller ``|1 + w|``, solved without forming ``a*a - 4``, so it
    keeps its digits where ``a`` is within rounding of 2 (near s = 0)."""
    sq = cmath.sqrt(d * (d + 4.0))
    lo, hi = (d - sq) / 2.0, (d + sq) / 2.0
    return lo if abs(1.0 + lo) <= abs(1.0 + hi) else hi


def ss_value(ss, s):
    """Per-point value ``C (sI - A)^-1 B + D`` of a realization, one solve
    (an empty one at order 0)."""
    x = np.linalg.solve(s * np.eye(ss.order) - ss.A, ss.B)
    return complex((ss.C @ x)[0, 0] + ss.D)


def same_bits(got, want):
    """True when two arrays hold the same values bit for bit, signed zeros
    included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and (
        got.tobytes() == want.tobytes())


class _History:
    """The newest ``size`` values pushed, newest first, as one contiguous
    slice: each value is written at its ring slot and at the slot's mirror
    ``size`` further on."""

    def __init__(self, size):
        self.size = size
        self.count = 0
        self.ring = np.zeros(2 * size)

    def push(self, value):
        self.count += 1
        slot = -self.count % self.size
        self.ring[slot] = self.ring[slot + self.size] = value

    def dot(self, taps):
        """``sum_i taps[i] * v_i`` over the values there are, ``v_0`` the
        newest."""
        n = min(len(taps), self.count)
        slot = -self.count % self.size
        return float(np.dot(taps[:n], self.ring[slot : slot + n]))


class ReferenceAbsorber:
    """An absorber written from the equations in ``boundary``'s comments,
    with the histories of its past samples and sent ramp values. With ``h``
    the wave FIR, ``h2`` the squared FIR (the head's echo taps past tap 0)
    and missing history zero, tick ``k`` gives
    head: u_k = r_k + sum_i h_i y_{k-i} - sum_{i>=1} h2_i r_{k-i}
    tail: y_k = measured_k - sum_i h_i r_{k-i}, u_k = r_k + sum_i h_i y_{k-i}
    """

    def __init__(self, taps, head):
        self.taps = taps
        self.head = head
        self.squared = np.convolve(taps, taps)[: len(taps)]
        self.samples, self.sent = _History(len(taps)), _History(len(taps))

    def step(self, measured, sent):
        if self.head:
            echo = self.sent.dot(self.squared[1:])
            self.sent.push(sent)
            self.samples.push(measured)
            return sent + self.samples.dot(self.taps) - echo
        self.sent.push(sent)
        self.samples.push(measured - self.sent.dot(self.taps))
        return sent + self.samples.dot(self.taps)
