import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from strategies import jw_grids, rel_err, routh_gains, same_bits, ss_value

from waveplatoon.lti import (
    SOLVE_CHUNK,
    FrequencyResponse,
    Polynomial,
    RationalTF,
    StateSpace,
    as_tf,
    eval_at,
    freq_response,
    impulse_response,
    sample_count,
    tf_add,
    tf_inv,
    tf_mul,
    to_state_space,
)
from waveplatoon.errors import (
    ImproperTF,
    PoleAtProbe,
    UnstablePoles,
    ZeroNumerator,
)
from waveplatoon.boundary import ChainModel, chain_tf_prediction
from waveplatoon.sim import chain_state_space
from waveplatoon.wave import coupling_from_gains, wave_tf_approx


def tf(num, den):
    return RationalTF(num, den)


def test_polynomial_basics():
    p = Polynomial([1.0, 2.0, 3.0])  # 1 + 2s + 3s^2
    assert p.degree == 2
    assert p(2.0) == 1.0 + 4.0 + 12.0
    assert p(0.0) == 1.0


def test_polynomial_trims_exact_zeros_only():
    p = Polynomial([1.0, 0.0, 0.0])
    assert p.degree == 0
    # tiny leading coefficients are data, not noise
    q = Polynomial([1e12, 0.0, 1.0])
    assert q.degree == 2


def test_polynomial_arithmetic():
    a = Polynomial([1.0, 1.0])
    b = Polynomial([2.0, 0.0, 1.0])
    assert np.allclose((a + b).coeffs, [3.0, 1.0, 1.0])
    assert np.allclose((a * b).coeffs, [2.0, 2.0, 1.0, 1.0])
    assert np.allclose((b - a).coeffs, [1.0, -1.0, 1.0])


def test_rational_monic_normalization():
    a = tf([2.0, 4.0], [4.0, 2.0])
    assert a.den.coeffs[-1] == 1.0
    assert np.allclose(a.num.coeffs, [1.0, 2.0])
    assert np.allclose(a.den.coeffs, [2.0, 1.0])


def test_rational_eval_and_properties():
    a = tf([1.0], [1.0, 1.0])  # 1/(s+1)
    assert eval_at(a, 1j) == pytest.approx(0.5 - 0.5j)
    assert a(0.0) == pytest.approx(1.0)
    assert a.is_proper and a.is_strictly_proper
    b = tf([1.0, 0.0, 1.0], [1.0, 1.0])
    assert not b.is_proper


def test_eval_at_pole_raises():
    a = tf([1.0], [0.0, 1.0])
    with pytest.raises(PoleAtProbe):
        eval_at(a, 0.0)
    # an array names its first bad point
    b = tf([1.0], [1.0, 0.0, 1.0])  # poles at +-j
    with pytest.raises(PoleAtProbe, match=r"s=1j$"):
        eval_at(b, 1j * np.array([0.5, 1.0, 2.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(gains=routh_gains(), w=jw_grids())
def test_eval_at_array_matches_points(gains, w):
    a = coupling_from_gains(*gains).tf
    s = 1j * w
    got = eval_at(a, s)
    assert got.shape == s.shape
    assert rel_err(got, np.array([eval_at(a, p) for p in s])) <= 1e-12


def factors(draw, max_degree, sign):
    """Product of real and complex-pair root factors, of degree at most
    ``max_degree``, with root real parts of magnitude in [0.1, 10] and
    imaginary parts at most 5 times that, so no root sits near the jw
    axis. ``sign`` fixes the real parts' sign, or leaves it free if None."""
    p = Polynomial([1.0])
    while p.degree < max_degree and draw(st.booleans()):
        re = draw(st.floats(0.1, 10.0)) * (sign or draw(st.sampled_from((-1, 1))))
        if p.degree + 2 > max_degree or draw(st.booleans()):
            p = p * Polynomial([-re, 1.0])
        else:
            im = draw(st.floats(0.0, 5.0)) * re
            p = p * Polynomial([re * re + im * im, -2.0 * re, 1.0])
    return p


@st.composite
def stable_rationals(draw):
    """Proper rational functions with real coefficients, poles in the open
    left half-plane and zeros anywhere off the jw axis, with a gain of
    magnitude in [0.1, 10]."""
    den = Polynomial([draw(st.floats(0.1, 10.0)), 1.0]) * factors(draw, 5, -1)
    num = factors(draw, den.degree, None)
    gain = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    return tf((num * gain).coeffs, den.coeffs)


@settings(max_examples=60, deadline=None)
@given(a=stable_rationals(), b=stable_rationals(), w=jw_grids())
def test_tf_add_mul_inv(a, b, w):
    s = 1j * w
    av, bv = eval_at(a, s), eval_at(b, s)
    # a sum is measured against its terms' size: a + b may cancel to ~0
    assert np.max(np.abs(eval_at(tf_add(a, b), s) - (av + bv))
                  / (np.abs(av) + np.abs(bv))) <= 1e-12
    assert rel_err(eval_at(tf_mul(a, b), s), av * bv) <= 1e-12
    assert rel_err(eval_at(tf_inv(a), s), 1.0 / av) <= 1e-12


def test_tf_inv_rejects_zero():
    with pytest.raises(ZeroNumerator):
        tf_inv(tf([0.0], [1.0, 1.0]))


def test_tf_scalar_sugar():
    a = tf([1.0], [1.0, 1.0])
    s = 2.0
    assert eval_at(tf_add(2.0, a), s) == pytest.approx(2.0 + eval_at(a, s))
    assert eval_at(tf_mul(a, 3.0), s) == pytest.approx(3.0 * eval_at(a, s))
    assert eval_at(tf_inv(a), s) == pytest.approx(1.0 / eval_at(a, s))
    assert eval_at(tf_inv(2.0), s) == pytest.approx(0.5)


def test_random_rational_identities():
    rng = np.random.default_rng(7)
    for _ in range(25):
        num = rng.normal(size=rng.integers(1, 4))
        den = np.concatenate([rng.normal(size=rng.integers(1, 4)), [1.0]])
        a = tf(num, den)
        s = complex(rng.normal(), rng.normal())
        if abs(a.den(s)) < 1e-6:
            continue
        direct = a.num(s) / a.den(s)
        assert eval_at(a, s) == pytest.approx(direct)


def test_to_state_space_matches_rational():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        den = np.concatenate([rng.normal(size=n), [1.0]])
        num = rng.normal(size=int(rng.integers(1, n + 2)))
        a = tf(num, den)
        ss = to_state_space(a)
        assert ss.order == a.den.degree
        s = complex(rng.normal(), abs(rng.normal()) + 0.1)
        if abs(a.den(s)) < 1e-6:
            continue
        assert ss_value(ss, s) == pytest.approx(eval_at(a, s), rel=1e-8, abs=1e-10)


def test_to_state_space_constant():
    ss = to_state_space(tf([3.0], [2.0]))
    assert ss.order == 0
    assert ss_value(ss, 1.0j) == pytest.approx(1.5)
    w = np.logspace(-3, 3, SOLVE_CHUNK + 5)
    assert np.array_equal(ss.freq_response(w).values, np.full(len(w), 1.5 + 0j))


def test_impulse_response_first_order():
    h = impulse_response(tf([1.0], [1.0, 1.0]), 10.0, 2.0)
    t = np.arange(21) / 10.0
    assert h.shape == (21,)
    assert np.abs(h - np.exp(-t)).max() < 1e-12


def test_impulse_response_double_pole():
    # 1/(s+1)^2 -> t e^{-t}
    h = impulse_response(tf([1.0], [1.0, 2.0, 1.0]), 20.0, 3.0)
    t = np.arange(61) / 20.0
    assert np.abs(h - t * np.exp(-t)).max() < 1e-12


def tap_reference(a, fs, T):
    """Taps one at a time with fresh products: x = B, then h[k] = c @ x and
    x = M @ x, with M = expm(A/fs) of the companion realization."""
    ss = to_state_space(a)
    M = expm(ss.A / fs)
    x, c = ss.B.ravel(), ss.C.ravel()
    h = np.empty(sample_count(fs, T))
    for k in range(len(h)):
        h[k] = c @ x
        x = M @ x
    return h


@settings(max_examples=15, deadline=None)
@given(gains=routh_gains())
def test_impulse_response_matches_per_tap_reference(gains):
    # the depth-20 companion form has coefficients up to 1e27, where any
    # other grouping of the products rounds differently
    for a, fs, T in (
        (tf([1.0], [1.0, 1.0]), 10.0, 2.0),
        (tf([1.0], [1.0, 2.0, 1.0]), 20.0, 3.0),
        (wave_tf_approx(coupling_from_gains(*gains), 20).approx, 100.0, 15.0),
    ):
        assert same_bits(impulse_response(a, fs, T), tap_reference(a, fs, T))


def test_impulse_response_rejects_bad_inputs():
    with pytest.raises(ImproperTF):
        impulse_response(tf([1.0, 1.0], [1.0, 1.0]), 10.0, 1.0)
    with pytest.raises(UnstablePoles):
        impulse_response(tf([1.0], [-1.0, 1.0]), 10.0, 1.0)
    with pytest.raises(UnstablePoles):
        impulse_response(tf([1.0], [0.0, 1.0]), 10.0, 1.0)


def test_freq_response_values():
    w = np.array([0.5, 1.0, 2.0])
    r = freq_response(tf([1.0], [1.0, 1.0]), w)
    assert isinstance(r, FrequencyResponse)
    assert r.values[1] == pytest.approx(0.5 - 0.5j)
    assert abs(r.values[1]) == pytest.approx(1.0 / np.sqrt(2.0))
    assert np.angle(r.values[1]) == pytest.approx(-np.pi / 4.0)


def test_freq_response_grid_validation():
    a = tf([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        freq_response(a, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        freq_response(a, np.array([-1.0, 1.0]))


@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_grid_check_refuses_non_finite_frequencies(bad):
    # NaN passes both order tests and an infinite last point is increasing,
    # so each grid evaluator must reject them on its own
    approx = wave_tf_approx(coupling_from_gains(4.0, 4.0, 4.0), 5)
    model = ChainModel(approx.coupling, 4, mode="approx", iterations=5)
    evaluators = (
        lambda w: freq_response(approx.approx, w),
        to_state_space(approx.approx).freq_response,
        chain_tf_prediction(model, "none", 3).from_front.freq_response,
    )
    for evaluate in evaluators:
        with pytest.raises(ValueError):
            evaluate(np.array([1.0, bad]))


def test_freq_response_pole_on_grid():
    a = tf([1.0], [1.0, 0.0, 1.0])  # poles at +-j
    with pytest.raises(PoleAtProbe):
        freq_response(a, np.array([0.5, 1.0]))


@settings(max_examples=20, deadline=None)
@given(
    gains=routh_gains(),
    n=st.integers(2, 6),
    # longer than one batched solve and not a whole number of them
    w=jw_grids(st.integers(SOLVE_CHUNK + 1, 3 * SOLVE_CHUNK).filter(
        lambda k: k % SOLVE_CHUNK)),
)
def test_state_space_freq_response_matches_eval_at(gains, n, w):
    # the batched solves are the per-point ones bit for bit, at every order:
    # a chain, the depth-20 companion form, and a constant's order 0
    for ss in (
        chain_state_space(*gains, n),
        to_state_space(wave_tf_approx(coupling_from_gains(*gains), 20).approx),
        to_state_space(RationalTF.constant(gains[0])),
    ):
        want = np.array([ss_value(ss, 1j * p) for p in w])
        assert same_bits(ss.freq_response(w).values, want)


def test_state_space_freq_response_matches():
    a = tf([1.0, 0.5], [2.0, 2.0, 1.0])
    ss = to_state_space(a)
    w = np.logspace(-1, 1, 7)
    ra = freq_response(a, w).values
    rs = np.array([ss_value(ss, 1j * wi) for wi in w])
    assert np.abs(ra - rs).max() < 1e-10
