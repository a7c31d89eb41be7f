
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from strategies import jw_grids, rel_err, root_reference, routh_gains, same_bits

from waveplatoon.boundary import ChainModel, WaveTransferEvaluator
from waveplatoon.lti import RationalTF, eval_at, freq_response, tf_add, tf_inv
from waveplatoon.verify import APPROX_GRID
from waveplatoon.wave import (
    DEFAULT_FIR_RATE,
    DEFAULT_FIR_SPAN,
    DEFAULT_ITERATIONS,
    MAX_APPROX_DEGREE,
    CouplingRatio,
    WaveApprox,
    WaveFIR,
    coupling_from_gains,
    wave_fir,
    wave_tf_approx,
    wave_tf_exact,
    wave_tf_pair,
)
from waveplatoon.errors import (
    DegenerateDenominator,
    DegreeOverflow,
    InvalidConfig,
    ZeroNumerator,
)


def nominal():
    return coupling_from_gains(4.0, 4.0, 4.0)


def scalar_recursion(alpha, iterations):
    g = np.ones_like(np.asarray(alpha, dtype=complex))
    for _ in range(iterations):
        g = 1.0 / (alpha - g)
    return g


def test_coupling_nominal_value():
    c = nominal()
    assert isinstance(c, CouplingRatio)
    assert c(1.0) == pytest.approx(2.625)
    assert c.tf.num.degree == 3
    assert c.tf.den.degree == 1


def test_coupling_equals_inverse_loop_plus_two():
    # the friction plant 1/(s^2 + xi s) under PI control (kp s + ki)/s, at
    # gains that tell kp, ki and xi apart
    kp, ki, xi = 3.0, 2.0, 5.0
    s = 0.4 + 0.9j
    plant = 1.0 / (s * s + xi * s)
    controller = (kp * s + ki) / s
    assert coupling_from_gains(kp, ki, xi)(s) == pytest.approx(
        1.0 / (plant * controller) + 2.0)


def test_make_coupling_rejects_zero_plant():
    # kp = ki = 0 leaves no loop to invert
    with pytest.raises(ZeroNumerator):
        coupling_from_gains(0.0, 0.0, 4.0)


def test_exact_wave_tf_nominal_point():
    g = wave_tf_exact(2.625)
    assert g == pytest.approx(0.46240809320403475)
    assert g + 1.0 / g == pytest.approx(2.625)


def test_exact_wave_tf_branch():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = complex(rng.normal(scale=3.0), rng.normal(scale=3.0))
        if abs(a.imag) < 1e-6 and -2.0 <= a.real <= 2.0:
            continue
        g = wave_tf_exact(a)
        assert abs(g) <= 1.0 + 1e-12
        assert g + 1.0 / g == pytest.approx(a)


def test_exact_wave_tf_real_axis():
    # real alpha > 2 gives a real contraction
    for a in (2.1, 3.0, 10.0, 1e3):
        g = wave_tf_exact(a)
        assert abs(g.imag) < 1e-14
        assert 0.0 < g.real < 1.0


# coupling samples on the jw axis of a Routh-stable coupling, plus real
# samples inside (-2, 2), where both roots lie on the unit circle
@st.composite
def coupling_samples(draw):
    coupling = coupling_from_gains(*draw(routh_gains()))
    alphas = freq_response(coupling.tf, draw(jw_grids())).values
    segment = draw(st.lists(st.floats(-1.999, 1.999), min_size=1, max_size=8))
    return np.concatenate([alphas, np.asarray(segment, dtype=complex)]), len(segment)


@settings(max_examples=40, deadline=None)
@given(samples=coupling_samples())
def test_wave_tf_exact_array_matches_points(samples):
    alphas, on_circle = samples
    got = wave_tf_exact(alphas)
    assert got.shape == alphas.shape
    for point_form in (wave_tf_exact, lambda a: root_reference(complex(a))):
        assert rel_err(got, np.array([point_form(a) for a in alphas])) <= 1e-12
    # the unit-circle tie-break keeps the root with non-positive imaginary part
    assert np.all(got[-on_circle:].imag <= 0.0)
    # the pair is the same root and its reciprocal, the upstream root
    want = np.array([root_reference(complex(a)) for a in alphas])
    g1, g2 = wave_tf_pair(alphas)
    assert rel_err(g1, want) <= 1e-12
    assert rel_err(g2, 1.0 / want) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(gains=routh_gains())
def test_approx_matches_defining_recursion(gains):
    # depths 15 and 20 are left out: their monomial-coefficient form loses
    # digits (denominator coefficients near 1e23 at depth 20), so its
    # agreement with the recursion says more about that form than about
    # how each step negates g
    coupling = coupling_from_gains(*gains)
    w = np.logspace(*np.log10(APPROX_GRID), 200)
    for depth, bound in ((5, 1e-11), (10, 1e-8)):
        recursion = WaveTransferEvaluator(
            ChainModel(coupling, 2, mode="approx", iterations=depth), lambda g: g
        )
        got = freq_response(wave_tf_approx(coupling, depth).approx, w).values
        assert rel_err(got, recursion.freq_response(w).values) <= bound


def test_wave_tf_pair():
    g1, g2 = wave_tf_pair(3.0 + 0.5j)
    assert g1 * g2 == pytest.approx(1.0)
    assert g1 + g2 == pytest.approx(3.0 + 0.5j)
    assert abs(g1) <= abs(g2)


def test_approx_first_iterations():
    c = nominal()
    a1 = wave_tf_approx(c, iterations=1)
    assert a1(1.0) == pytest.approx(0.615385, abs=1e-6)
    a2 = wave_tf_approx(c, iterations=2)
    assert a2(1.0) == pytest.approx(0.497608, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(gains=routh_gains(), depth=st.integers(1, 20))
def test_approx_degrees_and_dc(gains, depth):
    # the depth-L chain transfer has degree exactly (3L-2, 3L): no pole/zero
    # pair cancels, so the recursion needs no reduction
    ap = wave_tf_approx(coupling_from_gains(*gains), iterations=depth).approx
    assert ap.num.degree == 3 * depth - 2
    assert ap.den.degree == 3 * depth
    # no pole at the origin: the DC gain is the ratio of constant terms
    assert abs(ap.num.coeffs[0] / ap.den.coeffs[0] - 1.0) <= 1e-9


def test_approx_matches_scalar_recursion():
    c = nominal()
    ap = wave_tf_approx(c, iterations=20)
    w = np.logspace(-2, 2, 40)
    al = freq_response(c.tf, w).values
    ref = scalar_recursion(al, 20)
    got = np.array([ap(1j * wi) for wi in w])
    assert np.abs(got - ref).max() < 1e-6


def tf_recursion(coupling, depth):
    """The approximant's recursion in rational algebra: g <- 1/(coupling - g)
    from g = 1, through tf_add and tf_inv."""
    g = RationalTF.constant(1.0)
    for _ in range(depth):
        g = tf_inv(tf_add(coupling.tf, -g))
    return g


@settings(max_examples=40, deadline=None)
@given(gains=routh_gains(), depth=st.integers(1, 30))
def test_approx_is_the_rational_recursion(gains, depth):
    coupling = coupling_from_gains(*gains)
    got = wave_tf_approx(coupling, depth).approx
    want = tf_recursion(coupling, depth)
    assert same_bits(got.num.coeffs, want.num.coeffs)
    assert same_bits(got.den.coeffs, want.den.coeffs)


def test_approx_degenerate_step_raises():
    # coupling 1 against g = 1: the first step's denominator is zero
    with pytest.raises(DegenerateDenominator):
        wave_tf_approx(CouplingRatio(RationalTF.constant(1.0)), 1)


@pytest.mark.parametrize("num, depth", [
    ([1e200, 1.0], 2),  # the second step's products overflow
    ([1.0, 1e-310], 1),  # dividing by the first step's subnormal lead overflows
])
def test_approx_overflowing_step_raises(num, depth):
    coupling = CouplingRatio(RationalTF(num, [1.0]))
    with np.errstate(all="ignore"):
        for build in (tf_recursion, lambda c, d: wave_tf_approx(c, d).approx):
            with pytest.raises(ValueError, match="finite"):
                build(coupling, depth)


def test_approx_default_iterations():
    c = nominal()
    ap = wave_tf_approx(c)
    assert isinstance(ap, WaveApprox)
    assert ap.iterations == DEFAULT_ITERATIONS == 20


def test_approx_stable_poles():
    c = nominal()
    poles = wave_tf_approx(c, iterations=20).approx.poles()
    assert poles.real.max() < 0.0


def test_approx_degree_overflow():
    c = nominal()
    deepest = wave_tf_approx(c, iterations=MAX_APPROX_DEGREE // 3)
    assert deepest.approx.den.degree == 3 * (MAX_APPROX_DEGREE // 3)
    with pytest.raises(DegreeOverflow):
        wave_tf_approx(c, iterations=(MAX_APPROX_DEGREE // 3) + 1)


def test_approx_rejects_bad_iterations():
    # the depth check ``ChainModel`` makes too
    for depth in (0, 2.5):
        with pytest.raises(InvalidConfig, match="whole number >= 1"):
            wave_tf_approx(nominal(), iterations=depth)


def test_fir_nominal_contract():
    f = wave_fir(wave_tf_approx(nominal()), DEFAULT_FIR_RATE, DEFAULT_FIR_SPAN)
    assert isinstance(f, WaveFIR)
    assert len(f.taps) == 1501
    assert abs(f.dc - 1.0) <= 0.02
    assert abs(f.taps[0]) < 1e-4 * np.abs(f.taps).max()
    # frozen values for this construction
    assert f.dc == pytest.approx(0.9999665, abs=1e-5)
    assert np.abs(f.taps).max() == pytest.approx(0.0083280, abs=1e-5)


def test_peak_gain_approx_resonance():
    # the approximant's standing-wave resonance overshoots the exact |G| <= 1
    w = np.logspace(-3, 3, 2000)
    exact = np.abs(wave_tf_exact(freq_response(nominal().tf, w).values)).max()
    approx = np.abs(freq_response(wave_tf_approx(nominal()).approx, w).values).max()
    assert approx > exact
    assert 2.0 < approx < 2.3


def test_gain_sequence_string_bound():
    # powers of the exact transfer never amplify along the chain
    rng = np.random.default_rng(9)
    w = rng.uniform(0.01, 50.0, size=50)
    w.sort()
    al = freq_response(nominal().tf, w).values
    g = np.array([wave_tf_exact(v) for v in al])
    n = 7
    for k in range(1, n + 1):
        combos = np.abs(g**k + g ** (2 * n + 1 - k))
        assert combos.max() <= 2.0 + 1e-9
