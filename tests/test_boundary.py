import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from strategies import jw_grids, rel_err, root_reference, routh_gains

from waveplatoon.boundary import (
    VARIANTS,
    AbsorberState,
    ChainModel,
    FirBuffer,
    Ramp,
    absorber_front_step,
    absorber_rear_step,
    chain_tf_prediction,
    kappa_front,
    kappa_rear,
    make_front_absorber,
    make_rear_absorber,
    past_taps,
    ramp_slopes,
    squared_fir,
)
from waveplatoon.errors import IndexOutOfRange, InvalidConfig
from waveplatoon.lti import eval_at, tf_mul
from waveplatoon.wave import (
    CouplingRatio,
    coupling_from_gains,
    wave_fir,
    wave_tf_approx,
    wave_tf_exact,
)


@pytest.fixture(scope="module")
def nominal():
    c = coupling_from_gains(4.0, 4.0, 4.0)
    ap = wave_tf_approx(c)
    return c, ap


@pytest.fixture(scope="module")
def nominal_fir(nominal):
    _, ap = nominal
    return wave_fir(ap, 100.0, 15.0)


def test_absorption_null(nominal):
    # an absorber commanding G_L*incoming leaves a small reflection where
    # the approximant has converged (the band below ~0.5 rad/s carries its
    # documented resonance error)
    c, ap = nominal
    for s in (1.0j, 2.0j, 1.0 + 0.5j, 5.0):
        g = wave_tf_exact(eval_at(c.tf, s))
        g_l = eval_at(ap.approx, s)
        assert abs(g * g_l - g * g) < 2e-2


def test_end_gains_refuse_couplings_off_the_series():
    # ki = -4 gives c = xi/ki < 0, and a coupling scaled by 1.001 is not 2
    # at s = 0: neither has end gains, and both gains must say so
    scaled = CouplingRatio(tf_mul(coupling_from_gains(4.0, 4.0, 4.0).tf, 1.001))
    for c in (coupling_from_gains(4.0, -4.0, 4.0), scaled):
        for gain in (kappa_front, kappa_rear):
            with pytest.raises(InvalidConfig):
                gain(c)


def test_kappa_front_values():
    for kp, ki, xi, want in (
        (4.0, 4.0, 4.0, -1.0),
        (4.0, 1.0, 4.0, -0.5),
        (4.0, 9.0, 4.0, -1.5),
    ):
        c = coupling_from_gains(kp, ki, xi)
        assert kappa_front(c) == pytest.approx(want, abs=1e-3)


def test_kappa_rear_values():
    assert kappa_rear(coupling_from_gains(4.0, 4.0, 4.0)) == pytest.approx(
        1.0, abs=1e-3
    )
    # sqrt(xi/ki) = 2
    assert kappa_rear(coupling_from_gains(4.0, 1.0, 4.0)) == pytest.approx(
        2.0, abs=1e-2
    )


def test_ramp_slopes():
    w0, wr = ramp_slopes(1.0, 1.0, kappa_front=-1.0, kappa_rear=1.0)
    assert w0 == pytest.approx(1.0)
    assert wr == pytest.approx(0.0)
    assert ramp_slopes(1.0, 0.0, -1.0, 1.0) == pytest.approx((0.5, 0.5))


def test_ramp_piecewise():
    r = Ramp(2.0, start=1.0)
    assert r(0.5) == 0.0
    assert r(2.0) == pytest.approx(2.0)
    r2 = r.continued(0.5, at=2.0)
    assert r2(2.0) == pytest.approx(r(2.0))
    assert r2(4.0) == pytest.approx(2.0 + 0.5 * 2.0)


def _newest_fir_product(buf, taps):
    """The FIR product at the newest sample, as the absorbers form it."""
    (value,) = np.correlate(buf.window(1), taps[::-1], "valid")
    return value


def test_fir_buffer_matches_full_convolution():
    rng = np.random.default_rng(2)
    taps = rng.normal(size=9)
    buf = FirBuffer(9)
    hist = []
    for x in rng.normal(size=40):
        buf.extend((x,))
        hist.append(x)
        want = sum(
            taps[j] * hist[-1 - j] for j in range(min(9, len(hist)))
        )
        assert _newest_fir_product(buf, taps) == pytest.approx(want)


def test_fir_buffer_short_history_zero_padded():
    buf = FirBuffer(3)
    taps = np.array([1.0, 2.0, 3.0])
    buf.extend((5.0,))
    assert _newest_fir_product(buf, taps) == pytest.approx(5.0)
    buf.extend((1.0, 5.0))
    assert _newest_fir_product(buf, taps) == pytest.approx(5.0 + 2.0 + 3.0 * 5.0)


def test_fir_buffer_block_window_matches_numpy():
    # blocks of uneven length, enough of them that the buffer moves its
    # newest samples to the front several times and once grows
    rng = np.random.default_rng(5)
    taps = rng.normal(size=12)
    buf = FirBuffer(12)
    hist = np.zeros(0)
    for count in [1, 7, 30, 3, 60, 12] * 4:
        block = rng.normal(size=count)
        buf.extend(block)
        hist = np.concatenate([hist, block])
        want = np.convolve(hist, taps)[len(hist) - count : len(hist)]
        got = np.correlate(buf.window(count), taps[::-1], "valid")
        assert got == pytest.approx(want)
    with pytest.raises(ValueError):
        buf.window(len(hist))


def test_squared_fir(nominal_fir):
    sq = squared_fir(nominal_fir)
    assert len(sq.taps) == len(nominal_fir.taps)
    assert sq.fs == nominal_fir.fs
    assert sq.dc == pytest.approx(1.0, abs=0.02)
    full = np.convolve(nominal_fir.taps, nominal_fir.taps)
    assert np.allclose(sq.taps, full[: len(sq.taps)])


def test_squared_fir_tail_guard():
    from waveplatoon.wave import WaveFIR

    # all the self-convolution mass lands beyond the kept window
    taps = np.zeros(11)
    taps[-1] = 1.0
    with pytest.raises(InvalidConfig):
        squared_fir(WaveFIR(taps=taps, fs=10.0, span=1.0))


def test_front_absorber_quiet(nominal_fir):
    state = make_front_absorber(nominal_fir)
    assert absorber_front_step(state, 0.0, 0.0) == 0.0
    assert absorber_front_step(state, 0.0, 0.0) == 0.0


def test_front_absorber_initial_slope(nominal_fir):
    # quiet neighbor: command starts ramping at exactly the ramp slope
    state = make_front_absorber(nominal_fir)
    ramp = Ramp(0.5)
    dt = 1.0 / nominal_fir.fs
    cmds = [absorber_front_step(state, 0.0, ramp(k * dt)) for k in range(40)]
    v = np.diff(cmds) / dt
    assert v[0] == pytest.approx(0.5, abs=1e-9)
    assert v[5] == pytest.approx(0.5, abs=1e-3)


def test_rear_absorber_quiet(nominal_fir):
    state = make_rear_absorber(nominal_fir)
    assert absorber_rear_step(state, 0.0, 0.0) == 0.0


@pytest.mark.parametrize("length,count", [(1501, 10), (4, 7), (1, 3)])
def test_past_taps_weigh_the_samples_before_a_block(length, count):
    # tick i of a block sees the sample l ticks back through h_l; the
    # samples before the block are the ``length - 1`` newest, oldest first
    rng = np.random.default_rng(length)
    taps = rng.normal(size=length)
    past = rng.normal(size=length - 1)
    want = [
        sum(taps[lag] * past[-(lag - i)] for lag in range(i + 1, length))
        for i in range(count)
    ]
    got = past @ past_taps(taps, count)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(taps).sum()


def test_chain_prediction_front_dc(nominal):
    c, _ = nominal
    model = ChainModel(c, n_vehicles=3)
    pred = chain_tf_prediction(model, "front", 0)
    assert pred.from_front(1e-6) == pytest.approx(2.0, abs=1e-4)
    assert pred.from_rear is None


def test_chain_prediction_two_sided_identity(nominal):
    c, _ = nominal
    model = ChainModel(c, n_vehicles=3)
    pred = chain_tf_prediction(model, "two_sided", 0)
    assert pred.from_front(1.0) == pytest.approx(1.0)


def test_chain_prediction_rear_anchored(nominal):
    # rear-command path vanishes at the commanded leader
    c, _ = nominal
    model = ChainModel(c, n_vehicles=4)
    pred = chain_tf_prediction(model, "rear", 0)
    assert pred.from_front(0.7j) == pytest.approx(1.0)
    assert abs(pred.from_rear(0.7j)) < 1e-12


def test_chain_prediction_string_stability_bound(nominal):
    c, _ = nominal
    w = np.logspace(-3, 2, 800)
    for n_vehicles in (3, 6, 11):
        model = ChainModel(c, n_vehicles=n_vehicles)
        pred = chain_tf_prediction(model, "front", 0)
        assert np.abs(pred.from_front.freq_response(w).values).max() <= 2.0 + 1e-6


def test_chain_prediction_index_check(nominal):
    c, _ = nominal
    model = ChainModel(c, n_vehicles=3)
    with pytest.raises(IndexOutOfRange):
        chain_tf_prediction(model, "none", 3)
    with pytest.raises(InvalidConfig):
        chain_tf_prediction(model, "sideways", 0)


def test_chain_approx_mode_matches_recursion(nominal):
    c, ap = nominal
    model = ChainModel(c, n_vehicles=2, mode="approx")
    pred = chain_tf_prediction(model, "none", 1)
    s = 1.0j
    g = eval_at(ap.approx, s)
    want = g * (1 + g) / (1 + g**3)
    assert pred.from_front(s) == pytest.approx(want, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    gains=routh_gains(),
    w=jw_grids(),
    mode=st.sampled_from(("exact", "approx")),
    variant=st.sampled_from(VARIANTS),
    n_vehicles=st.integers(2, 8),
)
# near s = 0 the rear formula 1 - g**2 cancels, so roundoff in g grows
# there; the bound applies to the wave values, the formula is pinned exactly
@example(
    gains=(3.0, 3.0, 2.5), w=np.array([10**-2.5]), mode="exact",
    variant="rear", n_vehicles=2,
)
def test_evaluator_freq_response_matches_points(gains, w, mode, variant, n_vehicles):
    model = ChainModel(coupling_from_gains(*gains), n_vehicles, mode=mode)
    pred = chain_tf_prediction(model, variant, n_vehicles // 2)
    # per-point wave values built without the evaluator's array code: the
    # plain-complex root, or the scalar recursion g <- 1/(alpha - g)
    waves = []
    for p in w:
        alpha = complex(eval_at(model.coupling.tf, 1j * p))
        if mode == "exact":
            waves.append(root_reference(alpha))
            continue
        g = 1.0 + 0.0j
        for _ in range(model.iterations):
            g = 1.0 / (alpha - g)
        waves.append(g)
    waves = np.array(waves)
    wave_values = pred.from_front._wave_values
    g = wave_values(1j * w)
    assert rel_err(g, waves) <= 1e-12
    points = np.array([wave_values([1j * p])[0] for p in w])
    assert rel_err(points, waves) <= 1e-12
    for evaluator in (pred.from_front, pred.from_rear):
        if evaluator is None:
            continue
        assert np.array_equal(evaluator.freq_response(w).values, evaluator.formula(g))
        for p, gp in zip(w, points):
            assert evaluator(1j * p) == complex(evaluator.formula(gp))
