import numpy as np
import pytest

from waveplatoon.boundary import (
    AbsorberState,
    ChainModel,
    FirBuffer,
    GainReport,
    Ramp,
    absorber_front_step,
    absorber_rear_step,
    chain_tf_prediction,
    forced_end_reflection_tf,
    free_end_reflection_tf,
    kappa_front,
    kappa_rear,
    make_front_absorber,
    make_rear_absorber,
    ramp_slopes,
    squared_fir,
)
from waveplatoon.errors import (
    IndexOutOfRange,
    InvalidConfig,
    NonMonotonicTime,
    SampleRateMismatch,
)
from waveplatoon.lti import dc_gain, eval_at
from waveplatoon.wave import (
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


def test_forced_end_values(nominal):
    c, ap = nominal
    cmd_term, wave_term = forced_end_reflection_tf(c, ap)
    assert eval_at(cmd_term, 1.0) == pytest.approx(0.46241, abs=1e-5)
    assert eval_at(wave_term, 1.0) == pytest.approx(-0.21382, abs=1e-5)


def test_reflection_sign_conventions(nominal):
    # commanded end flips the wave sign, spacing-regulated end keeps it
    c, ap = nominal
    _, wave_term = forced_end_reflection_tf(c, ap)
    assert dc_gain(wave_term) == pytest.approx(-1.0, abs=1e-3)
    a_term, _ = free_end_reflection_tf(c, ap)
    assert dc_gain(a_term) == pytest.approx(1.0, abs=1e-3)


def test_free_end_reference_term_pointwise(nominal):
    c, ap = nominal
    _, ref_term = free_end_reflection_tf(c, ap)
    for s in (1.0, 0.5j, 2.0 + 1.0j):
        direct = (eval_at(ap.approx, s) - 1.0) / (eval_at(c.tf, s) - 2.0)
        assert eval_at(ref_term, s) == pytest.approx(direct, rel=1e-6)


def test_absorption_null(nominal):
    # an absorber commanding G*incoming cancels the reflection exactly;
    # the approximant version is probed where it has converged (the
    # band below ~0.5 rad/s carries its documented resonance error)
    c, ap = nominal
    for s in (1.0j, 2.0j, 1.0 + 0.5j, 5.0):
        g = wave_tf_exact(eval_at(c.tf, s))
        residual = g * g - g * g
        assert abs(residual) < 1e-9
        g_l = eval_at(ap.approx, s)
        assert abs(g * g_l - g * g) < 2e-2


def test_kappa_front_values():
    for kp, ki, xi, want in (
        (4.0, 4.0, 4.0, -1.0),
        (4.0, 1.0, 4.0, -0.5),
        (4.0, 9.0, 4.0, -1.5),
    ):
        c = coupling_from_gains(kp, ki, xi)
        assert kappa_front(c) == pytest.approx(want, abs=1e-3)


def test_kappa_front_vehicle_independent(nominal):
    c, _ = nominal
    assert abs(kappa_front(c, vehicles=1) - kappa_front(c, vehicles=5)) < 1e-6


def test_kappa_rear_values():
    assert kappa_rear(coupling_from_gains(4.0, 4.0, 4.0)) == pytest.approx(
        1.0, abs=1e-3
    )
    value, forms = kappa_rear(coupling_from_gains(4.0, 1.0, 4.0), diagnostics=True)
    assert value == pytest.approx(2.0, abs=1e-2)
    assert forms["sqrt_ratio"] == pytest.approx(2.0)
    assert forms["gain_ratio"] == pytest.approx(0.25)


def test_ramp_slopes():
    r = ramp_slopes(1.0, 1.0, kappa_front=-1.0, kappa_rear=1.0)
    assert isinstance(r, GainReport)
    assert r.w0 == pytest.approx(1.0)
    assert r.wr == pytest.approx(0.0)
    assert ramp_slopes(1.0, 0.0, -1.0, 1.0).w0 == pytest.approx(0.5)


def test_ramp_piecewise():
    r = Ramp(2.0, start=1.0)
    assert r(0.5) == 0.0
    assert r(2.0) == pytest.approx(2.0)
    r2 = r.continued(0.5, at=2.0)
    assert r2(2.0) == pytest.approx(r(2.0))
    assert r2(4.0) == pytest.approx(2.0 + 0.5 * 2.0)


def test_fir_buffer_matches_full_convolution():
    rng = np.random.default_rng(2)
    taps = rng.normal(size=9)
    buf = FirBuffer(9)
    hist = []
    for x in rng.normal(size=40):
        buf.push(x)
        hist.append(x)
        want = sum(
            taps[j] * hist[-1 - j] for j in range(min(9, len(hist)))
        )
        assert buf.dot(taps) == pytest.approx(want)


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
    state = make_front_absorber(nominal_fir, Ramp(0.0))
    assert absorber_front_step(state, 0.0, 0.0) == 0.0
    assert (state.own_wave.a, state.own_wave.b) == (0.0, 0.0)
    assert absorber_front_step(state, 0.0, 0.01) == 0.0
    assert (state.own_wave.a, state.own_wave.b) == (0.0, 0.0)


def test_front_absorber_initial_slope(nominal_fir):
    # quiet neighbor: command starts ramping at exactly the ramp slope
    state = make_front_absorber(nominal_fir, Ramp(0.5))
    dt = 1.0 / nominal_fir.fs
    cmds = [absorber_front_step(state, 0.0, k * dt) for k in range(40)]
    v = np.diff(cmds) / dt
    assert v[0] == pytest.approx(0.5, abs=1e-9)
    assert v[5] == pytest.approx(0.5, abs=1e-3)


def test_front_absorber_consistency(nominal_fir):
    # position command always equals the sum of the two wave components
    rng = np.random.default_rng(4)
    state = make_front_absorber(nominal_fir, Ramp(0.3))
    dt = 1.0 / nominal_fir.fs
    for k in range(60):
        cmd = absorber_front_step(state, rng.normal(scale=0.01), k * dt)
        assert cmd == pytest.approx(state.own_wave.a + state.own_wave.b)


def test_rear_absorber_quiet(nominal_fir):
    state = make_rear_absorber(nominal_fir, Ramp(0.0), index=5)
    assert absorber_rear_step(state, 0.0, 0.0) == 0.0
    assert state.own_wave.index == 5


def test_rear_absorber_components_sum_to_neighbor(nominal_fir):
    rng = np.random.default_rng(8)
    state = make_rear_absorber(nominal_fir, Ramp(0.2))
    dt = 1.0 / nominal_fir.fs
    for k in range(60):
        x_prev = rng.normal(scale=0.01)
        absorber_rear_step(state, x_prev, k * dt)
        assert state.own_wave.a + state.own_wave.b == pytest.approx(x_prev)


def test_absorber_time_guards(nominal_fir):
    state = make_front_absorber(nominal_fir, Ramp(0.0))
    absorber_front_step(state, 0.0, 0.0)
    with pytest.raises(NonMonotonicTime):
        absorber_front_step(state, 0.0, 0.0)
    with pytest.raises(SampleRateMismatch):
        absorber_front_step(state, 0.0, 0.5)


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
