import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from strategies import (
    ReferenceAbsorber,
    jw_grids,
    rel_err,
    root_reference,
    routh_gains,
)

from waveplatoon.boundary import (
    VARIANTS,
    ChainModel,
    absorber_front_step,
    absorber_rear_step,
    chain_tf_prediction,
    echo_taps,
    kappa_front,
    kappa_rear,
    make_front_absorber,
    make_rear_absorber,
    past_taps,
    ramp_echo,
    ramp_response,
    ramp_slopes,
    squared_fir,
)
from waveplatoon.errors import IndexOutOfRange, InvalidConfig
from waveplatoon.lti import RationalTF, eval_at
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
    tf = coupling_from_gains(4.0, 4.0, 4.0).tf
    scaled = CouplingRatio(RationalTF(tf.num.coeffs * 1.001, tf.den.coeffs))
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
    dt = 1.0 / nominal_fir.fs
    cmds = [absorber_front_step(state, 0.0, 0.5 * k * dt) for k in range(40)]
    v = np.diff(cmds) / dt
    assert v[0] == pytest.approx(0.5, abs=1e-9)
    assert v[5] == pytest.approx(0.5, abs=1e-3)


def test_rear_absorber_quiet(nominal_fir):
    state = make_rear_absorber(nominal_fir)
    assert absorber_rear_step(state, 0.0, 0.0) == 0.0


# 11 taps at 1 Hz over 10 s: short enough to step through several spans,
# long enough that the squared FIR drops under 0.1% of its mass
SHORT_FIR = wave_fir(wave_tf_approx(coupling_from_gains(4.0, 4.0, 4.0)), 1.0, 10.0)


@settings(max_examples=60, deadline=None)
@given(
    head=st.booleans(),
    ticks=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        min_size=1, max_size=6 * len(SHORT_FIR.taps),
    ),
)
@example(head=True, ticks=[(0.0, 1.0)] + [(-2.0, 0.5)] * 54)
@example(head=False, ticks=[(float(k % 7), float(k)) for k in range(55)])
def test_absorber_steps_match_reference(head, ticks):
    # random measured samples and ramp values, tick for tick against the
    # absorber written from its equations
    make, step = (
        (make_front_absorber, absorber_front_step) if head
        else (make_rear_absorber, absorber_rear_step)
    )
    state = make(SHORT_FIR)
    ref = ReferenceAbsorber(SHORT_FIR.taps, head=head)
    scale = max(1.0, *(abs(v) for tick in ticks for v in tick))
    for measured, sent in ticks:
        got = step(state, measured, sent)
        assert abs(got - ref.step(measured, sent)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(
    end=st.sampled_from(["front", "rear"]),
    start=st.integers(0, 6000),
    length=st.integers(1, 400),
    bends=st.lists(
        st.tuples(st.integers(0, 6400), st.floats(-3.0, 3.0)), max_size=4
    ),
)
# one bend at tick 0, two at one tick, one at the chunk's last tick, and
# the first two more than a span before the chunk, which starts off the
# output grid
@example(end="front", start=3001, length=300,
         bends=[(0, 1.0), (1200, 0.9), (1200, -2.5), (3300, 0.25)])
@example(end="rear", start=3001, length=300,
         bends=[(0, 1.0), (1200, 0.9), (1200, -2.5), (3300, 0.25)])
@example(end="front", start=0, length=1, bends=[(0, 1.0)])
@example(end="rear", start=2537, length=1, bends=[(0, 0.5), (2537, -0.5)])
def test_closed_form_echo_matches_correlation(nominal_fir, end, start, length, bends):
    # the echo of the sampled ramp (a sum of hinges, zero before tick 0)
    # through the end's taps, correlated over the whole history, against
    # its closed form from the bends alone
    dt = 1.0 / nominal_fir.fs
    taps = echo_taps(nominal_fir, end)
    ticks = np.arange(start + length)
    sent = sum(
        (change * dt * np.maximum(0, ticks - tick) for tick, change in bends),
        np.zeros(len(ticks)),
    )
    window = np.concatenate([np.zeros(len(taps) - 1), sent])
    want = np.correlate(window, taps[::-1], "valid")[start:]
    got = ramp_echo(ramp_response(taps), bends, ticks[start:], dt)
    scale = np.abs(taps).sum() * max(np.abs(sent).max(), 1e-300)
    assert np.shape(got) in ((), (length,))
    assert np.abs(got - want).max() <= 1e-12 * scale


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
