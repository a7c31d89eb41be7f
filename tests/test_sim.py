import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from waveplatoon import sim

from waveplatoon.errors import InvalidConfig, NonFiniteState
from waveplatoon.lti import freq_response
from waveplatoon.boundary import chain_tf_prediction, ChainModel
from waveplatoon.sim import (
    Event,
    NoiseSpec,
    PlatoonConfig,
    PlatoonDynamics,
    ScenarioSpec,
    VehicleState,
    build_platoon,
    chain_state_space,
    inject_noise,
    run_scenario,
    step,
    trace_to_csv,
)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        PlatoonConfig(n_vehicles=1)
    with pytest.raises(InvalidConfig):
        PlatoonConfig(n_vehicles=5, dt=-0.01)
    with pytest.raises(InvalidConfig):
        PlatoonConfig(n_vehicles=5, dt=0.01, fs_ctrl=30.0)
    with pytest.raises(InvalidConfig):
        PlatoonConfig(n_vehicles=5, d_ref0=-1.0)
    assert PlatoonConfig(n_vehicles=5, dt=0.005, fs_ctrl=100.0).substeps == 2
    # a zero gap reference is legal: the rest-pose noise experiment uses it
    assert build_platoon(PlatoonConfig(n_vehicles=3, d_ref0=0.0))[0].x == 0.0


def test_build_platoon_layout():
    cfg = PlatoonConfig(n_vehicles=4, d_ref0=2.5)
    states = build_platoon(cfg)
    assert [s.x for s in states] == [7.5, 5.0, 2.5, 0.0]
    assert all(s.v == 0.0 and s.z == 0.0 for s in states)


def test_scenario_validation():
    with pytest.raises(InvalidConfig):
        Event(1.0, "set_mood", 3.0)
    with pytest.raises(InvalidConfig):
        ScenarioSpec(duration=10.0, variant="sideways")
    with pytest.raises(InvalidConfig):
        ScenarioSpec(duration=10.0, events=((5.0, "set_v_ref", 1.0), (2.0, "set_v_ref", 0.0)))
    with pytest.raises(InvalidConfig):
        ScenarioSpec(duration=10.0, events=((50.0, "set_v_ref", 1.0),))
    with pytest.raises(InvalidConfig):
        ScenarioSpec(duration=10.0, out_every=0)
    spec = ScenarioSpec(duration=10.0, events=[(1.0, "set_v_ref", 1.0)])
    assert isinstance(spec.events[0], Event)


def test_equilibrium_is_fixed_point():
    cfg = PlatoonConfig(n_vehicles=6)
    states = build_platoon(cfg)
    current = states
    for _ in range(200):
        current = step(current, cfg, (states[0].x, None), None, cfg.dt)
    worst = max(
        max(abs(a.x - b.x), abs(a.v), abs(a.z))
        for a, b in zip(current, states)
    )
    assert worst < 1e-9 * 200


def test_translation_invariance():
    cfg = PlatoonConfig(n_vehicles=5)
    rng = np.random.default_rng(11)
    states = build_platoon(cfg)
    for s in states:
        s.v = rng.normal()
        s.z = rng.normal()
    shift = 123.456
    shifted = [VehicleState(s.x + shift, s.v, s.z) for s in states]
    out = step(states, cfg, (4.0, 1.0), None, cfg.dt)
    out_shifted = step(shifted, cfg, (4.0 + shift, 1.0 + shift), None, cfg.dt)
    for a, b in zip(out, out_shifted):
        assert abs(b.x - a.x - shift) < 1e-9
        assert abs(b.v - a.v) < 1e-9
        assert abs(b.z - a.z) < 1e-9


def test_step_matches_matrix_exponential():
    # step(eq + delta) - eq isolates the homogeneous transition map, which
    # the exact discretization gives as expm(A*dt)
    cfg = PlatoonConfig(n_vehicles=4)
    eq = build_platoon(cfg)
    rng = np.random.default_rng(3)
    delta = rng.normal(scale=0.1, size=3 * cfg.n_vehicles)
    perturbed = [
        VehicleState(s.x + delta[3 * i], delta[3 * i + 1], delta[3 * i + 2])
        for i, s in enumerate(eq)
    ]
    out = step(perturbed, cfg, (eq[0].x, None), None, cfg.dt)
    moved = np.array(
        [[s.x - e.x, s.v, s.z] for s, e in zip(out, eq)]
    ).ravel()
    dyn = PlatoonDynamics(cfg, rear_commanded=False)
    exact = expm(dyn.a * cfg.dt) @ delta
    # the head reports its controller output as velocity, not the inert
    # state slot the exponential propagates, so compare everything else
    mismatch = np.abs(moved - exact)
    mismatch[1] = 0.0
    assert np.max(mismatch) < 1e-9


def test_step_noise_shape_checked():
    cfg = PlatoonConfig(n_vehicles=5)
    states = build_platoon(cfg)
    with pytest.raises(InvalidConfig):
        step(states, cfg, (4.0, None), np.zeros(2), cfg.dt)


def test_step_divergence_guard():
    cfg = PlatoonConfig(n_vehicles=3)
    states = build_platoon(cfg)
    states[0].v = 2e6
    with pytest.raises(NonFiniteState):
        step(states, cfg, (states[0].x, None), None, cfg.dt)


def test_velocity_step_scenario_settles():
    cfg = PlatoonConfig(n_vehicles=5)
    spec = ScenarioSpec(duration=150.0, events=((1.0, "set_v_ref", 1.0),))
    trace = run_scenario(cfg, spec)
    assert trace.t[0] == 0.0
    assert trace.t[-1] == pytest.approx(150.0)
    assert trace.positions.shape == (len(trace.t), 5)
    assert np.allclose(
        trace.distances, trace.positions[:, :-1] - trace.positions[:, 1:]
    )
    assert np.max(np.abs(trace.velocities[-1] - 1.0)) < 0.01
    assert np.max(np.abs(trace.distances[-1] - 1.0)) < 0.01
    # rear command column stays empty without a rear absorber
    assert np.all(np.isnan(trace.commands[:, 1]))
    assert np.all(np.isfinite(trace.commands[:, 0]))


def test_absorber_variants_settle():
    cfg = PlatoonConfig(n_vehicles=5)
    for variant in ("front", "rear", "two_sided"):
        spec = ScenarioSpec(
            duration=120.0, events=((1.0, "set_v_ref", 1.0),), variant=variant
        )
        trace = run_scenario(cfg, spec)
        # absorbers carry a small steady offset from FIR truncation, well
        # inside the 2e-2 residual the approximant is held to
        assert np.max(np.abs(trace.velocities[-1] - 1.0)) < 0.02
        assert np.max(np.abs(trace.distances[-1] - 1.0)) < 0.02


def test_spacing_step_scenario():
    cfg = PlatoonConfig(n_vehicles=5)
    spec = ScenarioSpec(
        duration=200.0, events=((1.0, "set_d_ref", 2.0),), variant="rear"
    )
    trace = run_scenario(cfg, spec)
    assert np.max(np.abs(trace.distances[-1] - 2.0)) < 0.02
    assert np.max(np.abs(trace.velocities[-1])) < 0.01


def test_out_every_keeps_dynamics():
    cfg = PlatoonConfig(n_vehicles=4)
    spec = lambda k: ScenarioSpec(
        duration=20.0, events=((1.0, "set_v_ref", 0.5),), variant="front",
        out_every=k,
    )
    full = run_scenario(cfg, spec(1))
    thin = run_scenario(cfg, spec(10))
    assert np.allclose(full.positions[::10], thin.positions)
    assert np.allclose(full.t[::10], thin.t)


def _assert_decimation_exact(config, spec, k):
    """``out_every=k`` must equal ``out_every=1`` sampled every k-th tick."""
    full = run_scenario(config, spec(1))
    thin = run_scenario(config, spec(k))
    assert np.array_equal(thin.t, full.t[::k])
    for field in ("positions", "velocities", "commands"):
        want = getattr(full, field)[::k]
        got = getattr(thin, field)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        scale = np.nanmax(np.abs(want))
        assert np.nanmax(np.abs(got - want)) <= 1e-9 * scale, field


def test_decimated_fold_matches_per_tick_sampling():
    # no absorber: the run jumps over the ticks between outputs and events;
    # events sit off the output grid and each tick spans two plant steps
    cfg = PlatoonConfig(n_vehicles=6, dt=0.005)
    spec = lambda k: ScenarioSpec(
        duration=30.0,
        events=((0.37, "set_v_ref", 1.0), (11.13, "set_d_ref", 1.4),
                (17.0, "set_v_ref", 0.4)),
        noise=NoiseSpec(variance=0.05, seed=12),
        variant="none",
        out_every=k,
    )
    _assert_decimation_exact(cfg, spec, 9)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 12),
    k=st.integers(1, 25),
    seed=st.integers(0, 2**31 - 1),
    event_tick=st.integers(0, 400),
)
def test_decimated_fold_property(n, k, seed, event_tick):
    cfg = PlatoonConfig(n_vehicles=n)
    spec = lambda every: ScenarioSpec(
        duration=4.0,
        events=((event_tick / 100.0, "set_v_ref", 1.0),),
        noise=NoiseSpec(variance=0.1, seed=seed),
        out_every=every,
    )
    _assert_decimation_exact(cfg, spec, k)


@pytest.mark.parametrize("noise", [None, NoiseSpec(variance=0.2, seed=4)])
def test_guard_sees_ticks_between_samples(monkeypatch, noise):
    # the guard passes a limit just above the peak follower speed over all
    # ticks and trips on one between that peak and the peak at the sampled
    # ticks: only a guard that evaluates every tick exactly does both
    cfg = PlatoonConfig(n_vehicles=5)
    spec = lambda k: ScenarioSpec(
        duration=20.0, events=((0.0, "set_v_ref", 1.0),), noise=noise,
        out_every=k,
    )
    speeds = np.abs(run_scenario(cfg, spec(1)).velocities[:, 1:]).max(axis=1)
    peak, sampled = speeds.max(), speeds[::50].max()
    assert peak > sampled
    monkeypatch.setattr(sim, "VELOCITY_LIMIT", peak * (1.0 + 1e-9))
    run_scenario(cfg, spec(50))
    monkeypatch.setattr(sim, "VELOCITY_LIMIT", 0.5 * (peak + sampled))
    with pytest.raises(NonFiniteState):
        run_scenario(cfg, spec(50))


def test_unstable_gains_raise_when_decimated():
    cfg = PlatoonConfig(n_vehicles=3, ki=-50.0)
    spec = ScenarioSpec(
        duration=30.0, events=((0.5, "set_v_ref", 1.0),), out_every=50
    )
    with pytest.raises(NonFiniteState):
        run_scenario(cfg, spec)


def test_dt_refinement_converges():
    coarse = PlatoonConfig(n_vehicles=5, dt=0.01)
    fine = PlatoonConfig(n_vehicles=5, dt=0.005)
    spec = ScenarioSpec(duration=40.0, events=((1.0, "set_v_ref", 1.0),))
    a = run_scenario(coarse, spec)
    b = run_scenario(fine, spec)
    assert np.max(np.abs(a.positions[-1] - b.positions[-1])) < 1e-4


def test_noise_runs_are_seeded():
    cfg = PlatoonConfig(n_vehicles=5)
    mk = lambda seed: ScenarioSpec(
        duration=20.0, noise=NoiseSpec(variance=0.01, seed=seed), variant="none"
    )
    a = run_scenario(cfg, mk(42))
    b = run_scenario(cfg, mk(42))
    c = run_scenario(cfg, mk(43))
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_zero_variance_noise_is_clean():
    cfg = PlatoonConfig(n_vehicles=4)
    quiet = ScenarioSpec(duration=10.0, noise=NoiseSpec(variance=0.0, seed=7))
    clean = ScenarioSpec(duration=10.0)
    a = run_scenario(cfg, quiet)
    b = run_scenario(cfg, clean)
    assert np.array_equal(a.positions, b.positions)


def test_inject_noise_contract():
    rng = np.random.default_rng(5)
    draws = inject_noise(rng, 0.25, 7)
    assert draws.shape == (7,)
    assert np.array_equal(inject_noise(rng, 0.0, 4), np.zeros(4))
    again = inject_noise(np.random.default_rng(5), 0.25, 7)
    assert np.array_equal(draws, again)


def test_unstable_gains_raise():
    cfg = PlatoonConfig(n_vehicles=3, ki=-50.0)
    spec = ScenarioSpec(duration=30.0, events=((0.5, "set_v_ref", 1.0),))
    with pytest.raises(NonFiniteState):
        run_scenario(cfg, spec)


def test_chain_state_space_matches_wave_model():
    # the wave decomposition of the head-driven chain is exact, so the
    # state-space frequency response must agree with the exact-branch model
    n = 4
    ss = chain_state_space(4.0, 4.0, 4.0, n)
    model = ChainModel(
        coupling=PlatoonConfig(n_vehicles=n).coupling(),
        n_vehicles=n,
        mode="exact",
    )
    pred = chain_tf_prediction(model, "none", n - 1)
    omegas = np.logspace(-2, 1, 40)
    mine = np.array([pred.from_front(1j * w) for w in omegas])
    ref = ss.freq_response(omegas)
    assert np.max(np.abs(mine - ref.values)) < 1e-8


def test_trace_csv_round_trip(tmp_path):
    cfg = PlatoonConfig(n_vehicles=3)
    spec = ScenarioSpec(duration=2.0, events=((0.5, "set_v_ref", 1.0),))
    trace = run_scenario(cfg, spec)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x0,x1,x2,v0,v1,v2,d0,d1"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(trace.t), 1 + 3 + 3 + 2)
    assert np.allclose(data[:, 1:4], trace.positions)
