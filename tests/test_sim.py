import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from strategies import routh_gains

from waveplatoon import sim

from waveplatoon.errors import InvalidConfig, NonFiniteState
from waveplatoon.lti import freq_response
from waveplatoon.boundary import (
    ChainModel,
    chain_tf_prediction,
    kappa_front,
    kappa_rear,
)
from waveplatoon.sim import (
    VARIANTS,
    Event,
    NoiseSpec,
    PlatoonConfig,
    PlatoonDynamics,
    ScenarioSpec,
    build_platoon,
    chain_state_space,
    inject_noise,
    run_scenario,
    trace_to_csv,
)
from waveplatoon.wave import coupling_from_gains, wave_fir, wave_tf_approx, wave_tf_exact


@pytest.fixture(scope="module")
def nominal_fir():
    return wave_fir(wave_tf_approx(PlatoonConfig(n_vehicles=2).coupling()), 100.0)


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
    assert build_platoon(PlatoonConfig(n_vehicles=3, d_ref0=0.0))[0] == 0.0


def test_build_platoon_layout(nominal_fir):
    # [x, v, z] per vehicle, evenly spaced, last vehicle at zero: the pose
    # every run starts from, whichever ends are commanded
    cfg = PlatoonConfig(n_vehicles=4, d_ref0=2.5)
    rest = build_platoon(cfg)
    assert rest.shape == (12,)
    assert list(rest[0::3]) == [7.5, 5.0, 2.5, 0.0]
    assert not rest[1::3].any() and not rest[2::3].any()
    for variant in VARIANTS:
        spec = ScenarioSpec(duration=0.1, variant=variant)
        first = run_scenario(cfg, spec, fir=nominal_fir)
        assert first.t[0] == 0.0
        assert list(first.positions[0]) == [7.5, 5.0, 2.5, 0.0]
        assert not first.velocities[0].any()


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


def _dynamics(gains, n, rear_commanded, dt=0.01):
    kp, ki, xi = gains
    cfg = PlatoonConfig(
        n_vehicles=n, kp=kp, ki=ki, xi=xi, dt=dt, fs_ctrl=1.0 / dt
    )
    return PlatoonDynamics(cfg, rear_commanded)


def _rest_state(dyn):
    """Augmented rest state: the plant at rest, the head input on the ramp
    slot, and the tail input on the spacing slot or, for a commanded tail,
    on its held and fresh command slots."""
    z = np.zeros(dyn.dim)
    z[: dyn.n_states] = build_platoon(dyn.config)
    z[dyn.ramp] = z[0]
    if dyn.rear_commanded:
        z[dyn.rear_held] = z[dyn.rear_fresh] = z[dyn.n_states - 3]
    else:
        z[dyn.spacing] = dyn.config.d_ref0
    return z


@settings(max_examples=40, deadline=None)
@given(gains=routh_gains(), n=st.integers(2, 12), rear_commanded=st.booleans())
def test_equilibrium_is_fixed_point(gains, n, rear_commanded):
    dyn = _dynamics(gains, n, rear_commanded)
    rest = _rest_state(dyn)
    z = rest
    for k in range(1, 201):
        z = dyn.tick_map @ z
        assert np.abs(z - rest).max() < 1e-9 * k


@settings(max_examples=40, deadline=None)
@given(
    gains=routh_gains(),
    n=st.integers(2, 12),
    rear_commanded=st.booleans(),
    shift=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**31 - 1),
)
def test_translation_invariance(gains, n, rear_commanded, shift, seed):
    # shifting every position and every absolute end command (the head's
    # ramp slot, a commanded tail's held and fresh slots) by ``shift``
    # shifts them by as much one tick later and leaves velocities,
    # integrators and the other slots alone
    dyn = _dynamics(gains, n, rear_commanded)
    absolute = np.zeros(dyn.dim)
    absolute[0 : dyn.n_states : 3] = 1.0
    absolute[dyn.ramp] = 1.0
    if rear_commanded:
        absolute[[dyn.rear_held, dyn.rear_fresh]] = 1.0
    z = np.random.default_rng(seed).normal(size=dyn.dim)
    diff = dyn.tick_map @ (z + shift * absolute) - dyn.tick_map @ z
    assert np.abs(diff - shift * absolute).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    gains=routh_gains(),
    n=st.integers(2, 12),
    rear_commanded=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_tick_map_matches_matrix_exponential(gains, n, rear_commanded, seed):
    # with one plant step per tick, the plant block of the tick map acting
    # on a perturbation of the rest state is the exact discretization
    # expm(a*dt) up to RK4's local error, which grows like (dt*|a|)**5. At
    # the stiffest gains and dt = 0.01 the map is off by 1e-7 entrywise, so
    # the step is halved until dt times the spectral radius of ``a`` is at
    # most 0.02, where the error on a perturbation stays near 2e-11
    dt = 0.01
    rho = np.abs(np.linalg.eigvals(_dynamics(gains, n, rear_commanded).a)).max()
    while dt * rho > 0.02:
        dt /= 2
    dyn = _dynamics(gains, n, rear_commanded, dt)
    assert dyn.config.substeps == 1
    delta = np.random.default_rng(seed).normal(scale=0.1, size=dyn.n_states)
    rest = _rest_state(dyn)
    perturbed = rest.copy()
    perturbed[: dyn.n_states] += delta
    moved = (dyn.tick_map @ perturbed - rest)[: dyn.n_states]
    assert np.abs(moved - expm(dyn.a * dt) @ delta).max() < 1e-9


def _velocity_formula(dyn, z):
    """Velocities at the start of a tick from the plant's equations: a
    follower's velocity slot, and a commanded end's PI output
    ``kp*(u - x) + ki*z`` under its input ``u``, the ramp or spacing slot
    plus the held command."""
    kp, ki = dyn.config.kp, dyn.config.ki
    s = z[: dyn.n_states]
    v = s[1::3].copy()
    v[0] = kp * (z[dyn.ramp] + z[dyn.front_held] - s[0]) + ki * s[2]
    if dyn.rear_commanded:
        u = z[dyn.spacing] + z[dyn.rear_held]
        v[-1] = kp * (u - s[-3]) + ki * s[-1]
    return v


@settings(max_examples=40, deadline=None)
@given(
    gains=routh_gains(),
    n=st.integers(2, 12),
    rear_commanded=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_velocity_rows_match_formula(gains, n, rear_commanded, seed):
    dyn = _dynamics(gains, n, rear_commanded)
    z = np.random.default_rng(seed).normal(scale=10.0, size=dyn.dim)
    got = dyn.velocity_rows @ z
    want = _velocity_formula(dyn, z)
    ends = [0, n - 1] if rear_commanded else [0]
    followers = np.setdiff1d(np.arange(n), ends)
    assert np.array_equal(got[followers], want[followers])
    # each end sums four terms, kp times three entries of z and ki times one
    scale = np.abs(z).max() * (3 * gains[0] + gains[1])
    assert np.abs(got[ends] - want[ends]).max() <= 1e-14 * scale


@settings(max_examples=40, deadline=None)
@given(gains=routh_gains())
def test_wave_gain_bounded_on_jw_axis(gains):
    alphas = freq_response(
        coupling_from_gains(*gains).tf, np.logspace(-3, 3, 400)
    ).values
    assert max(abs(wave_tf_exact(a)) for a in alphas) <= 1.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(gains=routh_gains())
@example(gains=(4.0, 4.0, 4.0))
@example(gains=(4.0, 1.0, 4.0))
@example(gains=(4.0, 9.0, 4.0))  # outside routh_gains: xi*kp < 2*ki
def test_head_gain_closed_form(gains):
    # both end gains, read off the coupling's coefficients, against the
    # friction plant's closed forms
    kp, ki, xi = gains
    c = coupling_from_gains(*gains)
    assert kappa_front(c) == pytest.approx(-np.sqrt(ki / xi), rel=1e-12, abs=0)
    assert kappa_rear(c) == pytest.approx(np.sqrt(xi / ki), rel=1e-12, abs=0)


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


def _dot(taps, history):
    """``sum_i taps[i] * history[-1 - i]`` over the history there is."""
    recent = history[-len(taps):][::-1]
    return float(np.dot(taps[: len(recent)], recent))


class _ReferenceAbsorber:
    """An absorber written from the equations in ``boundary``'s comments,
    with plain lists of its past samples and sent ramp values. With ``h``
    the wave FIR, ``h2`` the squared FIR and missing history zero, tick
    ``k`` gives
    head: u_k = r_k + sum_i h_i y_{k-i} - sum_{i>=1} h2_i r_{k-i}
    tail: y_k = measured_k - sum_i h_i r_{k-i}, u_k = r_k + sum_i h_i y_{k-i}
    """

    def __init__(self, taps, head):
        self.taps = taps
        self.head = head
        self.squared = np.convolve(taps, taps)[: len(taps)]
        self.samples, self.sent = [], []

    def step(self, measured, sent):
        if self.head:
            echo = _dot(self.squared[1:], self.sent)
            self.sent.append(sent)
            self.samples.append(measured)
            return sent + _dot(self.taps, self.samples) - echo
        self.sent.append(sent)
        self.samples.append(measured - _dot(self.taps, self.sent))
        return sent + _dot(self.taps, self.samples)


def _per_tick_reference(config, spec, fir):
    """``run_scenario`` one control tick at a time: the tick map, its noise
    block and absorbers written from their equations, sampled every
    ``out_every``."""
    m, variant = config.n_vehicles, spec.variant
    dyn = PlatoonDynamics(config, rear_commanded=variant in ("rear", "two_sided"))
    n = dyn.n_states
    z = np.zeros(dyn.dim)
    z[0:n:3] = (m - 1 - np.arange(m)) * config.d_ref0
    x0 = z[:n].copy()
    refs = sim._ReferenceTracker(config, variant)
    front = rear = None
    if variant in ("front", "two_sided"):
        front = _ReferenceAbsorber(fir.taps, head=True)
        z[dyn.front_held] = x0[0]
    if variant in ("rear", "two_sided"):
        rear = _ReferenceAbsorber(fir.taps, head=False)
        z[dyn.rear_held] = x0[n - 3]
    rng = np.random.default_rng(spec.noise.seed)
    events = list(spec.events)
    rows = []
    for k in range(int(round(spec.duration * config.fs_ctrl)) + 1):
        t = k * (1.0 / config.fs_ctrl)
        while events and events[0].time <= t + 1e-12:
            refs.apply(events.pop(0), t)
        w = inject_noise(rng, spec.noise.variance, m - 1)
        cmd = [x0[0] + refs.front_ramp(t), np.nan]
        if front is not None:
            cmd[0] = x0[0] + front.step(z[3] - x0[3], refs.front_ramp(t))
            z[dyn.front_fresh] = cmd[0]
        else:
            z[dyn.ramp], z[dyn.ramp_slope] = cmd[0], refs.front_ramp.slope
        if rear is not None:
            measured = z[n - 6] - x0[n - 6] + w[m - 2]
            cmd[1] = x0[n - 3] + rear.step(measured, refs.rear_ramp(t))
            z[dyn.rear_fresh] = cmd[1]
        else:
            z[dyn.spacing] = refs.d_target
        if k % spec.out_every == 0:
            rows.append((t, z[0:n:3].copy(), _velocity_formula(dyn, z), cmd))
        z = dyn.tick_map @ z + dyn.tick_noise @ w
    t, x, v, c = (np.array(col) for col in zip(*rows))
    return sim.SimulationTrace(t, x, v, c, variant)


def _assert_matches_reference(config, spec, fir):
    got = run_scenario(config, spec, fir=fir)
    want = _per_tick_reference(config, spec, fir)
    assert np.array_equal(got.t, want.t)
    if spec.variant == "none":
        # the head command is the ramp, sampled from its own formula
        assert np.array_equal(got.commands, want.commands, equal_nan=True)
    for field in ("positions", "velocities", "commands"):
        a, b = getattr(got, field), getattr(want, field)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        scale = np.nanmax(np.abs(b))
        assert np.nanmax(np.abs(a - b)) <= 1e-9 * scale, field


@settings(max_examples=25, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    n=st.integers(3, 12),
    k=st.integers(1, 25),
    dt=st.sampled_from((0.01, 0.005)),
    seed=st.integers(0, 2**31 - 1),
    event_tick=st.integers(1, 300),
)
def test_block_stepper_matches_per_tick_reference(
    nominal_fir, variant, n, k, dt, seed, event_tick
):
    # blocks end at output samples and at an event tick that sits off the
    # output grid, so full and partial blocks both occur; without absorbers
    # the full ones run in chunks
    if k > 1 and event_tick % k == 0:
        event_tick += 1
    cfg = PlatoonConfig(n_vehicles=n, dt=dt)
    spec = ScenarioSpec(
        duration=4.0,
        events=((event_tick / 100.0, "set_v_ref", 1.0),),
        noise=NoiseSpec(variance=0.1, seed=seed),
        variant=variant,
        out_every=k,
    )
    _assert_matches_reference(cfg, spec, nominal_fir)


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_stepper_matches_reference_over_long_run(nominal_fir, variant):
    # 12 001 ticks: each absorber history (1501 taps in a buffer of 4*1501
    # samples that starts with 1501 zeros) moves its newest samples to the
    # front several times. The run crosses many chunks of full blocks,
    # with partial blocks at both events and at the end.
    cfg = PlatoonConfig(n_vehicles=6, dt=0.005)
    spec = ScenarioSpec(
        duration=120.0,
        events=((0.37, "set_v_ref", 1.0), (61.13, "set_d_ref", 1.4)),
        noise=NoiseSpec(variance=0.05, seed=21),
        variant=variant,
        out_every=9,
    )
    assert 120.0 * cfg.fs_ctrl > 2 * (3 * len(nominal_fir.taps) + 1)
    assert 120.0 * cfg.fs_ctrl > 2 * sim.CHUNK_BLOCKS * spec.out_every
    _assert_matches_reference(cfg, spec, nominal_fir)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("stride", [4, 5])
def test_stride_below_out_every_matches_reference(
    monkeypatch, nominal_fir, variant, stride
):
    # large platoons cap the stride below out_every; 4 ticks leave a short
    # block in every output interval and 5 tile it, and the events at
    # 0.35 s and 2.37 s fall on and off that tiling
    monkeypatch.setattr(sim, "_block_stride", lambda *args: stride)
    spec = ScenarioSpec(
        duration=8.0,
        events=((0.35, "set_v_ref", 1.0), (2.37, "set_d_ref", 1.4)),
        noise=NoiseSpec(variance=0.05, seed=8),
        variant=variant,
        out_every=10,
    )
    _assert_matches_reference(PlatoonConfig(n_vehicles=4), spec, nominal_fir)


_GUARD_NOISE = ((None, "None"), (NoiseSpec(variance=0.2, seed=4), "noise1"))


@pytest.mark.parametrize("variant,noise", [
    pytest.param(variant, noise, id=label if variant == "none" else f"{variant}-{label}")
    for variant in VARIANTS
    for noise, label in _GUARD_NOISE
])
def test_guard_sees_ticks_between_samples(monkeypatch, nominal_fir, variant, noise):
    # the guard passes a limit just above the peak speed of any vehicle over
    # all ticks and trips on one between that peak and the peak at the
    # sampled ticks: only a guard that evaluates every tick exactly does
    # both. Absorbers speed the platoon up without overshoot, so their runs
    # end off the output grid: without noise the peak then falls in the
    # unsampled last ticks.
    cfg = PlatoonConfig(n_vehicles=5)
    spec = lambda k: ScenarioSpec(
        duration=20.0 if variant == "none" else 20.25,
        events=((0.0, "set_v_ref", 1.0),), noise=noise, variant=variant,
        out_every=k,
    )
    trace = run_scenario(cfg, spec(1), fir=nominal_fir)
    speeds = np.abs(trace.velocities).max(axis=1)
    peak, sampled = speeds.max(), speeds[::50].max()
    assert peak > sampled
    monkeypatch.setattr(sim, "VELOCITY_LIMIT", peak * (1.0 + 1e-9))
    run_scenario(cfg, spec(50), fir=nominal_fir)
    monkeypatch.setattr(sim, "VELOCITY_LIMIT", 0.5 * (peak + sampled))
    with pytest.raises(NonFiniteState):
        run_scenario(cfg, spec(50), fir=nominal_fir)


def test_guard_sees_commanded_ends(monkeypatch, nominal_fir):
    # a spacing step drives both commanded ends to 0.547 m/s and no follower
    # past 0.375 m/s; a commanded end's speed is its controller output, with
    # no velocity state of its own
    monkeypatch.setattr(sim, "VELOCITY_LIMIT", 0.45)
    spec = ScenarioSpec(
        duration=60.0, events=((1.0, "set_d_ref", 2.0),), variant="two_sided",
        out_every=10,
    )
    with pytest.raises(NonFiniteState):
        run_scenario(PlatoonConfig(n_vehicles=5), spec, fir=nominal_fir)


def test_absorber_fir_rate_must_match_control_rate():
    half_rate = wave_fir(
        wave_tf_approx(PlatoonConfig(n_vehicles=2).coupling()), 50.0
    )
    spec = ScenarioSpec(duration=1.0, variant="front")
    with pytest.raises(InvalidConfig):
        run_scenario(PlatoonConfig(n_vehicles=3), spec, fir=half_rate)


def test_off_grid_event_time_rejected():
    # 0.005 s falls between two 100 Hz control ticks
    spec = ScenarioSpec(duration=1.0, events=((0.005, "set_v_ref", 1.0),))
    with pytest.raises(InvalidConfig, match="0.005"):
        run_scenario(PlatoonConfig(n_vehicles=3), spec)


@pytest.mark.parametrize("duration", [10.006, 0.004])
def test_off_grid_duration_rejected(duration):
    # the run would end on the next tick, past the time asked for
    spec = ScenarioSpec(duration=duration)
    with pytest.raises(InvalidConfig, match=f"time {duration} is not on"):
        run_scenario(PlatoonConfig(n_vehicles=3), spec)


def test_event_ticks_hold_on_long_runs():
    # two-decimal times up to 1e6 s lie on the 100 Hz grid; past 1e7 ticks
    # the roundoff of time * fs_ctrl alone exceeds 1e-9 ticks
    cents = np.random.default_rng(3).integers(0, 10**8, 20_000)
    assert [sim._event_tick(c / 100.0, 100.0) for c in cents] == list(cents)
    with pytest.raises(InvalidConfig, match="900000.005"):
        sim._event_tick(900000.005, 100.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_gains_raise_when_decimated(nominal_fir):
    # the absorbers run on the nominal FIR: unstable gains have no
    # approximant to build one from
    cfg = PlatoonConfig(n_vehicles=3, ki=-50.0)
    for variant in VARIANTS:
        spec = ScenarioSpec(
            duration=30.0, events=((0.5, "set_v_ref", 1.0),), variant=variant,
            out_every=50,
        )
        with pytest.raises(NonFiniteState):
            run_scenario(cfg, spec, fir=nominal_fir)


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


@pytest.mark.parametrize("variance", [-1.0, float("nan"), float("inf")])
def test_noise_variance_must_be_finite_and_non_negative(variance):
    # a bad variance would otherwise run noise-free
    with pytest.raises(InvalidConfig, match="variance"):
        NoiseSpec(variance=variance, seed=1)


def test_inject_noise_contract():
    rng = np.random.default_rng(5)
    draws = inject_noise(rng, 0.25, 7)
    assert draws.shape == (7,)
    assert np.array_equal(inject_noise(rng, 0.0, 4), np.zeros(4))
    again = inject_noise(np.random.default_rng(5), 0.25, 7)
    assert np.array_equal(draws, again)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_unstable_gains_raise(nominal_fir):
    cfg = PlatoonConfig(n_vehicles=3, ki=-50.0)
    spec = ScenarioSpec(duration=30.0, events=((0.5, "set_v_ref", 1.0),))
    with pytest.raises(NonFiniteState):
        run_scenario(cfg, spec)
    # at ki = -1e5 the tick map's spectral radius is about 18, so the state
    # overflows within the 1280 ticks a run advances at out_every=10 before
    # its guard looks; an absorber's lookback then reads the overflowed
    # samples of the chunk's earlier blocks
    cfg = PlatoonConfig(n_vehicles=3, ki=-1e5)
    for variant in VARIANTS:
        spec = ScenarioSpec(
            duration=30.0, events=((0.0, "set_v_ref", 1.0),), variant=variant,
            out_every=10,
        )
        with pytest.raises(NonFiniteState):
            run_scenario(cfg, spec, fir=nominal_fir)


@pytest.mark.parametrize("variant", ("front", "rear", "two_sided"))
def test_spacing_change_without_end_gains_raises(nominal_fir, variant):
    # unstable gains have no end gains, so an absorbing end cannot ramp to
    # a new spacing; a velocity change alone runs until the guard (above)
    cfg = PlatoonConfig(n_vehicles=3, ki=-50.0)
    spec = ScenarioSpec(
        duration=1.0, events=((0.5, "set_d_ref", 2.0),), variant=variant
    )
    with pytest.raises(InvalidConfig):
        run_scenario(cfg, spec, fir=nominal_fir)


@pytest.mark.parametrize("variant", VARIANTS)
def test_full_blocks_never_step_alone(monkeypatch, nominal_fir, variant):
    # every full block goes through a chunk; ``step`` takes only the blocks
    # up to and after the off-grid event and the run's last tick
    calls = []
    step = sim._BlockMaps.step

    def counted(self, *args):
        calls.append(args[-1].shape[1] - self.span)
        return step(self, *args)

    monkeypatch.setattr(sim._BlockMaps, "step", counted)
    spec = ScenarioSpec(
        duration=120.0,
        events=((0.37, "set_v_ref", 1.0), (60.0, "set_d_ref", 1.4)),
        variant=variant,
        out_every=10,
    )
    run_scenario(PlatoonConfig(n_vehicles=5), spec, fir=nominal_fir)
    # ticks 30-37 and 37-40 around the event at 0.37 s, and tick 12 000
    assert sorted(calls) == [1, 3, 7]


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
