import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from strategies import ReferenceAbsorber, routh_gains

from waveplatoon import sim

from waveplatoon.errors import InvalidConfig, NonFiniteState
from waveplatoon.lti import freq_response
from waveplatoon.boundary import (
    ChainModel,
    chain_tf_prediction,
    kappa_front,
    kappa_rear,
)
from waveplatoon.plant import PlatoonDynamics, build_platoon, chain_state_space
from waveplatoon.sim import (
    VARIANTS,
    Event,
    NoiseSpec,
    PlatoonConfig,
    ScenarioSpec,
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


_NAN = float("nan")


@pytest.mark.parametrize("make", [
    lambda: ScenarioSpec(duration=_NAN),
    lambda: ScenarioSpec(duration=float("inf")),
    lambda: ScenarioSpec(duration=10.0, events=((_NAN, "set_v_ref", 1.0),)),
    lambda: ScenarioSpec(duration=10.0, events=((1.0, "set_d_ref", _NAN),)),
    lambda: PlatoonConfig(n_vehicles=5, kp=_NAN),
    lambda: PlatoonConfig(n_vehicles=5, ki=_NAN),
    lambda: PlatoonConfig(n_vehicles=5, xi=_NAN),
    lambda: PlatoonConfig(n_vehicles=5, d_ref0=_NAN),
    lambda: PlatoonConfig(n_vehicles=5, dt=_NAN),
    lambda: ScenarioSpec(duration=10.0, out_every=2.5),
    lambda: PlatoonConfig(n_vehicles=5.5),
    lambda: NoiseSpec(variance=1.0, seed=-1),
    lambda: NoiseSpec(variance=1.0, seed=1.5),
    lambda: ChainModel(coupling_from_gains(4.0, 4.0, 4.0), 4.5),
    lambda: chain_tf_prediction(ChainModel(coupling_from_gains(4.0, 4.0, 4.0), 4),
                                "none", 1.5),
    lambda: chain_state_space(4.0, 4.0, 4.0, 2.5),
    lambda: ChainModel(coupling_from_gains(4.0, 4.0, 4.0), 4, "approx", iterations=0),
    lambda: ChainModel(coupling_from_gains(4.0, 4.0, 4.0), 4, "approx", iterations=-3),
    lambda: ChainModel(coupling_from_gains(4.0, 4.0, 4.0), 4, "approx", iterations=2.5),
], ids=[
    "nan-duration", "inf-duration", "nan-event-time", "nan-event-value",
    "nan-kp", "nan-ki", "nan-xi", "nan-d_ref0", "nan-dt",
    "fractional-out_every", "fractional-n_vehicles", "negative-seed",
    "fractional-seed", "fractional-chain-size", "fractional-chain-index",
    "fractional-state-space-size", "zero-chain-depth", "negative-chain-depth",
    "fractional-chain-depth",
])
def test_bad_inputs_raise_invalid_config(make):
    # each was once accepted here and failed later with another error (a
    # ValueError or OverflowError from round, a TypeError from a float
    # array shape) or ran a whole simulation into the divergence guard
    with pytest.raises(InvalidConfig):
        make()


def test_numpy_integers_are_accepted():
    cfg = PlatoonConfig(n_vehicles=np.int64(4))
    spec = ScenarioSpec(duration=1.0, out_every=np.int32(10))
    assert len(run_scenario(cfg, spec).t) == 11


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
        front = ReferenceAbsorber(fir.taps, head=True)
        z[dyn.front_held] = x0[0]
    if variant in ("rear", "two_sided"):
        rear = ReferenceAbsorber(fir.taps, head=False)
        z[dyn.rear_held] = x0[n - 3]
    rng = np.random.default_rng(spec.noise.seed)
    events = list(spec.events)
    rows = []
    for k in range(int(round(spec.duration * config.fs_ctrl)) + 1):
        t = k * (1.0 / config.fs_ctrl)
        while events and events[0].time <= t + 1e-12:
            refs.apply(events.pop(0), k)
        w = inject_noise(rng, spec.noise.variance, m - 1)
        cmd = [x0[0] + refs.sent("front", k), np.nan]
        if front is not None:
            cmd[0] = x0[0] + front.step(z[3] - x0[3], refs.sent("front", k))
            z[dyn.front_fresh] = cmd[0]
        else:
            z[dyn.ramp], z[dyn.ramp_slope] = cmd[0], refs.slope["front"]
        if rear is not None:
            measured = z[n - 6] - x0[n - 6] + w[m - 2]
            cmd[1] = x0[n - 3] + rear.step(measured, refs.sent("rear", k))
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
    # full blocks start at output samples and may span several; an event
    # tick that sits off the output grid cuts one short, so full and
    # partial blocks both occur, and the full ones run in chunks
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


class _Built(Exception):
    pass


def _record_maps(mp, stop=False):
    """Patch ``_BlockMaps.__init__`` through ``mp`` so that the returned
    list gets every block maps object a run builds, in order; with
    ``stop``, the first build raises ``_Built``."""
    built = []
    init = sim._BlockMaps.__init__

    def recorded(self, *args):
        init(self, *args)
        built.append(self)
        if stop:
            raise _Built

    mp.setattr(sim._BlockMaps, "__init__", recorded)
    return built


@pytest.mark.parametrize("variant", VARIANTS)
def test_block_stepper_matches_reference_over_long_run(
    monkeypatch, nominal_fir, variant
):
    # 18 001 ticks: each absorber's two rolling arrays hold the 1500 values
    # before a chunk, then up to CHUNK_BLOCKS strides of the chunk's (the
    # strides here are 45 to 63 ticks), and move their newest 1500 to the
    # front after every chunk; over the run they wrap about 12 times past
    # the 1501-tap span. The run crosses several chunks of full blocks,
    # with partial blocks at both events and at the end.
    built = _record_maps(monkeypatch)
    cfg = PlatoonConfig(n_vehicles=6, dt=0.005)
    spec = ScenarioSpec(
        duration=180.0,
        events=((0.37, "set_v_ref", 1.0), (61.13, "set_d_ref", 1.4)),
        noise=NoiseSpec(variance=0.05, seed=21),
        variant=variant,
        out_every=9,
    )
    assert 180.0 * cfg.fs_ctrl > 2 * (3 * len(nominal_fir.taps) + 1)
    _assert_matches_reference(cfg, spec, nominal_fir)
    stride = built[0].stride
    assert [maps.stride for maps in built[1:]] == [1]
    assert 180.0 * cfg.fs_ctrl > 2 * sim.CHUNK_BLOCKS * stride


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


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noise"])
@pytest.mark.parametrize("out_every", [1, 7])
@pytest.mark.parametrize("times", [2, 3, 22])
def test_stride_above_out_every_matches_reference(
    monkeypatch, nominal_fir, variant, noisy, out_every, times
):
    # a block of several output intervals reads its interior samples from
    # the maps. The first event falls on the block tiling; the second falls
    # off it and off the output grid, so the short block before it holds an
    # interior sample too, and so does the short block at the run's end.
    # 22 intervals of 7 ticks make a 154-tick stride, and a longer run
    stride = times * out_every
    monkeypatch.setattr(sim, "_block_stride", lambda *args: stride)
    ticks = (3 * stride, 7 * stride + out_every + 2)
    spec = ScenarioSpec(
        duration=max(8.0, (ticks[1] + 3 * stride) / 100.0),
        events=((ticks[0] / 100.0, "set_v_ref", 1.0),
                (ticks[1] / 100.0, "set_d_ref", 1.4)),
        noise=NoiseSpec(variance=0.05 if noisy else 0.0, seed=8),
        variant=variant,
        out_every=out_every,
    )
    _assert_matches_reference(PlatoonConfig(n_vehicles=4), spec, nominal_fir)


@pytest.mark.parametrize("variant", ["none", "two_sided"])
def test_default_stride_matches_reference_on_noisy_platoon(
    monkeypatch, nominal_fir, variant
):
    # a noisy 20-vehicle run at the stride the rule picks for it, with an
    # event off the block tiling and the output grid at tick 337; the full
    # blocks from tick 340 to 3000 fill more than one chunk
    built = _record_maps(monkeypatch)
    spec = ScenarioSpec(
        duration=30.0,
        events=((3.37, "set_v_ref", 1.0),),
        noise=NoiseSpec(variance=1.0, seed=13),
        variant=variant,
        out_every=10,
    )
    _assert_matches_reference(PlatoonConfig(n_vehicles=20), spec, nominal_fir)
    stride = built[0].stride
    assert [maps.stride for maps in built[1:]] == [1]
    assert stride % 10 == 0 and 337 % stride
    assert (3000 - 340) // stride > sim.CHUNK_BLOCKS


def _assert_events_match_reference(fir, variant, noisy, out_every, stride, events):
    """A 4 s run of 5 vehicles at ``stride`` ticks a block, with ``events``
    as ``(tick, kind, value)``, held to the per-tick reference. Returns the
    stride of the maps each chunk ran on, in order."""
    n_ctrl = 400
    calls = []
    chunk = sim._BlockMaps.chunk

    def counted(self, z, x, hist):
        calls.append((self.stride, len(x)))
        return chunk(self, z, x, hist)

    spec = ScenarioSpec(
        duration=n_ctrl / 100.0,
        events=tuple((tick / 100.0, kind, value) for tick, kind, value in events),
        noise=NoiseSpec(variance=0.05 if noisy else 0.0, seed=5),
        variant=variant,
        out_every=out_every,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "_block_stride", lambda *args: stride)
        mp.setattr(sim._BlockMaps, "chunk", counted)
        _assert_matches_reference(PlatoonConfig(n_vehicles=5), spec, fir)
    # the chunks cover the run's ticks and its last one; a one-tick run
    # holds fewer ticks than a stride
    assert sum(s * nb for s, nb in calls) == n_ctrl + 1
    assert {s for s, _ in calls} <= {stride, 1}
    assert stride == 1 or all(nb < stride for s, nb in calls if s == 1)
    return [s for s, _ in calls]


_PLACES = ("grid", "tiling", "anywhere")


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    noisy=st.booleans(),
    out_every=st.integers(1, 12),
    factor=st.integers(1, 5),
    below=st.booleans(),
    start=st.tuples(st.sampled_from(_PLACES), st.integers(0, 200)),
    events=st.lists(
        st.tuples(st.sampled_from(_PLACES), st.integers(0, 400),
                  st.sampled_from(sim.EVENT_KINDS), st.floats(-2.0, 2.0)),
        min_size=1, max_size=4,
    ),
)
def test_events_anywhere_match_per_tick_reference(
    nominal_fir, variant, noisy, out_every, factor, below, start, events
):
    # 2 to 5 events on the output grid, on the tiling of full blocks from
    # tick 0, or anywhere, at a forced stride above out_every (a multiple)
    # or below it (a divisor): each event off the tiling cuts a block
    # short, and the run goes on tick by tick up to the event or the next
    # output sample. The first is a velocity step in the run's first half,
    # so the platoon moves and the reference's 1e-9 scale is its motion
    divisors = [d for d in range(1, out_every + 1) if out_every % d == 0]
    stride = divisors[factor % len(divisors)] if below else factor * out_every
    step = {"grid": out_every, "tiling": stride, "anywhere": 1}
    events = sorted(
        (tick // step[place] * step[place], kind, value)
        for place, tick, kind, value in [(*start, "set_v_ref", 1.0), *events]
    )
    _assert_events_match_reference(nominal_fir, variant, noisy, out_every, stride, events)


def test_one_run_switches_between_chunks_and_one_tick_runs(nominal_fir):
    # five events off the output grid and the block tiling: each cuts the
    # full blocks before it short and starts one-tick blocks up to the next
    # output sample, so the run leaves the chunks and comes back to them at
    # every event
    events = [(37, "set_v_ref", 1.0), (104, "set_d_ref", 1.4), (191, "set_v_ref", 0.3),
              (263, "set_d_ref", 0.8), (352, "set_v_ref", -0.5)]
    maps = _assert_events_match_reference(nominal_fir, "two_sided", True, 5, 20, events)
    switches = sum(a != b for a, b in zip(maps, maps[1:]))
    assert switches >= 2 * len(events)


def _maps_built(config, spec, fir, **patched):
    """The block maps ``run_scenario`` builds first for ``spec``, with the
    ``sim`` attributes in ``patched`` set meanwhile; the run stops there."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in patched.items():
            mp.setattr(sim, name, value)
        built = _record_maps(mp, stop=True)
        with pytest.raises(_Built):
            run_scenario(config, spec, fir=fir)
    return built[0]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 14),
    variant=st.sampled_from(VARIANTS),
    noisy=st.booleans(),
    out_every=st.integers(1, 40),
    n_ctrl=st.integers(1, 200_000),
    budget=st.sampled_from([1 << 14, 1 << 16, 1 << 18]),
)
# the budget, not the run's length, ends the growth past out_every
@example(n=14, variant="none", noisy=False, out_every=1, n_ctrl=200_000,
         budget=1 << 14)
# out_every alone overflows the budget
@example(n=6, variant="two_sided", noisy=True, out_every=40, n_ctrl=5000,
         budget=1 << 16)
def test_block_stride_property(
    nominal_fir, n, variant, noisy, out_every, n_ctrl, budget
):
    # the stride is a multiple of out_every once it exceeds it and a
    # divisor of it below, so full blocks tile the output grid, and the
    # arrays the block maps keep (the views into them aside) hold at most
    # the budget, unless the stride is down to one tick
    spec = ScenarioSpec(
        duration=n_ctrl / 100.0,
        noise=NoiseSpec(variance=0.1, seed=1) if noisy else None,
        variant=variant,
        out_every=out_every,
    )
    blocks = _maps_built(PlatoonConfig(n_vehicles=n), spec, nominal_fir,
                         JUMP_MAP_FLOATS=budget)
    stride = blocks.stride
    assert stride >= 1
    if stride > out_every:
        assert stride % out_every == 0
    else:
        assert out_every % stride == 0
    held = sum(
        a.size for a in vars(blocks).values()
        if isinstance(a, np.ndarray) and a.base is None
    )
    assert stride == 1 or held <= budget


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 6),
    variant=st.sampled_from(VARIANTS),
    out_every=st.integers(1, 30),
    n_ctrl=st.integers(1, 3000),
    event=st.floats(0.0, 1.0),
    fs_ctrl=st.sampled_from([100.0, 50.0]),
)
def test_trace_samples_every_out_every_ticks(
    nominal_fir, n, variant, out_every, n_ctrl, event, fs_ctrl
):
    # one sample per output interval from tick 0 to the run's end, at the
    # control clock's time of its tick, whatever blocks the run takes
    cfg = PlatoonConfig(n_vehicles=n, dt=1.0 / fs_ctrl, fs_ctrl=fs_ctrl)
    fir = nominal_fir if fs_ctrl == 100.0 else wave_fir(
        wave_tf_approx(cfg.coupling()), fs_ctrl
    )
    spec = ScenarioSpec(
        duration=n_ctrl / fs_ctrl,
        events=((round(event * n_ctrl) / fs_ctrl, "set_v_ref", 1.0),),
        variant=variant,
        out_every=out_every,
    )
    trace = run_scenario(cfg, spec, fir=fir)
    ticks = np.arange(n_ctrl // out_every + 1) * out_every
    assert len(trace.t) == len(trace.positions) == len(ticks)
    assert np.array_equal(trace.t, ticks * (1.0 / fs_ctrl))


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


@settings(max_examples=20, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    n=st.integers(2, 20),
    noisy=st.booleans(),
    out_every=st.integers(1, 30),
)
@example(variant="two_sided", n=20, noisy=True, out_every=10)
def test_guard_bound_covers_every_tick(nominal_fir, variant, n, noisy, out_every):
    # on every chunk that the bound clears, each vehicle's speed at every
    # tick of each block is at most that vehicle's bound |x| @ peak.T for
    # the block. A full block's speeds are read tick by tick from the run
    # at out_every=1. A one-tick block's are the rows of that tick: at
    # rest its bound on an absorbing end is exactly 0 (the FIR's first tap
    # is 0), where the run at out_every=1, through other blocks, reads the
    # roundoff of its own products
    cleared, ticks = [], [0]
    chunk = sim._BlockMaps.chunk

    def bounded(self, z, x, hist):
        out = chunk(self, z, x, hist)
        bound = np.abs(x) @ self.peak.T
        if out[-1] == bound[:, self.c :].max():
            cleared.append((ticks[0], self, x.copy(), bound[:, self.c :]))
        ticks[0] += len(x) * self.stride
        return out

    spec = lambda k: ScenarioSpec(
        duration=30.0, events=((0.5, "set_v_ref", 1.0),),
        noise=NoiseSpec(variance=0.5, seed=n) if noisy else None,
        variant=variant, out_every=k,
    )
    cfg = PlatoonConfig(n_vehicles=n)
    every_tick = run_scenario(cfg, spec(1), fir=nominal_fir).velocities
    with pytest.MonkeyPatch.context() as mp:
        built = _record_maps(mp)
        mp.setattr(sim._BlockMaps, "chunk", bounded)
        run_scenario(cfg, spec(out_every), fir=nominal_fir)
    assert cleared and ticks[0] == 3001
    for first, blocks, x, bound in cleared:
        stride = blocks.stride
        if stride == 1:
            speeds = np.abs(blocks._every_tick(x)[:, :, blocks.c :]).max(axis=1)
        else:
            # the rows of tick i give the velocities after it
            starts = first + stride * np.arange(len(x))
            speeds = [np.abs(every_tick[start + 1 : start + stride + 1]).max(axis=0)
                      for start in starts]
        assert (speeds <= bound * (1.0 + 1e-9)).all()
    # entry by entry, the weights are the largest magnitude each command
    # and velocity row reaches over the block's ticks: the rows of every
    # tick, read off the unit inputs, in every maps object the run builds
    assert built
    for blocks in built:
        units = np.eye(blocks.peak.shape[1])
        rows = blocks._every_tick(units)
        assert np.array_equal(np.abs(rows).max(axis=1).T, blocks.peak)


def test_runs_without_events_do_no_echo_work(monkeypatch, nominal_fir):
    # a ramp that never bends stays at zero and has no echo: a noisy
    # rest-pose run with absorbers forms none, and a velocity step does
    def formed(*args):
        raise AssertionError("echo formed")

    monkeypatch.setattr(sim, "ramp_echo", formed)
    cfg = PlatoonConfig(n_vehicles=5, d_ref0=0.0)
    for variant in ("front", "rear", "two_sided"):
        quiet = ScenarioSpec(
            duration=20.0, noise=NoiseSpec(variance=1.0, seed=2), variant=variant,
            out_every=10,
        )
        run_scenario(cfg, quiet, fir=nominal_fir)
        step = ScenarioSpec(
            duration=20.0, events=((1.0, "set_v_ref", 1.0),), variant=variant,
            out_every=10,
        )
        with pytest.raises(AssertionError, match="echo formed"):
            run_scenario(cfg, step, fir=nominal_fir)


@settings(max_examples=60, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    events=st.lists(
        st.tuples(st.integers(0, 3000), st.sampled_from(sim.EVENT_KINDS),
                  st.floats(-3.0, 3.0)),
        max_size=6,
    ),
)
# two events on one tick, and a bend on the last tick but one
@example(variant="two_sided", events=[
    (0, "set_v_ref", 1.0), (700, "set_d_ref", 2.0), (700, "set_v_ref", -0.5),
    (2999, "set_d_ref", 1.0),
])
def test_tracker_ramp_is_the_sum_of_its_bends(variant, events):
    # each end's ramp, formed from its bends alone, against the slopes the
    # tracker held tick by tick: flat before the first bend, continuous at
    # every bend, rising at the held slope between bends, and equal to the
    # tick-by-tick sum of those slopes. Rounding is relative to the size of
    # the hinges themselves, which cancel where opposite changes meet
    config = PlatoonConfig(n_vehicles=4)
    refs = sim._ReferenceTracker(config, variant)
    dt = 1.0 / config.fs_ctrl
    ticks = np.arange(3200)
    held = {"front": np.zeros(len(ticks)), "rear": np.zeros(len(ticks))}
    for tick, kind, value in sorted(events, key=lambda e: e[0]):
        refs.apply(Event(tick * dt, kind, value), tick)
        for end, slopes in held.items():
            slopes[tick:] = refs.slope[end]
    for end, slopes in held.items():
        sent = refs.sent(end, ticks) + np.zeros(len(ticks))
        summed = np.concatenate([[0.0], np.cumsum(dt * slopes[:-1])])
        hinges = dt * len(ticks) * sum(abs(change) for _, change in refs.bends[end])
        scale = max(hinges, 1e-300)
        bends = sorted({tick for tick, _ in refs.bends[end]})
        first = bends[0] if bends else len(ticks)
        assert not sent[: first + 1].any()
        for tick in bends:
            left = refs.sent(end, tick - 1e-6)
            right = refs.sent(end, tick + 1e-6)
            assert abs(right - left) <= 2e-6 * dt * np.abs(slopes).max() + 1e-12 * scale
        rise = np.diff(sent) / dt
        assert np.abs(rise - slopes[:-1]).max() <= 1e-12 * scale / dt
        assert np.abs(sent - summed).max() <= 1e-12 * scale


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


@pytest.mark.parametrize("variance", [1.0, 0.37, 4.0])
def test_inject_noise_draws_the_normal_stream(variance):
    # the draws are the generator's normal stream at that deviation, so a
    # seeded run's noise does not depend on how it is drawn
    draws = inject_noise(np.random.default_rng(9), variance, (300, 19))
    want = np.random.default_rng(9).normal(0.0, np.sqrt(variance), (300, 19))
    assert np.array_equal(draws, want)


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
    # every full block goes through a chunk on the stride's maps; only the
    # ticks that an event or the run's end cuts short, those from the
    # off-grid event to the next output sample and the run's last tick run
    # one tick a block, on one-tick maps built once
    calls = []
    chunk = sim._BlockMaps.chunk

    def counted(self, z, x, hist):
        calls.append((self, len(x)))
        return chunk(self, z, x, hist)

    built = _record_maps(monkeypatch)
    monkeypatch.setattr(sim._BlockMaps, "chunk", counted)
    spec = ScenarioSpec(
        duration=120.0,
        events=((0.37, "set_v_ref", 1.0), (60.0, "set_d_ref", 1.4)),
        variant=variant,
        out_every=10,
    )
    run_scenario(PlatoonConfig(n_vehicles=5), spec, fir=nominal_fir)
    full, short = built
    s = full.stride
    assert s % 10 == 0 and short.stride == 1
    assert {maps for maps, _ in calls} == {full, short}
    # full blocks from tick 0 up to the event at tick 37, ticks 37-40 up to
    # the output grid, full blocks from 40 to the event at 6000 and from
    # there to the end at 12 000; what a stride leaves of each run of full
    # blocks runs tick by tick, and so does tick 12 000
    want = [37 % s, 3, (6000 - 40) % s, (12000 - 6000) % s, 1]
    assert [nb for maps, nb in calls if maps is short] == [j for j in want if j]
    assert sum(nb * maps.stride for maps, nb in calls) == 12001


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


@pytest.fixture
def blas():
    """Each bundled OpenBLAS's ``(get, set)`` thread-count calls, set to two
    threads for the test and to their own counts after it."""
    calls = sim._find_blas()
    if not calls:
        pytest.skip(sim.BLAS_LEFT_ALONE)
    before = [get() for get, _ in calls]
    for _, put in calls:
        put(2)
    yield calls
    for (_, put), count in zip(calls, before):
        put(count)


def _record_blas_threads(monkeypatch, blas):
    """Wrap ``_BlockMaps.chunk`` to record the thread counts at each call."""
    seen = []
    chunk = sim._BlockMaps.chunk

    def recording(self, *args):
        seen.append(_threads(blas))
        return chunk(self, *args)

    monkeypatch.setattr(sim._BlockMaps, "chunk", recording)
    return seen


def _threads(blas):
    return [get() for get, _ in blas]


def test_runs_step_at_one_blas_thread_and_restore_the_callers(monkeypatch, blas):
    ones, twos = [1] * len(blas), [2] * len(blas)
    seen = _record_blas_threads(monkeypatch, blas)
    spec = ScenarioSpec(duration=10.0, events=((1.0, "set_v_ref", 1.0),),
                        variant="two_sided", out_every=10)
    run_scenario(PlatoonConfig(n_vehicles=4), spec)
    assert seen and all(counts == ones for counts in seen)
    assert _threads(blas) == twos
    # a run the divergence guard stops, and one whose event is off the grid
    seen.clear()
    unstable = ScenarioSpec(duration=30.0, events=((0.5, "set_v_ref", 1.0),))
    with pytest.raises(NonFiniteState):
        run_scenario(PlatoonConfig(n_vehicles=3, ki=-50.0), unstable)
    assert seen and all(counts == ones for counts in seen)
    assert _threads(blas) == twos
    off_grid = ScenarioSpec(duration=1.0, events=((0.505, "set_v_ref", 1.0),))
    with pytest.raises(InvalidConfig):
        run_scenario(PlatoonConfig(n_vehicles=3), off_grid)
    assert _threads(blas) == twos


def test_nested_runs_keep_one_blas_thread_until_the_outermost_exit(blas):
    ones = [1] * len(blas)
    with sim._one_blas_thread:
        with sim._one_blas_thread:
            assert _threads(blas) == ones
        assert _threads(blas) == ones
        run_scenario(PlatoonConfig(n_vehicles=3), ScenarioSpec(duration=1.0))
        assert _threads(blas) == ones
    assert _threads(blas) == [2] * len(blas)


def test_concurrent_runs_keep_one_blas_thread_and_restore_the_callers(monkeypatch, blas):
    # more runs than cores, with short switch intervals; all wait for one
    # another inside their first chunk, so some end while others still run
    seen = _record_blas_threads(monkeypatch, blas)
    runs = 4
    met, barrier = set(), threading.Barrier(runs, timeout=30)
    chunk = sim._BlockMaps.chunk

    def meeting(self, *args):
        if threading.get_ident() not in met:
            met.add(threading.get_ident())
            barrier.wait()
        return chunk(self, *args)

    monkeypatch.setattr(sim._BlockMaps, "chunk", meeting)
    spec = ScenarioSpec(duration=20.0, events=((1.0, "set_v_ref", 1.0),),
                        variant="front", out_every=10)
    traces = [None] * runs

    def run(i):
        traces[i] = run_scenario(PlatoonConfig(n_vehicles=3 + i), spec)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(runs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(trace is not None for trace in traces)
    assert len(met) == runs
    assert seen and all(counts == [1] * len(blas) for counts in seen)
    assert _threads(blas) == [2] * len(blas)


@pytest.mark.parametrize(
    "pattern, suffix, reason",
    [("numpy.libs/no-such-openblas-*.so", "64_", "no numpy.libs/no-such-openblas-*.so"),
     ("numpy.libs/libscipy_openblas64_*.so", "_no_such_symbol", "numpy:")],
    ids=["library", "symbol"],
)
def test_runs_without_the_blas_calls_leave_the_count_alone(
        monkeypatch, blas, pattern, suffix, reason):
    config = PlatoonConfig(n_vehicles=6)
    spec = ScenarioSpec(duration=20.0, events=((1.0, "set_v_ref", 1.0),),
                        noise=NoiseSpec(0.5, seed=2), variant="two_sided", out_every=10)
    normal = run_scenario(config, spec)
    monkeypatch.setattr(sim, "_BLAS_LIBS", ((np, pattern, suffix),))
    monkeypatch.setattr(sim._one_blas_thread, "calls", None)
    monkeypatch.setattr(sim, "BLAS_LEFT_ALONE", "")
    seen = _record_blas_threads(monkeypatch, blas)
    left = run_scenario(config, spec)
    assert reason in sim.BLAS_LEFT_ALONE
    assert seen and all(counts == [2] * len(blas) for counts in seen)
    for name in ("positions", "velocities"):
        a, b = getattr(normal, name), getattr(left, name)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


# a short noisy run whose products OpenBLAS threads at two threads
_THREAD_COUNT_RUN = """
import hashlib
from waveplatoon.sim import NoiseSpec, PlatoonConfig, ScenarioSpec, run_scenario
trace = run_scenario(PlatoonConfig(n_vehicles=10), ScenarioSpec(
    duration=60.0, noise=NoiseSpec(1.0, seed=3), variant="two_sided", out_every=10))
for rows in (trace.positions, trace.velocities):
    print(hashlib.sha256(rows.tobytes()).hexdigest())
"""


def test_reruns_are_byte_identical_across_blas_thread_counts():
    # a threaded product's sums depend on the thread count: without the
    # run's own count these traces differed in their last bits
    path = os.pathsep.join(filter(None, [str(Path(sim.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _THREAD_COUNT_RUN], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path))
        for threads in ("1", "2")
    ]
    outs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert len(outs[0].split()) == 2
    assert outs[0] == outs[1]
