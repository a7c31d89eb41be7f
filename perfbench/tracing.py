"""Per-layer tracing from outside the package.

A Tracer wraps waveplatoon's public functions and methods for the length
of a traced pass. Each wrapper is installed wherever the original object is
bound (every ``waveplatoon`` module namespace, or the class for methods),
so a call is seen wherever its caller looks the name up.

Every wrapped call adds to per-thread aggregates: total seconds, calls, and
self seconds (its duration minus that of wrapped calls it made directly).
Calls with ``record=True`` are also kept as spans (id, name, start, end,
parent, op, thread); the per-tick calls are only aggregated, because a
span per tick would hold millions of records. A call into a metric name
already open on the same thread counts once, at the outermost call.
Spans opened by pool threads with nothing open on their own thread take
the calling thread's open top-level span as their parent.
"""

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (metric, module, attribute path, record spans); one metric may cover
# several functions
TARGETS = (
    ("sim.step_vec", "waveplatoon.sim", "PlatoonDynamics.step_vec", False),
    ("sim.velocities", "waveplatoon.sim", "PlatoonDynamics.velocities", False),
    ("sim.dynamics_build", "waveplatoon.sim", "PlatoonDynamics.__init__", True),
    ("sim.inject_noise", "waveplatoon.sim", "inject_noise", False),
    ("sim.run_scenario", "waveplatoon.sim", "run_scenario", True),
    ("sim.chain_state_space", "waveplatoon.sim", "chain_state_space", True),
    ("boundary.absorber_front_step", "waveplatoon.boundary", "absorber_front_step", False),
    ("boundary.absorber_rear_step", "waveplatoon.boundary", "absorber_rear_step", False),
    ("boundary.make_absorber", "waveplatoon.boundary", "make_front_absorber", True),
    ("boundary.make_absorber", "waveplatoon.boundary", "make_rear_absorber", True),
    ("boundary.squared_fir", "waveplatoon.boundary", "squared_fir", True),
    ("boundary.end_gains", "waveplatoon.boundary", "kappa_front", True),
    ("boundary.end_gains", "waveplatoon.boundary", "kappa_rear", True),
    ("boundary.chain_prediction", "waveplatoon.boundary", "chain_tf_prediction", True),
    ("boundary.chain_prediction", "waveplatoon.boundary",
     "WaveTransferEvaluator.freq_response", True),
    ("boundary.chain_prediction", "waveplatoon.boundary",
     "WaveTransferEvaluator.__call__", False),
    ("wave.wave_tf_approx", "waveplatoon.wave", "wave_tf_approx", True),
    ("wave.wave_fir", "waveplatoon.wave", "wave_fir", True),
    ("lti.tf_algebra", "waveplatoon.lti", "tf_add", False),
    ("lti.tf_algebra", "waveplatoon.lti", "tf_mul", False),
    ("lti.tf_algebra", "waveplatoon.lti", "tf_inv", False),
    ("lti.impulse_response", "waveplatoon.lti", "impulse_response", True),
    ("lti.origin_limit", "waveplatoon.lti", "origin_limit", True),
    ("lti.ss_freq_response", "waveplatoon.lti", "StateSpace.freq_response", True),
    ("metrics.maneuver_metrics", "waveplatoon.metrics", "maneuver_metrics", True),
    ("metrics.noise_metrics", "waveplatoon.metrics", "noise_metrics", True),
    ("sweep.sweep", "waveplatoon.sweep", "sweep", True),
    ("verify.verify", "waveplatoon.verify", "verify", True),
)

SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "op", "thread")


class _ThreadState:
    def __init__(self, caller):
        self.caller = caller
        self.thread = threading.get_ident()
        self.stack = []  # open calls: [span id, seconds in direct children]
        self.open = set()  # metric names open on this thread
        self.agg = defaultdict(lambda: [0.0, 0, 0.0])  # total s, calls, self s
        self.counters = defaultdict(float)
        self.spans = []
        self.absorbers = []  # absorber states made inside the open run
        self.op = None  # op running on this thread


class Tracer:
    """Install with ``with tracer.installed(): ...``; read ``layer_metrics``."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._caller = threading.get_ident()
        self._origin = time.perf_counter()
        self.root = None  # open top-level span of the calling thread

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.get_ident() == self._caller)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def begin_op(self, key):
        """Tag the spans this thread records from now on with op ``key``."""
        self._state().op = key

    def _wrap(self, fn, name, record, on_exit):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            if name in st.open:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = st.stack[-1][0] if st.stack else tracer.root
            if st.caller and not st.stack:
                tracer.root = sid
            frame = [sid, 0.0]
            st.stack.append(frame)
            st.open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                st.open.discard(name)
                if st.caller and not st.stack:
                    tracer.root = None
                dur = end - start
                agg = st.agg[name]
                agg[0] += dur
                agg[1] += 1
                agg[2] += dur - frame[1]
                if st.stack:
                    st.stack[-1][1] += dur
                if record:
                    st.spans.append((
                        sid, name, start - tracer._origin, end - tracer._origin,
                        parent, st.op, st.thread,
                    ))
            if on_exit is not None:
                on_exit(st, args, kwargs, result)
            return result

        return traced

    # hooks that turn call arguments and results into counters

    @staticmethod
    def _after_run(st, args, kwargs, trace):
        config = args[0] if args else kwargs["config"]
        scenario = args[1] if len(args) > 1 else kwargs["scenario"]
        st.counters["sim.ctrl_ticks"] += round(scenario.duration * config.fs_ctrl)
        st.counters["sim.trace_rows"] += len(trace.t)
        # an absorber without history lists (bounded memory) counts zero
        for a in st.absorbers:
            wave = getattr(a, "own_wave", None)
            st.counters["boundary.history_samples"] += sum(
                len(getattr(owner, name, ()))
                for owner, name in ((a, "neighbor_hist"), (wave, "a_hist"), (wave, "b_hist"))
            )
        st.absorbers.clear()

    @staticmethod
    def _after_absorber(st, args, kwargs, state):
        st.absorbers.append(state)

    @staticmethod
    def _after_approx(st, args, kwargs, approx):
        degree = getattr(getattr(approx.approx, "den", None), "degree", 0)
        st.counters["wave.approx_degree"] = max(st.counters["wave.approx_degree"], degree)

    @staticmethod
    def _after_verify(st, args, kwargs, report):
        st.counters["verify.checks_failed"] += sum(not c.passed for c in report.checks)

    def _cpu_metered(self, fn):
        """Process CPU and wall seconds spent inside ``fn``, for sweep's
        thread pool (CPU/wall near 1 means one core does all the work)."""

        @functools.wraps(fn)
        def metered(*args, **kwargs):
            cpu, wall = time.process_time(), time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st = self._state()
                st.counters["sweep.cpu_s"] += time.process_time() - cpu
                st.counters["sweep.wall_s"] += time.perf_counter() - wall

        return metered

    def installed(self):
        return _Installation(self)

    def _wrapper_for(self, name, fn, record):
        hooks = {
            "sim.run_scenario": self._after_run,
            "boundary.make_absorber": self._after_absorber,
            "wave.wave_tf_approx": self._after_approx,
            "verify.verify": self._after_verify,
        }
        wrapper = self._wrap(fn, name, record, hooks.get(name))
        return self._cpu_metered(wrapper) if name == "sweep.sweep" else wrapper

    def _merged(self):
        agg = defaultdict(lambda: [0.0, 0, 0.0])
        counters = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (total, calls, own) in st.agg.items():
                a = agg[name]
                a[0] += total
                a[1] += calls
                a[2] += own
            for name, value in st.counters.items():
                if name == "wave.approx_degree":
                    counters[name] = max(counters[name], value)
                else:
                    counters[name] += value
        return agg, counters

    def layer_metrics(self):
        """Per-layer metrics (name -> value) over everything traced so far."""
        agg, c = self._merged()
        m = {}
        for name in sorted({t[0] for t in TARGETS} - {"boundary.make_absorber"}):
            m[f"{name}.s"] = agg[name][0]
        for name in ("sim.step_vec", "sim.run_scenario", "sim.inject_noise",
                     "boundary.absorber_front_step", "boundary.absorber_rear_step",
                     "wave.wave_tf_approx", "lti.tf_algebra"):
            m[f"{name}.calls"] = agg[name][1]
        m["sim.run_scenario.self_s"] = agg["sim.run_scenario"][2]
        ticks = c["sim.ctrl_ticks"]
        m["sim.ctrl_ticks"] = ticks
        m["sim.step_vec_per_tick"] = agg["sim.step_vec"][1] / ticks if ticks else 0.0
        for name in ("sim.trace_rows", "boundary.history_samples",
                     "wave.approx_degree", "verify.checks_failed"):
            m[name] = c[name]
        m["sweep.cpu_util"] = (
            c["sweep.cpu_s"] / c["sweep.wall_s"] if c["sweep.wall_s"] else 0.0
        )
        return m

    def write_spans(self, path):
        with self._lock:
            spans = sorted(s for st in self._states for s in st.spans)
        with open(path, "w") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": spans}, fh)
        return len(spans)


class _Installation:
    """Replaces each target wherever the original object is bound and puts
    the originals back on exit."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def __enter__(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "waveplatoon" or n.startswith("waveplatoon."))
        ]
        for name, module, path, record in TARGETS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue  # gone from the package: its metric reads 0
            wrapper = self.tracer._wrapper_for(name, original, record)
            if cls_path:
                bindings = [(owner, attr)]
            else:
                bindings = [
                    (m, key) for m in modules
                    for key, value in list(vars(m).items()) if value is original
                ]
            for o, key in bindings:
                self.saved.append((o, key, original))
                setattr(o, key, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()
