"""Self-check suites: each check recomputes an identity or bound the rest
of the package relies on and reports the measured slack.

Checks never raise; a crashed check becomes a failed entry so that broken
configurations (for instance an unstable gain set) are reported alongside
the healthy ones.
"""

import numpy as np
from dataclasses import dataclass

from .boundary import ChainModel, chain_tf_prediction, kappa_front, kappa_rear
from .errors import ExtrapolationError
from .lti import eval_at, freq_response
from .sim import _chain_matrix, chain_state_space
from .wave import (
    DEFAULT_FIR_SPAN,
    coupling_from_gains,
    wave_fir,
    wave_tf_approx,
    wave_tf_exact,
    wave_tf_pair,
)

SUITES = (
    "quadratic",
    "stability",
    "approximation",
    "string_stability",
    "chain_oracle",
    "absorption",
    "end_gains",
    "fir",
)

# the depth-L approximant is accurate only above its L-follower chain's
# first standing-wave frequency (0.077 rad/s at depth 20, nominal gains);
# suite grids stay inside this converged band, the region the absorbers
# rely on
APPROX_GRID = (1.0, 100.0)
ORACLE_GRID = (1.0, 10.0)

# probes of the end gains' numeric limits: the plain wave root reads G - 1
# off alpha - 2 = c s**2, which the rounding of alpha blurs by about
# 1e-16/s**2 relative, so the probes stop at 1e-4
END_GAIN_PROBES = (1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    measured: float = None
    threshold: float = None
    detail: str = ""

    def line(self):
        state = "pass" if self.passed else "FAIL"
        parts = [f"[{state}] {self.suite}: {self.name}"]
        if self.measured is not None:
            parts.append(f"measured={self.measured:.3e}")
        if self.threshold is not None:
            parts.append(f"threshold={self.threshold:.3e}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [
                {
                    "suite": c.suite,
                    "name": c.name,
                    "passed": c.passed,
                    "measured": c.measured,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _bounded(suite, name, measured, threshold):
    return CheckResult(suite, name, bool(measured < threshold), float(measured), threshold)


def _suite_quadratic(ctx):
    coup = ctx["coupling"]
    rng = np.random.default_rng(202)
    omegas = 10.0 ** rng.uniform(-2, 2, size=100)
    alpha = eval_at(coup.tf, 1j * omegas)
    g1, g2 = wave_tf_pair(alpha)
    quad = np.abs(g1 * g1 - alpha * g1 + 1.0).max()
    recip = np.abs(g1 * g2 - 1.0).max()
    return [
        _bounded("quadratic", "defining quadratic residual", quad, 1e-10),
        _bounded("quadratic", "downstream*upstream reciprocity", recip, 1e-10),
    ]


def _suite_stability(ctx):
    poles = ctx["approx"].approx.poles()
    worst = float(np.max(poles.real)) if len(poles) else -np.inf
    return [
        CheckResult(
            "stability",
            "approximant poles in open left half-plane",
            worst < 0.0,
            worst,
            0.0,
        )
    ]


def _suite_approximation(ctx):
    coup, ap = ctx["coupling"], ctx["approx"]
    s = 1j * np.logspace(*np.log10(APPROX_GRID), 200)
    exact = wave_tf_exact(eval_at(coup.tf, s))
    err = np.abs(eval_at(ap.approx, s) - exact).max()
    return [
        _bounded(
            "approximation",
            f"approximant error on [{APPROX_GRID[0]:g}, {APPROX_GRID[1]:g}] rad/s",
            err,
            1e-2,
        )
    ]


def _suite_string_stability(ctx):
    coup = ctx["coupling"]
    omegas = np.logspace(-2, 2, 1000)
    g = wave_tf_exact(freq_response(coup.tf, omegas).values)
    checks = [
        _bounded(
            "string_stability", "peak |wave transfer|", np.abs(g).max(), 1.0 + 1e-9
        )
    ]
    for n in (2, 5, 10):
        bound = np.abs(1.0 + g ** (2 * n + 1)).max()
        checks.append(
            _bounded(
                "string_stability",
                f"chain denominator bound, {n} followers",
                bound,
                2.0 + 1e-6,
            )
        )
    return checks


def _suite_chain_oracle(ctx):
    coup = ctx["coupling"]
    omegas = np.logspace(*np.log10(ORACLE_GRID), 100)
    worst = 0.0
    for m in (2, 3, 4, 5):
        ss = chain_state_space(ctx["kp"], ctx["ki"], ctx["xi"], m)
        model = ChainModel(
            coupling=coup, n_vehicles=m, mode="approx",
            iterations=ctx["iterations"],
        )
        pred = chain_tf_prediction(model, "none", m - 1)
        ref = ss.freq_response(omegas).values
        mine = pred.from_front.freq_response(omegas).values
        rel = np.abs(mine - ref) / np.maximum(np.abs(ref), 1e-12)
        worst = max(worst, float(rel.max()))
    return [
        _bounded(
            "chain_oracle",
            "wave model vs state-space chain, tail response",
            worst,
            1e-2,
        )
    ]


def _absorbing_end_error(kp, ki, xi, probes, g):
    """Largest |x_n - g**n| over followers 1..4 of a head-driven chain whose
    tail position is held at ``g`` times that of follower 4.

    The chain comes from the plant's own state matrix, not from the
    coupling ratio. An end that passes each wave on leaves no reflection,
    so the followers move as in a semi-infinite chain: x_n = g**n x_0.
    """
    a = _chain_matrix(6, kp, ki, xi, True)[0]
    inner = slice(3, 15)
    a_ff, head, tail = a[inner, inner], a[inner, 0], a[inner, 15]
    powers = np.arange(1, 5)
    worst = 0.0
    for s, gs in zip(probes, g):
        lhs = s * np.eye(len(a_ff)) - a_ff
        lhs[:, -3] -= gs * tail  # the tail position is g * x_4
        x = np.linalg.solve(lhs, head)[::3]
        worst = max(worst, float(np.abs(x - gs**powers).max()))
    return worst


def _suite_absorption(ctx):
    coup, ap = ctx["coupling"], ctx["approx"]
    probes = np.array([1.0j, 2.0j, 5.0j, 1.0 + 0.5j])
    g = wave_tf_exact(eval_at(coup.tf, probes))
    exact = _absorbing_end_error(ctx["kp"], ctx["ki"], ctx["xi"], probes, g)
    g_l = eval_at(ap.approx, probes)
    impl = np.abs(g_l * g - g_l * g_l).max()
    return [
        _bounded("absorption", "exact reflection null", exact, 1e-9),
        _bounded("absorption", "absorber reflection residual", impl, 2e-2),
    ]


def origin_limit(f, probes=(1e-5, 1e-6, 1e-7), rtol=1e-3):
    """Limit of ``f(s)`` as real s -> 0+ by Richardson extrapolation.

    Two extrapolants are formed from consecutive probe pairs; if they
    disagree beyond ``rtol`` (relative) an :class:`ExtrapolationError` is
    raised instead of returning a doubtful value.
    """
    p = [float(x) for x in probes]
    if len(p) != 3 or not all(a > b > 0 for a, b in zip(p, p[1:])):
        raise ValueError("probes must be three positive decreasing reals")
    f0, f1, f2 = (complex(f(x)) for x in p)

    def richardson(sa, fa, sb, fb):
        return (sa * fb - sb * fa) / (sa - sb)

    ra = richardson(p[0], f0, p[1], f1)
    rb = richardson(p[1], f1, p[2], f2)
    if abs(ra - rb) > rtol * max(1.0, abs(rb)):
        raise ExtrapolationError(
            f"origin extrapolants disagree: {ra} vs {rb} (rtol={rtol})"
        )
    return float(rb.real)


def _suite_end_gains(ctx):
    # G = 1 - s kappa_rear + O(s**2): the closed forms, read off the
    # coupling's coefficients, against numeric limits of the wave root
    coup = ctx["coupling"]
    kf, kr = kappa_front(coup), kappa_rear(coup)

    def g(s):
        return wave_tf_exact(eval_at(coup.tf, s))

    head = origin_limit(lambda s: s / (g(s) - 1.0), END_GAIN_PROBES)
    tail = origin_limit(lambda s: (1.0 - g(s)) / s, END_GAIN_PROBES)
    return [
        _bounded("end_gains", "head gain vs -sqrt(ki/xi)", abs(kf - head), 1e-3),
        _bounded("end_gains", "tail gain vs sqrt(xi/ki)", abs(kr - tail), 1e-3),
    ]


def _suite_fir(ctx):
    fir = ctx["fir"]()
    lead = abs(fir.taps[0]) / np.abs(fir.taps).max()
    # sample times k/fs within the span (to 1e-9 samples), counted
    # independently of the tap-count rule up to one past the taps
    times = np.arange(len(fir.taps) + 1) / fir.fs
    in_span = int(np.count_nonzero(times <= fir.span + 1e-9 / fir.fs))
    return [
        _bounded("fir", "tap sum near unity", abs(fir.dc - 1.0), 0.02),
        _bounded("fir", "leading tap negligible", lead, 1e-4),
        CheckResult(
            "fir",
            "tap count matches span",
            len(fir.taps) == in_span,
            float(len(fir.taps)),
        ),
    ]


_SUITE_FNS = {
    "quadratic": _suite_quadratic,
    "stability": _suite_stability,
    "approximation": _suite_approximation,
    "string_stability": _suite_string_stability,
    "chain_oracle": _suite_chain_oracle,
    "absorption": _suite_absorption,
    "end_gains": _suite_end_gains,
    "fir": _suite_fir,
}


def verify(suites=None, kp=4.0, ki=4.0, xi=4.0, iterations=20, fs=100.0,
           span=DEFAULT_FIR_SPAN):
    """Run the requested suites (all by default) and report each check."""
    if suites is None:
        selected = SUITES
    elif isinstance(suites, str):
        selected = (suites,)
    else:
        selected = tuple(suites)
    unknown = [s for s in selected if s not in _SUITE_FNS]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")

    coup = coupling_from_gains(kp, ki, xi)
    ctx = {"kp": kp, "ki": ki, "xi": xi, "iterations": iterations,
           "coupling": coup}
    checks = []
    for name in selected:
        try:
            if name in ("stability", "approximation", "absorption") and \
                    "approx" not in ctx:
                ctx["approx"] = wave_tf_approx(coup, iterations)
            if name == "fir":
                ctx["fir"] = lambda: wave_fir(
                    ctx.get("approx") or wave_tf_approx(coup, iterations),
                    fs, span,
                )
            checks.extend(_SUITE_FNS[name](ctx))
        except Exception as exc:
            checks.append(
                CheckResult(
                    name,
                    "suite execution",
                    False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
    return VerifyReport(checks=tuple(checks))
