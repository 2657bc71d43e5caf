"""Acceptance gate: every closed form in the package is held against an
independent numerical oracle at fixed tolerances.

Each test covers one acceptance item and prints a single PASS/FAIL line
with the worst observed deviation expressed as a fraction of the allowed
tolerance (visible under ``pytest -s`` or in captured output).  Draws are
seeded so the gate is deterministic.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from mittag_kinetics.fracint import residual_check
from mittag_kinetics.kinetics import (
    KineticProblem,
    ProblemKind,
    invert_three_term,
    solve,
    transform_of,
)
from mittag_kinetics.laplace import (
    GammaPower,
    InversionConfig,
    LaplaceDensity,
    MLBasic,
    MLGeneral,
    QuadratureConfig,
    ResidualProduct,
    ThreeTermAlpha,
    ThreeTermBeta,
    TwoRateProduct,
    lt_eval,
    lt_forward_numeric,
    lt_invert_numeric,
)
from mittag_kinetics.reaction_diffusion import RDProblem, rd_solve_fd, rd_solve_spectral
from mittag_kinetics.special_functions import (
    MLParams,
    WrightParams,
    hyp1f1,
    ml_eval,
    wright_eval,
)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _uncaptured_reporting(capsys):
    # the PASS/FAIL line per criterion must reach the terminal even under
    # default output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, label: str, ratio: float) -> None:
    status = "PASS" if ratio <= 1.0 else "FAIL"
    line = (f"[acceptance {num}] {status} {label}: worst deviation at "
            f"{100.0 * ratio:.3g}% of tolerance")
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert ratio <= 1.0, f"acceptance {num} ({label}): {ratio:.3g}x allowed tolerance"


_T_POINTS = (0.1, 1.05, 3.0)


def _tie_safe_rates(rng: random.Random, nu: float) -> tuple[float, float]:
    while True:
        c, d = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
        if abs(c**nu - d**nu) > 1e-2:
            return c, d


def test_transform_catalog_round_trips():
    """Closed-form inverses of the whole descriptor catalog agree with
    contour inversion to 1e-5 relative on t in [0.1, 3]."""
    rng = random.Random(101)
    strip_cfg = InversionConfig(M=128, precision_target=1e-7)

    def gamma_power(rng):
        a, b = rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.0)
        norm = math.exp(-math.lgamma(a)) / b**a
        return (GammaPower(alpha=a, beta=b),
                lambda t: norm * t ** (a - 1.0) * math.exp(-t / b),
                None)

    def two_sided_density(rng):
        b = rng.uniform(0.4, 2.0)
        return (LaplaceDensity(beta=b),
                lambda t: math.exp(-t / b) / (2.0 * b),
                strip_cfg)

    def ml_relaxation(rng):
        nu = rng.uniform(0.3, 1.0)
        return (MLBasic(c=1.0, nu=nu),
                lambda t: ml_eval(MLParams(nu), -(t**nu)),
                None)

    def ml_rate(rng):
        nu, c, n0 = rng.uniform(0.3, 1.5), rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        return (MLBasic(c=c, nu=nu, n0=n0),
                lambda t: n0 * ml_eval(MLParams(nu), -((c * t) ** nu)),
                None)

    def ml_power(rng):
        nu, mu = rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.5)
        c, n0 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        return (MLGeneral(c=c, nu=nu, mu=mu, n0=n0),
                lambda t: n0 * t ** (mu - 1.0) * ml_eval(MLParams(nu, mu), -((c * t) ** nu)),
                None)

    def ml_prabhakar(rng):
        nu, mu = rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.5)
        g, c, n0 = rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
        return (MLGeneral(c=c, nu=nu, mu=mu, gamma=g, n0=n0),
                lambda t: n0 * t ** (mu - 1.0)
                * ml_eval(MLParams(nu, mu, g + 1.0), -((c * t) ** nu)),
                None)

    def two_rate(rng):
        nu = rng.uniform(0.3, 1.5)
        mu = nu + rng.uniform(0.15, 1.0)
        n0 = rng.uniform(0.5, 2.0)
        c, d = _tie_safe_rates(rng, nu)
        problem = KineticProblem(kind=ProblemKind.TWO_RATE, n0=n0, c=c, nu=nu, mu=mu, d=d)
        return TwoRateProduct(c=c, d=d, nu=nu, mu=mu, n0=n0), solve(problem), None

    def three_term(rng):
        alpha = rng.uniform(1.2, 2.0)
        beta = rng.uniform(0.2, alpha - 0.3)
        gap = alpha - beta
        # keep the outer argument a t^gap at or below 2.5 on the grid so
        # 256 outer terms reach the series tail gate
        a = min(rng.uniform(0.3, 2.0), 2.5 / 3.0**gap)
        b = rng.uniform(0.3, 3.0)
        kind = rng.choice((ThreeTermAlpha, ThreeTermBeta))
        d = kind(a=a, b=b, alpha=alpha, beta=beta)
        return d, lambda t: invert_three_term(d, t, outer_terms=256), None

    families = (
        gamma_power,
        two_sided_density,
        ml_relaxation,
        ml_rate,
        ml_power,
        ml_prabhakar,
        two_rate,
        three_term,
    )
    ratio = 0.0
    for build in families:
        for _ in range(10):
            desc, closed, cfg = build(rng)
            wants = [closed(t) for t in _T_POINTS]
            floor = 1e-3 * max(abs(w) for w in wants)
            for t, want in zip(_T_POINTS, wants):
                got = lt_invert_numeric(desc, t, cfg) if cfg is not None \
                    else lt_invert_numeric(desc, t)
                ratio = max(ratio, abs(got - want) / max(abs(want), floor) / 1e-5)
    _report(1, "transform catalog round trips against contour inversion", ratio)


def _draw_problem(rng: random.Random, kind: ProblemKind) -> KineticProblem:
    nu = rng.uniform(0.3, 1.5)
    c = rng.uniform(0.5, 3.0)
    n0 = rng.uniform(0.5, 2.0)
    if kind is ProblemKind.BASIC:
        return KineticProblem(kind=kind, n0=n0, c=c, nu=nu)
    if kind is ProblemKind.POWER_SOURCE:
        return KineticProblem(kind=kind, n0=n0, c=c, nu=nu, mu=rng.uniform(0.5, 2.5))
    if kind is ProblemKind.ML_GAMMA_SOURCE:
        g = rng.uniform(-0.6, -0.2) if rng.random() < 0.5 else rng.uniform(0.2, 2.0)
        return KineticProblem(kind=kind, n0=n0, c=c, nu=nu,
                              mu=rng.uniform(0.5, 2.5), gamma=g)
    if kind is ProblemKind.ML_SOURCE:
        return KineticProblem(kind=kind, n0=n0, c=c, nu=nu, mu=rng.uniform(1.05, 2.5))
    mu = nu + rng.uniform(0.15, 1.0)
    cc, d = _tie_safe_rates(rng, nu)
    return KineticProblem(kind=kind, n0=n0, c=cc, nu=nu, mu=mu, d=d)


def test_solver_solutions_satisfy_integral_equations():
    """Residual certification: each solved kind has defect at most 1e-4 in
    its own integral equation over ten random draws."""
    rng = random.Random(202)
    grid = (0.1, 1.2, 3.0)
    ratio = 0.0
    for kind in ProblemKind:
        for _ in range(10):
            problem = _draw_problem(rng, kind)
            res = residual_check(problem, solve(problem), grid)
            ratio = max(ratio, max(abs(r) for r in res) / 1e-4)
    _report(2, "solver residuals certify all five problem kinds", ratio)


def test_classical_limits_recover_exponential_and_oscillator():
    """Order-one decay reduces to the exponential to 1e-10; the quadratic
    two-term denominator reproduces the damped oscillator to 1e-6."""
    rng = random.Random(303)
    ratio = 0.0
    for _ in range(20):
        c, n0 = rng.uniform(0.2, 3.0), rng.uniform(0.5, 2.0)
        sol = solve(KineticProblem(kind=ProblemKind.BASIC, n0=n0, c=c, nu=1.0))
        for t in (0.1, 0.8, 1.7, 3.0):
            want = n0 * math.exp(-c * t)
            ratio = max(ratio, abs(sol(t) - want) / abs(want) / 1e-10)
    for _ in range(10):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(a * a / 4.0 + 0.05, 4.0)
        om = math.sqrt(b - a * a / 4.0)
        for kind in (ThreeTermAlpha, ThreeTermBeta):
            d = kind(a=a, b=b, alpha=2.0, beta=1.0)
            for t in (0.1, 0.7, 1.6, 3.0):
                env = math.exp(-0.5 * a * t)
                if kind is ThreeTermAlpha:
                    want = env * (math.cos(om * t) - (0.5 * a / om) * math.sin(om * t))
                else:
                    want = env * math.sin(om * t) / om
                got = invert_three_term(d, t, outer_terms=256)
                ratio = max(ratio, abs(got - want) / 1e-6)
    _report(3, "classical limits recover exponential decay and the damped oscillator", ratio)


def _f_direct(q: float, a: float, t: float) -> float:
    return sum((-a) ** n * t ** (q * (n + 1) - 1.0) * math.exp(-math.lgamma(q * (n + 1)))
               for n in range(120))


def _r_direct(nu: float, mu: float, a: float, delta: float, t: float) -> float:
    tau = t - delta
    return sum(a**n * tau ** ((n + 1) * nu - mu - 1.0)
               * math.exp(-math.lgamma((n + 1) * nu - mu))
               for n in range(120))


def test_structural_identities_hold_pointwise():
    """Product law, transform homogeneity, relaxation-kernel series,
    delayed-kernel series, Wright/ML overlap, and the partial-fraction
    split all hold to 1e-10 over 100 draws each."""
    from mittag_kinetics.special_functions import f_function, r_function

    rng = random.Random(404)
    gate = 1e-10
    ratio = 0.0

    for _ in range(100):
        plus = tuple((rng.uniform(0.3, 2.0), rng.uniform(0.2, 1.5))
                     for _ in range(rng.randint(1, 2)))
        minus = tuple((rng.uniform(0.3, 2.0), rng.uniform(0.2, 1.5))
                      for _ in range(rng.randint(1, 2)))
        limit = min(1.0 / b for _, b in (*plus, *minus))
        p = rng.uniform(-0.9, 0.9) * limit
        lhs = lt_eval(ResidualProduct(plus=plus, minus=minus), p)
        rhs = 1.0
        for a, b in plus:
            rhs *= lt_eval(GammaPower(alpha=a, beta=b), p)
        for a, b in minus:
            rhs *= lt_eval(GammaPower(alpha=a, beta=b), -p)
        ratio = max(ratio, abs(lhs - rhs) / abs(rhs) / gate)

    for _ in range(100):
        nu, b, p = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0), rng.uniform(0.1, 10.0)
        left, right = (b * p) ** nu, b**nu * p**nu
        ratio = max(ratio, abs(left - right) / max(abs(right), 1e-30) / gate)

    for _ in range(100):
        q, a = rng.uniform(0.4, 1.0), rng.uniform(0.2, 1.2)
        t = rng.uniform(0.2, 1.8)
        want = _f_direct(q, a, t)
        ratio = max(ratio, abs(f_function(q, a, t) - want) / max(abs(want), 1e-3) / gate)

    for _ in range(100):
        nu = rng.uniform(0.5, 1.2)
        mu = rng.uniform(0.1, nu - 0.15)
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.2)
        delta = rng.uniform(0.0, 0.5)
        t = delta + rng.uniform(0.3, 1.8)
        want = _r_direct(nu, mu, a, delta, t)
        got = r_function(nu, mu, a, delta, t)
        ratio = max(ratio, abs(got - want) / max(abs(want), 1e-3) / gate)

    for _ in range(100):
        nu, mu = rng.uniform(0.3, 1.5), rng.uniform(0.3, 2.5)
        z = rng.uniform(-5.0, 5.0)
        got = wright_eval(WrightParams(upper=((1.0, 1.0),), lower=((mu, nu),)), z)
        want = ml_eval(MLParams(nu, mu), z)
        ratio = max(ratio, abs(got - want) / max(abs(want), 1e-3) / gate)

    for _ in range(100):
        nu = rng.uniform(0.3, 1.5)
        c, d = _tie_safe_rates(rng, nu)
        p = rng.uniform(0.3, 5.0)
        p_nu = complex(p) ** nu
        den_c, den_d = p_nu + c**nu, p_nu + d**nu
        lhs = 1.0 / (den_c * den_d)
        rhs = (1.0 / den_d - 1.0 / den_c) / (c**nu - d**nu)
        ratio = max(ratio, abs(lhs - rhs) / max(abs(lhs), 1e-3) / gate)

    _report(4, "structural transform identities hold over 100 draws each", ratio)


def test_ml_source_pair_identity_holds_pointwise():
    """nu E^2[nu, mu](z) = E[nu, mu-1](z) + (1 + nu - mu) E[nu, mu](z), the
    pair the ML-source solution was once written as, holds to 1e-10 over
    100 draws where its two terms do not cancel."""
    rng = random.Random(405)
    ratio = 0.0
    draws = 0
    while draws < 100:
        nu, mu, z = rng.uniform(0.3, 1.5), rng.uniform(1.05, 2.5), rng.uniform(-10.0, 5.0)
        lower = ml_eval(MLParams(nu, mu - 1.0), z)
        same = (1.0 + nu - mu) * ml_eval(MLParams(nu, mu), z)
        if abs(lower) + abs(same) > 10.0 * abs(lower + same):
            continue
        want = ml_eval(MLParams(nu, mu, 2.0), z)
        ratio = max(ratio, abs(nu * want - (lower + same)) / abs(nu * want) / 1e-10)
        draws += 1
    assert ratio <= 1.0, f"the ML-source pair identity is off by {ratio:.3g}x its 1e-10 gate"


def test_forward_quadrature_matches_confluent_series():
    """The forward transform of the Wright-kernel density equals the
    confluent hypergeometric closed form to 1e-6 at several p."""
    alpha, beta, gamma1, beta1 = 0.5, 1.2, 1.5, 2.5
    wp = WrightParams(upper=((gamma1, 1.0),), lower=((beta1, 1.0), (beta, alpha)))
    norm = math.exp(math.lgamma(beta1) - math.lgamma(gamma1))

    def f(t: float) -> float:
        return t ** (beta - 1.0) * norm * wright_eval(wp, t**alpha)

    qcfg = QuadratureConfig(singular_power=beta - 1.0)
    ratio = 0.0
    for p in (2.0, 5.0, 10.0):
        got = lt_forward_numeric(f, p, qcfg)
        want = p ** (-beta) * hyp1f1(gamma1, beta1, p ** (-alpha))
        ratio = max(ratio, abs(got - want) / abs(want) / 1e-6)
    _report(5, "forward quadrature of the Wright kernel matches the confluent series", ratio)


def test_ml_source_solution_matches_its_transform():
    """The one-term solution of the ML-source equation agrees with direct
    inversion of its transform to 1e-5."""
    cases = [(1.4, 0.7, 1.2)]
    rng = random.Random(606)
    while len(cases) < 10:
        cases.append((rng.uniform(1.05, 2.5), rng.uniform(0.3, 1.5), rng.uniform(0.5, 3.0)))
    ratio = 0.0
    for mu, nu, c in cases:
        problem = KineticProblem(kind=ProblemKind.ML_SOURCE, n0=1.0, c=c, nu=nu, mu=mu)
        sol = solve(problem)
        desc = transform_of(problem)
        t_points = (0.1, 0.9, 1.8, 3.0)
        wants = [sol(t) for t in t_points]
        floor = 1e-3 * max(abs(w) for w in wants)
        for t, want in zip(t_points, wants):
            got = lt_invert_numeric(desc, t)
            ratio = max(ratio, abs(got - want) / max(abs(want), floor) / 1e-5)
    _report(6, "ML-source solution matches inversion of its transform", ratio)


def test_reaction_diffusion_solvers_cross_validate():
    """Finite differences converge to the spectral solution at second
    order, and an undamped single mode is an exact cosine."""
    length = 2.0 * math.pi
    t_end = 2.0
    errs = []
    for m in (16, 32, 64):
        x = np.arange(m) * (length / m)
        problem = RDProblem(a=0.5, nu2=1.0, xi=0.5, length=length,
                            n0=np.cos(x) + 0.4 * np.cos(2.0 * x),
                            n1=0.2 * np.sin(x), times=(t_end,))
        steps = int(math.ceil(t_end / (0.5 * (length / m))))
        ref = rd_solve_spectral(problem)
        fd = rd_solve_fd(problem, dt=t_end / steps)
        errs.append(float(np.max(np.abs(fd.field - ref.field))))
    worst_order = min(math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1))
    ratio = 1.8 / worst_order

    m = 32
    x = np.arange(m) * (length / m)
    times = (0.5, 1.3, 2.0)
    sol = rd_solve_spectral(RDProblem(a=0.0, nu2=1.0, xi=0.0, length=length,
                                      n0=np.cos(x), n1=np.zeros(m), times=times))
    for i, t in enumerate(times):
        dev = float(np.max(np.abs(sol.field[i] - np.cos(x) * math.cos(t))))
        ratio = max(ratio, dev / 1e-6)
    _report(7, f"spectral/FD cross-validation (order {worst_order:.2f}) and cosine mode", ratio)


def test_special_values_and_monotone_decay():
    """Known point values of the ML function hold to 1e-12 (zero of the
    cosine case to 1e-10) and relaxation curves decay monotonically."""
    ratio = 0.0
    for nu in (0.3, 0.7, 1.0, 1.6):
        for mu in (0.4, 1.0, 2.2):
            got = ml_eval(MLParams(nu, mu), 0.0)
            want = math.exp(-math.lgamma(mu))
            ratio = max(ratio, abs(got - want) / want / 1e-12)
    ratio = max(ratio, abs(ml_eval(MLParams(1.0), 1.0) - math.e) / math.e / 1e-12)
    ratio = max(ratio, abs(ml_eval(MLParams(2.0), -((math.pi / 2.0) ** 2))) / 1e-10)
    for nu in (0.3, 0.5, 0.8, 1.0):
        ts = np.linspace(0.0, 10.0, 201)
        vals = np.array([ml_eval(MLParams(nu), -(t**nu)) for t in ts])
        ratio = max(ratio, float(np.max(np.diff(vals))) / 1e-12)
        if vals.min() <= 0.0:
            ratio = max(ratio, 2.0)
    _report(8, "special values and monotone relaxation decay", ratio)
