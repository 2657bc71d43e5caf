"""Tests for the product-integration fractional integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mittag_kinetics.errors import DomainError, QuadratureFailure
from mittag_kinetics.fracint import FracIntConfig, residual_check, rl_integral
from mittag_kinetics.kinetics import KineticProblem, ProblemKind, solve
from mittag_kinetics.special_functions import MLParams, ml_eval


def beta_closed_form(mu, nu, t):
    return math.gamma(mu) * t ** (mu + nu - 1.0) / math.gamma(mu + nu)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            FracIntConfig(h=0.0)
        with pytest.raises(DomainError):
            FracIntConfig(singular_power=-1.0)
        with pytest.raises(DomainError):
            FracIntConfig(grading=0.5)


@pytest.mark.parametrize("make", [
    lambda: rl_integral(math.cos, 0.5, math.inf),
    lambda: rl_integral(math.cos, 0.5, math.nan),
    lambda: rl_integral(math.cos, math.nan, 1.0),
    lambda: rl_integral(math.cos, math.inf, 1.0),
    lambda: FracIntConfig(h=math.nan),
    lambda: FracIntConfig(h=math.inf),
    lambda: FracIntConfig(singular_power=math.nan),
    lambda: FracIntConfig(grading=math.inf),
], ids=["t-inf", "t-nan", "nu-nan", "nu-inf", "h-nan", "h-inf", "power-nan", "grading-inf"])
def test_non_finite_inputs_refused(make):
    with pytest.raises(DomainError):
        make()


class TestRlIntegral:
    def test_constant(self):
        got = rl_integral(lambda u: 1.0, 0.6, 2.0)
        assert got == pytest.approx(2.0**0.6 / math.gamma(1.6), rel=1e-13)

    def test_linear_order_one(self):
        assert rl_integral(lambda u: u, 1.0, 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_order_zero_is_identity(self):
        assert rl_integral(lambda u: math.sin(u), 0.0, 1.2) == math.sin(1.2)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rl_integral(lambda u: 1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            rl_integral(lambda u: 1.0, -0.5, 1.0)

    @pytest.mark.parametrize("mu", [0.3, 0.5, 0.8, 1.5])
    def test_declared_power_is_exact(self, mu):
        cfg = FracIntConfig(singular_power=mu - 1.0)
        got = rl_integral(lambda u: u ** (mu - 1.0), 0.6, 1.3, cfg)
        assert got == pytest.approx(beta_closed_form(mu, 0.6, 1.3), rel=1e-12)

    def test_smooth_power_default_config(self):
        got = rl_integral(lambda u: u**1.5, 0.6, 1.3)
        assert got == pytest.approx(beta_closed_form(2.5, 0.6, 1.3), rel=1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_undeclared_singularity_fails_loudly(self):
        with pytest.raises(QuadratureFailure):
            rl_integral(lambda u: u**-0.5, 0.6, 1.3)

    def test_sum_beyond_float_range_refused(self):
        # the cells sum to 1.8e308 and 1/Gamma(1.4616) = 1.13 takes it past
        # float range: a QuadratureFailure, not inf
        with pytest.raises(QuadratureFailure, match="not finite"):
            rl_integral(lambda u: 0.95e308, 1.4616, 2.0)

    @pytest.mark.parametrize("nu", [0.4, 0.9, 1.6])
    def test_cosine_cross_oracle(self, nu):
        # I^nu cos has the closed form t^nu E_{2,nu+1}(-t^2)
        t = 2.0
        want = t**nu * ml_eval(MLParams(nu=2.0, mu=nu + 1.0), -t * t)
        assert rl_integral(math.cos, nu, t) == pytest.approx(want, abs=3e-6)

    def test_step_halving_gains_order(self):
        nu, t = 0.9, 2.0
        want = t**nu * ml_eval(MLParams(nu=2.0, mu=nu + 1.0), -t * t)
        coarse = abs(rl_integral(math.cos, nu, t, FracIntConfig(h=t / 256)) - want)
        fine = abs(rl_integral(math.cos, nu, t, FracIntConfig(h=t / 512)) - want)
        assert coarse / fine >= 3.0

    def test_grading_preserves_exactness(self):
        cfg = FracIntConfig(singular_power=-0.5, grading=4.0)
        got = rl_integral(lambda u: u**-0.5, 0.7, 1.1, cfg)
        assert got == pytest.approx(beta_closed_form(0.5, 0.7, 1.1), rel=1e-12)

    def test_graded_mesh_handles_secondary_powers(self):
        # integrand u^{-0.45} E-series stepping in powers of u^{0.7}
        pr = KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=0.55)
        sol = solve(pr)
        graded = FracIntConfig(singular_power=-0.45, grading=3.0)
        uniform = FracIntConfig(singular_power=-0.45)
        oracle = rl_integral(sol, 0.7, 0.1, FracIntConfig(h=0.1 / 4096, singular_power=-0.45, grading=3.0))
        assert rl_integral(sol, 0.7, 0.1, graded) == pytest.approx(oracle, rel=1e-6)
        assert abs(rl_integral(sol, 0.7, 0.1, uniform) - oracle) > abs(
            rl_integral(sol, 0.7, 0.1, graded) - oracle
        )

    @pytest.mark.parametrize("pair", [(0.4, 0.6), (0.5, 0.5)])
    def test_semigroup_composition(self, pair):
        nu1, nu2 = pair
        f = lambda u: u**0.3
        inner_cfg = FracIntConfig(singular_power=0.3)
        inner = lambda u: rl_integral(f, nu1, u, inner_cfg)
        outer_cfg = FracIntConfig(singular_power=0.3 + nu1)
        got = rl_integral(inner, nu2, 1.7, outer_cfg)
        want = rl_integral(f, nu1 + nu2, 1.7, inner_cfg)
        assert got == pytest.approx(want, rel=1e-5)

    @given(
        mu=st.floats(0.2, 3.0),
        nu=st.floats(0.1, 2.0),
        t=st.floats(0.2, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_power_law_property(self, mu, nu, t):
        cfg = FracIntConfig(singular_power=mu - 1.0)
        got = rl_integral(lambda u: u ** (mu - 1.0), nu, t, cfg)
        assert got == pytest.approx(beta_closed_form(mu, nu, t), rel=1e-10)

    @given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        f = lambda u: math.cos(u)
        g = lambda u: u * u
        combo = lambda u: a * f(u) + b * g(u)
        lhs = rl_integral(combo, 0.7, 1.4)
        rhs = a * rl_integral(f, 0.7, 1.4) + b * rl_integral(g, 0.7, 1.4)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _mesh_cases():
    problems = [
        KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.3, nu=0.55),
        KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=0.55),
        KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=1.55),
        KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=0.8, c=1.5, nu=0.6, mu=0.7, gamma=0.7),
        KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=0.8, c=1.5, nu=1.6, mu=1.7, gamma=1.0),
        KineticProblem(ProblemKind.ML_SOURCE, n0=1.0, c=1.2, nu=1.3, mu=1.4),
        KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.8, mu=1.6, d=1.0),
        KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.8, mu=2.3, d=1.0),
    ]
    cases = []
    for problem in problems:
        power = min(term.power for term in solve(problem).terms)
        configs = {"declared-power": FracIntConfig(singular_power=power, grading=2.0)}
        if power >= 0.0:  # else the solution diverges at the mesh point u = 0
            configs.update(uniform=FracIntConfig(), graded=FracIntConfig(grading=2.5))
        for name, cfg in configs.items():
            cases.append(pytest.param(problem, cfg, id=f"{problem.kind.value}-mu{problem.mu}-{name}"))
    return cases


class TestMeshSampling:
    """rl_integral calls f once with the whole mesh when f takes arrays."""

    @pytest.mark.parametrize("problem,cfg", _mesh_cases())
    def test_series_matches_pointwise(self, problem, cfg):
        sol = solve(problem)
        calls = []

        def counted(u):
            calls.append(np.size(u))
            return sol(u)

        for t in (0.4, 2.2):
            calls.clear()
            got = rl_integral(counted, problem.nu, t, cfg)
            assert len(calls) == 1 and calls[0] > 1
            pointwise = rl_integral(lambda u: sol(float(u)), problem.nu, t, cfg)
            assert got == pytest.approx(pointwise, rel=1e-13, abs=0)

    def test_scalar_only_callables_sampled_pointwise(self):
        calls = []

        def scalar_only(u):
            calls.append(u)
            return math.exp(-u)

        got = rl_integral(scalar_only, 0.6, 1.5)
        # one refused array call, then one call per mesh point
        assert len(calls) == 1 + 513
        assert got == pytest.approx(rl_integral(lambda u: np.exp(-u), 0.6, 1.5), rel=1e-15)

    def test_result_that_does_not_broadcast(self):
        # an f that answers an array with something of another shape
        # is sampled point by point
        f = lambda u: np.array([1.0, 2.0]) if np.ndim(u) else 1.0
        assert rl_integral(f, 0.6, 2.0) == pytest.approx(rl_integral(lambda u: 1.0, 0.6, 2.0))

    def test_constant_result_broadcasts(self):
        assert rl_integral(lambda u: 2.0, 0.6, 2.0) == pytest.approx(
            2.0 * 2.0**0.6 / math.gamma(1.6), rel=1e-13)


class TestResidualCheck:
    grid = [0.1, 0.5, 1.0, 2.0, 3.0]

    def test_classical_relaxation(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=1.0)
        cfg = FracIntConfig(h=3.0 / 2048.0)
        res = residual_check(pr, lambda t: math.exp(-t), self.grid, cfg)
        assert max(abs(r) for r in res) < 1e-6
        loose = residual_check(pr, lambda t: math.exp(-t), self.grid)
        assert max(abs(r) for r in loose) < 1e-4

    def test_half_order_relaxation(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5)
        sol = lambda t: ml_eval(MLParams(nu=0.5), -math.sqrt(t))
        res = residual_check(pr, sol, self.grid)
        assert max(abs(r) for r in res) < 1e-5

    def test_zero_solution(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=0.0, c=1.0, nu=0.7)
        res = residual_check(pr, lambda t: 0.0, self.grid)
        assert res == [0.0] * len(self.grid)

    def test_wrong_solution_flagged(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5)
        res = residual_check(pr, lambda t: math.exp(-t), self.grid)
        assert max(abs(r) for r in res) > 1e-2

    @pytest.mark.parametrize(
        "problem",
        [
            KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=0.55),
            KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=0.8, c=1.5, nu=0.6, mu=0.7, gamma=0.7),
            KineticProblem(ProblemKind.ML_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=1.4),
            KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.8, mu=1.6, d=1.0),
        ],
        ids=lambda p: p.kind.value,
    )
    def test_solver_outputs_certify(self, problem):
        res = residual_check(problem, solve(problem), self.grid)
        assert max(abs(r) for r in res) < 1e-4

    @pytest.mark.parametrize(
        "grid",
        [lambda: np.array([0.5, 1.0]), lambda: (t for t in (0.5, 1.0)), lambda: np.array([])],
        ids=["ndarray", "generator", "empty-ndarray"],
    )
    def test_grid_is_any_iterable(self, grid):
        # read once, as a list: a generator must not be spent by the checks
        pr = KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.7)
        sol = solve(pr)
        want = residual_check(pr, sol, [float(t) for t in grid()])
        assert len(want) == len(list(grid()))
        assert residual_check(pr, sol, grid()) == want

    @pytest.mark.parametrize("problem", [
        KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.017),
        KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=1.0, c=1.0, nu=0.017, gamma=0.5),
        KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.0, nu=0.015, mu=0.5),
    ], ids=["basic", "ml-gamma-source", "power-source"])
    def test_order_too_small_for_the_graded_mesh(self, problem):
        # grading by 2/nu puts the first of 512 nodes at (1/512)^117.6 =
        # 2e-319, subnormal, at nu = 0.017 (the residual was nan) and at 0
        # at nu = 0.015 (a DomainError for the t = 0 sample of t^-0.5)
        with pytest.raises(QuadratureFailure, match="underflows"):
            residual_check(problem, solve(problem), [1.0])

    def test_grid_validation(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5)
        assert residual_check(pr, lambda t: 0.0, []) == []
        with pytest.raises(DomainError):
            residual_check(pr, lambda t: 0.0, [0.0, 1.0])
