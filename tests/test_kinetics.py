"""Tests for the kinetic-equation solvers and three-term inversions."""

import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mittag_kinetics.errors import DomainError, NonConvergence
from mittag_kinetics.kinetics import (
    KineticProblem,
    ProblemKind,
    SeriesTerm,
    SolutionSeries,
    invert_three_term,
    solve,
    source_term,
    transform_of,
)
from mittag_kinetics.laplace import (
    MLBasic,
    MLGeneral,
    ThreeTermAlpha,
    ThreeTermBeta,
    TwoRateProduct,
    lt_eval,
    lt_invert_numeric,
)
from mittag_kinetics.special_functions import MLParams, ml_eval

GRID = [0.1, 0.5, 1.0, 2.0, 3.0]


class TestKineticProblem:
    def test_validation(self):
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.BASIC, n0=-1.0, c=1.0, nu=0.5)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.BASIC, n0=1.0, c=0.0, nu=0.5)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=-0.5)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.0, nu=0.5, mu=0.0)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=1.0, nu=0.5, mu=1.0)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=1.0, nu=0.5, mu=0.4, d=1.0)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5, d=1.0)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=1.0, c=1.0, nu=0.5, gamma=0.0)
        with pytest.raises(DomainError):
            KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5, gamma=0.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["n0", "c", "nu", "mu", "gamma", "d"])
    def test_non_finite_refused(self, field, value):
        # each field on a kind it applies to, every other field valid
        kind = {"gamma": ProblemKind.ML_GAMMA_SOURCE,
                "d": ProblemKind.TWO_RATE}.get(field, ProblemKind.POWER_SOURCE)
        params = {"n0": 1.0, "c": 1.0, "nu": 0.5, "mu": 1.5, field: value}
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            KineticProblem(kind, **params)

    def test_basic_refuses_mu(self):
        # the basic source is n0 t**(mu-1) at mu = 1; another mu was ignored
        with pytest.raises(DomainError, match="mu = 1"):
            KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5, mu=1.5)
        KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5, mu=1.0)


class TestSolveStructure:
    def test_basic_single_term(self):
        sol = solve(KineticProblem(ProblemKind.BASIC, n0=1.3, c=1.1, nu=0.7))
        assert sol.terms == (SeriesTerm(1.3, 0.0, MLParams(nu=0.7), 1.1**0.7),)

    def test_power_source_gamma_weight(self):
        sol = solve(KineticProblem(ProblemKind.POWER_SOURCE, n0=2.0, c=1.0, nu=0.5, mu=1.4))
        (term,) = sol.terms
        assert term.weight == pytest.approx(2.0 * math.gamma(1.4))
        assert term.power == pytest.approx(0.4)
        assert term.ml == MLParams(nu=0.5, mu=1.4)

    def test_ml_gamma_source_raises_index(self):
        sol = solve(
            KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=1.0, c=1.0, nu=0.5, mu=1.2, gamma=0.7)
        )
        assert sol.terms[0].ml.gamma == pytest.approx(1.7)

    def test_ml_source_one_term(self):
        # the ml-gamma-source term at gamma = 1; the pair it replaces is
        # acceptance's ML-source pair identity
        nu, mu = 0.7, 1.4
        sol = solve(KineticProblem(ProblemKind.ML_SOURCE, n0=3.0, c=1.0, nu=nu, mu=mu))
        assert sol.terms == (SeriesTerm(3.0, mu - 1.0, MLParams(nu, mu, 2.0), 1.0),)

    def test_ml_source_against_series_oracle(self):
        # the worst of 297 draws for the pair E_(nu,mu-1) + (1 + nu - mu)
        # E_(nu,mu) the one term replaced, which cancelled to 5.4e-11
        # relative at t = 4.035
        from test_special_functions import _ml_series_oracle

        c, nu, mu = 2.376427263300507, 0.4682119020614248, 2.487747997142134
        sol = solve(KineticProblem(ProblemKind.ML_SOURCE, n0=1.0, c=c, nu=nu, mu=mu))
        for t in (1.0, 2.0, 4.035, 6.0):
            expected = t ** (mu - 1.0) * _ml_series_oracle(nu, mu, 2.0, -(c**nu) * t**nu)
            assert sol(t) == pytest.approx(expected, rel=2e-12, abs=0), t

    def test_two_rate_antisymmetric_weights(self):
        nu, mu = 0.8, 1.6
        sol = solve(KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=nu, mu=mu, d=1.0))
        w = 1.0 / (2.0**nu - 1.0)
        assert [t.weight for t in sol.terms] == pytest.approx([w, -w])
        assert {t.rate for t in sol.terms} == {1.0, 2.0**nu}
        assert sol.terms[0].power == pytest.approx(mu - nu - 1.0)

    def test_two_rate_tie_branch(self):
        pr = KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.8, mu=1.6, d=2.0 + 1e-12)
        sol = solve(pr)
        assert len(sol.terms) == 1
        assert sol.terms[0].ml.gamma == 2.0
        assert sol.terms[0].rate == 2.0**0.8

    def test_power_source_mu_one_collapses_to_basic(self):
        basic = solve(KineticProblem(ProblemKind.BASIC, n0=1.5, c=1.2, nu=0.6))
        power = solve(KineticProblem(ProblemKind.POWER_SOURCE, n0=1.5, c=1.2, nu=0.6, mu=1.0))
        for t in GRID:
            assert power(t) == pytest.approx(basic(t), rel=1e-14)


class TestSolutionSeries:
    def test_negative_time_rejected(self):
        sol = solve(KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5))
        with pytest.raises(DomainError):
            sol.evaluate(-1.0)

    def test_time_zero(self):
        sol = solve(KineticProblem(ProblemKind.BASIC, n0=2.5, c=1.0, nu=0.5))
        assert sol.evaluate(0.0) == pytest.approx(2.5)
        singular = solve(KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.0, nu=0.5, mu=0.5))
        with pytest.raises(DomainError):
            singular.evaluate(0.0)

    def test_array_matches_float_path(self):
        problems = [
            KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.3, nu=0.55),
            KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=0.55),
            KineticProblem(ProblemKind.ML_GAMMA_SOURCE, n0=0.8, c=1.5, nu=1.4, mu=0.7, gamma=0.7),
            KineticProblem(ProblemKind.ML_SOURCE, n0=1.0, c=1.2, nu=0.7, mu=1.4),
            KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.8, mu=1.6, d=1.0),
        ]
        t = np.linspace(0.05, 3.0, 40)
        for problem in problems:
            sol = solve(problem)
            got = sol(t)
            assert isinstance(got, np.ndarray) and got.shape == t.shape
            for ti, g in zip(t, got):
                assert g == pytest.approx(sol(float(ti)), rel=5e-13, abs=1e-300), (problem, ti)

    def test_float_path_unchanged(self):
        # a float still sums weight * t^power * E(z) term by term in ml_eval
        problem = KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.8, mu=1.6, d=1.0)
        sol = solve(problem)
        for t in (0.3, 1.7):
            want = 0.0
            for term in sol.terms:
                want += term.weight * t**term.power * ml_eval(term.ml, -term.rate * t**term.ml.nu)
            assert sol(t) == want

    def test_array_time_zero(self):
        t = np.array([0.0, 0.5, 0.0, 1.5])
        basic = solve(KineticProblem(ProblemKind.BASIC, n0=2.5, c=1.0, nu=0.5))
        got = basic(t)
        assert got[0] == got[2] == basic.evaluate(0.0) == pytest.approx(2.5)
        assert got[1] == pytest.approx(basic(0.5), rel=5e-13)
        # power mu - 1 > 0 vanishes at t = 0, a negative power diverges
        smooth = solve(KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.0, nu=0.5, mu=1.5))
        assert smooth(t)[0] == smooth.evaluate(0.0) == 0.0
        singular = solve(KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.0, nu=0.5, mu=0.5))
        with pytest.raises(DomainError):
            singular(t)
        with pytest.raises(DomainError):
            basic(np.array([0.5, -1.0]))

    @pytest.mark.parametrize("n0, mu", [(1.0, 172.0), (1e10, 171.0)])
    def test_power_source_weight_beyond_float_range(self, n0, mu):
        # Gamma(172) raised an untyped OverflowError; 1e10 Gamma(171) is
        # inf, and N(0.5) came out inf where it is about 6.7e-42
        problem = KineticProblem(ProblemKind.POWER_SOURCE, n0=n0, c=1.0, nu=0.5, mu=mu)
        for build in (solve, transform_of):
            with pytest.raises(DomainError, match="float range"):
                build(problem)

    def test_power_beyond_float_range(self):
        # 200.0**149.0 raised an untyped OverflowError in the float path
        sol = solve(KineticProblem(ProblemKind.POWER_SOURCE, n0=1.0, c=1.0, nu=0.5, mu=150.0))
        with pytest.raises(DomainError, match="float range"):
            sol.evaluate(200.0)
        with pytest.raises(DomainError, match="float range"):
            sol.evaluate(np.array([1.0, 200.0]))
        # (1e300)^1.5 in the argument of E raised one too
        with pytest.raises(DomainError, match="float range"):
            solve(KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=1.5)).evaluate(1e300)

    def test_sum_beyond_float_range(self):
        # two finite terms whose sum overflows
        term = SeriesTerm(1e308, 0.0, MLParams(nu=1.0), 1.0)
        for t in (0.0, 1e-3, np.array([1e-3, 0.5])):
            with pytest.raises(DomainError, match="float range"):
                SolutionSeries((term, term)).evaluate(t)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.7])
    def test_classical_limit(self, c):
        sol = solve(KineticProblem(ProblemKind.BASIC, n0=1.7, c=c, nu=1.0))
        for t in GRID:
            assert sol(t) == pytest.approx(1.7 * math.exp(-c * t), rel=1e-10)


class TestOracleEquivalence:
    @staticmethod
    def draws(kind, n):
        rng = random.Random(hash(kind.value) & 0xFFFF)
        out = []
        while len(out) < n:
            nu = rng.uniform(0.3, 1.5)
            mu = rng.uniform(0.5, 2.5)
            c = rng.uniform(0.5, 3.0)
            d = rng.uniform(0.5, 3.0)
            gamma = rng.uniform(0.2, 2.0)
            if kind is ProblemKind.ML_SOURCE and mu <= 1.05:
                continue
            if kind is ProblemKind.TWO_RATE:
                if mu <= nu + 0.1 or abs(c**nu - d**nu) < 1e-3:
                    continue
            kwargs = {"n0": rng.uniform(0.5, 2.0), "c": c, "nu": nu}
            if kind is not ProblemKind.BASIC:
                kwargs["mu"] = mu
            if kind is ProblemKind.ML_GAMMA_SOURCE:
                kwargs["gamma"] = gamma
            if kind is ProblemKind.TWO_RATE:
                kwargs["d"] = d
            out.append(KineticProblem(kind, **kwargs))
        return out

    @pytest.mark.parametrize("kind", list(ProblemKind), ids=lambda k: k.value)
    def test_solution_matches_inversion(self, kind):
        for problem in self.draws(kind, 4):
            sol = solve(problem)
            desc = transform_of(problem)
            for t in (0.1, 0.9, 3.0):
                closed = sol(t)
                numeric = lt_invert_numeric(desc, t)
                assert numeric == pytest.approx(closed, rel=1e-5, abs=1e-8), problem

    @given(
        nu=st.floats(0.3, 1.5),
        mu=st.floats(0.5, 2.5),
        c=st.floats(0.5, 3.0),
        d=st.floats(0.5, 3.0),
        t=st.floats(0.1, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_rate_symmetry(self, nu, mu, c, d, t):
        assume(mu > nu + 0.05)
        assume(abs(c**nu - d**nu) > 1e-6 * max(c**nu, d**nu))
        a = solve(KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=c, nu=nu, mu=mu, d=d))
        b = solve(KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=d, nu=nu, mu=mu, d=c))
        va, vb = a(t), b(t)
        assert vb == pytest.approx(va, rel=1e-12, abs=1e-12)


class TestTransformOf:
    def test_kind_mapping(self):
        assert isinstance(
            transform_of(KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5)), MLBasic
        )
        assert isinstance(
            transform_of(KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.5, mu=1.0, d=1.0)),
            TwoRateProduct,
        )

    def test_power_source_descriptor_value(self):
        pr = KineticProblem(ProblemKind.POWER_SOURCE, n0=2.0, c=1.3, nu=0.6, mu=1.4)
        desc = transform_of(pr)
        p = 1.7
        want = 2.0 * math.gamma(1.4) * p ** (0.6 - 1.4) / (p**0.6 + 1.3**0.6)
        assert lt_eval(desc, p) == pytest.approx(want, rel=1e-13)

    def test_ml_source_squares_denominator(self):
        pr = KineticProblem(ProblemKind.ML_SOURCE, n0=1.0, c=1.3, nu=0.6, mu=1.4)
        desc = transform_of(pr)
        assert isinstance(desc, MLGeneral) and desc.gamma == 1.0
        p = 2.2
        tie = TwoRateProduct(c=1.3, d=1.3, nu=0.6, mu=1.4)
        assert lt_eval(desc, p) == pytest.approx(lt_eval(tie, p), rel=1e-13)


class TestSourceTerm:
    def test_needs_positive_time(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=1.0, c=1.0, nu=0.5)
        with pytest.raises(DomainError):
            source_term(pr, 0.0)

    def test_basic_is_constant(self):
        pr = KineticProblem(ProblemKind.BASIC, n0=1.8, c=1.0, nu=0.5)
        assert source_term(pr, 2.0) == 1.8

    def test_two_rate_uses_production_rate(self):
        pr = KineticProblem(ProblemKind.TWO_RATE, n0=1.0, c=2.0, nu=0.5, mu=1.2, d=1.4)
        t = 1.3
        want = t**0.2 * ml_eval(MLParams(nu=0.5, mu=1.2), -(1.4**0.5) * t**0.5)
        assert source_term(pr, t) == pytest.approx(want, rel=1e-13)


def _partial_fraction_forms(c, d, nu, p):
    # the identity behind solve's two-rate split:
    # 1/((p^nu + c^nu)(p^nu + d^nu)) = (1/(p^nu + d^nu) - 1/(p^nu + c^nu)) / (c^nu - d^nu)
    p_nu = complex(p) ** nu
    den_c, den_d = p_nu + c**nu, p_nu + d**nu
    return 1.0 / (den_c * den_d), (1.0 / den_d - 1.0 / den_c) / (c**nu - d**nu)


class TestPartialFraction:
    def test_unit_example(self):
        lhs, rhs = _partial_fraction_forms(2.0, 1.0, 1.0, 1.0)
        assert lhs == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert rhs == pytest.approx(1.0 / 6.0, rel=1e-15)

    @given(
        c=st.floats(0.3, 3.0),
        d=st.floats(0.3, 3.0),
        nu=st.floats(0.2, 1.8),
        re=st.floats(0.2, 5.0),
        im=st.floats(-3.0, 3.0),
    )
    @example(c=2.453125, d=2.4597372433204847, nu=1.0, re=3.0, im=0.5)
    @settings(max_examples=100, deadline=None)
    def test_identity(self, c, d, nu, re, im):
        gap = abs(c**nu - d**nu)
        assume(gap > 1e-3)
        p = complex(re, im)
        lhs, rhs = _partial_fraction_forms(c, d, nu, p)
        # the split (1/den_d - 1/den_c) / gap rounds each reciprocal to eps
        # of itself, eps (|den_c| + |den_d|) / gap relative to the product;
        # the error stayed within 1.6 times that over 187,000 seeded draws
        # of this domain, half of them near a tie
        p_nu = p**nu
        dens = abs(p_nu + c**nu) + abs(p_nu + d**nu)
        tol = 4.0 * sys.float_info.epsilon * dens / gap
        assert rhs == pytest.approx(lhs, rel=tol, abs=1e-300)


class TestThreeTermTransform:
    def test_validation(self):
        # the transforms invert_three_term takes need alpha > beta >= 0
        for kind in (ThreeTermAlpha, ThreeTermBeta):
            with pytest.raises(DomainError):
                kind(alpha=1.0, beta=1.5, a=1.0, b=1.0)
            with pytest.raises(DomainError):
                kind(alpha=1.0, beta=-0.2, a=1.0, b=1.0)


class TestInvertThreeTerm:
    def test_two_term_reduction(self):
        # a = 0 leaves a single Mittag-Leffler term
        d = ThreeTermAlpha(a=0.0, b=1.2, alpha=1.5, beta=0.5)
        t = 1.4
        want = ml_eval(MLParams(nu=1.5), -1.2 * t**1.5)
        assert invert_three_term(d, t) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("t", GRID)
    def test_damped_oscillator(self, t):
        a, b = 0.6, 4.0
        om = math.sqrt(b - a * a / 4.0)
        damp = math.exp(-a * t / 2.0)
        l3 = invert_three_term(ThreeTermAlpha(a=a, b=b, alpha=2.0, beta=1.0), t)
        want3 = damp * (math.cos(om * t) - (a / 2.0) / om * math.sin(om * t))
        assert l3 == pytest.approx(want3, rel=1e-6, abs=1e-9)
        l4 = invert_three_term(ThreeTermBeta(a=a, b=b, alpha=2.0, beta=1.0), t)
        want4 = damp * math.sin(om * t) / om
        assert l4 == pytest.approx(want4, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("kind", [ThreeTermAlpha, ThreeTermBeta],
                             ids=["alpha-minus-one", "beta-minus-one"])
    @pytest.mark.parametrize("t", [0.3, 1.1, 2.6])
    def test_fractional_orders_match_inversion(self, kind, t):
        d = kind(a=0.8, b=1.2, alpha=1.5, beta=0.5)
        got = invert_three_term(d, t)
        want = lt_invert_numeric(d, t)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_large_gamma_outer_terms(self):
        # outer terms r = 7-255 need E^(r+1) at z = -1.3; the contour once
        # took them off by up to orders of magnitude (route A at gamma > 3)
        # and at r = 225 read a node overflow as a value beyond float range.
        # Expected: the 256 outer terms summed with the mpmath series
        # oracle of test_special_functions for every E^(r+1)
        d = ThreeTermBeta(a=-1.299879365075482, b=2.1457216064980913,
                          alpha=0.8784989591882667, beta=0.7833623104123376)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = invert_three_term(d, 0.5741687900124413, outer_terms=256)
        assert got == pytest.approx(0.11722915907284154, rel=1e-11)

    @pytest.mark.parametrize("t", [0.018436655708995643, 0.02])
    def test_sum_beyond_float_range(self, t):
        # the outer terms pass 1e270 and the inverse leaves float range;
        # the sum once came out inf at the first t and nan at the second
        d = ThreeTermAlpha(a=-2.9125305091202947, b=-8.326539888178841,
                           alpha=0.21390099888124747, beta=0.20975756267490261)
        with pytest.raises(DomainError, match="float range"):
            invert_three_term(d, t)

    def test_power_beyond_float_range(self):
        # t^alpha = (1e300)^2 raised an untyped OverflowError
        d = ThreeTermAlpha(a=0.0, b=1.0, alpha=2.0, beta=1.0)
        with pytest.raises(DomainError, match="float range"):
            invert_three_term(d, 1e300)

    def test_divergence_guard(self):
        d = ThreeTermAlpha(a=8.0, b=1.0, alpha=2.0, beta=1.0)
        with pytest.raises(DomainError):
            invert_three_term(d, 3.0)

    def test_budget_exhaustion(self):
        d = ThreeTermAlpha(a=2.0, b=1.0, alpha=1.5, beta=0.5)
        with pytest.raises(NonConvergence):
            invert_three_term(d, 2.0, outer_terms=3)

    def test_argument_validation(self):
        d = ThreeTermAlpha(a=0.5, b=1.0, alpha=1.5, beta=0.5)
        with pytest.raises(DomainError):
            invert_three_term(d, 0.0)
        for outer_terms in (0, 2.5, True):
            with pytest.raises(DomainError):
                invert_three_term(d, 1.0, outer_terms=outer_terms)
