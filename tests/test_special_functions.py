"""Tests for the Mittag-Leffler family and companion series.

Fixed-point expected values were computed once with a 40-digit mpmath
direct summation of the defining series and frozen here.
"""

import itertools
import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from scipy.optimize import brentq
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mittag_kinetics.errors import DomainError, NonConvergence, PoleError
from mittag_kinetics import special_functions
from mittag_kinetics.special_functions import (
    MLParams,
    SeriesConfig,
    WrightParams,
    f_function,
    hyp1f1,
    ml_eval,
    r_function,
    wright_eval,
)


class TestMLEval:
    # (nu, mu, gamma, z, expected) frozen from 40-digit summation
    FROZEN = [
        (0.5, 0.5, 1.0, -1.0, 0.1366060073919492825373),
        (1.0, 1.0, 1.0, 1.0, math.e),
        (1.0, 2.0, 1.0, 1.0, math.e - 1.0),
        (0.7, 1.4, 2.0, -0.8, 0.3192353349624176798322),
        (0.5, 0.9, 1.0, -2.0, 0.2192015769045745607669),
    ]

    @pytest.mark.parametrize("nu,mu,gamma,z,expected", FROZEN)
    def test_frozen_values(self, nu, mu, gamma, z, expected):
        got = ml_eval(MLParams(nu=nu, mu=mu, gamma=gamma), z)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_cosine_zero(self):
        # E_2(-x^2) = cos(x); pi/2 is a zero
        got = ml_eval(MLParams(nu=2.0), -((math.pi / 2.0) ** 2))
        assert abs(got) <= 1e-10

    def test_z_zero(self):
        assert ml_eval(MLParams(nu=0.7, mu=1.3), 0.0) == pytest.approx(
            1.0 / math.gamma(1.3), rel=1e-15
        )

    def test_domain_bound_refused(self):
        with pytest.raises(DomainError):
            ml_eval(MLParams(nu=0.5), 50.0 + 1e-9)

    def test_nan_argument_refused(self):
        # NaN passes no comparison: the bound check must refuse it, not
        # leave the series to run out its term budget on NaN terms
        with pytest.raises(DomainError):
            ml_eval(MLParams(nu=0.5), math.nan)

    def test_domain_bound_configurable(self):
        cfg = SeriesConfig(max_abs_z=80.0)
        assert ml_eval(MLParams(nu=1.0), 60.0, cfg) == pytest.approx(math.exp(60.0), rel=1e-11)

    def test_nonconvergence_on_tiny_budget(self):
        # the three float series share one driver and its term budget
        cfg = SeriesConfig(max_terms=20)
        with pytest.raises(NonConvergence):
            ml_eval(MLParams(nu=0.3), 40.0, cfg)
        with pytest.raises(NonConvergence):
            wright_eval(WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),)), 20.0, cfg)
        with pytest.raises(NonConvergence):
            hyp1f1(1.5, 2.5, 40.0, cfg)

    def test_negative_integer_gamma_truncates(self):
        # (gamma)_k vanishes for k > 2 when gamma = -2: a 3-term polynomial
        p = MLParams(nu=1.0, mu=1.0, gamma=-2.0)
        z = 0.6
        expected = (
            1.0 / math.gamma(1.0)
            + (-2.0) * z / math.gamma(2.0)
            + (-2.0 * -1.0) / 2.0 * z * z / math.gamma(3.0)
        )
        assert ml_eval(p, z) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("bad", [dict(nu=0.0), dict(nu=-1.0), dict(nu=1.0, mu=0.0), dict(nu=1.0, gamma=0.0)])
    def test_invalid_params(self, bad):
        with pytest.raises(DomainError):
            MLParams(**bad)

    @given(
        nu=st.floats(0.3, 2.0),
        mu=st.floats(0.3, 3.0),
        z=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_direct_sum(self, nu, mu, z):
        # independent route: plain float summation without log-space terms.
        # The naive sum itself loses digits to cancellation for negative z,
        # so the tolerance reflects its error, not ml_eval's.
        direct = 0.0
        for k in range(600):
            arg = mu + k * nu
            if arg > 170.0:  # math.gamma overflow bound
                break
            term = z**k / math.gamma(arg)
            direct += term
            if abs(term) < 1e-22 and k > 3:
                break
        got = ml_eval(MLParams(nu=nu, mu=mu), z)
        assert got == pytest.approx(direct, rel=5e-8, abs=1e-10)

    @given(
        nu=st.floats(0.45, 1.0),
        x1=st.floats(0.0, 6.0),
        dx=st.floats(0.0, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_complete_monotonicity_proxy(self, nu, x1, dx):
        # E_nu(-x) is completely monotone for 0 < nu <= 1: nonincreasing in x
        p = MLParams(nu=nu)
        a = ml_eval(p, -x1)
        b = ml_eval(p, -(x1 + dx))
        assert b <= a + 1e-9
        assert -1e-9 <= b <= 1.0 + 1e-12

    def test_cancellation_regime_stays_accurate(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x): a plain double summation of the
        # series returns noise here; the fallback must not
        got = ml_eval(MLParams(nu=0.5), -6.0)
        expected = math.exp(36.0) * sp.erfc(6.0)
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.3, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.2])
    @pytest.mark.parametrize("z", [-5.0, -2.0, 0.7, 5.0])
    def test_two_param_series_identity(self, nu, mu, z):
        # gamma=1 must reproduce the plain two-parameter series; the
        # reference is a wide-precision mpmath summation of that series
        # (nu=0.3, z=-5 cancels through ~87 orders of magnitude, so the
        # oracle works at 130 digits)
        import mpmath as mp

        with mp.workdps(130):
            total = mp.mpf(0)
            zz = mp.mpf(z)
            nu_mp, mu_mp = mp.mpf(nu), mp.mpf(mu)
            powk = mp.mpf(1)
            for k in range(5000):
                # Gamma argument built in mpf: float(mu + k*nu) rounding
                # would perturb huge terms and wreck the cancellation
                term = powk / mp.gamma(mu_mp + nu_mp * k)
                total += term
                if abs(term) < mp.mpf("1e-120") * (abs(total) + mp.mpf("1e-120")):
                    break
                powk *= zz
            expected = float(total)
        assert ml_eval(MLParams(nu=nu, mu=mu), z) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize(
        "nu,mu,x",
        [(0.7, 1.5, -0.9), (0.5, 2.0, 0.8), (1.2, 1.8, -2.5), (0.9, 1.1, 1.7)],
    )
    def test_three_param_contiguous_identity(self, nu, mu, x):
        # E^2[nu,mu](x) = (E[nu,mu-1](x) + (1 - mu + nu) E[nu,mu](x)) / nu
        lhs = ml_eval(MLParams(nu=nu, mu=mu, gamma=2.0), x)
        rhs = (
            ml_eval(MLParams(nu=nu, mu=mu - 1.0), x)
            + (1.0 - mu + nu) * ml_eval(MLParams(nu=nu, mu=mu), x)
        ) / nu
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_fractional_gamma_pochhammer_in_mp_rerun(self):
        # nu >= 1 with non-integer gamma stays on the mpmath rerun, whose
        # Pochhammer factor gamma + k must not be rounded to float64
        got = ml_eval(MLParams(nu=1.1, mu=1.3, gamma=1.6), -20.0)
        assert got == pytest.approx(-2.6627629338783773e-3, rel=1e-12, abs=0)

    def test_overflow_is_refused_fast(self):
        # E_{1/2}(30) is about e^900: a typed refusal, not inf after seconds
        start = time.perf_counter()
        with pytest.raises(DomainError):
            ml_eval(MLParams(nu=0.5), 30.0)
        assert time.perf_counter() - start < 0.25

    @pytest.mark.parametrize("nu,mu,z,expected", [
        (0.5, 1e306, 0.0, 0.0),
        (0.5, 1e306, 1.0, 0.0),
        (1e306, 1.0, 1.0, 1.0),
    ])
    def test_gamma_beyond_float_range_ends_series(self, nu, mu, z, expected):
        # 1/Gamma of an argument above about 2.5e305 is 0 in float, and so
        # is every later term: the series ends there, with no OverflowError
        assert ml_eval(MLParams(nu=nu, mu=mu), z) == expected

    @pytest.mark.parametrize("evaluate", [
        lambda: ml_eval(MLParams(nu=0.5, gamma=2.0), 27.0),
        lambda: ml_eval(MLParams(nu=0.5, gamma=2.0), 30.0),
        lambda: wright_eval(WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),)), 50.0),
        lambda: ml_eval(MLParams(nu=0.49746, mu=0.58063, gamma=2.0), 26.0234),
        lambda: ml_eval(MLParams(nu=0.5, gamma=3.0), 27.0),
        lambda: ml_eval(MLParams(nu=2.0, mu=1.0, gamma=2.0), 1e6, SeriesConfig(max_abs_z=2e6)),
        lambda: ml_eval(MLParams(nu=0.0009), 2.0),
    ], ids=["ml-27", "ml-30", "wright-50", "ml-sum", "ml-scan", "ml-hyper", "ml-residue"])
    def test_provable_overflow_refused_without_mp_rerun(self, monkeypatch, evaluate):
        # every term is positive and their sum is beyond float range: the
        # largest alone is (10^318, 10^392, 10^1084), or, for ml-sum, is not
        # (10^306.6, the sum 10^308.7); no mpmath rerun is needed to say so.
        # The gamma = 1 and 2 values at nu < 2 are refused by the contour's
        # residue, ml-scan (no contour at gamma = 3) by the log-space scan
        # and ml-hyper (nu = 2) by the hypergeometric stage
        def no_mp_series(*args):
            raise AssertionError("mpmath series used")

        monkeypatch.setattr(special_functions, "_mp_sum", no_mp_series)
        with pytest.raises(DomainError):
            evaluate()

    def test_mp_rerun_refuses_values_beyond_float_range(self):
        def make_terms():
            yield mp.mpf(10) ** 400

        with pytest.raises(DomainError):
            special_functions._mp_sum(make_terms, SeriesConfig(), 400.0, "test series")

    def test_mp_rerun_budget_refused(self):
        def make_terms():
            return itertools.repeat(mp.mpf(1))

        with pytest.raises(NonConvergence, match="mp fallback"):
            special_functions._mp_sum(make_terms, SeriesConfig(max_terms=5), 0.0, "test series")

    def test_hopeless_mp_rerun_refused_at_once(self, monkeypatch):
        # E[1/2 Wright](-50): the terms alternate, peak at 10^1083.6 and are
        # still 10^664 after the 10,000-term budget, so the rerun at 1108
        # digits could not stop; it used to give up after two minutes
        def no_mp_series(*args):
            raise AssertionError("mpmath series used")

        monkeypatch.setattr(special_functions, "_mp_sum", no_mp_series)
        start = time.perf_counter()
        with pytest.raises(NonConvergence):
            wright_eval(WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),)), -50.0)
        assert time.perf_counter() - start < 1.0


def _ml_series_oracle(nu, mu, gamma, z):
    """E[nu, mu, gamma](z), gamma > 0, by the defining series in mpmath.

    A float scan of log|term_k| finds the peak term, whose digits plus a
    guard set the first working precision where terms alternate.  Past
    the peak the sum stops once three terms in a row fall 30 digits below
    the partial sum: the cut is relative to the result, never absolute.
    The value is kept when it stands 25 digits clear of the cancellation
    and a second sum, 20 digits wider, agrees with it to 1e-25; otherwise
    both are redone wider.  1/Gamma(mu + k nu) comes from ``mp.rgamma``,
    or for integer nu from its recurrence.
    """
    log_z = math.log(abs(z))

    def log_term(k):
        return (math.lgamma(gamma + k) - math.lgamma(gamma) - math.lgamma(k + 1.0)
                + k * log_z - math.lgamma(mu + k * nu))

    peak, k_peak, k = log_term(0), 0, 0
    while True:
        k += 1
        lt = log_term(k)
        if lt > peak:
            peak, k_peak = lt, k
        elif lt < peak - 20.0:
            break
    peak10 = peak / math.log(10.0)
    whole = int(nu) if nu == int(nu) else 0

    def series(dps):
        with mp.workdps(dps):
            g, zz, m, n = mp.mpf(gamma), mp.mpf(z), mp.mpf(mu), mp.mpf(nu)
            cut = mp.mpf(10) ** -30
            front, total, small = mp.mpf(1), mp.mpf(0), 0
            rgamma = mp.rgamma(m)
            for j in itertools.count():
                term = front * rgamma
                total += term
                small = small + 1 if j > k_peak and abs(term) < cut * abs(total) else 0
                if small == 3:
                    return total
                front *= (g + j) * zz / (j + 1)
                if whole:  # 1/Gamma(x + nu) by its recurrence
                    x = m + j * n
                    for i in range(whole):
                        rgamma /= x + i
                else:
                    rgamma = mp.rgamma(m + (j + 1) * n)

    dps = 30 + (0 if z > 0 else max(0, int(peak10)))
    while True:
        value = series(dps)
        lost = dps if value == 0 else peak10 - float(mp.log10(abs(value)))
        if dps - lost >= 25:
            wider = series(dps + 20)
            with mp.workdps(dps + 20):
                if abs(wider - value) <= mp.mpf(10) ** -25 * abs(wider):
                    return float(wider)
        dps = max(dps + 20, int(lost) + 35)


def test_series_oracle_cut_is_relative():
    # the terms of this sum fall below 1e-60 long before they fall below
    # the result, -1.0713218392530977e-70 (400- and 600-digit series); an
    # absolute cut there returned -2.14e-61
    got = _ml_series_oracle(1.0, 24.53554478180346, 38.86571772765416, -138.25688161287252)
    assert got == pytest.approx(-1.0713218392530977e-70, rel=1e-15, abs=0)


@pytest.mark.parametrize("make", [
    lambda: MLParams(math.inf),
    lambda: MLParams(0.5, math.inf),
    lambda: MLParams(0.5, 1.0, math.nan),
    lambda: MLParams(0.5, 1.0, -math.inf),
    lambda: hyp1f1(1.0, math.nan, 1.0),
    lambda: hyp1f1(math.inf, 2.0, 1.0),
    lambda: WrightParams(upper=((math.nan, 1.0),), lower=()),
    lambda: WrightParams(upper=((1.0, math.nan),), lower=()),
    lambda: WrightParams(upper=(), lower=((1.0, math.inf),)),
    lambda: WrightParams(upper=(), lower=((-math.inf, 0.5),)),
    lambda: SeriesConfig(max_abs_z=math.nan),
    lambda: SeriesConfig(max_terms=2.5),
    lambda: SeriesConfig(max_terms=True),
    lambda: SeriesConfig(rel_tol=0.0),
], ids=["nu-inf", "mu-inf", "gamma-nan", "gamma-minus-inf", "hyp1f1-beta-nan", "hyp1f1-gamma-inf",
        "wright-a-nan", "wright-A-nan", "wright-B-inf", "wright-b-minus-inf",
        "max-abs-z-nan", "max-terms-float", "max-terms-bool", "rel-tol-zero"])
def test_non_finite_parameters_refused(make):
    # refused at once, not after a term budget spent on nan or inf terms
    # (nor, for Wright, by the Gamma pole test rounding a nan); a config
    # refuses a NaN bound, which every z would exceed, and a term budget
    # that is not an integer, which ml_eval could not count to
    with pytest.raises(DomainError):
        make()


class TestMLContour:
    """The double-precision contour route of ml_eval, held against
    independent routes: the mpmath series, erfcx and Talbot inversion."""

    BUDGET_S = 0.5

    @staticmethod
    def _sweep_points():
        rng = np.random.default_rng(20150601)
        points = []
        # route A: z < 0, 0 < nu < 1, integer and non-integer gamma
        for i in range(24):
            nu = rng.uniform(0.5, 1.0)
            x = math.exp(rng.uniform(math.log(10.0), math.log(200.0)))
            gamma = (1.0, 2.0, 3.0, rng.uniform(0.3, 3.0))[i % 4]
            points.append((nu, rng.uniform(0.3, 3.0), gamma, -min(x**nu, 50.0)))
        # route B: gamma = 1, 1 <= nu < 2 for z < 0; z > 0 past float-series overflow
        for _ in range(8):
            points.append((rng.uniform(1.0, 1.95), rng.uniform(0.3, 3.0), 1.0,
                           -rng.uniform(5.0, 50.0)))
        for _ in range(8):
            nu = rng.uniform(0.5, 0.6)
            points.append((nu, rng.uniform(0.3, 3.0), 1.0, rng.uniform(400.0, 650.0) ** nu))
        return points

    def test_seeded_sweep_against_mp_series(self):
        accepted = 0
        points = self._sweep_points()
        for nu, mu, gamma, z in points:
            params = MLParams(nu=nu, mu=mu, gamma=gamma)
            expected = _ml_series_oracle(nu, mu, gamma, z)
            start = time.perf_counter()
            got = ml_eval(params, z)
            assert time.perf_counter() - start < self.BUDGET_S, (nu, mu, gamma, z)
            assert got == pytest.approx(expected, rel=1e-11, abs=0), (nu, mu, gamma, z)
            contour = special_functions._ml_contour(params, z)
            if contour is not None:
                accepted += 1
                assert contour == pytest.approx(expected, rel=1e-11, abs=0), (nu, mu, gamma, z)
        # the sweep must exercise the contour, not only the mpmath rerun
        assert accepted >= 0.8 * len(points)

    @pytest.mark.parametrize("x", [6.0, 20.0, 45.0])
    def test_half_order_is_erfcx(self, x):
        # E_{1/2}(-x) = exp(x^2) erfc(x) = erfcx(x)
        start = time.perf_counter()
        got = ml_eval(MLParams(nu=0.5), -x)
        assert time.perf_counter() - start < self.BUDGET_S
        assert got == pytest.approx(sp.erfcx(x), rel=1e-12, abs=0)

    @pytest.mark.parametrize("z", [-10.0, -20.0])
    def test_small_order_against_talbot(self, z):
        # E_{0.3}(z) inverts s^(nu - 1) / (s^nu - z) at t = 1; the series
        # would need thousands of digits here
        start = time.perf_counter()
        got = ml_eval(MLParams(nu=0.3), z)
        assert time.perf_counter() - start < self.BUDGET_S
        with mp.workdps(40):
            expected = mp.invertlaplace(lambda s: s ** (0.3 - 1) / (s**0.3 - z), 1,
                                        method="talbot")
        assert got == pytest.approx(float(expected), rel=1e-12, abs=0)

    @pytest.mark.parametrize("nu,z", [(0.3, 20.0), (0.5, 30.0)])
    def test_residue_beyond_float_range_refused(self, nu, z):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            ml_eval(MLParams(nu=nu), z)
        assert time.perf_counter() - start < self.BUDGET_S

    def test_zero_falls_back_to_mp_series(self, monkeypatch):
        # E^2_{0.9,1.5}(-x) changes sign near x = 2.92 (its large-x limit is
        # x^-2 / Gamma(-0.3) < 0); at the float nearest the zero the
        # contour has only absolute accuracy and must refuse
        params = MLParams(nu=0.9, mu=1.5, gamma=2.0)
        z0 = -2.921178545505251
        expected = _ml_series_oracle(0.9, 1.5, 2.0, z0)
        assert abs(expected) < 1e-16
        assert special_functions._ml_contour(params, z0) is None
        assert ml_eval(params, z0) == pytest.approx(expected, rel=1e-11, abs=0)
        # what the guard keeps out: the unguarded value is off by O(1)
        monkeypatch.setattr(special_functions, "_CONTOUR_ROUNDING_MAX", math.inf)
        unguarded = special_functions._ml_contour(params, z0)
        assert unguarded != pytest.approx(expected, rel=1e-2, abs=0)

    @pytest.mark.skipif(len(special_functions._CONTOUR_PRECISIONS) < 2,
                        reason="numpy's long double is no wider than double here")
    @pytest.mark.parametrize("nu,mu,gamma,z", [
        (0.9, 1.5, 2.0, -2.93),
        (0.5804, 1.1213, 2.0, -13.341),
        (0.592, 0.574, 3.0, -7.042),
    ])
    def test_near_zero_in_extended_precision(self, monkeypatch, nu, mu, gamma, z):
        # values 1e-4 to 1e-5 near a zero of E: the double sum fails its
        # rounding guard, the long double sum keeps full relative accuracy
        # and the mpmath series is not needed
        params = MLParams(nu=nu, mu=mu, gamma=gamma)
        expected = _ml_series_oracle(nu, mu, gamma, z)
        double_only = special_functions._CONTOUR_PRECISIONS[:1]
        with monkeypatch.context() as patch:
            patch.setattr(special_functions, "_CONTOUR_PRECISIONS", double_only)
            assert special_functions._ml_contour(params, z) is None

        def no_mp_series(*args):
            raise AssertionError("mpmath series used")

        monkeypatch.setattr(special_functions, "_mp_sum", no_mp_series)
        assert special_functions._ml_contour(params, z) == pytest.approx(expected, rel=1e-14, abs=0)
        assert ml_eval(params, z) == pytest.approx(expected, rel=1e-14, abs=0)


    def test_node_overflow_falls_through(self, monkeypatch):
        # at gamma = 226 the node terms s^(nu gamma - mu) and
        # (s^nu - z)^gamma overflow separately and inf/inf gives nan: that
        # is no overflow of E, which is -6.0e-31 (peak term 5e-15), and the
        # next stage must take it without a numpy warning; route A no
        # longer takes gamma = 226, so the guard is reached by widening it
        nu, mu, gamma, z = 0.8784989591882667, 22.50088262335997, 226.0, -1.3179225772187249
        params = MLParams(nu=nu, mu=mu, gamma=gamma)
        expected = _ml_series_oracle(nu, mu, gamma, z)
        assert expected == pytest.approx(-6.0113e-31, rel=1e-4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ml_eval(params, z) == pytest.approx(expected, rel=1e-12, abs=0)
            monkeypatch.setattr(special_functions, "_CONTOUR_MAX_GAMMA", math.inf)
            assert special_functions._ml_contour(params, z) is None
            assert ml_eval(params, z) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("nu,mu,gamma,z", [
        (0.928, 26.2, 4.0, -4.48),
        # the double sum was accepted at 8e10 times E
        (0.928, 26.2, 64.0, -4.48),
        # returned 0.26921843091661174 for -9.90319236669593e-13
        (0.9809302337245526, 1.9521975476327205, 54.0, -34.969351048195044),
        # off by 3.2e-4 relative
        (0.772356810098088, 1.6598706558762495, 27.0, -20.21146568068837),
    ])
    def test_large_gamma_not_routed(self, nu, mu, gamma, z):
        # route A's absolute target lies far above E once gamma passes 3
        params = MLParams(nu=nu, mu=mu, gamma=gamma)
        assert special_functions._ml_contour(params, z) is None
        expected = _ml_series_oracle(nu, mu, gamma, z)
        assert ml_eval(params, z) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("nu,mu,z,max_abs_z", [
        # returned 1.4172e-13 for 1.3537e-19
        (1.0069715956310108, 20.99380130508909, -43.446213943638774, 50.0),
        # off by 4.5e-7, 8.8e-8 and 4.2e-8 relative
        (1.0173078940800124, 14.73753510006425, -35.43697582054763, 50.0),
        (1.0124954582559393, 13.8629748125623, -40.80356005137368, 50.0),
        (1.0010357731630863, 11.94406944822994, -41.47370736427603, 50.0),
        # returned 1.07e-13 for 2.04e-81, and 4.47e-18 for 3.42e-118
        (1.0002, 60.0, -150.0, 200.0),
        (1.0005, 80.0, -180.0, 200.0),
    ])
    def test_route_b_left_of_every_pole(self, nu, mu, z, max_abs_z):
        # nu just above 1 puts a conjugate pole pair near the origin; a
        # parabola right of them, sized for a simple pole on its left while
        # the branch point at 0, as near, has strength 2 (mu - nu - 1), was
        # taken over the one left of every pole and gave these values
        got = ml_eval(MLParams(nu=nu, mu=mu), z, SeriesConfig(max_abs_z=max_abs_z))
        assert got == pytest.approx(_ml_series_oracle(nu, mu, 1.0, z), rel=1e-12, abs=0)

    @pytest.mark.parametrize("below_zero", [True, False], ids=["z-below-0", "z-above-0"])
    def test_route_b_double_poles(self, below_zero):
        # gamma = 2 puts a double pole at every root of s^nu = z on the
        # principal sheet; each accepted value must keep 1e-12 relative,
        # and every value ml_eval returns as well
        rng = np.random.default_rng(20150602 if below_zero else 20150603)
        points = []
        for _ in range(300 if below_zero else 200):
            nu = rng.uniform(1.0, 1.97) if below_zero else rng.uniform(0.5, 1.97)
            mu = rng.uniform(0.3, 5.0)
            z = -rng.uniform(5.0, 50.0) if below_zero else rng.uniform(0.0, min(50.0, 600.0**nu))
            points.append((nu, mu, z))
        if below_zero:
            # off by 2.35e-10 and 1.14e-10 under the absolute target alone:
            # the truncation estimate refuses both
            points += [(1.050583119317329, 1.1168669284539974, -29.016278001252736),
                       (1.0459074950643856, 0.7334020004633288, -34.07154027493131)]
        accepted = 0
        for nu, mu, z in points:
            params = MLParams(nu=nu, mu=mu, gamma=2.0)
            expected = _ml_series_oracle(nu, mu, 2.0, z)
            contour = special_functions._ml_contour(params, z)
            if contour is not None:
                accepted += 1
                assert contour == pytest.approx(expected, rel=1e-12, abs=0), (nu, mu, z)
            assert ml_eval(params, z) == pytest.approx(expected, rel=1e-12, abs=0), (nu, mu, z)
        assert accepted >= 0.7 * len(points)

    def test_truncation_estimate_refuses(self, monkeypatch):
        # route A at gamma = 3: the double sum met its absolute target and
        # its rounding estimate (5e-15 |E|) but was off by 4.4e-12; its last
        # node's term is 2.5e-11 |E|, so it goes to the long double sum (or,
        # where that is no wider, to the series) for 1e-13
        params, z = MLParams(nu=0.97398, mu=0.38110, gamma=3.0), -50.0
        expected = _ml_series_oracle(0.97398, 0.38110, 3.0, z)
        with monkeypatch.context() as patch:
            patch.setattr(special_functions, "_CONTOUR_PRECISIONS",
                          special_functions._CONTOUR_PRECISIONS[:1])
            assert special_functions._ml_contour(params, z) is None
        assert ml_eval(params, z) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_pole_near_origin_at_large_mu(self):
        # sqrt(phi)^(2 (mu - nu - 1)) of the nearest pole underflowed to 0
        # and raised ZeroDivisionError in the parameter search; such a pole
        # leaves no parabola, and the next stage takes the value
        assert special_functions._ml_contour(MLParams(nu=1.0005, mu=170.0), -45.0) is None
        params, z = MLParams(nu=1.001, mu=120.0), -190.0
        got = ml_eval(params, z, SeriesConfig(max_abs_z=200.0))
        assert got == pytest.approx(_ml_series_oracle(1.001, 120.0, 1.0, z), rel=1e-12, abs=0)

class TestMLMesh:
    """The mesh evaluator, held against the mpmath series oracle point by
    point, and against scalar ml_eval where the two paths differ only by
    rounding."""

    ORACLE_REL = 2e-12
    SCALAR_REL = 5e-13

    @staticmethod
    def _count_scalar_calls(monkeypatch) -> list:
        calls = []
        scalar = special_functions.ml_eval

        def counting(params, z, *args):
            calls.append(z)
            return scalar(params, z, *args)

        monkeypatch.setattr(special_functions, "ml_eval", counting)
        return calls

    def _check(self, params, z, expected):
        got = special_functions._ml_eval_mesh(params, z)
        assert got.shape == z.shape
        for x, g, want in zip(z, got, expected):
            assert g == pytest.approx(want, rel=self.ORACLE_REL, abs=0), (params, x)
            assert g == pytest.approx(ml_eval(params, float(x)), rel=self.SCALAR_REL, abs=0), \
                (params, x)

    def test_seeded_sweep_against_series_oracle(self, monkeypatch):
        rng = np.random.default_rng(20261019)
        orders = [*rng.uniform(0.45, 1.8, 10), 1.0, 2.0, 1.0, 2.0]
        calls = self._count_scalar_calls(monkeypatch)
        points = 0
        for i, nu in enumerate(orders):
            mu = rng.uniform(0.3, 3.0)
            gamma = (1.0, 2.0, rng.uniform(0.3, 3.0))[i % 3]
            # a residual-check mesh, -rate u^nu on a graded u, and both signs
            u = 2.5 * (np.arange(1, 25) / 24.0) ** 2
            z = np.concatenate((-rng.uniform(0.3, 2.0) * u**nu, rng.uniform(-5.0, 5.0, 8)))
            expected = [_ml_series_oracle(nu, mu, gamma, x) for x in z]
            self._check(MLParams(nu=nu, mu=mu, gamma=gamma), z, expected)
            points += z.size
        # the sweep must exercise the mesh sums, not only the scalar path
        assert len(calls) < 0.1 * points

    @pytest.mark.parametrize("nu,mu", [(2.0, 1.0), (1.8, 1.0), (1.6, 1.3)])
    def test_near_a_zero_falls_back(self, monkeypatch, nu, mu):
        # E changes sign on the negative axis; next to the zero the float
        # sum cancels past the keep rule and the scalar path takes over
        params = MLParams(nu=nu, mu=mu)
        x = np.linspace(-6.0, -0.5, 56)
        values = [ml_eval(params, float(v)) for v in x]
        j = next(i for i in range(len(x) - 1) if values[i] * values[i + 1] < 0)
        z0 = brentq(lambda v: ml_eval(params, v), x[j], x[j + 1], xtol=1e-15)
        z = z0 + np.linspace(-0.3, 0.3, 25)
        expected = [_ml_series_oracle(nu, mu, 1.0, v) for v in z]
        calls = self._count_scalar_calls(monkeypatch)
        self._check(params, z, expected)
        assert 0 < len(calls) < z.size

    def test_terminating_pochhammer(self):
        # gamma = -2: E = 1/Gamma(mu) - 2 z/Gamma(mu + nu) + z^2/Gamma(mu + 2 nu)
        nu, mu = 0.7, 1.3
        z = np.linspace(-50.0, 50.0, 41)
        with mp.workdps(40):
            expected = [float(mp.rgamma(mu) - 2 * mp.mpf(v) * mp.rgamma(mu + nu)
                              + mp.mpf(v) ** 2 * mp.rgamma(mu + 2 * nu)) for v in z]
        self._check(MLParams(nu=nu, mu=mu, gamma=-2.0), z, expected)

    def test_terminating_pochhammer_sums_every_point(self, monkeypatch):
        # the series ends after three terms, so every point is an exact
        # sum of them: none needs the scalar path
        nu, mu = 0.7, 1.3
        z = np.linspace(-50.0, -0.5, 40)
        with mp.workdps(40):
            expected = [float(mp.rgamma(mu) - 2 * mp.mpf(v) * mp.rgamma(mu + nu)
                              + mp.mpf(v) ** 2 * mp.rgamma(mu + 2 * nu)) for v in z]
        calls = self._count_scalar_calls(monkeypatch)
        self._check(MLParams(nu=nu, mu=mu, gamma=-2.0), z, expected)
        assert calls == []

    def test_point_needing_more_terms_than_the_far_point(self):
        # next to the zero of E[1.6, 1.3] near z = -3.49 some points need
        # more terms than the mesh's point of largest |z|; summed to that
        # point's count their tail is not yet below rel_tol of their sum,
        # so the mesh must not keep them, though the keep rule alone would
        params, cfg = MLParams(nu=1.6, mu=1.3), SeriesConfig()
        z0 = brentq(lambda v: ml_eval(params, v), -3.6, -3.4, xtol=1e-15)
        z = z0 + np.linspace(-0.2, 0.2, 41)
        far = float(z[np.argmax(np.abs(z))])
        _, _, n_far = special_functions._sum_series(
            special_functions._ml_terms(params, far), cfg, "Mittag-Leffler series")
        kept, totals = special_functions._ml_mesh_sums(params, z, cfg)
        longer = []
        for i, x in enumerate(z):
            _, peak, n = special_functions._sum_series(
                special_functions._ml_terms(params, float(x)), cfg, "Mittag-Leffler series")
            if n > n_far and special_functions._float_sum_kept(
                    special_functions._hyper_order(params), totals[i], peak):
                longer.append(i)
        assert longer
        assert not kept[longer].any()
        self._check(params, z, [_ml_series_oracle(1.6, 1.3, 1.0, x) for x in z])

    def test_mesh_with_zero(self):
        params = MLParams(nu=0.8, mu=1.7, gamma=1.5)
        z = -1.2 * np.linspace(0.0, 2.0, 9) ** 0.8
        got = special_functions._ml_eval_mesh(params, z)
        assert got[0] == ml_eval(params, 0.0) == 1.0 / math.gamma(1.7)
        expected = [_ml_series_oracle(0.8, 1.7, 1.5, x) for x in z[1:]]
        assert got[1:] == pytest.approx(expected, rel=self.ORACLE_REL, abs=0)

    @pytest.mark.parametrize("bad", [-60.0, math.nan])
    def test_refusals_match_scalar(self, bad):
        params = MLParams(nu=0.6)
        with pytest.raises(DomainError):
            ml_eval(params, bad)
        with pytest.raises(DomainError):
            special_functions._ml_eval_mesh(params, np.array([-1.0, bad, -2.0]))

    def test_gamma_beyond_float_range(self):
        # 1/Gamma(mu) is 0 in float: the far point reads no term at all
        got = special_functions._ml_eval_mesh(MLParams(nu=0.5, mu=1e306), np.array([0.5, -2.0]))
        assert got.tolist() == [0.0, 0.0]

    def test_budget_and_overflow_match_scalar(self):
        with pytest.raises(NonConvergence):
            ml_eval(MLParams(nu=0.6), -2.0, SeriesConfig(max_terms=5))
        with pytest.raises(NonConvergence):
            special_functions._ml_eval_mesh(MLParams(nu=0.6), np.array([-0.1, -2.0]),
                                            SeriesConfig(max_terms=5))
        # e^(50^(1/0.3)) is beyond float range
        with pytest.raises(DomainError):
            ml_eval(MLParams(nu=0.3), 50.0)
        with pytest.raises(DomainError):
            special_functions._ml_eval_mesh(MLParams(nu=0.3), np.array([1.0, 50.0]))


class TestMPRerun:
    """The mpmath rerun on the inputs only it serves, held against the
    mpmath series oracle and, for Wright, a closed form in mpmath."""

    @staticmethod
    def _count_reruns(monkeypatch) -> list:
        calls = []
        mp_sum = special_functions._mp_sum

        def counting(*args):
            calls.append(args[-1])
            return mp_sum(*args)

        monkeypatch.setattr(special_functions, "_mp_sum", counting)
        return calls

    def test_seeded_sweep_against_series_oracle(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        orders = iter(np.random.default_rng(20261103).uniform(2.01, 2.1, 40))
        points = []
        # next to the reaction-diffusion regime (TestHyperStage), at orders
        # no hypergeometric stage takes: integer gamma, z below -80, where
        # each of these sums cancels past what the float path keeps
        for gamma in range(1, 21):
            for mu in (gamma, gamma + 1):
                points.append((float(next(orders)), float(mu), float(gamma),
                               -rng.uniform(80.0, 160.0)))
        # gamma above 2 with nu >= 1, which no contour route takes
        for i in range(40):
            points.append((rng.uniform(1.0, 1.9), rng.uniform(0.5, 3.0), (3.0, 4.0)[i % 2],
                           -rng.uniform(20.0, 50.0)))
        calls = self._count_reruns(monkeypatch)
        cfg = SeriesConfig(max_abs_z=200.0)
        for nu, mu, gamma, z in points:
            got = ml_eval(MLParams(nu=nu, mu=mu, gamma=gamma), z, cfg)
            expected = _ml_series_oracle(nu, mu, gamma, z)
            assert got == pytest.approx(expected, rel=1e-12, abs=0), (nu, mu, gamma, z)
        assert len(calls) == len(points)

    def test_long_wright_series_against_closed_form(self, monkeypatch):
        # Gamma(1 + k) z^k / (k! Gamma(1 + k/2)) sums to E_{1/2}(z) = erfcx(-z);
        # past 220 terms the float sum is redone in mpmath whatever its ratio
        params = WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),))
        rng = np.random.default_rng(20261019)
        points = [*-rng.uniform(6.0, 12.0, 5), *rng.uniform(8.0, 20.0, 5)]
        calls = self._count_reruns(monkeypatch)
        for z in points:
            _, _, n_used = special_functions._sum_series(
                special_functions._wright_terms(params, z), SeriesConfig(), "Wright series")
            assert n_used > 220, z
            with mp.workdps(40):
                expected = float(mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z)))
            assert wright_eval(params, z) == pytest.approx(expected, rel=1e-12, abs=0), z
        assert len(calls) == len(points)

    @pytest.mark.parametrize("z", [0.01, -0.01, 0.5, -0.5])
    def test_rerun_after_float_overflow(self, monkeypatch, z):
        # Gamma(171) z^k / k! sums to Gamma(171) e^z, in float range, but its
        # first term's log, 706.6, passes the float sum's overflow cut: the
        # peak comes from the log-space scan, and the value from the rerun
        calls = self._count_reruns(monkeypatch)
        got = wright_eval(WrightParams(upper=((171.0, 0.0),), lower=()), z)
        with mp.workdps(40):
            expected = float(mp.gamma(171) * mp.exp(mp.mpf(z)))
        assert got == pytest.approx(expected, rel=1e-15, abs=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("z", [0.01, 0.5, -0.5])
    def test_rerun_with_vanished_terms(self, monkeypatch, z):
        # 1/Gamma(-1 + k) is 0 at k = 0 and 1, so the sum is
        # Gamma(171) z I_2(2 sqrt z) (J_2 for z < 0), while the float sum
        # overflows on the first term's log: the log-space scan and the
        # rerun both skip the two vanished terms
        scans = []
        log10_peak = special_functions._log10_peak
        monkeypatch.setattr(special_functions, "_log10_peak",
                            lambda *args: scans.append(args) or log10_peak(*args))
        calls = self._count_reruns(monkeypatch)
        got = wright_eval(WrightParams(upper=((171.0, 0.0),), lower=((-1.0, 1.0),)), z)
        with mp.workdps(40):
            x = mp.mpf(z)
            bessel = mp.besseli(2, 2 * mp.sqrt(x)) if z > 0 else mp.besselj(2, 2 * mp.sqrt(-x))
            expected = float(mp.gamma(171) * abs(x) * bessel)
        if z == 0.01:
            assert expected == pytest.approx(3.64081863004599e302, rel=1e-14)
        assert got == pytest.approx(expected, rel=1e-15, abs=0)
        assert len(scans) == 1 and len(calls) == 1

    @pytest.mark.parametrize("evaluate, params, z, reruns", [
        (ml_eval, MLParams(nu=0.5, mu=1.0), -1.0, 0),
        (ml_eval, MLParams(nu=1.5, mu=1.0, gamma=3.0), -40.0, 1),
        (wright_eval, WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),)), -0.5, 0),
        (wright_eval, WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),)), -8.0, 1),
    ], ids=["ml-float", "ml-rerun", "wright-float", "wright-rerun"])
    def test_values_are_python_floats(self, monkeypatch, evaluate, params, z, reruns):
        calls = self._count_reruns(monkeypatch)
        assert type(evaluate(params, z)) is float
        assert len(calls) == reruns


class TestHyperStage:
    """Integer orders nu = 1-4 through mpmath's hypergeometric sum, held
    against the mpmath series oracle: no value there needs the mpmath
    series rerun."""

    @staticmethod
    def _sweep_points():
        rng = np.random.default_rng(20261102)
        points = []
        # the reaction-diffusion regime: nu = 2, integer gamma, z far below -50
        for gamma in range(1, 21):
            for mu in (gamma, gamma + 1):
                points.append((2.0, float(mu), float(gamma), -rng.uniform(50.0, 160.0)))
        for i in range(64):
            gamma = float(rng.integers(1, 65)) if i % 2 else rng.uniform(0.3, 64.0)
            mu = float(rng.integers(1, 41)) if i % 3 == 0 else rng.uniform(0.3, 40.0)
            z = rng.uniform(1.0, 200.0) * (1.0 if i % 4 == 3 else -1.0)
            points.append((float(1 + i % 4), mu, gamma, z))
        return points

    def test_seeded_sweep_against_series_oracle(self, monkeypatch):
        def no_mp_series(*args):
            raise AssertionError("mpmath series used")

        hyper_calls = []
        ml_hyper = special_functions._ml_hyper

        def counting(*args):
            hyper_calls.append(args)
            return ml_hyper(*args)

        monkeypatch.setattr(special_functions, "_mp_sum", no_mp_series)
        monkeypatch.setattr(special_functions, "_ml_hyper", counting)
        cfg = SeriesConfig(max_abs_z=200.0)
        points = self._sweep_points()
        for nu, mu, gamma, z in points:
            got = ml_eval(MLParams(nu=nu, mu=mu, gamma=gamma), z, cfg)
            expected = _ml_series_oracle(nu, mu, gamma, z)
            assert got == pytest.approx(expected, rel=1e-12, abs=0), (nu, mu, gamma, z)
        # the sweep must exercise the new stage, not only the float sum
        assert len(hyper_calls) >= 0.5 * len(points)

    @pytest.mark.parametrize("nu,mu,gamma,z,expected", [
        # the float sum, at peak/sum 106, was kept and off by 1.1e-11
        (2.0, 51.0, 50.0, -156.39, 1.2731453720672772e-66),
        # the mpmath series rerun raised NonConvergence
        (1.0, 33.17395544700555, 42.0, -199.67158540170428, -1.110371965161199e-91),
    ])
    def test_regressions(self, nu, mu, gamma, z, expected):
        # expected values from 400- and 600-digit series, which agree
        assert _ml_series_oracle(nu, mu, gamma, z) == pytest.approx(expected, rel=1e-15, abs=0)
        got = ml_eval(MLParams(nu=nu, mu=mu, gamma=gamma), z, SeriesConfig(max_abs_z=200.0))
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_exact_zero_still_refused(self):
        # E^-1_{3,1}(6) = 1 - 6/3! is exactly 0: no rounding of z/27 may turn
        # it into a value; mpmath gives up and so does the series rerun
        with pytest.raises(NonConvergence):
            ml_eval(MLParams(nu=3.0, mu=1.0, gamma=-1.0), 6.0)


class TestResponseFunctions:
    def test_r_function_frozen(self):
        got = r_function(nu=0.8, mu=0.3, a=-1.0, delta=0.5, t=1.5)
        assert got == pytest.approx(0.03270086451789556348903, rel=1e-13)

    def test_f_function_frozen(self):
        got = f_function(q=0.6, a=1.3, t=0.9)
        assert got == pytest.approx(0.1400551515663327243424, rel=1e-13)

    def test_f_exponential_at_q_one(self):
        assert f_function(q=1.0, a=2.0, t=1.25) == pytest.approx(math.exp(-2.5), rel=1e-13)

    def test_r_region_guards(self):
        with pytest.raises(DomainError):
            r_function(nu=0.8, mu=0.3, a=-1.0, delta=0.5, t=0.5)
        with pytest.raises(DomainError):
            r_function(nu=0.5, mu=0.5, a=-1.0, delta=0.0, t=1.0)

    def test_f_guards(self):
        with pytest.raises(DomainError):
            f_function(q=0.0, a=1.0, t=1.0)
        with pytest.raises(DomainError):
            f_function(q=0.5, a=1.0, t=0.0)

    @given(
        q=st.floats(0.3, 2.0),
        a=st.floats(-2.0, 2.0),
        t=st.floats(0.1, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_is_r_at_zero_delay(self, q, a, t):
        # F[q](a, t) = R[q, 0](-a, 0, t)
        assert f_function(q, a, t) == pytest.approx(
            r_function(q, 0.0, -a, 0.0, t), rel=1e-12, abs=1e-300
        )

    @pytest.mark.parametrize("q", [0.3, 0.5, 1.0, 1.7])
    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("t", [0.4, 1.1, 3.0])
    def test_f_matches_direct_series(self, q, a, t):
        # direct form: sum_n (-a)^n t^((n+1)q - 1) / Gamma(q + n q),
        # summed in wide precision as an independent oracle
        import mpmath as mp

        with mp.workdps(80):
            aa, tt, qq = mp.mpf(a), mp.mpf(t), mp.mpf(q)
            total = mp.mpf(0)
            for n in range(3000):
                term = (-aa) ** n * tt ** ((n + 1) * qq - 1) / mp.gamma(qq + n * qq)
                total += term
                if abs(term) < mp.mpf("1e-60") * (abs(total) + mp.mpf("1e-60")):
                    break
            expected = float(total)
        assert f_function(q, a, t) == pytest.approx(expected, rel=1e-10, abs=1e-14)


class TestWright:
    def test_reduces_to_ml(self):
        # 1psi1 with (1,1); (mu,nu) is exactly E[nu,mu]
        p = WrightParams(upper=((1.0, 1.0),), lower=((0.9, 0.5),))
        assert wright_eval(p, -2.0) == pytest.approx(0.2192015769045745607669, rel=1e-12)

    @given(
        nu=st.floats(0.3, 1.5),
        mu=st.floats(0.3, 2.5),
        z=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ml_reduction_property(self, nu, mu, z):
        p = WrightParams(upper=((1.0, 1.0),), lower=((mu, nu),))
        assert wright_eval(p, z) == pytest.approx(
            ml_eval(MLParams(nu=nu, mu=mu), z), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.3, 0.9), (1.2, 2.0)])
    @pytest.mark.parametrize("z", [-5.0, -1.0, 2.0, 5.0])
    def test_ml_reduction_grid(self, alpha, beta, z):
        # the two routes use different code paths (gamma-list log terms
        # vs incremental Pochhammer recurrence)
        p = WrightParams(upper=((1.0, 1.0),), lower=((beta, alpha),))
        assert wright_eval(p, z) == pytest.approx(
            ml_eval(MLParams(nu=alpha, mu=beta), z), rel=1e-12, abs=1e-15
        )

    def test_lower_pole_zeroes_term(self):
        # (1,1); (0,1): k=0 term dies on the Gamma(0) pole, and the
        # remainder is sum_{k>=1} z^k/(k-1)! = z e^z
        p = WrightParams(upper=((1.0, 1.0),), lower=((0.0, 1.0),))
        z = 0.7
        assert wright_eval(p, z) == pytest.approx(z * math.exp(z), rel=1e-12)

    def test_lower_pole_zeroes_terms_mid_series(self):
        # 1/Gamma(2 - k/2) vanishes at k = 4, 6, 8, ...: those terms are
        # skipped without ending the series
        p = WrightParams(upper=(), lower=((2.0, -0.5),))
        z = 2.5
        with mp.workdps(30):
            expected = mp.fsum(mp.mpf(z) ** k / mp.factorial(k) * mp.rgamma(2 - mp.mpf(k) / 2)
                               for k in range(120))
        assert wright_eval(p, z) == pytest.approx(float(expected), rel=1e-13)

    def test_gamma_sign_rule(self):
        # seeded x in (-30, 30), and points within 1e-9 of each pole
        rng = np.random.default_rng(20261019)
        poles = np.arange(0.0, -30.0, -1.0)
        offsets = 10.0 ** rng.uniform(-11.0, -9.0, poles.size) * rng.choice((-1.0, 1.0), poles.size)
        points = [*rng.uniform(-30.0, 30.0, 400), *(poles + offsets), *(poles - offsets)]
        for x in points:
            assert special_functions._log_gamma(x) == (math.lgamma(x), math.copysign(1.0, math.gamma(x))), x

    def test_gamma_beyond_float_range(self):
        # 1/Gamma(1e306) vanishes: log|Gamma| reads inf, not an OverflowError
        p = WrightParams(upper=(), lower=((1e306, 1.0),))
        assert wright_eval(p, 0.0) == 0.0
        # and so is every later term: the series ends, not a NonConvergence
        # after max_terms vanished ones
        assert wright_eval(p, 0.3) == 0.0

    @pytest.mark.parametrize("upper, lower, z", [
        (((1e306, 1.0),), ((1e306, 1.0),), 0.0),
        (((1e306, 1.0),), (), 0.1),
    ], ids=["both-lists", "upper-only"])
    def test_gamma_beyond_float_range_refused(self, upper, lower, z):
        # log|Gamma| reads inf: a term log of inf - inf, or of inf, which no
        # working precision of the mpmath rerun reaches
        with pytest.raises(DomainError, match="beyond float range"):
            wright_eval(WrightParams(upper=upper, lower=lower), z)

    def test_negative_gamma_arguments_against_mp_series(self):
        # upper Gamma arguments start in (-3, 0), where Gamma changes sign
        # between poles; lower ones in (-3, 3)
        rng = np.random.default_rng(20261020)
        for i in range(60):
            slope = rng.uniform(0.2, 1.0)
            upper = ((rng.uniform(-3.0, 0.0), slope),)
            lower = ((rng.uniform(-3.0, 3.0), rng.uniform(slope, 1.5)),)
            if i % 2:
                upper += ((rng.uniform(-3.0, 0.0), rng.uniform(0.0, 0.5)),)
                lower += ((rng.uniform(0.5, 3.0), rng.uniform(0.5, 1.0)),)
            z = rng.uniform(-5.0, 5.0)
            with mp.workdps(50):
                terms = (mp.mpf(z) ** k / mp.factorial(k)
                         * mp.fprod(mp.gamma(a + mp.mpf(aa) * k) for a, aa in upper)
                         * mp.fprod(mp.rgamma(b + mp.mpf(bb) * k) for b, bb in lower)
                         for k in range(200))
                expected = float(mp.fsum(terms))
            got = wright_eval(WrightParams(upper=upper, lower=lower), z)
            assert got == pytest.approx(expected, rel=1e-12, abs=0), (upper, lower, z)

    def test_upper_pole_raises(self):
        p = WrightParams(upper=((-0.5, 0.25),), lower=((1.0, 1.0),))
        with pytest.raises(PoleError):
            wright_eval(p, 0.5)

    def test_convergence_condition_enforced(self):
        with pytest.raises(DomainError):
            WrightParams(upper=((1.0, 1.0), (1.0, 1.0)), lower=((1.0, 0.5),))

    def test_exponential_case(self):
        # 0psi0 is the plain exponential
        p = WrightParams(upper=(), lower=())
        assert wright_eval(p, 1.3) == pytest.approx(math.exp(1.3), rel=1e-13)

    def test_nan_argument_refused(self):
        with pytest.raises(DomainError):
            wright_eval(WrightParams(upper=((1.0, 1.0),), lower=((1.0, 0.5),)), math.nan)


class TestHyp1f1:
    def test_frozen_value(self):
        assert hyp1f1(1.5, 2.5, -3.0) == pytest.approx(0.2272782459317874320295, rel=1e-12)

    @pytest.mark.parametrize("x", [-20.0, -50.0])
    def test_strongly_negative_argument(self, x):
        # the alternating series cancels through e^|x|; Kummer's
        # transformation must keep full relative accuracy
        assert hyp1f1(1.5, 2.5, x) == pytest.approx(float(mp.hyp1f1(1.5, 2.5, x)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_refused(self, x):
        # as in ml_eval and wright_eval: refused at once, not left to the
        # term recurrence to report an overflow
        with pytest.raises(DomainError):
            hyp1f1(1.0, 2.0, x)

    def test_term_overflow_refused(self):
        # the terms of 1F1(1; 1; 800) = e^800 pass float range at k = 458
        with pytest.raises(NonConvergence, match="overflowed at k=458"):
            hyp1f1(1.0, 1.0, 800.0)

    def test_beta_pole_rejected(self):
        with pytest.raises(DomainError):
            hyp1f1(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            hyp1f1(1.0, -2.0, 0.5)

    @given(
        g1=st.floats(0.2, 4.0),
        b1=st.floats(0.2, 4.0),
        x=st.floats(-5.0, 5.0),
    )
    @example(g1=4.0, b1=0.99999, x=-2.5)
    @settings(max_examples=60, deadline=None)
    def test_matches_mpmath(self, g1, b1, x):
        # scipy.special.hyp1f1 is no oracle here: at the example above it is
        # off by 1.0e-9 relative, where this series and mpmath agree to 1e-16
        ref = float(mp.hyp1f1(g1, b1, x))
        assert hyp1f1(g1, b1, x) == pytest.approx(ref, rel=1e-9, abs=1e-12)
