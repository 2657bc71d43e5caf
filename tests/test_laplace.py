"""Tests for the transform catalog and the forward/inverse numerical oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mittag_kinetics import laplace
from mittag_kinetics.errors import (
    DomainError,
    InversionFailure,
    PoleError,
    QuadratureFailure,
)
from mittag_kinetics.laplace import (
    DESCRIPTOR_KINDS,
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
from mittag_kinetics.special_functions import MLParams, ml_eval


class TestLtEval:
    def test_gamma_power_half(self):
        assert lt_eval(GammaPower(alpha=1.0, beta=1.0), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_gamma_power_validity(self):
        d = GammaPower(alpha=2.0, beta=1.0)
        with pytest.raises(DomainError):
            lt_eval(d, -2.0)
        with pytest.raises(PoleError):
            lt_eval(d, -1.0)

    def test_laplace_density_strip(self):
        d = LaplaceDensity(beta=0.5)
        assert lt_eval(d, 1.0) == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-15)
        with pytest.raises(DomainError):
            lt_eval(d, 3.0)
        with pytest.raises(PoleError):
            lt_eval(d, 2.0)

    def test_ml_basic_formula(self):
        # c=1 reduces to p^(alpha-1) / (1 + p^alpha)
        alpha = 0.7
        d = MLBasic(c=1.0, nu=alpha)
        p = 1.8
        assert lt_eval(d, p) == pytest.approx(p ** (alpha - 1) / (1 + p**alpha), rel=1e-14)

    def test_ml_kinds_need_positive_p(self):
        with pytest.raises(DomainError):
            lt_eval(MLBasic(c=1.0, nu=0.5), -1.0)
        with pytest.raises(DomainError):
            lt_eval(TwoRateProduct(c=1.0, d=2.0, nu=0.5, mu=1.0), 0.0)
        with pytest.raises(DomainError):
            lt_eval(ThreeTermBeta(a=1.0, b=1.0, alpha=1.5, beta=0.5), -0.5)

    def test_ml_pole_refused(self):
        # p^2 + 1 vanishes at p = i, a pole of the transform
        with pytest.raises(PoleError):
            lt_eval(MLBasic(c=1.0, nu=2.0), 1j)

    def test_numpy_real_scalars_checked(self):
        # numpy's real scalars are real p: the same region checks as float
        with pytest.raises(DomainError):
            lt_eval(GammaPower(alpha=1.0, beta=1.0), np.float32(-3))
        with pytest.raises(DomainError):
            lt_eval(LaplaceDensity(beta=1.0), np.int64(2))
        with pytest.raises(DomainError):
            lt_eval(MLBasic(c=1.0, nu=0.5), np.int64(-2))
        d = MLBasic(c=1.0, nu=0.5)
        for p in (np.float32(2.0), np.float64(2.0), np.int64(2), np.complex64(2.0)):
            assert lt_eval(d, p) == lt_eval(d, 2.0)

    def test_catalog_kinds(self):
        # the CLI looks kinds up by class name; each kind has its own
        # value(), so counting calls to one never counts another's
        assert sorted(DESCRIPTOR_KINDS) == sorted([
            "GammaPower", "LaplaceDensity", "ResidualProduct", "MLBasic", "MLGeneral",
            "TwoRateProduct", "ThreeTermAlpha", "ThreeTermBeta",
        ])
        for name, cls in DESCRIPTOR_KINDS.items():
            assert cls.__name__ == name and "value" in vars(cls)

    def test_complex_evaluation(self):
        d = MLBasic(c=1.5, nu=0.6)
        p = 0.4 + 1.1j
        got = lt_eval(d, p)
        expected = p ** (0.6 - 1) / (p**0.6 + 1.5**0.6)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_invalid_descriptors(self):
        with pytest.raises(DomainError):
            GammaPower(alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            MLGeneral(c=1.0, nu=0.5, mu=0.0)
        with pytest.raises(DomainError):
            MLGeneral(c=1.0, nu=0.5, mu=1.0, gamma=-1.0)
        with pytest.raises(DomainError):
            ThreeTermAlpha(a=1.0, b=1.0, alpha=1.0, beta=1.5)
        with pytest.raises(DomainError):
            ThreeTermBeta(a=1.0, b=1.0, alpha=0.0, beta=0.0)
        with pytest.raises(DomainError):
            ThreeTermAlpha(a=1.0, b=1.0, alpha=1.0, beta=-0.2)
        with pytest.raises(DomainError):
            ThreeTermBeta(a=1.0, b=1.0, alpha=1.0, beta=-0.2)
        with pytest.raises(DomainError):
            ResidualProduct(plus=(), minus=())
        with pytest.raises(DomainError):
            MLBasic(c=0.0, nu=0.5)
        with pytest.raises(DomainError):
            TwoRateProduct(c=1.0, d=0.0, nu=0.5, mu=1.0)
        # NaN and infinite fields; once accepted, they evaluated to 0j or nan
        with pytest.raises(DomainError):
            GammaPower(alpha=math.inf, beta=1.0)
        with pytest.raises(DomainError):
            LaplaceDensity(beta=math.inf)
        with pytest.raises(DomainError):
            MLBasic(c=1.0, nu=0.5, n0=math.nan)
        with pytest.raises(DomainError):
            MLGeneral(c=1.0, nu=0.5, mu=1.0, gamma=math.nan)
        with pytest.raises(DomainError):
            TwoRateProduct(c=1.0, d=math.inf, nu=0.5, mu=1.0)
        with pytest.raises(DomainError):
            ResidualProduct(plus=((1.0, 0.5),), minus=((math.nan, 0.5),))
        with pytest.raises(DomainError):
            ThreeTermAlpha(a=math.nan, b=1.0, alpha=1.5, beta=0.5)
        with pytest.raises(DomainError):
            ThreeTermBeta(a=1.0, b=math.inf, alpha=1.5, beta=0.5)
        with pytest.raises(DomainError):
            ThreeTermAlpha(a=1.0, b=1.0, alpha=math.inf, beta=0.5)

    @given(
        alpha=st.floats(0.2, 4.0),
        beta=st.floats(0.1, 3.0),
        p=st.floats(-0.2, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_product_law(self, alpha, beta, p):
        # (1+bp)^-a (1-bp)^-a = (1-b^2 p^2)^-a; check with a two-factor
        # residual product at (p, -p) against the one-factor values
        if abs(beta * p) >= 1.0 - 1e-9 or 1.0 + beta * p <= 1e-9:
            return
        prod = ResidualProduct(plus=((alpha, beta),), minus=((alpha, beta),))
        one = GammaPower(alpha=alpha, beta=beta)
        lhs = lt_eval(prod, p)
        rhs = lt_eval(one, p) * lt_eval(one, -p)
        assert lhs == pytest.approx(rhs, rel=1e-14)

    @given(
        alpha=st.floats(0.2, 4.0),
        beta=st.floats(0.1, 3.0),
        x=st.floats(-0.95, 0.95),
        y=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_residual_transform_closed_form(self, alpha, beta, x, y):
        # the paper's eq. (3), L_x1(p) L_x2(-p) = (1 - beta^2 p^2)^-alpha for
        # input and output gamma densities of one shape and scale, written
        # out apart from the catalog's factor product; real p in the strip
        # and complex p with |Re(beta p)| < 1, where the principal branches
        # of the factors and of the closed form agree
        d = ResidualProduct(plus=((alpha, beta),), minus=((alpha, beta),))
        for p in (x / beta, complex(x, y) / beta):
            assert lt_eval(d, p) == pytest.approx((1 - (beta * p) ** 2) ** (-alpha), rel=1e-14)


@pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
def test_non_finite_time_refused(t):
    with pytest.raises(DomainError):
        lt_invert_numeric(MLBasic(1.0, 0.7), t)


class TestSelfSimilarity:
    """eta(p) = p^nu is degree-nu homogeneous, (b p)^nu = b^nu p^nu: the
    structural property behind infinitely divisible ML-type transforms."""

    def test_examples(self):
        assert ((4.0 * 1.0) ** 0.5, 4.0**0.5 * 1.0**0.5) == pytest.approx((2.0, 2.0))
        assert (2.5 * 1.3) ** 1.0 == pytest.approx(2.5**1.0 * 1.3**1.0, rel=1e-15)

    @given(
        nu=st.floats(0.1, 2.0),
        b=st.floats(0.1, 10.0),
        p=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_homogeneity(self, nu, b, p):
        assert (b * p) ** nu == pytest.approx(b**nu * p**nu, rel=1e-13)


class TestForwardNumeric:
    def test_exponential(self):
        got = lt_forward_numeric(lambda t: math.exp(-t), 1.0)
        assert got == pytest.approx(0.5, rel=1e-10)

    def test_power_singularity(self):
        # f(t) = t^(mu-1) transforms to Gamma(mu) p^-mu
        mu, p = 0.4, 2.5
        cfg = QuadratureConfig(singular_power=mu - 1.0)
        got = lt_forward_numeric(lambda t: t ** (mu - 1.0), p, cfg)
        assert got == pytest.approx(math.gamma(mu) * p**-mu, rel=1e-9)

    def test_ml_relaxation_cross_oracle(self):
        alpha, p = 0.7, 2.0
        f = lambda t: ml_eval(MLParams(nu=alpha), -(t**alpha))
        got = lt_forward_numeric(f, p)
        assert got == pytest.approx(lt_eval(MLBasic(c=1.0, nu=alpha), p).real, rel=1e-8)

    def test_needs_positive_p(self):
        with pytest.raises(DomainError):
            lt_forward_numeric(lambda t: 1.0, 0.0)

    def test_non_finite_value_refused(self):
        # the integrand 1e308 e^(t/2) leaves float range: inf was returned
        with pytest.raises(QuadratureFailure):
            lt_forward_numeric(lambda t: 1e308 * math.exp(t), 0.5)

    def test_unreachable_tolerance(self):
        cfg = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300)
        with pytest.raises(QuadratureFailure):
            lt_forward_numeric(lambda t: math.exp(-t) / (1.0 + math.sin(40.0 * t) ** 2), 1.0, cfg)

    @pytest.mark.parametrize("p", [0.5, 2.0, 10.0])
    def test_forward_backward_duality(self, p):
        # gamma-density pair: closed inverse of (1+beta p)^-alpha
        alpha, beta = 1.5, 0.8
        norm = math.gamma(alpha) * beta**alpha

        def f(t):
            return t ** (alpha - 1.0) * math.exp(-t / beta) / norm

        cfg = QuadratureConfig(singular_power=alpha - 1.0)
        got = lt_forward_numeric(f, p, cfg)
        assert got == pytest.approx(lt_eval(GammaPower(alpha, beta), p).real, rel=1e-7)


class TestInvertNumeric:
    def test_exponential_pair(self):
        got = lt_invert_numeric(GammaPower(alpha=1.0, beta=1.0), 1.0)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-9)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.7, 3.0])
    def test_gamma_power_general(self, t):
        alpha, beta = 2.3, 0.7
        d = GammaPower(alpha=alpha, beta=beta)
        expected = t ** (alpha - 1.0) * math.exp(-t / beta) / (math.gamma(alpha) * beta**alpha)
        assert lt_invert_numeric(d, t) == pytest.approx(expected, rel=1e-8, abs=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.2, 3.0])
    def test_two_sided_density(self, t):
        # the strip-limited contour recovers the t > 0 branch of the
        # symmetric density exp(-|t|/beta) / (2 beta)
        beta = 1.0
        cfg = InversionConfig(M=128, precision_target=1e-7)
        got = lt_invert_numeric(LaplaceDensity(beta=beta), t, cfg)
        assert got == pytest.approx(math.exp(-t / beta) / (2.0 * beta), rel=3e-7)

    @pytest.mark.parametrize("t", [0.2, 0.9, 2.1])
    def test_residual_pair_matches_density(self, t):
        beta = 0.8
        d = ResidualProduct(plus=((1.0, beta),), minus=((1.0, beta),))
        cfg = InversionConfig(M=128, precision_target=1e-7)
        got = lt_invert_numeric(d, t, cfg)
        assert got == pytest.approx(math.exp(-t / beta) / (2.0 * beta), rel=3e-7)

    @pytest.mark.parametrize("beta, t", [(0.5, 0.3), (1.0, 1.0), (2.5, 2.0)])
    def test_laplace_density_is_the_residual_product(self, beta, t):
        density = LaplaceDensity(beta=beta)
        product = ResidualProduct(plus=((1.0, beta),), minus=((1.0, beta),))
        for p in (0.3 / beta, complex(-0.2, 1.5) / beta):
            assert lt_eval(density, p) == lt_eval(product, p)
        assert lt_invert_numeric(density, t) == lt_invert_numeric(product, t)

    @pytest.mark.parametrize("minus, t", [(((1.0, 1.0),), 1.0), (((1.0, 1.0), (0.5, 2.0)), 0.5)])
    def test_outputs_alone_vanish_for_positive_t(self, minus, t):
        # with no input factor the residual u = -(sum of outputs) is <= 0
        assert lt_invert_numeric(ResidualProduct(minus=minus), t) == 0.0

    @pytest.mark.parametrize("nu", [0.4, 0.8, 1.3])
    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_ml_basic_pair(self, nu, t):
        c = 1.4
        got = lt_invert_numeric(MLBasic(c=c, nu=nu), t)
        expected = ml_eval(MLParams(nu=nu), -((c * t) ** nu))
        assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("t", [0.1, 0.8, 2.5])
    def test_ml_general_pair(self, t):
        c, nu, mu, gamma = 1.1, 0.6, 1.3, 1.0
        got = lt_invert_numeric(MLGeneral(c=c, nu=nu, mu=mu, gamma=gamma), t)
        expected = t ** (mu - 1.0) * ml_eval(
            MLParams(nu=nu, mu=mu, gamma=gamma + 1.0), -(c**nu) * t**nu
        )
        assert got == pytest.approx(expected, rel=1e-7, abs=1e-9)

    def test_damped_oscillator(self):
        # p/(p^2 + a p + b): cosine-type response of the damped oscillator
        a, b = 0.6, 4.0
        d = ThreeTermAlpha(a=a, b=b, alpha=2.0, beta=1.0)
        t = 1.3
        om = math.sqrt(b - a * a / 4.0)
        expected = math.exp(-a * t / 2.0) * (
            math.cos(om * t) - (a / 2.0) / om * math.sin(om * t)
        )
        assert lt_invert_numeric(d, t) == pytest.approx(expected, rel=1e-9, abs=1e-11)

    def test_oscillator_velocity_kernel(self):
        # 1/(p^2 + a p + b): sine-type kernel
        a, b = 0.6, 4.0
        d = ThreeTermBeta(a=a, b=b, alpha=2.0, beta=1.0)
        t = 1.3
        om = math.sqrt(b - a * a / 4.0)
        expected = math.exp(-a * t / 2.0) * math.sin(om * t) / om
        assert lt_invert_numeric(d, t) == pytest.approx(expected, rel=1e-9, abs=1e-11)

    def test_unstable_quadratic_pole(self):
        # negative b puts a real pole in the right half-plane; the contour
        # is widened to enclose it
        a, b = 1.0, -2.0
        d = ThreeTermBeta(a=a, b=b, alpha=2.0, beta=1.0)
        # roots of p^2 + p - 2: p = 1 and p = -2; inverse (e^t - e^-2t)/3
        t = 1.5
        expected = (math.exp(t) - math.exp(-2.0 * t)) / 3.0
        assert lt_invert_numeric(d, t) == pytest.approx(expected, rel=1e-8)

    def test_callable_transform(self):
        # a bare callable carries no singular points: 1/((p + 0.1)^2 + 1e4)
        # once inverted to about 1e-21 at t = 1 (true -4.58e-3), both
        # contours missing its poles at -0.1 +- 100i
        for F in (lambda p: 1 / (p + 2) ** 2, lambda p: 1 / ((p + 0.1) ** 2 + 1e4)):
            with pytest.raises(DomainError, match="function"):
                lt_invert_numeric(F, 0.9)
            with pytest.raises(DomainError, match="function"):
                lt_eval(F, 1.0)
        # 1/(p + 2)^2 is a quarter of (1 + p/2)^(-2)
        got = lt_invert_numeric(GammaPower(alpha=2.0, beta=0.5), 0.9)
        assert 0.25 * got == pytest.approx(0.9 * math.exp(-1.8), rel=1e-9)

    def test_requires_positive_t(self):
        with pytest.raises(DomainError):
            lt_invert_numeric(GammaPower(1.0, 1.0), 0.0)

    def test_exponent_above_two_refused(self):
        with pytest.raises(DomainError):
            lt_invert_numeric(MLBasic(c=1.0, nu=2.5), 1.0)
        with pytest.raises(DomainError):
            lt_invert_numeric(ThreeTermAlpha(a=1.0, b=1.0, alpha=2.5, beta=1.0), 1.0)

    def test_unknown_rhp_singularities_refused(self):
        d = ThreeTermAlpha(a=-0.5, b=1.0, alpha=1.5, beta=0.5)
        with pytest.raises(DomainError):
            lt_invert_numeric(d, 1.0)

    def test_self_check_catches_missed_pole(self):
        # the pole at p = 1 widens both contours to r = 1.5 t, which 64
        # nodes do not resolve at t = 50: the sums move by 1.6e17 (of
        # e^50/3 = 1.7e21), so the node-doubling check must fire
        with pytest.raises(InversionFailure):
            lt_invert_numeric(ThreeTermBeta(a=1.0, b=-2.0, alpha=2.0, beta=1.0), 50.0)

    @pytest.mark.parametrize("t", [600.0, 700.0])
    def test_non_finite_sum_is_refused(self, t):
        # the inverse (1.3e260 at t = 600) is in float range, but both sums
        # are inf: their difference is nan and the bound inf, so a test on
        # the difference alone once returned inf
        with pytest.raises(InversionFailure):
            lt_invert_numeric(ThreeTermBeta(a=1.0, b=-2.0, alpha=2.0, beta=1.0), t)

    def test_inversion_config_validation(self):
        with pytest.raises(DomainError):
            InversionConfig(M=8)
        # an infinite target passes both node-doubling checks, so either
        # stage would return whatever it summed
        with pytest.raises(DomainError, match="finite"):
            InversionConfig(precision_target=math.inf)


@pytest.mark.parametrize("make", [
    lambda: InversionConfig(M=20.5),
    lambda: InversionConfig(M=True),
    lambda: QuadratureConfig(rel_tol=-1.0),
    lambda: QuadratureConfig(abs_tol=math.inf),
    lambda: QuadratureConfig(rel_tol=0.0, abs_tol=0.0),
    lambda: QuadratureConfig(singular_power=-1.0),
    lambda: InversionConfig(precision_target=0.0),
], ids=["M-float", "M-bool", "rel-tol-negative", "abs-tol-inf", "tolerances-zero",
        "singular-power", "target-zero"])
def test_config_refused(make):
    # refused when built, not by a TypeError or a quadrature that cannot
    # run once the config is used
    with pytest.raises(DomainError):
        make()


def test_config_takes_any_integral_node_count():
    cfg = InversionConfig(M=np.int64(64))
    assert lt_invert_numeric(LaplaceDensity(1.0), 1.0, cfg) == lt_invert_numeric(LaplaceDensity(1.0), 1.0)


class _MpStage(Exception):
    """Raised in place of the mpmath stage's sums."""


def _count_stages(monkeypatch, run_mp=True) -> dict:
    """Count the sums each stage runs; with run_mp False the mpmath stage
    raises _MpStage instead of summing."""
    calls = {"double": 0, "mp": 0}
    double_sum, mp_sum = laplace._modified_talbot_sum, laplace._talbot_sum

    def double(*args):
        calls["double"] += 1
        return double_sum(*args)

    def mpmath_stage(*args):
        calls["mp"] += 1
        if not run_mp:
            raise _MpStage
        return mp_sum(*args)

    monkeypatch.setattr(laplace, "_modified_talbot_sum", double)
    monkeypatch.setattr(laplace, "_talbot_sum", mpmath_stage)
    return calls


def _damped_cosine(a, b, t):
    """Inverse of p/(p^2 + a p + b) for b > a^2/4."""
    om = math.sqrt(b - a * a / 4.0)
    return math.exp(-a * t / 2.0) * (math.cos(om * t) - a / (2.0 * om) * math.sin(om * t))


class TestTwoStageInversion:
    """The double-precision modified-Talbot stage and the guard on known
    singular points that both stages share."""

    # E_nu(-(c t)^nu) from the defining series in mpmath at 150 and 220
    # digits, which agree to more than 100 digits
    OUTSIDE_BOTH = [
        (ThreeTermAlpha(a=0.1, b=10000.0, alpha=2.0, beta=1.0), 1.0,
         _damped_cosine(0.1, 10000.0, 1.0)),
        (MLBasic(c=100.0, nu=1.9), 1.0, 1.6043499410718924e-4),
    ]
    DOUBLE_MUST_REFUSE = [
        (MLBasic(c=60.0, nu=1.95), 1.0, -0.088484587328928811),
        (MLBasic(c=40.0, nu=1.95), 2.0, -0.0071551123014486717),
        (ThreeTermAlpha(a=0.2, b=2500.0, alpha=2.0, beta=1.0), 1.0,
         _damped_cosine(0.2, 2500.0, 1.0)),
    ]

    @staticmethod
    def _refused_or_close(d, t, want):
        try:
            got = lt_invert_numeric(d, t)
        except InversionFailure:
            return
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want)), (d, t, got, want)

    @pytest.mark.parametrize("d, t, want", OUTSIDE_BOTH + DOUBLE_MUST_REFUSE)
    def test_singular_point_outside_contours(self, monkeypatch, d, t, want):
        # both sums once agreed on a value that missed the residue of a
        # pole pair outside both contours (8.8e-18 for the damped cosine
        # 0.8205); each stage must now refuse or be right
        self._refused_or_close(d, t, want)
        monkeypatch.setattr(laplace, "_modified_talbot_sum", lambda F, t, N: (math.nan, 0.0))
        self._refused_or_close(d, t, want)

    @pytest.mark.parametrize("d, t, want", DOUBLE_MUST_REFUSE)
    def test_double_stage_does_not_accept(self, monkeypatch, d, t, want):
        _count_stages(monkeypatch, run_mp=False)
        with pytest.raises((InversionFailure, _MpStage)):
            lt_invert_numeric(d, t)

    def test_singular_points(self):
        turn = complex(math.cos(math.pi / 1.5), math.sin(math.pi / 1.5))
        assert MLBasic(c=2.0, nu=0.9).singular_points() == ()
        assert MLGeneral(c=2.0, nu=1.5, mu=1.0, gamma=0.5).singular_points() == pytest.approx(
            [2.0 * turn, 2.0 * turn.conjugate()], rel=1e-15)
        assert len(TwoRateProduct(c=1.0, d=3.0, nu=1.2, mu=2.0).singular_points()) == 4
        assert ThreeTermBeta(a=1.0, b=-2.0, alpha=2.0, beta=1.0).singular_points() == (1.0, -2.0)
        assert ThreeTermAlpha(a=0.6, b=4.0, alpha=2.0, beta=1.0).singular_points() == pytest.approx(
            [complex(-0.3, math.sqrt(3.91)), complex(-0.3, -math.sqrt(3.91))], rel=1e-15)
        assert ThreeTermAlpha(a=1.0, b=1.0, alpha=0.9, beta=0.4).singular_points() == ()
        # unknown but in the left half-plane: the kinds with 1 < alpha <= 2
        # beyond the quadratic; with a negative coefficient they may lie
        # anywhere, and no contour is chosen
        assert ThreeTermAlpha(a=1.0, b=1.0, alpha=1.5, beta=0.5).singular_points() is None
        with pytest.raises(DomainError):
            ThreeTermBeta(a=-1.0, b=1.0, alpha=0.9, beta=0.4).singular_points()
        assert LaplaceDensity(beta=1.0).singular_points() == ()

    @pytest.mark.parametrize("d, want", [
        (MLBasic(c=1.0, nu=2.0), math.cos(1.0)),
        (TwoRateProduct(c=1.0, d=2.0, nu=2.0, mu=3.0), (math.cos(1.0) - math.cos(2.0)) / 3.0),
    ], ids=["basic", "two-rate"])
    def test_poles_on_the_imaginary_axis_stay_on_the_double_stage(self, monkeypatch, d, want):
        # at nu = 2 the poles +-i c lie on the imaginary axis: their right
        # half-plane bound is exactly 0, not the 6e-17 c that
        # cmath.exp(i pi/2) gives, which would send these to mpmath
        assert max(p.real for p in d.singular_points()) == 0.0
        calls = _count_stages(monkeypatch, run_mp=False)
        assert lt_invert_numeric(d, 1.0) == pytest.approx(want, rel=1e-10)
        assert calls == {"double": 2, "mp": 0}

    @staticmethod
    def _sweep_points():
        """(kind, nu, descriptor, t, exact inverse) with nu in [0.3, 1.95]
        and (c t)^nu up to 50; the Mittag-Leffler kinds are held against
        ml_eval, whose contour is Garrappa's parabola, not Talbot's."""
        rng = np.random.default_rng(20061218)
        points = []
        for i in range(240):
            kind = ("gamma", "basic", "general-int", "general-frac", "two-rate")[i % 5]
            t = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
            if kind == "gamma":
                a, b = rng.uniform(0.3, 4.0), math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
                want = t ** (a - 1.0) * math.exp(-t / b - math.lgamma(a)) / b**a
                points.append((kind, None, GammaPower(alpha=a, beta=b), t, want))
                continue
            nu = rng.uniform(0.3, 1.95)
            x = math.exp(rng.uniform(math.log(0.01), math.log(50.0)))
            c, n0 = x ** (1.0 / nu) / t, rng.uniform(0.5, 2.0)
            if kind == "basic":
                want = n0 * ml_eval(MLParams(nu), -x)
                points.append((kind, nu, MLBasic(c=c, nu=nu, n0=n0), t, want))
            elif kind == "two-rate":
                mu = nu + rng.uniform(0.15, 1.0)
                d = c / rng.uniform(1.5, 3.0)
                # partial fractions over the two rates
                cn, dn, lower = c**nu, d**nu, MLParams(nu, mu - nu)
                want = n0 / (dn - cn) * t ** (mu - nu - 1.0) * (
                    ml_eval(lower, -cn * t**nu) - ml_eval(lower, -dn * t**nu))
                points.append((kind, nu, TwoRateProduct(c=c, d=d, nu=nu, mu=mu, n0=n0), t, want))
            else:
                mu = rng.uniform(0.3, 2.5)
                g = float(i % 3) if kind == "general-int" else rng.uniform(-0.6, 2.0)
                want = n0 * t ** (mu - 1.0) * ml_eval(MLParams(nu, mu, g + 1.0), -x)
                points.append((kind, nu, MLGeneral(c=c, nu=nu, mu=mu, gamma=g, n0=n0), t, want))
        return points

    def test_seeded_sweep_against_closed_forms(self, monkeypatch):
        calls = _count_stages(monkeypatch, run_mp=False)
        settled = {"below": [0, 0], "above": [0, 0]}
        for kind, nu, d, t, want in self._sweep_points():
            before = calls["mp"]
            try:
                got = lt_invert_numeric(d, t)
            except (InversionFailure, _MpStage):
                got = None
            band = settled["below" if nu is None or nu < 1.0 else "above"]
            band[0] += 1
            if got is not None:
                assert calls["mp"] == before
                band[1] += 1
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (kind, d, t, got, want)
        below, above = settled["below"], settled["above"]
        assert below[1] >= 0.8 * below[0]
        # poles off the axis are enclosed often enough to test their guard
        assert above[1] >= 0.5 * above[0]

    def test_non_integer_gamma_cut_stays_inside(self):
        # the principal power of (c^nu + p^nu) cuts outward from the
        # branch points across the contour; both stages refused this point
        d = MLGeneral(c=2.0, nu=1.9, mu=1.0, gamma=1.5)
        want = ml_eval(MLParams(1.9, 1.0, 2.5), -(4.0**1.9))
        assert lt_invert_numeric(d, 2.0) == pytest.approx(want, rel=1e-9)
        # on the real axis the value is the closed form
        p = 1.7
        assert lt_eval(d, p) == pytest.approx(p ** (1.9 * 2.5 - 1.0) / (2.0**1.9 + p**1.9) ** 2.5,
                                              rel=1e-14)

    STRIP_CFG = InversionConfig(M=128, precision_target=1e-7)

    @pytest.mark.parametrize("d, t, cfg, want", [
        (LaplaceDensity(beta=1.0), 1.2, STRIP_CFG, math.exp(-1.2) / 2.0),
        (ResidualProduct(plus=((1.0, 0.8),), minus=((1.0, 0.8),)), 0.9, STRIP_CFG,
         math.exp(-0.9 / 0.8) / 1.6),
        (ThreeTermBeta(a=1.0, b=-2.0, alpha=2.0, beta=1.0), 1.5, InversionConfig(),
         (math.exp(1.5) - math.exp(-3.0)) / 3.0),
        (ThreeTermAlpha(a=0.6, b=1.0, alpha=1.5, beta=0.5), 1.0, InversionConfig(), None),
    ])
    def test_ineligible_transforms_skip_double_stage(self, monkeypatch, d, t, cfg, want):
        # two-sided kinds, right-half-plane poles and unknown singular
        # points go to the mpmath stage only
        calls = _count_stages(monkeypatch)
        got = lt_invert_numeric(d, t, cfg)
        assert calls == {"double": 0, "mp": 2}
        if want is not None:
            assert got == pytest.approx(want, rel=3e-7)
