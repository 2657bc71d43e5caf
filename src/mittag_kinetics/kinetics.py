"""Closed-form solvers for linear fractional kinetic equations.

Every equation handled here has the shape

    N(t) = source(t) - c**nu * (I^nu N)(t)

with I^nu the Riemann-Liouville integral of order nu. In transform space
the solution is rational in p**nu, and its inverse is a finite
combination of terms weight * t**power * E(-rate * t**nu) with E a
Mittag-Leffler function. ``solve`` returns that combination as a
:class:`SolutionSeries`; ``transform_of`` returns the matching
descriptor so the series can be cross-checked against numerical
inversion.

Transforms with a three-term denominator p**alpha + a p**beta + b, the
catalog kinds ``laplace.ThreeTermAlpha`` (numerator p**(alpha-1)) and
``ThreeTermBeta`` (numerator p**(beta-1)), fall outside the single-rate
family; ``invert_three_term`` sums their inverse as an outer series of
three-parameter Mittag-Leffler terms in powers of a * t**(alpha-beta).
The outer series is treated as convergent only for |a| t**(alpha-beta)
<= 20; beyond that the truncation estimate is meaningless and a
DomainError is raised instead.

All evaluation funnels through ``special_functions.ml_eval`` so there is
a single audited series implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, NonConvergence, float_power, refuse_non_count, refuse_non_finite
from .laplace import (
    MLBasic,
    MLGeneral,
    ThreeTermAlpha,
    ThreeTermBeta,
    TransformDescriptor,
    TwoRateProduct,
)
from .special_functions import (
    DEFAULT_SERIES_CONFIG,
    MLParams,
    SeriesConfig,
    _ml_eval_mesh,
    ml_eval,
)

# Relative gap under which the two destruction rates are considered tied
# and the squared-denominator branch is taken.
_TIE_REL_TOL = 1e-8

# Empirical divergence guard for the outer series in invert_three_term.
_OUTER_ARG_LIMIT = 20.0

# A finished outer series must have a tail estimate below this, relative
# to max(|sum|, 1).
_OUTER_TAIL_TOL = 1e-10


class ProblemKind(Enum):
    """Which source term drives the kinetic balance equation."""

    BASIC = "basic"
    POWER_SOURCE = "power-source"
    ML_GAMMA_SOURCE = "ml-gamma-source"
    ML_SOURCE = "ml-source"
    TWO_RATE = "two-rate"


@dataclass(frozen=True)
class KineticProblem:
    """A single linear fractional kinetic equation.

    kind selects the source term:

    * BASIC: constant source n0, the power source at mu = 1; any other
      mu is refused.
    * POWER_SOURCE: n0 * t**(mu-1).
    * ML_GAMMA_SOURCE: n0 * t**(mu-1) * E[nu, mu; gamma](-c**nu t**nu).
    * ML_SOURCE: n0 * t**(mu-1) * E[nu, mu](-c**nu t**nu), same rate c
      in source and loss term: ML_GAMMA_SOURCE at gamma = 1.
    * TWO_RATE: n0 * t**(mu-1) * E[nu, mu](-d**nu t**nu), production
      rate d distinct from the destruction rate c. Requires mu > nu so
      the solution's lowered-index Mittag-Leffler terms keep mu > 0.

    Every number must be finite; a NaN or infinite one raises DomainError.
    """

    kind: ProblemKind
    n0: float
    c: float
    nu: float
    mu: float = 1.0
    gamma: float = 0.0
    d: float | None = None

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        # n0 = 0 is the empty system; kept legal so zero solutions can
        # round-trip through residual certification
        if self.n0 < 0.0:
            raise DomainError(f"n0 must be nonnegative, got {self.n0}")
        if self.c <= 0.0:
            raise DomainError(f"rate c must be positive, got {self.c}")
        if self.nu <= 0.0:
            raise DomainError(f"order nu must be positive, got {self.nu}")
        if self.mu <= 0.0:
            raise DomainError(f"exponent mu must be positive, got {self.mu}")
        if self.kind is ProblemKind.TWO_RATE:
            if self.d is None or self.d <= 0.0:
                raise DomainError("two-rate problems need a positive rate d")
            if self.mu <= self.nu:
                raise DomainError(
                    f"two-rate solutions need mu > nu, got mu={self.mu}, nu={self.nu}"
                )
        elif self.d is not None:
            raise DomainError("rate d only applies to two-rate problems")
        if self.kind is ProblemKind.ML_GAMMA_SOURCE:
            if self.gamma <= -1.0 or self.gamma == 0.0:
                raise DomainError(
                    f"source index gamma must be > -1 and nonzero, got {self.gamma}"
                )
        elif self.gamma != 0.0:
            raise DomainError("gamma only applies to ml-gamma-source problems")
        if self.kind is ProblemKind.BASIC and self.mu != 1.0:
            raise DomainError(f"basic problems have mu = 1, got mu={self.mu}")


@dataclass(frozen=True)
class SeriesTerm:
    """One summand weight * t**power * E[ml](-rate * t**ml.nu)."""

    weight: float
    power: float
    ml: MLParams
    rate: float


@dataclass(frozen=True)
class SolutionSeries:
    """Finite Mittag-Leffler combination solving a kinetic equation."""

    terms: tuple[SeriesTerm, ...]

    def evaluate(self, t: float | np.ndarray,
                 cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float | np.ndarray:
        """N(t) at a time t >= 0, or at every time of an ndarray t.

        A float is evaluated term by term through ``ml_eval``.  An ndarray
        evaluates each term over all its positive times in one call of
        the mesh evaluator ``special_functions._ml_eval_mesh``, which keeps
        a float-series value only by the rule ``ml_eval`` keeps it by and
        sends every other point through ``ml_eval``: values agree with the
        float path to rounding (not bit for bit), errors are the same.
        At t = 0 a term with a negative power raises ``DomainError``, one
        with power 0 gives weight * E(0), any other 0.  A term's power of
        t or t^nu, or N(t), beyond float range raises ``DomainError``.
        """
        if isinstance(t, np.ndarray):
            return self._evaluate_mesh(t, cfg)
        return self._evaluate_float(t, cfg)

    def _evaluate_float(self, t: float, cfg: SeriesConfig) -> float:
        if t < 0.0:
            raise DomainError(f"time must be nonnegative, got {t}")
        total = 0.0
        for term in self.terms:
            if t == 0.0:
                if term.power < 0.0:
                    raise DomainError("series diverges at t=0, evaluate at t > 0")
                prefactor = term.weight if term.power == 0.0 else 0.0
                total += prefactor * ml_eval(term.ml, 0.0, cfg)
                continue
            z = -term.rate * float_power(t, term.ml.nu)
            total += term.weight * float_power(t, term.power) * ml_eval(term.ml, z, cfg)
        if not math.isfinite(total):
            raise _beyond_float_range(t)
        return total

    def _evaluate_mesh(self, t: np.ndarray, cfg: SeriesConfig) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if (t < 0.0).any():
            raise DomainError(f"time must be nonnegative, got {t.min()}")
        at_zero = t == 0.0
        total = np.zeros(t.shape)
        if at_zero.any():
            total[at_zero] = self._evaluate_float(0.0, cfg)
        positive = ~at_zero
        tp = t[positive]
        for term in self.terms:
            z = -term.rate * tp**term.ml.nu
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                scale = term.weight * tp**term.power
            if not np.isfinite(scale).all():
                raise _beyond_float_range(tp[~np.isfinite(scale)][0])
            values = _ml_eval_mesh(term.ml, z, cfg)
            with np.errstate(over="ignore", invalid="ignore"):
                total[positive] += scale * values
        if not np.isfinite(total).all():
            raise _beyond_float_range(t[~np.isfinite(total)][0])
        return total

    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.evaluate(t)


def _beyond_float_range(t: float) -> DomainError:
    return DomainError(f"N(t) or one of its terms is beyond float range at t = {t}")


def _same_rate_source(problem: KineticProblem) -> tuple[float, float]:
    """(w, g) of the source w t^(mu-1) E^g[nu, mu](-c^nu t^nu) (E^0 is
    1/Gamma(mu)), g = 1 for ml-source and two tied rates; DomainError when
    a power source's w = n0 Gamma(mu) is beyond float range."""
    kind, n0 = problem.kind, problem.n0
    if kind is ProblemKind.ML_GAMMA_SOURCE:
        return n0, problem.gamma
    if kind not in (ProblemKind.BASIC, ProblemKind.POWER_SOURCE):
        return n0, 1.0
    try:
        weight = n0 * math.gamma(problem.mu)
    except OverflowError:  # Gamma(mu) alone is beyond float range
        weight = math.inf
    if not math.isfinite(weight):
        raise DomainError(f"n0 Gamma(mu) is beyond float range at n0={n0}, mu={problem.mu}")
    return weight, 0.0


def solve(problem: KineticProblem) -> SolutionSeries:
    """Return the closed-form solution of the given kinetic equation: the
    one term w t^(mu-1) E^(g+1)[nu, mu](-c^nu t^nu) of a same-rate source."""
    nu, mu = problem.nu, problem.mu
    c_nu = problem.c**nu
    if problem.kind is ProblemKind.TWO_RATE:
        d_nu = problem.d**nu
        if abs(c_nu - d_nu) >= _TIE_REL_TOL * max(c_nu, d_nu):
            weight = problem.n0 / (c_nu - d_nu)
            ml = MLParams(nu=nu, mu=mu - nu)
            return SolutionSeries((
                SeriesTerm(weight, mu - nu - 1.0, ml, d_nu),
                SeriesTerm(-weight, mu - nu - 1.0, ml, c_nu),
            ))
    weight, g = _same_rate_source(problem)
    ml = MLParams(nu=nu, mu=mu, gamma=g + 1.0)
    return SolutionSeries((SeriesTerm(weight, mu - 1.0, ml, c_nu),))


def transform_of(problem: KineticProblem) -> TransformDescriptor:
    """Descriptor of the Laplace transform of the problem's solution."""
    n0, c, nu, mu = problem.n0, problem.c, problem.nu, problem.mu
    if problem.kind is ProblemKind.BASIC:
        return MLBasic(c=c, nu=nu, n0=n0)
    if problem.kind is ProblemKind.TWO_RATE:
        return TwoRateProduct(c=c, d=problem.d, nu=nu, mu=mu, n0=n0)
    weight, g = _same_rate_source(problem)
    return MLGeneral(c=c, nu=nu, mu=mu, gamma=g, n0=weight)


def source_term(problem: KineticProblem, t: float,
                cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float:
    """Evaluate the driving source of the kinetic equation at time t."""
    if t <= 0.0:
        raise DomainError(f"source evaluation needs t > 0, got {t}")
    nu, mu = problem.nu, problem.mu
    kind = problem.kind
    prefactor = problem.n0 * t ** (mu - 1.0)
    if kind in (ProblemKind.BASIC, ProblemKind.POWER_SOURCE):
        return prefactor
    rate = problem.d if kind is ProblemKind.TWO_RATE else problem.c
    gamma = problem.gamma if kind is ProblemKind.ML_GAMMA_SOURCE else 1.0
    return prefactor * ml_eval(MLParams(nu=nu, mu=mu, gamma=gamma), -(rate**nu) * t**nu, cfg)


def invert_three_term(d: ThreeTermAlpha | ThreeTermBeta, t: float, outer_terms: int = 64,
                      cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float:
    """Inverse transform of the catalog three-term kind d at time t.

    Expands 1 / (p**alpha + a p**beta + b) in powers of
    a / (p**(alpha-beta) + b p**(-beta)) and inverts term by term,
    giving an outer series of three-parameter Mittag-Leffler values in
    x = -a * t**(alpha-beta), every power of t shifted by the kind's
    numerator order. Truncation stops once two consecutive terms fall
    below the series tolerance; if the budget runs out first and the tail
    estimate (twice the last term) is above the accepted level,
    NonConvergence is raised; a sum, or t**alpha, beyond float range
    raises DomainError.
    """
    if t <= 0.0:
        raise DomainError(f"time must be positive, got {t}")
    refuse_non_count(outer_terms, "outer_terms", 1)
    gap = d.alpha - d.beta
    outer_arg = abs(d.a) * float_power(t, gap)
    if outer_arg > _OUTER_ARG_LIMIT:
        raise DomainError(
            f"outer series diverges: |a| t**(alpha-beta) = {outer_arg:.3g} > {_OUTER_ARG_LIMIT}"
        )
    # numerator p**(k-1) shifts every power by alpha - 1 - (k - 1) = alpha - k
    shift = d.alpha - d.numerator_order
    z = -d.b * float_power(t, d.alpha)
    total = 0.0
    comp = 0.0
    small_run = 0
    term = 0.0
    for r in range(outer_terms):
        power = gap * r + shift
        ml = MLParams(nu=d.alpha, mu=power + 1.0, gamma=float(r + 1))
        term = (-d.a) ** r * t**power * ml_eval(ml, z, cfg)
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        if not math.isfinite(total):
            raise DomainError(f"outer series sum is beyond float range at t = {t}")
        if r > 0 and abs(term) <= cfg.rel_tol * max(abs(total), 1e-300):
            small_run += 1
            if small_run >= 2:
                return total
        else:
            small_run = 0
    tail = 2.0 * abs(term)
    if tail > _OUTER_TAIL_TOL * max(abs(total), 1.0):
        raise NonConvergence(
            f"outer series tail estimate {tail:.3g} after {outer_terms} terms"
        )
    return total
