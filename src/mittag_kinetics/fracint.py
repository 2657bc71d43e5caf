"""Riemann-Liouville fractional integral and residual certification.

The integral (1/Gamma(nu)) * int_0^t (t-u)**(nu-1) f(u) du is computed
by product integration: f is written as u**rho * g(u) with rho the
declared power behavior at 0 (rho = 0 for bounded f), g is interpolated
piecewise-linearly on a uniform mesh, and each cell integral of
u**(rho+j) * (t-u)**(nu-1) is taken in closed form through the
regularized incomplete beta function. The kernel singularity at u = t
and the data singularity at u = 0 are therefore integrated exactly;
only the linear interpolation of g contributes error, second order in
the step for smooth g.

``residual_check`` certifies a claimed kinetic solution by evaluating
N(t) - source(t) + c**nu * (I^nu N)(t), which is identically zero for
the exact solution.

The incomplete beta function comes from ``scipy.special``, imported on
the first quadrature rather than with the package: it is the only
scipy this module needs, and loading it costs about as much as the rest
of the package's import together. 1/Gamma(nu) is taken from
``math.lgamma`` (``special_functions._log_gamma``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError, QuadratureFailure
from .kinetics import KineticProblem, source_term
from .special_functions import _log_gamma

_DEFAULT_CELLS = 512


@dataclass(frozen=True)
class FracIntConfig:
    """Quadrature controls for the fractional integral.

    h: mesh step; None picks t/512 so the default cell count is
    t-independent. The rule is the piecewise-linear product rule.
    singular_power declares f(u) ~ u**singular_power near 0; the factor
    is integrated exactly instead of being interpolated. grading > 1
    clusters nodes at 0 as u_j = t (j/n)**grading, restoring second
    order when the remaining factor still has fractional-power
    curvature there (kinetic solutions step in powers of u**nu).
    """

    h: float | None = None
    singular_power: float = 0.0
    grading: float = 1.0

    def __post_init__(self) -> None:
        if self.h is not None and not 0.0 < self.h < math.inf:
            raise DomainError(f"step h must be positive and finite, got {self.h}")
        if not -1.0 < self.singular_power < math.inf:
            raise DomainError(
                f"singular power must be integrable and finite, got {self.singular_power}"
            )
        if not 1.0 <= self.grading < math.inf:
            raise DomainError(f"grading must be finite and at least 1, got {self.grading}")


DEFAULT_FRACINT_CONFIG = FracIntConfig()


def _cell_moments(x: np.ndarray, s: float, nu: float, t: float) -> np.ndarray:
    # int_{u_j}^{u_{j+1}} u**(s-1) (t-u)**(nu-1) du as incomplete-beta
    # differences on the scaled variable x = u / t
    # lazy: the package's import would cost twice as much with it
    from scipy.special import beta, betainc

    vals = betainc(s, nu, x) * beta(s, nu)
    return t ** (s + nu - 1.0) * np.diff(vals)


def _sample(f: Callable, u: np.ndarray) -> np.ndarray:
    # one call on the whole mesh; a scalar-only f, or one whose result
    # does not broadcast to the mesh, is called point by point
    try:
        return np.broadcast_to(np.asarray(f(u), dtype=float), u.shape)
    except (TypeError, ValueError):
        return np.asarray([f(ui) for ui in u], dtype=float)


def rl_integral(f: Callable[[float], float], nu: float, t: float,
                cfg: FracIntConfig = DEFAULT_FRACINT_CONFIG) -> float:
    """Riemann-Liouville integral of order nu of f over (0, t).

    f is sampled on the whole mesh in one call, f(u) with u an ndarray
    (a ``SolutionSeries`` evaluates it through the mesh evaluator of
    ``special_functions``). If that call raises ``TypeError`` or
    ``ValueError`` (``math.cos``, ``lambda u: math.exp(-u)``) or its
    result does not broadcast to the mesh, f is called once per point
    instead. Order zero is the identity: the integral degenerates to f(t).
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"upper limit must be positive and finite, got {t}")
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"order must be nonnegative and finite, got {nu}")
    if nu == 0.0:
        return float(f(t))
    if cfg.h is None:
        n = _DEFAULT_CELLS
    else:
        n = max(2, int(np.ceil(t / cfg.h)))
    rho = cfg.singular_power
    x = (np.arange(n + 1) / n) ** cfg.grading
    if x[1] < np.finfo(float).tiny:  # subnormal or 0: the first cell's slope overflows
        raise QuadratureFailure(f"order {nu:.6g}: mesh node (1/{n})^{cfg.grading:.6g} underflows")
    u = t * x
    if rho == 0.0:
        g = _sample(f, u)
    else:
        g = np.empty(n + 1)
        g[1:] = _sample(f, u[1:]) * u[1:] ** -rho
        # continue the smooth factor to u=0 along its secant
        g[0] = g[1] - (g[2] - g[1]) * u[1] / (u[2] - u[1])
    if not np.all(np.isfinite(g)):
        raise QuadratureFailure("non-finite integrand samples")
    m0 = _cell_moments(x, rho + 1.0, nu, t)
    m1 = _cell_moments(x, rho + 2.0, nu, t)
    slope = np.diff(g) / np.diff(u)
    cells = g[:-1] * m0 + slope * (m1 - u[:-1] * m0)
    total = math.exp(-_log_gamma(nu)[0]) * float(np.sum(cells))
    if not math.isfinite(total):
        raise QuadratureFailure(f"the order-{nu:.6g} quadrature sum is not finite")
    return total


def residual_check(problem: KineticProblem, solution: Callable[[float], float],
                   t_grid: Iterable[float],
                   cfg: FracIntConfig = DEFAULT_FRACINT_CONFIG) -> list[float]:
    """Defect of a claimed solution in its own integral equation.

    Returns N(t) - source(t) + c**nu * (I^nu N)(t) for each time of the
    grid, an iterable read once (list, ndarray, generator); values near
    zero certify the solution. Only the step h is read from cfg: the
    quadrature declares the solution's t**(mu-1) short-time behavior
    (singular_power = mu - 1) so singular sources do not degrade it, and
    grades its mesh by max(1, 2/nu).
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        return []
    if min(t_grid) <= 0.0:
        raise DomainError("residuals are defined for positive times only")
    eff = replace(cfg, singular_power=problem.mu - 1.0, grading=max(1.0, 2.0 / problem.nu))
    c_nu = problem.c**problem.nu
    out = []
    for t in t_grid:
        value = solution(t) - source_term(problem, t)
        out.append(value + c_nu * rl_integral(solution, problem.nu, t, eff))
    return out
