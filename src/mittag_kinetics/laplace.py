"""Closed-form Laplace transform catalog with numerical forward and inverse
transform oracles.

Each transform in the catalog is a small frozen descriptor that knows how to
evaluate its closed form at real or complex p (``lt_eval``); a NaN or infinite
field is refused with DomainError when the descriptor is built.  Two numerical
oracles sit alongside:

* ``lt_forward_numeric`` integrates e^{-pt} f(t) dt by adaptive quadrature,
  with a power-law substitution that removes an integrable t^rho endpoint
  singularity.
* ``lt_invert_numeric`` inverts a descriptor in two stages, both accepted
  by one node-doubling test that a non-finite sum fails.
  - Double precision first, for one-sided descriptors with known singular
    points and none in the right half-plane: the midpoint rule on the
    optimised (modified) Talbot contour at 32 and 64 nodes.  Its largest
    weight is e^{0.171 N}, so rounding stays near 1e-11 (fixed Talbot, whose
    weights reach ~e^r, would floor near 3e-7 at M=64 in double).  Worst
    error seen: 9.2e-11 of max(1, |f|) over 1,040 seeded draws of every
    Mittag-Leffler kind at nu in [0.3, 1.95], (c t)^nu <= 50, and gamma
    densities, against ml_eval and exact forms.
  - mpmath fixed Talbot otherwise, and for every value the first stage
    refuses, at M and 2M nodes in scaled working precision; its practical
    floor is the requested target.  Worst error seen: 1.4e-15, on the 119
    values it settled in the tests' sweep and in 400 draws at nu in [1, 2)
    with c t up to 250 and of quadratic denominators.
  Node doubling cannot see a singular point outside both contours of a
  stage: the sums agree on a value that lacks its residue.  So each
  descriptor reports its singular points off the negative real axis
  (poles c e^(+-i pi/nu) for nu > 1, quadratic roots), and a stage runs
  only when every point whose weight e^{Re(p) t} is not negligible lies
  inside both of its contours; when the mpmath contours miss one the
  inversion raises InversionFailure.  Three-term kinds with 1 < alpha <= 2
  and a non-quadratic denominator have unknown singular points and go to
  the mpmath stage unguarded.

The three gamma kinds are factor sets of one product, the paper's residual
transform prod (1 + s beta p)^(-alpha), s = +1 for an input factor and -1
for an output: ``GammaPower`` is one input, ``LaplaceDensity`` the factor
(1, beta) as both, ``ResidualProduct`` its ``plus`` and ``minus``.  With
outputs the transform is two-sided, singular at +1/beta, so its Bromwich
line must stay inside the convergence strip: the contour scale r is capped
at half of t times the strip bound, and Talbot recovers the t > 0 branch
of the two-sided density.  Outputs alone invert to exactly 0 at t > 0.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Union, get_args

import mpmath as mp

from .errors import (
    DomainError,
    InversionFailure,
    PoleError,
    QuadratureFailure,
    refuse_non_count,
    refuse_non_finite,
)

#: Relative tolerance below which a denominator counts as a pole hit.
_DEN_TOL = 1e-12


class _Descriptor:
    """Shared behavior: closed-form evaluation plus contour metadata."""

    def value(self, p):
        raise NotImplementedError

    def check_real_validity(self, p: float) -> None:
        """Raise DomainError/PoleError when real p leaves the region of
        validity stated for this transform."""
        raise NotImplementedError

    def strip_sigma(self) -> float | None:
        """Rightmost admissible Re(p) for two-sided transforms, else None."""
        return None

    def rhp_sigma(self) -> float:
        """Real part of the rightmost singularity if it lies in Re(p) > 0."""
        return 0.0

    def singular_points(self) -> tuple[complex, ...] | None:
        """Singular points a contour must enclose besides the cut along the
        negative real axis, or None when they are not known.  Two-sided
        kinds report none: their strip bound places the contour."""
        return ()

    def inversion_exponent(self) -> float:
        """Largest p-power exponent in the denominator; the Talbot contour
        wraps all singularities only when this is <= 2."""
        return 1.0


class _GammaFactors(_Descriptor):
    """prod (1 + s beta p)^(-alpha) over the factors (alpha, beta, s), with
    s = +1 for an input and -1 for an output, that each kind sets once in
    ``__post_init__`` through ``_set_factors``."""

    _factors: tuple[tuple[float, float, float], ...]

    def _set_factors(self, factors) -> None:
        refuse_non_finite(self)
        for a, b, _ in factors:
            if not (a > 0 and b > 0):
                raise DomainError(f"{type(self).__name__} factors need alpha, beta > 0, got {self}")
        object.__setattr__(self, "_factors", tuple(factors))

    def value(self, p):
        out = 1
        for a, b, s in self._factors:
            out = out * (1 + s * b * p) ** (-a)
        return out

    def check_real_validity(self, p: float) -> None:
        for _, b, s in self._factors:
            w = 1.0 + s * b * p
            side = "input" if s > 0 else "output"
            if abs(w) < _DEN_TOL:
                raise PoleError(f"p={p} sits on an {side}-factor singularity")
            if w < 0:
                raise DomainError(f"{side} factor leaves its validity region at p={p}")

    def strip_sigma(self) -> float | None:
        bounds = [1.0 / b for _, b, s in self._factors if s < 0]
        return min(bounds) if bounds else None


@dataclass(frozen=True)
class GammaPower(_GammaFactors):
    """(1 + beta p)^(-alpha): transform of the gamma density with shape
    alpha and scale beta (up to the Gamma normalization)."""

    alpha: float
    beta: float

    def __post_init__(self):
        self._set_factors(((self.alpha, self.beta, 1.0),))

    value = _GammaFactors.value


@dataclass(frozen=True)
class LaplaceDensity(_GammaFactors):
    """(1 - beta^2 p^2)^(-1): two-sided transform of the symmetric Laplace
    density exp(-|t|/beta)/(2 beta), valid on |Re p| < 1/beta."""

    beta: float

    def __post_init__(self):
        self._set_factors(((1.0, self.beta, 1.0), (1.0, self.beta, -1.0)))

    value = _GammaFactors.value


@dataclass(frozen=True)
class ResidualProduct(_GammaFactors):
    """prod_i (1 + beta_i p)^(-alpha_i) * prod_j (1 - beta_j p)^(-alpha_j):
    transform of a residual (sum of gamma inputs minus sum of gamma
    outputs).  ``plus`` holds the input factors, ``minus`` the outputs."""

    plus: tuple[tuple[float, float], ...] = ()
    minus: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "plus", tuple((float(a), float(b)) for a, b in self.plus))
        object.__setattr__(self, "minus", tuple((float(a), float(b)) for a, b in self.minus))
        if not (self.plus or self.minus):
            raise DomainError("ResidualProduct needs at least one factor")
        self._set_factors([(a, b, 1.0) for a, b in self.plus] + [(a, b, -1.0) for a, b in self.minus])

    value = _GammaFactors.value


def _pole_guard(den, scale) -> None:
    if abs(den) < _DEN_TOL * (abs(scale) + _DEN_TOL):
        raise PoleError("denominator vanishes at this p")


def _rate_poles(nu: float, *rates: float) -> tuple[complex, ...]:
    """Zeros c e^(+-i pi/nu) of p^nu + c^nu for each rate c: on the
    principal sheet only when nu > 1."""
    if nu <= 1.0:
        return ()
    turn = cmath.exp(1j * math.pi / nu)
    return tuple(c * w for c in rates for w in (turn, turn.conjugate()))


class _PowerOfP(_Descriptor):
    """Kinds built from powers p^nu: real p must be positive, and nu is the
    largest power of p in the denominator."""

    def check_real_validity(self, p: float) -> None:
        if p <= 0:
            raise DomainError(f"p^nu kinds need real p > 0, got p={p}")

    def inversion_exponent(self) -> float:
        return self.nu

    def singular_points(self) -> tuple[complex, ...] | None:
        return _rate_poles(self.nu, self.c)


@dataclass(frozen=True)
class MLBasic(_PowerOfP):
    """n0 p^(nu-1) / (p^nu + c^nu): transform of n0 E_nu(-(c t)^nu)."""

    c: float
    nu: float
    n0: float = 1.0

    def __post_init__(self):
        refuse_non_finite(self)
        if not (self.c > 0 and self.nu > 0):
            raise DomainError(f"MLBasic requires c, nu > 0, got {self}")

    def value(self, p):
        cn = self.c**self.nu
        pn = p**self.nu
        _pole_guard(pn + cn, abs(pn) + cn)
        return self.n0 * p ** (self.nu - 1) / (pn + cn)


@dataclass(frozen=True)
class MLGeneral(_PowerOfP):
    """n0 p^(nu(gamma+1)-mu) / (c^nu + p^nu)^(gamma+1): transform of
    n0 t^(mu-1) E^(gamma+1)_[nu,mu](-c^nu t^nu)."""

    c: float
    nu: float
    mu: float
    gamma: float = 0.0
    n0: float = 1.0

    def __post_init__(self):
        refuse_non_finite(self)
        if not (self.c > 0 and self.nu > 0 and self.mu > 0):
            raise DomainError(f"MLGeneral requires c, nu, mu > 0, got {self}")
        if self.gamma <= -1:
            raise DomainError(f"MLGeneral requires gamma > -1, got {self}")

    def value(self, p):
        cn = self.c**self.nu
        pn = p**self.nu
        _pole_guard(pn + cn, abs(pn) + cn)
        # p^-mu (1 + c^nu p^-nu)^-(gamma+1): for non-integer gamma and
        # nu > 1 the cuts run from 0 to the branch points c e^(+-i pi/nu),
        # inside any contour that encloses those points; the principal
        # power of (c^nu + p^nu) would cut outward across the contour
        return self.n0 * p ** (-self.mu) * (1 + cn / pn) ** (-(self.gamma + 1))


@dataclass(frozen=True)
class TwoRateProduct(_PowerOfP):
    """n0 p^(2nu-mu) / ((p^nu + c^nu)(p^nu + d^nu)): transform of the
    production-destruction solution with distinct rates c and d."""

    c: float
    d: float
    nu: float
    mu: float
    n0: float = 1.0

    def __post_init__(self):
        refuse_non_finite(self)
        if not (self.c > 0 and self.d > 0 and self.nu > 0 and self.mu > 0):
            raise DomainError(f"TwoRateProduct requires c, d, nu, mu > 0, got {self}")

    def singular_points(self) -> tuple[complex, ...] | None:
        return _rate_poles(self.nu, self.c, self.d)

    def value(self, p):
        cn, dn = self.c**self.nu, self.d**self.nu
        pn = p**self.nu
        _pole_guard(pn + cn, abs(pn) + cn)
        _pole_guard(pn + dn, abs(pn) + dn)
        return self.n0 * p ** (2 * self.nu - self.mu) / ((pn + cn) * (pn + dn))


@dataclass(frozen=True)
class _ThreeTermBase(_PowerOfP):
    """p^(k-1) / (p^alpha + a p^beta + b) with alpha > beta >= 0; each kind
    states its numerator order k (alpha or beta) in ``numerator_order``."""

    a: float
    b: float
    alpha: float
    beta: float

    def __post_init__(self):
        refuse_non_finite(self)
        if not (self.alpha > self.beta >= 0):
            raise DomainError(f"three-term transform requires alpha > beta >= 0, got {self}")

    def value(self, p):
        den = p**self.alpha + self.a * p**self.beta + self.b
        _pole_guard(den, abs(p) ** self.alpha + abs(self.a) * abs(p) ** self.beta + abs(self.b))
        return p ** (self.numerator_order - 1) / den

    def inversion_exponent(self) -> float:
        return self.alpha

    def singular_points(self) -> tuple[complex, ...] | None:
        if self.alpha == 2.0 and self.beta == 1.0:
            # quadratic denominator: root locations are explicit
            root = cmath.sqrt(self.a * self.a - 4.0 * self.b)
            return ((-self.a + root) / 2.0, (-self.a - root) / 2.0)
        if self.alpha <= 1.0 and self.a >= 0 and self.b >= 0:
            # off the cut p^alpha and a p^beta both have arguments in
            # (0, pi) on one side of the axis, so the sum has no zeros
            return ()
        return None

    def rhp_sigma(self) -> float:
        points = self.singular_points()
        if points is not None:
            return max([0.0] + [p.real for p in points])
        if self.a >= 0 and self.b >= 0:
            return 0.0
        raise DomainError(
            "negative three-term coefficients with non-quadratic denominator: "
            "singularity locations unknown, refusing contour inversion"
        )


@dataclass(frozen=True)
class ThreeTermAlpha(_ThreeTermBase):
    """p^(alpha-1) / (p^alpha + a p^beta + b): the L3 three-term kind."""

    @property
    def numerator_order(self) -> float:
        return self.alpha

    value = _ThreeTermBase.value


@dataclass(frozen=True)
class ThreeTermBeta(_ThreeTermBase):
    """p^(beta-1) / (p^alpha + a p^beta + b): the L4 three-term kind."""

    @property
    def numerator_order(self) -> float:
        return self.beta

    value = _ThreeTermBase.value


TransformDescriptor = Union[
    GammaPower,
    LaplaceDensity,
    ResidualProduct,
    MLBasic,
    MLGeneral,
    TwoRateProduct,
    ThreeTermAlpha,
    ThreeTermBeta,
]

DESCRIPTOR_KINDS: dict[str, type] = {cls.__name__: cls for cls in get_args(TransformDescriptor)}


def _refuse_non_descriptor(d) -> None:
    if not isinstance(d, _Descriptor):
        raise DomainError(f"expected a catalog transform descriptor, got {type(d).__name__}")


def lt_eval(d: TransformDescriptor, p) -> complex:
    """Evaluate the closed-form transform at real or complex p.

    Real p is checked against the kind's stated region of validity
    (DomainError outside it, PoleError on a singular point); complex p is
    evaluated on the principal branch of p^nu with only the pole guard.
    Anything that is not a catalog descriptor raises DomainError.
    """
    _refuse_non_descriptor(d)
    # real p: any number without imaginary part, numpy's real scalars included
    if isinstance(p, numbers.Complex) and p.imag == 0:
        pr = float(p.real)
        d.check_real_validity(pr)
        return complex(d.value(pr))
    return complex(d.value(p))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and singularity hint for the forward-transform quadrature.

    ``singular_power`` is the exponent rho of a known t^rho behavior of f
    at 0 (rho = 0 for bounded f); it drives the t = u^(1/(1+rho))
    substitution that makes the integrand bounded at the origin.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    singular_power: float = 0.0

    def __post_init__(self):
        refuse_non_finite(self)
        if not (self.rel_tol >= 0 and self.abs_tol >= 0 and self.rel_tol + self.abs_tol > 0):
            raise DomainError(f"QuadratureConfig needs rel_tol, abs_tol >= 0, not both 0, got {self}")
        if self.singular_power <= -1.0:
            raise DomainError("singular_power must exceed -1 for integrability")


DEFAULT_QUADRATURE_CONFIG = QuadratureConfig()

#: Decades of e^{-pT} decay at which the forward integral is truncated.
_TAIL_DECADES = 20.0


def lt_forward_numeric(
    f: Callable[[float], float], p: float, cfg: QuadratureConfig = DEFAULT_QUADRATURE_CONFIG
) -> float:
    """Numerically compute the forward transform integral of e^{-pt} f(t).

    The integral is truncated at T with e^{-pT} about ``_TAIL_DECADES``
    orders below one, far under the requested tolerance for the
    sub-exponential integrands this package produces.
    """
    if not p > 0:
        raise DomainError(f"forward transform requires p > 0, got {p}")
    s = 1.0 / (1.0 + cfg.singular_power)
    T = _TAIL_DECADES * math.log(10.0) / p

    def integrand(u: float) -> float:
        if u <= 0.0:
            # limit of f(t) t^{-rho} * s * u^{s-1+rho*s} is finite; the
            # quadrature never lands exactly on 0 except for probing
            return 0.0
        t = u**s
        return f(t) * math.exp(-p * t) * s * u ** (s - 1.0)

    # lazy: only this oracle uses scipy.integrate, a third of the package's import time
    from scipy.integrate import quad

    upper = T ** (1.0 / s)
    out = quad(integrand, 0.0, upper, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=400, full_output=1)
    if len(out) >= 4:
        raise QuadratureFailure(f"forward transform quadrature: {out[3]}")
    value, abserr = out[0], out[1]
    if abserr > 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise QuadratureFailure(
            f"forward transform error estimate {abserr} exceeds tolerance at p={p}"
        )
    return value


@dataclass(frozen=True)
class InversionConfig:
    """Contour inversion settings: the node count M of the mpmath
    fixed-Talbot stage (it sums at M and 2M nodes; the double-precision
    stage always uses 32 and 64) and the accuracy target that both stages'
    node-doubling self-checks use; an infinite target, which would pass
    every check, raises DomainError."""

    M: int = 64
    precision_target: float = 1e-8

    def __post_init__(self):
        refuse_non_finite(self)
        refuse_non_count(self.M, "M", 16)
        if not self.precision_target > 0:
            raise DomainError(f"precision_target must be positive, got {self.precision_target}")


DEFAULT_INVERSION_CONFIG = InversionConfig()

#: Contours sigma + mu theta cot(alpha theta) + i nu theta, theta in (-pi, pi),
#: scaled by N/t or r/t: the optimised (modified) Talbot contour of
#: Trefethen, Weideman & Schmelzer, BIT 46 (2006), and fixed Talbot.
_MODIFIED_TALBOT = (-0.6122, 0.5017, 0.6407, 0.2645)
_FIXED_TALBOT = (0.0, 1.0, 1.0, 1.0)

#: Node counts of the double-precision stage.  The largest weight
#: e^{Re z t} on the modified contour is e^{0.171 N}, about 6e4 at N = 64,
#: so rounding stays near 1e-11 and node doubling still works in float64.
_DOUBLE_NODES = (32, 64)

#: A singular point p whose weight e^{Re(p) t} is below this fraction of
#: the precision target cannot move the inverse; the guard ignores it.
_NEGLIGIBLE = 1e-6


def _encloses(points, t: float, scale: float, contour) -> bool:
    """Whether every point p lies left of the contour scaled by scale/t.

    At height Im(p t/scale) = nu theta the contour's real part is
    sigma + mu theta cot(alpha theta); above nu pi it has no height left.
    """
    sigma, mu, alpha, nu = contour
    for p in points:
        w = p * t / scale
        theta = abs(w.imag) / nu
        if theta >= math.pi:
            return False
        edge = 1.0 / alpha if theta == 0.0 else theta / math.tan(alpha * theta)
        if not w.real < sigma + mu * edge:
            return False
    return True


def _modified_talbot_sum(F, t: float, N: int) -> tuple[float, float]:
    """Midpoint rule on the modified Talbot contour z(theta), with
    theta_k = -pi + (k + 1/2) 2 pi/N.  By conjugate symmetry
    f ~ (2/N) sum_{theta_k > 0} Im[e^{z_k t} F(z_k) z'(theta_k)].
    Returns the sum and its rounding estimate eps * sum |terms|."""
    sigma, mu, alpha, nu = _MODIFIED_TALBOT
    h = 2.0 * math.pi / N
    acc = mag = 0.0
    for k in range(N // 2):
        theta = (k + 0.5) * h
        cot = 1.0 / math.tan(alpha * theta)
        z = (N / t) * complex(sigma + mu * theta * cot, nu * theta)
        # z'(theta) t/N
        dz = complex(mu * (cot - alpha * theta * (1.0 + cot * cot)), nu)
        term = cmath.exp(z * t) * F(z) * dz
        acc += term.imag
        mag += abs(term)
    return 2.0 / t * acc, 2.0 / t * sys.float_info.epsilon * mag


def _talbot_sum(F, t: float, M: int, r: float, dps: int) -> float:
    """Fixed-Talbot rule: f(t) ~ (r/(M t)) sum_k Re[e^{p_k t} F(p_k) gamma_k]
    on the contour p(theta) = (r/t) theta (cot theta + i)."""
    with mp.workdps(dps):
        tt = mp.mpf(t)
        rr = mp.mpf(r)
        p0 = rr / tt
        acc = (mp.exp(p0 * tt) * F(p0)).real / 2
        for k in range(1, M):
            theta = mp.pi * k / M
            cot = mp.cot(theta)
            pk = rr / tt * theta * (cot + 1j)
            gam = 1 + 1j * theta * (1 + cot**2) - 1j * cot
            acc += (mp.exp(pk * tt) * F(pk) * gam).real
        return float(rr / (M * tt) * acc)


def _contour_scale(strip: float | None, rhp: float, t: float, M: int) -> float:
    r = 2.0 * M / 5.0
    if strip is not None:
        # two-sided: the contour's rightmost point r/t stays inside Re p < strip
        r = min(r, 0.5 * t * strip)
    if rhp > 0.0:
        r = max(r, 1.5 * t * rhp)
    return r


def _settled(coarse: float, fine: float, target: float) -> bool:
    """Both stages' node-doubling test: fine is finite and near coarse."""
    return math.isfinite(fine) and abs(fine - coarse) <= 10.0 * target * max(abs(fine), 1.0)


def lt_invert_numeric(
    d: TransformDescriptor,
    t: float,
    cfg: InversionConfig = DEFAULT_INVERSION_CONFIG,
) -> float:
    """Numerically invert a catalog transform at time t on a Talbot contour.

    The descriptor supplies the contour facts: strip bounds for two-sided
    kinds, right-half-plane pole locations and singular points off the
    negative real axis.  Anything else raises DomainError.

    A one-sided descriptor with known singular points and none in the
    right half-plane is first summed in double precision on the modified
    Talbot contour at 32 and 64 nodes; the 64-node value is returned when
    it is finite, the two agree within 10x the precision target and the
    rounding estimate is below it (relative for O(1) values, absolute
    below).  Otherwise the fixed-Talbot sum runs in mpmath at cfg.M and
    2 cfg.M nodes, and the 2M-node value is returned after the same
    finiteness and agreement check; failing it raises InversionFailure.

    A stage is used only when every known singular point p with weight
    e^{Re(p) t} not far below the target lies inside both of its
    contours: node doubling cannot see a point outside both, whose
    residue the two sums would miss alike.  When the mpmath contours miss
    one, InversionFailure is raised.  A gamma-factor product of outputs
    alone, a density on t < 0, gives 0.0 at once.
    """
    _refuse_non_descriptor(d)
    if not 0 < t < math.inf:
        raise DomainError(f"inversion requires a finite t > 0, got {t}")
    if isinstance(d, _GammaFactors) and all(s < 0 for _, _, s in d._factors):
        return 0.0  # outputs alone: u = -(sum of outputs) <= 0
    if d.inversion_exponent() > 2.0 + 1e-12:
        raise DomainError("denominator exponent above 2 puts singularities outside the "
                          "Talbot contour; refusing inversion")
    F, target = d.value, cfg.precision_target
    known, strip, rhp = d.singular_points(), d.strip_sigma(), d.rhp_sigma()
    floor = math.log(_NEGLIGIBLE * target)
    points = [p for p in known or () if p.real * t > floor]
    if (known is not None and strip is None and rhp <= 0.0
            and all(_encloses(points, t, N, _MODIFIED_TALBOT) for N in _DOUBLE_NODES)):
        (coarse, _), (fine, rounding) = (_modified_talbot_sum(F, t, N) for N in _DOUBLE_NODES)
        if _settled(coarse, fine, target) and rounding <= target * max(abs(fine), 1.0):
            return fine

    results = []
    for M in (cfg.M, 2 * cfg.M):
        r = _contour_scale(strip, rhp, t, M)
        if not _encloses(points, t, r, _FIXED_TALBOT):
            raise InversionFailure(
                f"a singular point of the transform lies outside the {M}-node "
                f"contour at t={t}; its residue would be missed"
            )
        dps = 16 + int(0.18 * max(M, 2.5 * r))
        results.append(_talbot_sum(F, t, M, r, dps))
    coarse, fine = results
    if not _settled(coarse, fine, target):
        raise InversionFailure(
            f"node doubling moved the inverse at t={t} by {abs(fine - coarse):.3e} "
            f"(target {target:.1e}); transform may violate contour assumptions"
        )
    return fine
