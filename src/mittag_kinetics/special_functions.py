"""Mittag-Leffler function family and related special-function series.

The central object is the three-parameter Mittag-Leffler function

    E[nu, mu, gamma](z) = sum_k  (gamma)_k / k! * z^k / Gamma(mu + k*nu)

with (gamma)_k the rising factorial.  gamma=1 collapses the Pochhammer
weight and gives the two-parameter function; mu=1 as well gives the
classical one-parameter function that interpolates between exponential
(nu=1) and power-law relaxation.  The module also provides the
Hartley-Lorenzo response functions (both reducible to the two-parameter
family), a generalized Wright series and the confluent hypergeometric
1F1 series.

All series share one truncation contract (``SeriesConfig``), applied by
one float64 driver, ``_sum_series``, to the terms each series generates:
terms are accumulated with Kahan's compensated summation, built in log
space so large Gamma denominators never overflow, and the sum is accepted
once the term magnitude stays below ``rel_tol`` times the partial sum for
three consecutive terms (alternating series can produce a single
deceptively small term).  Arguments beyond ``max_abs_z`` are refused with
``DomainError``, as are NaN or infinite parameters (``MLParams``,
``WrightParams``, ``hyp1f1``).  When a term would overflow and no contour
value is taken, one log-space scan of the same terms (``_log10_peak``)
finds the largest, which sets the mpmath working precision.  The scan
refuses at once, without the rerun, a value whose terms have one sign and
sum beyond float range (``DomainError``) and one whose terms cannot fall
low enough within ``max_terms`` for the rerun to stop (``NonConvergence``).

Alternating arguments are the numerically hostile direction: the terms
of E[1/2](-6) peak fourteen orders of magnitude above the final sum, so
a double-precision summation returns noise while appearing to converge.
``ml_eval`` therefore tracks the peak term magnitude and, when the
cancellation estimate would eat into the promised digits (or a term
would overflow), evaluates in four stages:

1. the float series, which alone settles mild arguments, domain
   refusals and term-budget failures.  For an integer order the
   hypergeometric stage takes (nu = 1..4) the float sum is kept only
   when its estimated error, cancellation times the rounding of the
   terms' logs, stays within 1e-12 of it; otherwise when its peak term
   is at most 300 times the sum;
2. the trapezoid rule on Garrappa's optimal parabolic contour for the
   inverse Laplace transform of s^(nu*gamma-mu) / (s^nu - z)^gamma,
   in double precision, about 1e-13 relative (2e-13 at worst in seeded
   sweeps against the mpmath series).  Route A: z < 0 with
   0 < nu < 1 and 0 < gamma <= 3 (no pole on the principal sheet, only
   the branch point at 0; a larger gamma leaves the absolute target far
   above E).  Route B: gamma = 1 or 2 with 0 < nu < 2 and either
   sign of z (poles of order gamma: the contour runs left of every pole,
   between the branch point at 0 and the nearest one, and every pole adds
   its residue).  A contour value is kept only if the parameter search
   met a tolerance of 1e-13 or better within 200 nodes a side and both
   its rounding and its truncation estimate (the last node's term) stay
   within 1e-13 of the result.  A double sum that fails this guard,
   mostly near a zero of E or for an E small against the absolute
   target, is redone in numpy's extended long double where that is wider
   (x86: 64-bit mantissa, target 1e-18, the same guard with its epsilon).
   A double sum whose node terms pass float range (inf/inf at large
   gamma) gives the value up to the next stage;
3. for integer nu = n <= 4, the generalized hypergeometric series
   1F_n(gamma; mu/n, .., (mu+n-1)/n; z/n^n) / Gamma(mu) that Gauss's
   multiplication formula makes of the series, summed by mpmath's
   ``hyper`` in fixed point at 17 digits, which it widens itself while
   the sum cancels (about 0.1 ms for nu = 2, a tenth of the rerun below;
   before rounding to float, within 1e-17 relative of a 400-digit
   series in seeded sweeps);
4. otherwise, and for every other input, the series rerun in mpmath
   arbitrary precision, widened until at least fifteen significant
   digits survive the cancellation.  It reads its terms from a generator
   as the float driver does (``_ml_terms_mp`` next to ``_ml_terms``).
   Among integer orders it serves only values mpmath's ``hyper`` gives
   up on: an exact or near zero of E.

``wright_eval`` uses the same mpmath rerun.  A value beyond float range
is refused with ``DomainError`` rather than returned as ``inf``.

``_ml_eval_mesh`` evaluates one parameter triple over an ndarray of z
(the residual quadrature's mesh, through ``kinetics.SolutionSeries``):
stage 1 for every point at once, the z-free part of the term logs read
from ``_ml_terms`` at z = 1.  Every point is summed to the term count
``_sum_series`` reads at the point of largest |z|, whose terms are the
largest at every k; the stop rule is checked once, at that count, and
then the float path's acceptance rule (``_float_sum_kept``, which both
call).  Every point these do not keep goes through ``ml_eval`` one by
one, so stages 2-4 and every error are the scalar path's.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

import mpmath as mp
import numpy as np

from .errors import DomainError, NonConvergence, PoleError, float_power
from .errors import refuse_non_count, refuse_non_finite

#: Absolute tolerance used to decide that a Gamma argument sits on a pole.
_POLE_TOL = 1e-12

#: Peak-term to final-sum ratio beyond which the double-precision sum is
#: rejected and the mpmath fallback takes over.  Float cancellation error
#: is roughly a few * eps * peak, so 300 keeps it near 1e-13; the rounding
#: of large term logs comes on top (see _FLOAT_LOG_SLACK, which replaces
#: this ratio for the orders the hypergeometric stage takes).
_MP_FALLBACK_RATIO = 300.0

#: Integer orders nu = n up to this one have the hypergeometric stage.
_HYPER_MAX_ORDER = 4

#: The float sum of an integer order the hypergeometric stage takes is
#: kept only when peak * eps * (_FLOAT_LOG_SLACK + 3 |ln peak|), its
#: construction error, is within _FLOAT_REL_ERR of |sum|.  A term built
#: as exp(log|t_k|) carries the rounding of its log, eps times the log's
#: parts (log-Gamma, k log|z|, log-Pochhammer), which are larger than
#: |ln t_k|: the error per unit of peak/|sum| stayed below
#: eps (33 + 3 |ln peak|) over 20,000 float sums checked against the
#: mpmath series (nu = 1-4, gamma up to 64, mu up to 40, |z| <= 200, and
#: every call of a reaction-diffusion benchmark pass).
_FLOAT_LOG_SLACK = 60.0
_FLOAT_REL_ERR = 1e-12

#: Bits of z / n^n handed to mpmath's hypergeometric sum, more than its
#: fixed-point sum works at for a 17-digit result (about 3,000 bits): the
#: rounding of z / 27 (n = 3) then never shows, not even at a zero of E.
_HYPER_ARG_BITS = 4096

#: Log of the largest term magnitude the float path will exponentiate.
_LOG_OVERFLOW = 690.0

#: Term magnitude below which a decaying tail is cut off, and the least
#: |sum| the cancellation ratio is taken against.
_ABS_FLOOR = 1e-300

#: The mpmath rerun at dps digits stops after three terms in a row below
#: 10^-(dps + _MP_CUT_GUARD) times the largest term before them.
_MP_CUT_GUARD = 5

#: Slack, in natural-log units, for rounding in a float log-space scan of
#: the terms before it proves a claim about their exact values.
_LOG_SCAN_SLACK = 1e-6

#: Garrappa's contour: the precisions its sum is tried in, each with its
#: target accuracy and the relaxed ones the parameter search may fall
#: back to before that precision is given up, and the most trapezoid
#: nodes on each side of the real axis.  Extended precision (numpy's
#: long double, where it is wider than double as on x86) takes the values
#: whose double sum fails the rounding guard, mostly those near a zero
#: of E, before the mpmath series does.
_CONTOUR_PRECISIONS = ((np.float64, (1e-15, 1e-14, 1e-13)),) + (
    ((np.longdouble, (1e-18, 1e-17, 1e-16)),) if np.finfo(np.longdouble).eps < 1e-18 else ()
)
_CONTOUR_MAX_NODES = 200

#: Largest gamma route A takes.  Its 1e-15 target is absolute, and E
#: falls ever further below the integrand on the contour as gamma grows.
#: The rounding and truncation guards do not see discretization error:
#: without this cap MLParams(0.928, 26.2, 64.0) at -4.48 passes both (3e-16
#: of the value) and returns -2.29e-23 for -3.05e-34.
_CONTOUR_MAX_GAMMA = 3.0

#: Largest accepted rounding estimate eps * h * sum|S_k| / (2 pi |E|), eps
#: that of the precision summed in, and truncation estimate h |S_N| / (2 pi
#: |E|) of a contour value; beyond it the value has lost its accuracy.
_CONTOUR_ROUNDING_MAX = 1e-13

#: Values of k per block of the mesh evaluator, which holds the terms of
#: this many k at every point at once (never max_terms of them).
_MESH_BLOCK = 32

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class MLParams:
    """Parameter triple (nu, mu, gamma) of the Mittag-Leffler family.

    ``nu`` scales the index inside the Gamma denominator, ``mu`` shifts it,
    and ``gamma`` is the Pochhammer (rising-factorial) index.  This package
    restricts all three to finite reals with nu > 0, mu > 0 and gamma != 0.
    """

    nu: float
    mu: float = 1.0
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.nu < math.inf:
            raise DomainError(f"nu must be positive and finite, got {self.nu}")
        if not 0 < self.mu < math.inf:
            raise DomainError(f"mu must be positive and finite, got {self.mu}")
        if not (self.gamma != 0 and math.isfinite(self.gamma)):
            raise DomainError(f"gamma must be nonzero and finite, got {self.gamma}")


@dataclass(frozen=True)
class SeriesConfig:
    """Termination and domain policy for all series in this module."""

    rel_tol: float = 1e-14
    max_terms: int = 10_000
    max_abs_z: float = 50.0

    def __post_init__(self) -> None:
        refuse_non_finite(self)
        if not (0 < self.rel_tol < 1):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        refuse_non_count(self.max_terms, "max_terms", 1)


DEFAULT_SERIES_CONFIG = SeriesConfig()


@dataclass(frozen=True)
class WrightParams:
    """Gamma-weight lists ((a_j, A_j); (b_j, B_j)) of the generalized Wright series.

    The series converges for all z when 1 + sum(B_j) - sum(A_j) >= 0; parameter
    sets violating that, or holding a NaN or infinite entry, are rejected at
    construction.
    """

    upper: tuple[tuple[float, float], ...] = ()
    lower: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", tuple((float(a), float(aa)) for a, aa in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(bb)) for b, bb in self.lower))
        refuse_non_finite(self)
        margin = 1.0 + sum(bb for _, bb in self.lower) - sum(aa for _, aa in self.upper)
        if margin < 0:
            raise DomainError(
                f"convergence condition 1 + sum(B) - sum(A) >= 0 violated (margin {margin})"
            )


def _near_nonpositive_int(x: float) -> bool:
    r = round(x)
    return r <= 0 and abs(x - r) < _POLE_TOL


def _log_gamma(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign of Gamma(x)) for x off the poles; the log is
    inf where it passes float range (x above about 2.5e305)."""
    try:
        log_abs = math.lgamma(x)
    except OverflowError:
        log_abs = math.inf
    # Gamma is negative exactly on the intervals (-2m-1, -2m)
    return log_abs, -1.0 if x < 0.0 and math.floor(x) % 2 else 1.0


def _sum_series(
    terms: Iterator[tuple[float, float]], cfg: SeriesConfig, what: str
) -> tuple[float | None, float, int]:
    """Sum a series in float64 under the ``SeriesConfig`` contract.

    ``terms`` yields (log|t_k|, s_k) for the term t_k = s_k e^(log|t_k|):
    s_k is the sign of a term built in log space, or, for a term built by
    a float recurrence, the term itself with 0 in place of its log.  A log
    of -inf marks a term that vanishes exactly: it counts toward
    ``cfg.max_terms`` and leaves the stop state alone.  The iterator ending
    means the series terminated exactly.  Terms are summed with Kahan
    compensation until three in a row fall below ``rel_tol`` times the
    sum, or one falls below ``_ABS_FLOOR`` on the decaying tail.

    Returns (total, largest term magnitude, terms read), or (None, inf,
    terms read) as soon as a term's log passes ``_LOG_OVERFLOW``.  Raises
    ``NonConvergence`` when the budget runs out first.
    """
    total = comp = peak = 0.0
    small_run = 0
    prev_mag = math.inf
    rel_tol, abs_floor, exp, vanished = cfg.rel_tol, _ABS_FLOOR, math.exp, -math.inf
    k = -1
    for k, (log_mag, sign) in zip(range(cfg.max_terms), terms):
        if log_mag > _LOG_OVERFLOW:
            return None, math.inf, k + 1
        if log_mag == vanished:
            continue
        term = sign * exp(log_mag)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t

        mag = abs(term)
        if mag > peak:
            peak = mag
        # the floor cutoff only applies on the decaying tail, never while
        # terms are still growing toward the series peak
        if mag < abs_floor and k > 0 and mag <= prev_mag:
            break
        prev_mag = mag
        if mag < rel_tol * abs(total):
            small_run += 1
            if small_run >= 3:
                break
        else:
            small_run = 0
    else:  # the budget ran out, or the terms did: an exact end
        if k + 1 == cfg.max_terms:
            raise NonConvergence(f"{what} did not converge in {cfg.max_terms} terms")
    return total, peak, k + 1


def _log10_peak(terms: Iterator[tuple[float, float]], cfg: SeriesConfig, what: str) -> float:
    """log10 of the largest term magnitude of a series whose float sum
    overflowed, by a scan of ``terms`` (as for ``_sum_series``) in log space
    alone, over at most ``cfg.max_terms`` terms and until they fall 2000
    (natural log units) below the largest.

    Raises ``DomainError`` when the terms read have one sign and sum beyond
    float range or a term's log is itself beyond it (a Gamma argument above
    about 2.5e305), and ``NonConvergence`` when none of ``cfg.max_terms``
    terms falls below the cut that stops ``_mp_sum`` at its first precision.
    """
    best = -math.inf
    scaled = 0.0  # the sum of the magnitudes read, over e^best
    dip = 0.0  # the least log|t_k| less the log of the largest term before it
    signs = set()  # sign < 0 of each term read
    k = -1
    for k, (log_mag, sign) in zip(range(cfg.max_terms), terms):
        if log_mag == -math.inf:
            continue
        signs.add(sign < 0.0)
        if log_mag > best:
            if log_mag == math.inf:  # no working precision reaches this term
                raise DomainError(f"{what}: the log of term {k} is beyond float range")
            scaled = scaled * math.exp(best - log_mag) + 1.0
            best = log_mag
        else:
            scaled += math.exp(log_mag - best)
            dip = min(dip, log_mag - best)
            if log_mag < best - 2000.0:
                break
    log_sum = best + math.log(scaled)
    if len(signs) == 1 and log_sum > _LOG_FLOAT_MAX + _LOG_SCAN_SLACK:
        raise DomainError(f"{what}: terms of one sign sum to e^{log_sum:.1f}, beyond float range")
    log10_peak = best / math.log(10.0)
    cut_digits = _mp_dps(log10_peak) + _MP_CUT_GUARD
    if k + 1 == cfg.max_terms and dip > -cut_digits * math.log(10.0) + _LOG_SCAN_SLACK:
        raise NonConvergence(
            f"{what} did not converge in {cfg.max_terms} terms: none falls "
            f"{cut_digits} digits below the largest before it"
        )
    return log10_peak


def ml_eval(params: MLParams, z: float, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float:
    """Evaluate the three-parameter Mittag-Leffler series at real z.

    Terms are built in log space (log-Pochhammer, log-factorial and
    log-Gamma accumulate incrementally) with explicit sign tracking, then
    summed by ``_sum_series``.  If the peak term magnitude dwarfs
    the final sum -- the cancellation regime of strongly negative z --
    or a term would overflow, the value comes from Garrappa's parabolic
    contour in double precision (z < 0 with 0 < nu < 1 and 0 < gamma <= 3, or
    gamma = 1 or 2 with 0 < nu < 2; about 1e-13 relative) when that passes
    its accuracy guard in double or, failing that, in extended precision;
    then, for integer nu <= 4, from mpmath's generalized hypergeometric
    sum (``_ml_hyper``), where the float sum must also keep its estimated
    error from building the terms within 1e-12; and otherwise from the
    series redone in mpmath at a working precision wide enough to leave
    fifteen clean digits.

    Raises ``DomainError`` for NaN z, |z| beyond ``cfg.max_abs_z`` or a value
    beyond float range, and ``NonConvergence`` if the termination
    criterion is not met within ``cfg.max_terms`` terms.
    """
    z = float(z)
    if not abs(z) <= cfg.max_abs_z:
        raise DomainError(
            f"|z| = {abs(z)} exceeds the configured series domain bound {cfg.max_abs_z}"
        )
    if z == 0.0:
        return 1.0 / math.gamma(params.mu) if params.mu < 170 else math.exp(-_log_gamma(params.mu)[0])

    what = "Mittag-Leffler series"
    order = _hyper_order(params)
    total, peak, _ = _sum_series(_ml_terms(params, z), cfg, what)
    if total is not None and _float_sum_kept(order, total, peak):
        return total
    value = _ml_contour(params, z)
    if value is None and order:
        value = _ml_hyper(params, z, order)
    if value is not None:
        return value
    if total is None:
        log10_peak = _log10_peak(_ml_terms(params, z), cfg, what)
    else:
        log10_peak = math.log10(peak)
    return _mp_sum(functools.partial(_ml_terms_mp, params, z), cfg, log10_peak, what)


def _ml_terms(params: MLParams, z: float) -> Iterator[tuple[float, float]]:
    """(log|term_k|, sign_k) of the Mittag-Leffler series at z != 0.  The
    terms end where mu + k nu passes float range for lgamma (about
    2.5e305): 1/Gamma is 0 in float there and at every later k."""
    nu, mu, gam = params.nu, params.mu, params.gamma
    lgamma, log = math.lgamma, math.log
    log_abs_z = log(abs(z))
    sign_z = 1.0 if z > 0 else -1.0
    # Only the slowly-growing log |(gamma)_k / k!| piece is accumulated;
    # the dominant k*log|z| piece is rebuilt fresh each term, otherwise
    # rounding in the running log compounds as O(k^2 eps) over long series.
    log_poch = 0.0
    sign_front = 1.0
    try:
        for k in itertools.count():
            yield log_poch + k * log_abs_z - lgamma(mu + k * nu), sign_front
            g = gam + k
            if g == 0.0:
                return  # Pochhammer hit zero: the series terminated exactly
            if gam != 1.0:
                log_poch += log(abs(g)) - log(k + 1.0)
            if g < 0:
                sign_front = -sign_front
            sign_front *= sign_z
    except OverflowError:  # raised by lgamma alone
        return


def _hyper_order(params: MLParams) -> int:
    """nu when it is an integer order the hypergeometric stage takes, else 0."""
    n = int(params.nu)
    return n if n == params.nu and n <= _HYPER_MAX_ORDER else 0


def _float_sum_kept(order: int, total, peak):
    """Whether stage 1 keeps a float sum ``total`` whose largest term has
    magnitude ``peak`` (floats, or arrays of them and then a mask): by its
    construction error for an integer ``order`` from ``_hyper_order``, else
    by the peak/|sum| ratio (see ``_FLOAT_LOG_SLACK``)."""
    if order:
        if isinstance(peak, np.ndarray):
            log_peak = np.log(np.maximum(peak, _ABS_FLOOR))
        else:
            log_peak = math.log(max(peak, _ABS_FLOOR))
        return peak * _EPS * (_FLOAT_LOG_SLACK + 3.0 * abs(log_peak)) <= _FLOAT_REL_ERR * abs(total)
    return (peak <= _MP_FALLBACK_RATIO * abs(total)) | (peak <= _MP_FALLBACK_RATIO * _ABS_FLOOR)


def _ml_eval_mesh(
    params: MLParams, z: np.ndarray, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG
) -> np.ndarray:
    """``ml_eval`` at every point of the ndarray z, with the float series
    of stage 1 summed for the whole mesh at once (``_ml_mesh_sums``), to
    the term count of the point of largest |z|.

    A point's sum is kept when it meets the stop rule of ``_sum_series``
    at that count and ``_float_sum_kept``, the rule ``ml_eval`` keeps it
    by.  Every other point -- z = 0, NaN or beyond ``cfg.max_abs_z``, a
    sum refused, overflowing or short of terms -- goes through
    ``ml_eval`` one by one, which gives its value or raises its error.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    out = np.empty(flat.shape)
    done = np.zeros(flat.shape, dtype=bool)
    live = np.flatnonzero((np.abs(flat) <= cfg.max_abs_z) & (flat != 0.0))
    if live.size:
        kept, totals = _ml_mesh_sums(params, flat[live], cfg)
        out[live[kept]] = totals[kept]
        done[live[kept]] = True
    for i in np.flatnonzero(~done):
        out[i] = ml_eval(params, float(flat[i]), cfg)
    return out.reshape(z.shape)


def _ml_mesh_sums(params: MLParams, z: np.ndarray, cfg: SeriesConfig) -> tuple[np.ndarray, np.ndarray]:
    """(kept, total) of the float Mittag-Leffler series at every point of
    a 1-D array of finite z != 0.

    Every point is summed over the n terms ``_sum_series`` reads at the
    point of largest |z|, whose term is the largest at every k: a point
    that needs more has a small sum and fails the tail check below.  The
    z-free part of the term logs, log|(gamma)_k / k!| - lgamma(mu + k nu),
    and its sign are the terms ``_ml_terms`` yields at z = 1; per block of
    ``_MESH_BLOCK`` values of k the terms of every point come from one
    outer operation with k log|z|, summed with Kahan compensation.  A point
    is kept when none of its term logs passed ``_LOG_OVERFLOW``, its last
    three terms are below ``rel_tol`` times its sum (the stop rule of
    ``_sum_series``) or those terms at z = 1 ended (the Pochhammer factor
    ended the series), and ``_float_sum_kept`` keeps its sum.  When the
    far point does not converge within ``max_terms`` no point is kept.
    """
    far = float(z[np.argmax(np.abs(z))])
    try:
        _, _, n = _sum_series(_ml_terms(params, far), cfg, "Mittag-Leffler series")
    except NonConvergence:
        return np.zeros(z.size, dtype=bool), np.zeros(z.size)
    unit = _ml_terms(params, 1.0)
    z_free, fronts = np.array(list(itertools.islice(unit, n))).reshape(n, 2).T[:, :, None]
    ended = next(unit, None) is None
    ks = np.arange(n, dtype=float)[:, None]
    log_abs_z = np.array([math.log(abs(x)) for x in z.tolist()])
    total, comp, peak = np.zeros(z.size), np.zeros(z.size), np.zeros(z.size)
    over = np.zeros(z.size, dtype=bool)
    tail = np.empty((0, z.size))  # magnitudes of the last three terms
    for block in (slice(k0, k0 + _MESH_BLOCK) for k0 in range(0, n, _MESH_BLOCK)):
        signs = np.where(z < 0.0, fronts[block] * (-1.0) ** ks[block], fronts[block])
        log_mag = ks[block] * log_abs_z + z_free[block]
        if log_mag.max() > _LOG_OVERFLOW:
            over |= (log_mag > _LOG_OVERFLOW).any(axis=0)
            np.minimum(log_mag, _LOG_OVERFLOW, out=log_mag)
        mag = np.exp(log_mag)
        for term in mag * signs:
            y = term - comp
            running = total + y
            comp = (running - total) - y
            total = running
        peak = np.maximum(peak, mag.max(axis=0))
        tail = np.concatenate((tail, mag[-3:]))[-3:]
    converged = ended | (tail < cfg.rel_tol * np.abs(total)).all(axis=0)
    kept = ~over & converged & _float_sum_kept(_hyper_order(params), total, peak)
    return kept, total


def _ml_terms_mp(params: MLParams, z: float) -> Iterator[mp.mpf]:
    """The Mittag-Leffler series terms at z as mpf, at the working precision."""
    zz = mp.mpf(z)
    # Gamma arguments must be formed in mpf arithmetic: rounding
    # mu + k*nu in float64 perturbs huge terms by ~1e-13 relative,
    # which cancellation amplifies into a completely wrong sum
    # (so is the Pochhammer factor gamma + k, for the same reason)
    nu, mu, gam = mp.mpf(params.nu), mp.mpf(params.mu), mp.mpf(params.gamma)
    front = mp.mpf(1)
    for k in itertools.count():
        yield front / mp.gamma(mu + nu * k)
        g = gam + k
        if g == 0:
            return  # Pochhammer hit zero: the series terminated exactly
        front = front * g * zz / (k + 1)


def _ml_hyper(params: MLParams, z: float, n: int) -> float | None:
    """E[n, mu, gamma](z) for integer n as the generalized hypergeometric
    series 1F_n(gamma; mu/n, (mu+1)/n, .., (mu+n-1)/n; z/n^n) / Gamma(mu),
    by Gauss's multiplication formula (DLMF 5.5.6)
    Gamma(mu + nk) = Gamma(mu) n^(nk) prod_j ((mu + j)/n)_k.

    mpmath sums it in fixed point and raises its own working precision
    while the sum cancels; the lower parameters go in as exact rationals.
    Returns None when mpmath gives up (an exact or near zero of E), and
    raises ``DomainError`` when the value exceeds float range.
    """
    p, q = params.mu.as_integer_ratio()
    lower = [(p + j * q, q * n) for j in range(n)]
    with mp.workdps(17):
        x = mp.fdiv(z, n**n, prec=_HYPER_ARG_BITS)
        try:
            series = mp.hyper([params.gamma], lower, x)
        except (mp.libmp.NoConvergence, ValueError):  # ValueError: precision budget spent
            return None
        value = float(series * mp.rgamma(params.mu))
    if not math.isfinite(value):
        raise _beyond_float_range(params, z)
    return value


def _mp_dps(log10_peak: float) -> int:
    """First working precision of the mpmath rerun of a series whose
    largest term is 10^log10_peak."""
    return 25 + max(0, int(log10_peak))


def _mp_sum(make_terms: Callable[[], Iterator], cfg: SeriesConfig, log10_peak: float, what: str) -> float:
    """Sum a series in mpmath, widening precision until cancellation leaves
    at least fifteen significant digits.

    ``make_terms`` is called once per attempt, under the working precision,
    and returns a generator of the terms as mpf, read as ``_sum_series``
    reads its terms: a 0 term vanished and counts toward ``cfg.max_terms``,
    and the generator ending means the series terminated exactly.
    """
    dps = _mp_dps(log10_peak)
    for _ in range(4):
        with mp.workdps(dps):
            total = mp.mpf(0)
            peak = mp.mpf(0)
            small_run = 0
            cut = mp.mpf(10) ** (-(dps + _MP_CUT_GUARD))
            k = -1
            for k, term in zip(range(cfg.max_terms), make_terms()):
                mag = abs(term)
                if mag == 0:
                    continue
                total += term
                if mag > peak:
                    peak = mag
                if mag < cut * peak:
                    small_run += 1
                    if small_run >= 3:
                        break
                else:
                    small_run = 0
            else:  # the budget ran out, or the terms did: an exact end
                if k + 1 == cfg.max_terms:
                    raise NonConvergence(
                        f"{what} did not converge in {cfg.max_terms} terms (mp fallback, dps={dps})"
                    )
            if total == 0:
                lost = float(dps)
            elif peak > abs(total):
                lost = float(mp.log10(peak / abs(total)))
            else:
                lost = 0.0
            if dps - lost >= 15.0:
                value = float(total)
                if not math.isfinite(value):
                    raise DomainError(f"{what}: value {mp.nstr(total, 5)} exceeds float range")
                return value
        dps = int(lost) + 22
    raise NonConvergence(f"{what}: cancellation exceeded the precision budget")


def _phi(s: complex) -> float:
    """Parameter of the parabola mu (1 + iu)^2 through s: (Re s + |s|) / 2."""
    return (s.real + abs(s)) / 2.0


def _ml_contour(params: MLParams, z: float) -> float | None:
    """E[nu, mu, gamma](z) by the trapezoid rule on an optimal parabolic
    contour (R. Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350-1369, after
    Weideman & Trefethen, Math. Comp. 76 (2007) 1341-1356), at t = 1.

    E is the inverse Laplace transform of s^(nu gamma - mu) / (s^nu - z)^gamma.
    The contour runs left of every pole of the principal sheet (of order
    gamma), between the branch point at 0 and the pole of least ``_phi``,
    and every pole adds its residue.  The sum is tried in each of
    ``_CONTOUR_PRECISIONS`` in turn, kept by ``_CONTOUR_ROUNDING_MAX``.
    Returns None outside routes A and B (see the module docstring), when
    the double sum is not finite, or when the value fails its accuracy
    guard in every precision; raises ``DomainError`` when a residue
    exceeds float range.
    """
    nu, mu, gam = params.nu, params.mu, params.gamma
    if not ((z < 0 and nu < 1 and 0 < gam <= _CONTOUR_MAX_GAMMA) or (gam in (1.0, 2.0) and nu < 2)):
        return None
    # route A has no pole on the principal sheet; route B's are of order gamma
    theta = math.pi if z < 0 else 0.0
    k_lo = math.ceil(-nu / 2 - theta / (2 * math.pi))
    k_hi = math.floor(nu / 2 - theta / (2 * math.pi))
    poles = []
    if k_lo <= k_hi:
        log_radius = math.log(abs(z)) / nu
        if log_radius > _LOG_FLOAT_MAX:  # only z > 0 gets here: e^radius overflows
            raise _beyond_float_range(params, z)
        radius = math.exp(log_radius)
        poles = [(k, cmath.rect(radius, (theta + 2 * math.pi * k) / nu))
                 for k in range(k_lo, k_hi + 1)]
        poles = sorted((pole for pole in poles if _phi(pole[1]) > 1e-15), key=lambda p: _phi(p[1]))
    phi_pole = _phi(poles[0][1]) if poles else math.inf
    p_origin = max(0.0, -2.0 * (nu * gam - mu + 1.0))

    for real, tols in _CONTOUR_PRECISIONS:
        found = _contour_param(phi_pole, p_origin, gam, float(np.finfo(real).eps), tols)
        if found is None:
            continue
        scale, h, n = found
        value, error = _contour_sum(params, z, [k for k, _ in poles], scale, h, n, real)
        # node terms past float range (inf/inf where s^(nu gamma - mu) and
        # (s^nu - z)^gamma overflow apart) say nothing of the value, and
        # the long double's wider range gave wrong ones there (-8.2e-21 for
        # E[0.88, 22.5, 226](-1.32) = -6.0e-31): the next stage decides
        if not math.isfinite(value):
            return None
        if error <= _CONTOUR_ROUNDING_MAX * abs(value):
            return value
    return None


def _contour_param(
    phi_pole: float, p_origin: float, q: float, eps: float, tols: tuple[float, ...]
) -> tuple[float, float, int] | None:
    """(mu, h, N) of the parabola between the branch point at 0, of
    strength ``p_origin``, and the nearest pole, of order ``q``, at
    ``phi_pole`` (inf when there is none), at the first of ``tols`` it
    meets within ``_CONTOUR_MAX_NODES`` nodes, or None."""
    log_eps = math.log(eps)
    for tol in tols:
        log_tol = math.log(tol)
        if phi_pole < math.inf:
            found = _contour_param_bounded(phi_pole, p_origin, q, log_tol, log_eps)
        else:
            found = _contour_param_unbounded(p_origin, log_tol, log_eps)
        if found is not None and found[2] <= _CONTOUR_MAX_NODES:
            return found
    return None


def _contour_sum(
    params: MLParams, z: float, ks: list[int], scale: float, h: float, n: int, real: type
) -> tuple[float, float]:
    """The trapezoid sum on the parabola scale (1 + iu)^2, u = 0, +-h, ..,
    +-n h, plus the residues of the poles numbered ``ks`` (angle
    (arg z + 2 pi k) / nu, order gamma), summed in the float type ``real``;
    and the larger of its rounding and truncation estimates (see
    ``_CONTOUR_ROUNDING_MAX``); DomainError for a residue beyond float range."""
    nu, mu, gam, zz = real(params.nu), real(params.mu), real(params.gamma), real(z)
    u = h * np.arange(n + 1, dtype=real)
    s = scale * (1 + 1j * u) ** 2
    ds = 2 * scale * (1j - u)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(s) * s ** (nu * gam - mu) / (s**nu - zz) ** gam * ds
    # the nodes at -u are mirror images: S(-u) = -conj(S(u))
    pi = np.arccos(real(-1))
    value = real(h) / (2 * pi) * (terms[0].imag + 2 * terms[1:].imag.sum())
    if ks:
        angle = ((pi if z < 0 else 0) + 2 * pi * np.array(ks, dtype=real)) / nu
        poles = np.exp(np.log(abs(zz)) / nu) * (np.cos(angle) + 1j * np.sin(angle))
        # (1/nu) s*^(1-mu) e^(s*), times (s* + 1 + nu - mu) / nu at a double pole;
        # refused, before exp, where s*^(1-mu) e^(s*), its product or the residue passes float range
        log_residues = poles + (1 - mu) * np.log(poles)
        log_peak = log_residues.real.max()
        if gam == 2:
            factors = (poles + 1 + nu - mu) / nu
            log_peak = (log_residues.real + np.log(np.maximum(abs(factors), 1))).max()
        if log_peak - min(math.log(nu), 0.0) > _LOG_FLOAT_MAX:
            raise _beyond_float_range(params, z)
        residues = np.exp(log_residues)
        if gam == 2:
            residues *= factors
        value += residues.real.sum() / nu
    abs_sum = abs(terms[0]) + 2 * np.abs(terms[1:]).sum()
    error = h / (2 * math.pi) * max(float(np.finfo(real).eps * abs_sum), float(abs(terms[-1])))
    return float(value), error


def _beyond_float_range(params: MLParams, z: float) -> DomainError:
    return DomainError(f"Mittag-Leffler value exceeds float range ({params}, z={z})")


def _contour_param_bounded(
    phi_pole: float, p_origin: float, q: float, log_tol: float, log_eps: float
) -> tuple[float, float, int] | None:
    """Garrappa's OptimalParam_RB at t = 1: (mu, h, N) of the parabola
    between the branch point at 0, of strength p_origin, and a pole of
    order q at ``phi_pole``, or None when no parabola there meets
    ``log_tol`` with rounding at ``log_eps``."""
    f_max = math.exp(log_tol - log_eps)
    sq_pole = min(math.sqrt(phi_pole), 2.0 * math.sqrt(log_tol - log_eps))
    if p_origin < 1e-14:
        f_bar = 1.01 + 1.01 / f_max * (f_max - 1.01)
        bar_0 = 0.0
        bar_pole = 2.0 * sq_pole / (2.0 + f_bar ** (-1.0 / q))
    else:
        power = sq_pole ** max(p_origin, q)
        if power == 0.0:  # underflow: a pole this near 0 leaves no parabola
            return None
        f_min = 1.01 * sq_pole / power
        if f_min >= f_max:
            return None
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p_origin)
        fq = f_bar ** (-1.0 / q)
        w = -phi_pole / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        bar_0 = fp * sq_pole / den
        bar_pole = (2.0 + w - (1.0 + w) * fp) * sq_pole / den
    log_tol -= math.log(f_bar)
    w = -bar_pole**2 / log_tol
    scale = (((1.0 + w) * bar_0 + bar_pole) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (bar_pole - bar_0) / ((1.0 + w) * bar_0 + bar_pole)
    return scale, h, math.ceil(math.sqrt(1.0 - log_tol / scale) / h)


def _contour_param_unbounded(
    p_origin: float, log_tol: float, log_eps: float
) -> tuple[float, float, int] | None:
    """Garrappa's OptimalParam_RU at t = 1: (mu, h, N) of the parabola
    right of the branch point at 0, of strength p_origin, with no pole to
    bound it, or None when rounding at ``log_eps`` leaves no admissible
    parabola."""
    phibar = 0.01
    sq_phibar = math.sqrt(phibar)
    f_target = 5.0
    for _ in range(50):
        log_ratio = log_tol / phibar
        n = math.ceil(phibar / math.pi * (1.0 - 1.5 * log_ratio + math.sqrt(1.0 - 2.0 * log_ratio)))
        a = math.pi * n / phibar
        sq_scale = sq_phibar * abs(4.0 - a) / abs(7.0 - math.sqrt(1.0 + 12.0 * a))
        if p_origin < 1e-14 or 1.0 < (sq_phibar / sq_scale) ** (-p_origin) < 10.0:
            break
        sq_phibar = f_target ** (-1.0 / p_origin) * sq_scale
        phibar = sq_phibar**2
    else:
        return None
    scale = sq_scale**2
    h = (-3.0 * a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * a)) / (4.0 - a) / n
    # keep the largest exponential on the contour within rounding reach
    threshold = log_tol - log_eps
    if scale > threshold:
        q = 0.0 if p_origin < 1e-14 else f_target ** (-1.0 / p_origin) * math.sqrt(scale)
        phibar = q**2
        if phibar >= threshold:
            return None
        w = math.sqrt(log_eps / (log_eps - log_tol))
        u = math.sqrt(-phibar / log_eps)
        scale = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi * (u * w - 1.0)))
        h = w / n
    return scale, h, n


def f_function(q: float, a: float, t: float, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG) -> float:
    """Hartley-Lorenzo F-function: t^(q-1) * E[q, q](-a t^q) for q > 0, t > 0."""
    if not (q > 0):
        raise DomainError(f"q must be positive, got {q}")
    if not (t > 0):
        raise DomainError(f"t must be positive, got {t}")
    return float_power(t, q - 1.0) * ml_eval(MLParams(q, q), -a * float_power(t, q), cfg)


def r_function(
    nu: float,
    mu: float,
    a: float,
    delta: float,
    t: float,
    cfg: SeriesConfig = DEFAULT_SERIES_CONFIG,
) -> float:
    """Lorenzo-Hartley R-function: (t-d)^(nu-mu-1) * E[nu, nu-mu](a (t-d)^nu).

    Only the region t > delta with nu - mu > 0 is evaluated: there every
    Gamma((n+1)nu - mu) argument in the defining series is positive.
    """
    if not (nu - mu > 0):
        raise DomainError(f"nu - mu must be positive, got nu={nu}, mu={mu}")
    if not (t > delta):
        raise DomainError(f"t must exceed delta, got t={t}, delta={delta}")
    x = t - delta
    return float_power(x, nu - mu - 1.0) * ml_eval(MLParams(nu, nu - mu), a * float_power(x, nu), cfg)


def wright_eval(
    params: WrightParams, z: float, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG
) -> float:
    """Evaluate the generalized Wright series at real z.

    Term k carries prod Gamma(a_j + A_j k) / prod Gamma(b_j + B_j k) * z^k / k!.
    A lower-list Gamma pole makes the whole term vanish (1/Gamma is entire)
    and does not count toward the termination run; an upper-list pole makes
    the series undefined and raises ``PoleError``.  Heavy cancellation
    triggers the same mpmath fallback as ``ml_eval``.
    """
    z = float(z)
    if not abs(z) <= cfg.max_abs_z:
        raise DomainError(
            f"|z| = {abs(z)} exceeds the configured series domain bound {cfg.max_abs_z}"
        )
    what = "Wright series"
    total, peak, n_used = _sum_series(_wright_terms(params, z), cfg, what)
    if total is None:
        log10_peak = _log10_peak(_wright_terms(params, z), cfg, what)
    # long series hit the accuracy floor of float lgamma(k+1) against the
    # list Gammas; redo those in mpmath as well
    elif n_used > 220 or not _float_sum_kept(0, total, peak):
        log10_peak = math.log10(max(peak, _ABS_FLOOR))
    else:
        return total
    return _mp_sum(functools.partial(_wright_terms_mp, params, z), cfg, log10_peak, what)


def _wright_terms(params: WrightParams, z: float) -> Iterator[tuple[float, float]]:
    """(log|term_k|, sign_k) of the Wright series at z: (-inf, 0) at a
    lower-list Gamma pole, ``PoleError`` at an upper-list one, and
    ``DomainError`` where log|Gamma| is inf on both lists.  The terms end
    where a lower-list argument that does not fall with k passes float
    range for lgamma under finite upper ones: 1/Gamma is 0 in float there
    and at every later k."""
    log_abs_z = math.log(abs(z)) if z != 0.0 else 0.0
    sign_z = 1.0 if z >= 0 else -1.0
    sign_pow = 1.0
    for k in itertools.count():
        # fresh log |z^k / k!| each term; see _ml_terms on O(k^2 eps) drift
        log_mag, sign = k * log_abs_z - math.lgamma(k + 1.0), sign_pow
        for a, aa in params.upper:
            arg = a + aa * k
            if _near_nonpositive_int(arg):
                raise PoleError(f"upper Gamma argument {arg} hits a pole at term k={k}")
            log_gamma, sign_gamma = _log_gamma(arg)
            log_mag += log_gamma
            sign *= sign_gamma
        for b, bb in params.lower:
            arg = b + bb * k
            if _near_nonpositive_int(arg):
                log_mag, sign = -math.inf, 0.0
                break
            log_gamma, sign_gamma = _log_gamma(arg)
            if log_gamma == math.inf and bb >= 0.0 and log_mag < math.inf:
                return
            log_mag -= log_gamma
            sign *= sign_gamma
        if log_mag != log_mag:  # inf - inf: Gammas beyond float range on both lists
            raise DomainError(f"Wright series: term {k} divides Gammas beyond float range")
        yield log_mag, sign
        if z == 0.0:
            return
        sign_pow *= sign_z


def _wright_terms_mp(params: WrightParams, z: float) -> Iterator[mp.mpf]:
    """The Wright series terms at z as mpf, 0 at a lower-list Gamma pole."""
    zz = mp.mpf(z)
    # see _ml_terms_mp: Gamma arguments are formed in mpf arithmetic
    upper = tuple((mp.mpf(a), mp.mpf(aa)) for a, aa in params.upper)
    lower = tuple((mp.mpf(b), mp.mpf(bb)) for b, bb in params.lower)
    power = mp.mpf(1)
    for k in itertools.count():
        term = power
        power = power * zz / (k + 1)
        for a, aa in upper:
            if _near_nonpositive_int(float(a + aa * k)):
                raise PoleError(f"upper Gamma argument {a + aa * k} hits a pole at term k={k}")
            term *= mp.gamma(a + aa * k)
        for b, bb in lower:
            if _near_nonpositive_int(float(b + bb * k)):
                term = mp.mpf(0)
                break
            term /= mp.gamma(b + bb * k)
        yield term


def hyp1f1(
    gamma1: float, beta1: float, x: float, cfg: SeriesConfig = DEFAULT_SERIES_CONFIG
) -> float:
    """Confluent hypergeometric series 1F1(gamma1; beta1; x) = sum (g)_k/((b)_k k!) x^k.

    For x < 0 the series alternates and cancels; Kummer's transformation
    1F1(g; b; x) = e^x 1F1(b - g; b; -x) sums the non-alternating one instead.
    A NaN or infinite parameter or x raises ``DomainError``.
    """
    x = float(x)
    if not (math.isfinite(gamma1) and math.isfinite(beta1) and math.isfinite(x)):
        raise DomainError(f"1F1 parameters and argument must be finite, got {gamma1}, {beta1}, {x}")
    if _near_nonpositive_int(beta1):
        raise DomainError(f"beta1 must not be a non-positive integer, got {beta1}")
    if x < 0:
        return math.exp(x) * hyp1f1(beta1 - gamma1, beta1, -x, cfg)
    total, _, _ = _sum_series(_hyp1f1_terms(gamma1, beta1, x), cfg, "1F1 series")
    return total


def _hyp1f1_terms(gamma1: float, beta1: float, x: float) -> Iterator[tuple[float, float]]:
    """The 1F1 terms by their float recurrence, each as (0, term)."""
    term = 1.0
    for k in itertools.count():
        yield 0.0, term
        term *= (gamma1 + k) / ((beta1 + k) * (k + 1.0)) * x
        if not math.isfinite(term):
            raise NonConvergence(f"1F1 term overflowed at k={k} (x={x})")
