"""Reference values for every benchmark task, computed without the package.

Nothing here imports ``mittag_kinetics``. Each value comes from a formula
written out below, evaluated in mpmath (series) or numpy (per-mode
oscillators), so a fault in the program cannot hide in its own check.

* Mittag-Leffler and Wright values: the defining power series summed in
  mpmath. The working precision and the number of terms come from a
  float scan of log|term_k| made here, not from the program.
* Kinetic solutions: the inverse transforms of the catalogue formulas,
  N(t) = n0 t^(mu-1) E^(g)_(nu,mu)(-(ct)^nu) with the source-dependent g,
  and for two distinct rates the direct expansion of
  p^(2nu-mu) / ((p^nu + c^nu)(p^nu + d^nu)) in powers of p^-nu.
* ``invert-lt`` catalogue: gamma density, Laplace density, and the
  gamma-difference and gamma-sum densities through Tricomi U and Kummer M.
* Reaction-diffusion: each Fourier mode is a damped oscillator
  c'' + a c' + b c = 0 solved exactly; the fd reference uses the symbol of
  the three-point Laplacian, so what remains is the time error, O(dt^2).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

LN10 = math.log(10.0)

#: Digits kept beyond the ones cancellation eats.
_GUARD_DIGITS = 30
#: Terms below max(1, peak) * 10**-_TAIL_DIGITS are left out of a sum.
_TAIL_DIGITS = 60
_MAX_TERMS = 200_000


def _mp_series(log_term, term, what: str, positive: bool = False) -> float:
    """Sum term(k) for k = 0, 1, ... in mpmath.

    ``log_term(k)`` is a float estimate of log|term_k| (``-inf`` for a
    term that vanishes). A scan of it fixes the last term kept and the
    working precision: enough digits for the peak term, plus a guard. If
    the sum comes out far below the peak, the cancellation is known and
    the sum is redone with that many more digits. ``positive`` says that
    no term is negative, so the sum is at least the peak term and the
    tail may be cut relative to the peak.
    """
    peak = -math.inf
    k_peak = 0
    last = 0
    prev = math.inf
    for k in range(_MAX_TERMS):
        lt = log_term(k)
        if lt > peak:
            peak, k_peak = lt, k
        cut = (peak if positive else min(peak, 0.0)) - _TAIL_DIGITS * LN10
        if k > k_peak and lt < cut and lt <= prev:
            last = k
            break
        prev = lt
    else:
        raise RuntimeError(f"{what}: oracle series did not fall below its cut")
    peak10 = max(peak / LN10, 0.0)
    # mpf exponents float, so a sum of positive terms needs no digits for
    # its size; a signed sum is first assumed to be of order one
    dps = _GUARD_DIGITS + (0 if positive else int(peak10))
    while True:
        with mp.workdps(dps):
            total = mp.fsum(term(k) for k in range(last + 1))
            if total == 0:
                raise RuntimeError(f"{what}: oracle sum is exactly zero")
            lost = peak10 - float(mp.log10(abs(total)))
            if dps - lost >= _GUARD_DIGITS - 5:
                return float(total)
        dps = int(lost) + _GUARD_DIGITS + 5


def ml(nu: float, mu: float, gamma: float, z: float) -> float:
    """E^gamma_(nu,mu)(z) = sum (gamma)_k / k! z^k / Gamma(mu + k nu), gamma > 0."""
    if z == 0.0:
        return float(mp.rgamma(mu))
    log_z = math.log(abs(z))
    lg_gamma = math.lgamma(gamma)

    def log_term(k: int) -> float:
        return (math.lgamma(gamma + k) - lg_gamma - math.lgamma(k + 1.0)
                + k * log_z - math.lgamma(mu + k * nu))

    state: dict = {}

    def term(k: int):
        if k == 0:
            state["front"] = mp.mpf(1)
            state["g"], state["z"] = mp.mpf(gamma), mp.mpf(z)
            state["mu"], state["nu"] = mp.mpf(mu), mp.mpf(nu)
        else:
            state["front"] *= (state["g"] + (k - 1)) * state["z"] / k
        return state["front"] * mp.rgamma(state["mu"] + k * state["nu"])

    return _mp_series(log_term, term, "Mittag-Leffler", positive=z > 0.0)


def wright(upper, lower, z: float) -> float:
    """sum_k prod Gamma(a + A k) / prod Gamma(b + B k) z^k / k!, all a, b > 0."""
    log_z = math.log(abs(z)) if z != 0.0 else -math.inf

    def log_term(k: int) -> float:
        out = (k * log_z if k else 0.0) - math.lgamma(k + 1.0)
        out += sum(math.lgamma(a + aa * k) for a, aa in upper)
        return out - sum(math.lgamma(b + bb * k) for b, bb in lower)

    state: dict = {}

    def term(k: int):
        if k == 0:
            state["pow"] = mp.mpf(1)
            state["z"] = mp.mpf(z)
            state["up"] = [(mp.mpf(a), mp.mpf(aa)) for a, aa in upper]
            state["lo"] = [(mp.mpf(b), mp.mpf(bb)) for b, bb in lower]
        else:
            state["pow"] *= state["z"] / k
        val = state["pow"]
        for a, aa in state["up"]:
            val *= mp.gamma(a + aa * k)
        for b, bb in state["lo"]:
            val *= mp.rgamma(b + bb * k)
        return val

    if z == 0.0:
        return float(term(0))
    return _mp_series(log_term, term, "Wright", positive=z > 0.0)


def kinetic(params: dict, t: float) -> float:
    """Solution N(t) of the kinetic problem described by CLI ``parameters``."""
    kind = params["kind"]
    n0, c, nu = params["n0"], params["c"], params["nu"]
    mu = params.get("mu", 1.0)
    x = -((c * t) ** nu)
    if kind == "basic":
        return n0 * ml(nu, 1.0, 1.0, x)
    front = n0 * t ** (mu - 1.0)
    if kind == "power-source":
        return front * math.gamma(mu) * ml(nu, mu, 1.0, x)
    if kind == "ml-gamma-source":
        return front * ml(nu, mu, params["gamma"] + 1.0, x)
    if kind == "ml-source":
        return front * ml(nu, mu, 2.0, x)
    if kind == "two-rate":
        return front * _two_rate_series(c, params["d"], nu, mu, t)
    raise ValueError(f"unknown kinetic kind {kind!r}")


def _two_rate_series(c: float, d: float, nu: float, mu: float, t: float) -> float:
    # p^(2nu-mu) / ((p^nu + c^nu)(p^nu + d^nu)) = sum_k (-1)^k h_k p^(-mu-k nu)
    # with h_k = sum_{j<=k} c^(j nu) d^((k-j) nu); term by term this inverts to
    # t^(mu-1) sum_k (-1)^k h_k t^(k nu) / Gamma(mu + k nu).
    cn, dn, tn = c**nu, d**nu, t**nu
    log_big = math.log(max(cn, dn) * tn)

    def log_term(k: int) -> float:
        return k * log_big + math.log(k + 1.0) - math.lgamma(mu + k * nu)

    state: dict = {}

    def term(k: int):
        if k == 0:
            state["h"] = mp.mpf(1)
            state["cpow"] = mp.mpf(1)
            state["cn"], state["dn"] = mp.mpf(cn), mp.mpf(dn)
            state["tn"] = mp.mpf(tn)
            state["mu"], state["nu"] = mp.mpf(mu), mp.mpf(nu)
        else:
            state["cpow"] *= state["cn"]
            state["h"] = state["h"] * state["dn"] + state["cpow"]
        sign = -1 if k % 2 else 1
        return sign * state["h"] * state["tn"] ** k * mp.rgamma(state["mu"] + k * state["nu"])

    return _mp_series(log_term, term, "two-rate")


def inverse_transform(desc: dict, t: float) -> float:
    """t > 0 branch of the inverse of a GammaPower, LaplaceDensity or
    ResidualProduct descriptor given as in an ``invert-lt`` spec."""
    with mp.workdps(40):
        tt = mp.mpf(t)
        kind = desc["kind"]
        if kind == "GammaPower":
            a, b = mp.mpf(desc["alpha"]), mp.mpf(desc["beta"])
            return float(tt ** (a - 1) * mp.exp(-tt / b) / (b**a * mp.gamma(a)))
        if kind == "LaplaceDensity":
            b = mp.mpf(desc["beta"])
            return float(mp.exp(-tt / b) / (2 * b))
        if kind == "ResidualProduct":
            plus = [(mp.mpf(a), mp.mpf(b)) for a, b in desc.get("plus", [])]
            minus = [(mp.mpf(a), mp.mpf(b)) for a, b in desc.get("minus", [])]
            if len(plus) == 1 and len(minus) == 1:
                # density of X1 - X2 at t > 0, X_i ~ Gamma(a_i, scale b_i):
                # int_0^inf g1(t + y) g2(y) dy in closed form through Tricomi U
                (a1, b1), (a2, b2) = plus[0], minus[0]
                s = 1 / b1 + 1 / b2
                return float(mp.exp(-tt / b1) * tt ** (a1 + a2 - 1)
                             * mp.hyperu(a2, a1 + a2, s * tt)
                             / (mp.gamma(a1) * b1**a1 * b2**a2))
            if len(plus) == 2 and not minus:
                # density of X1 + X2 through Kummer M
                (a1, b1), (a2, b2) = plus
                return float(tt ** (a1 + a2 - 1) * mp.exp(-tt / b1)
                             / (b1**a1 * b2**a2 * mp.gamma(a1 + a2))
                             * mp.hyp1f1(a2, a1 + a2, (1 / b1 - 1 / b2) * tt))
        raise ValueError(f"no reference inverse for descriptor {desc!r}")


def _oscillator(a: float, b: np.ndarray, c0: np.ndarray, c1: np.ndarray,
                t: float) -> np.ndarray:
    # c'' + a c' + b c = 0 with c(0) = c0, c'(0) = c1; roots of p^2 + a p + b
    # are distinct for every benchmark draw (a < 2 sqrt(b) or b < 0 with a >= 0)
    root = np.sqrt(a * a - 4.0 * b + 0j)
    lp, lm = (-a + root) / 2.0, (-a - root) / 2.0
    amp_p = (c1 - lm * c0) / (lp - lm)
    amp_m = (lp * c0 - c1) / (lp - lm)
    return amp_p * np.exp(lp * t) + amp_m * np.exp(lm * t)


def _rd_symbols(params: dict, m: int, discrete: bool) -> np.ndarray:
    k = 2.0 * np.pi * np.arange(m // 2 + 1) / params["length"]
    if discrete:
        dx = params["length"] / m
        k2 = (2.0 * np.sin(0.5 * k * dx) / dx) ** 2
    else:
        k2 = k * k
    return params["nu2"] * k2 - params["xi"] ** 2


def rd_field(params: dict, times, discrete: bool = False) -> np.ndarray:
    """Exact N(x_j, t) per output time, shape (len(times), M).

    ``discrete`` swaps -k^2 for the symbol of the periodic three-point
    Laplacian, giving the exact solution of the fd scheme's semi-discrete
    system in space.
    """
    n0 = np.asarray(params["n0"], dtype=float)
    n1 = np.asarray(params["n1"], dtype=float)
    m = n0.shape[0]
    b = _rd_symbols(params, m, discrete)
    c0, c1 = np.fft.rfft(n0), np.fft.rfft(n1)
    rows = []
    for t in times:
        rows.append(np.fft.irfft(_oscillator(params["a"], b, c0, c1, t), n=m))
    return np.array(rows)


def fd_bound(params: dict, times, dt: float) -> np.ndarray:
    """Bound on |fd - semi-discrete exact| per output time, of order dt^2.

    A centred step advances each mode with a phase error of about
    |lambda|^3 t dt^2 / 24; the bound takes the mode envelopes with
    that rate times a safety factor of 4, summed as irfft would.
    """
    n0 = np.asarray(params["n0"], dtype=float)
    n1 = np.asarray(params["n1"], dtype=float)
    m = n0.shape[0]
    a = params["a"]
    b = _rd_symbols(params, m, True)
    c0, c1 = np.fft.rfft(n0), np.fft.rfft(n1)
    root = np.sqrt(a * a - 4.0 * b + 0j)
    lam = np.maximum(np.abs((-a + root) / 2.0), np.abs((-a - root) / 2.0))
    growth = np.maximum(((-a + root) / 2.0).real, 0.0)
    envelope = (np.abs(c0) + np.abs(c1) / np.maximum(lam, 1.0)) * (2.0 / m)
    out = []
    for t in times:
        out.append(4.0 * np.sum(envelope * np.exp(growth * t) * lam**3) * t * dt * dt / 24.0)
    return np.array(out)
