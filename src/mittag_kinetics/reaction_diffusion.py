"""Damped linear wave equation with a growth term on a periodic interval.

The field equation is

    d2N/dt2 + a dN/dt = nu2 * d2N/dx2 + xi**2 * N

with periodic boundary conditions. In Fourier space each mode m evolves
independently with the quadratic symbol p**2 + a p + b_m, b_m =
nu2 k_m**2 - xi**2. The spectral solver inverts each mode's transform

    [(p + a) C0 + C1] / (p**2 + a p + b_m)

through the outer Mittag-Leffler series of ``invert_three_term`` (the
p/(den) and 1/(den) pieces are the catalog kinds ``ThreeTermAlpha`` and
``ThreeTermBeta`` at alpha = 2, beta = 1), then returns to physical space
by inverse FFT. Modes with b_m < 0 grow; they are solved but flagged with
InstabilityWarning.

``rd_solve_fd`` provides the independent reference: second-order
central differences in time and space with the damping term averaged
across time levels, so the scheme stays second order in dt.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import inf, isfinite, pi, sqrt

import numpy as np

from .errors import DomainError, StabilityError
from .errors import InstabilityWarning
from .kinetics import invert_three_term
from .laplace import ThreeTermAlpha, ThreeTermBeta
from .special_functions import DEFAULT_SERIES_CONFIG, SeriesConfig

# Fourier coefficients this far below the largest one are treated as
# numerically absent and not given a per-mode inversion.
_MODE_DROPTOL = 1e-13


@dataclass(frozen=True)
class ModeInfo:
    """Modal data: array index m, wavenumber k, quadratic constant b."""

    index: int
    wavenumber: float
    b: float


@dataclass(frozen=True)
class RDProblem:
    """Periodic initial-value problem for the damped wave-growth equation.

    n0 and n1 sample the initial field and its time derivative on the
    uniform grid x_j = j * length / M, where M = len(n0) must be a
    power of two. times are the output instants. Every number must be
    finite; a NaN or infinite one raises DomainError.
    """

    a: float
    nu2: float
    xi: float
    length: float
    n0: np.ndarray
    n1: np.ndarray
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (isfinite(self.a) and isfinite(self.xi)):
            raise DomainError(f"a and xi must be finite, got a={self.a}, xi={self.xi}")
        if not 0.0 < self.nu2 < inf:
            raise DomainError(f"nu2 must be positive and finite, got {self.nu2}")
        if not 0.0 < self.length < inf:
            raise DomainError(f"domain length must be positive and finite, got {self.length}")
        n0 = np.asarray(self.n0, dtype=float)
        n1 = np.asarray(self.n1, dtype=float)
        if n0.ndim != 1 or n0.shape != n1.shape:
            raise DomainError("initial field and velocity must be 1-d arrays of equal length")
        m = n0.shape[0]
        if m < 2 or m & (m - 1):
            raise DomainError(f"grid size must be a power of two >= 2, got {m}")
        if not (np.all(np.isfinite(n0)) and np.all(np.isfinite(n1))):
            raise DomainError("initial data must be finite")
        times = tuple(float(t) for t in self.times)
        if not times:
            raise DomainError("at least one output time is required")
        if not all(isfinite(t) for t in times):
            raise DomainError(f"output times must be finite, got {times}")
        if times[0] < 0.0 or any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise DomainError("output times must be nonnegative and strictly increasing")
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "times", times)

    @property
    def modes(self) -> int:
        return self.n0.shape[0]

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.modes) * (self.length / self.modes)

    def mode_table(self) -> tuple[ModeInfo, ...]:
        """b_m for every nonnegative mode index of the real spectrum."""
        out = []
        for m in range(self.modes // 2 + 1):
            k = 2.0 * pi * m / self.length
            out.append(ModeInfo(index=m, wavenumber=k, b=self.nu2 * k * k - self.xi**2))
        return tuple(out)


@dataclass(frozen=True)
class RDSolution:
    """Field samples N(x, t) with the modal structure that produced them."""

    x: np.ndarray
    times: tuple[float, ...]
    field: np.ndarray
    mode_metadata: tuple[ModeInfo, ...]

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.field)):
            raise DomainError("solution field contains non-finite values")


def _mode_kernels(a: float, b: float, t: float, cfg: SeriesConfig) -> tuple[float, float]:
    # inverse transforms of p/(p^2+ap+b) and 1/(p^2+ap+b)
    l3 = invert_three_term(ThreeTermAlpha(a=a, b=b, alpha=2.0, beta=1.0), t, cfg=cfg)
    l4 = invert_three_term(ThreeTermBeta(a=a, b=b, alpha=2.0, beta=1.0), t, cfg=cfg)
    return l3, l4


def rd_solve_spectral(problem: RDProblem) -> RDSolution:
    """Solve by per-mode Laplace inversion of the Fourier transform."""
    m_grid = problem.modes
    c0 = np.fft.rfft(problem.n0)
    c1 = np.fft.rfft(problem.n1)
    table = problem.mode_table()
    scale = max(np.abs(c0).max(initial=0.0), np.abs(c1).max(initial=0.0))
    keep = [
        info for info in table
        if max(abs(c0[info.index]), abs(c1[info.index])) > _MODE_DROPTOL * scale
    ]
    unstable = [info for info in keep if info.b < 0.0]
    if unstable:
        warnings.warn(
            f"{len(unstable)} retained mode(s) have b < 0 and grow in time",
            InstabilityWarning,
            stacklevel=2,
        )
    max_arg = max(
        (abs(info.b) * max(problem.times) ** 2 for info in keep),
        default=0.0,
    )
    cfg = DEFAULT_SERIES_CONFIG
    if max_arg > cfg.max_abs_z:
        cfg = SeriesConfig(max_abs_z=1.1 * max_arg)
    field = np.empty((len(problem.times), m_grid))
    spectrum = np.zeros_like(c0)
    for row, t in enumerate(problem.times):
        if t == 0.0:
            field[row] = problem.n0
            continue
        spectrum[:] = 0.0
        for info in keep:
            l3, l4 = _mode_kernels(problem.a, info.b, t, cfg)
            spectrum[info.index] = c0[info.index] * (l3 + problem.a * l4) + c1[info.index] * l4
        field[row] = np.fft.irfft(spectrum, n=m_grid)
    return RDSolution(x=problem.x, times=problem.times, field=field,
                      mode_metadata=tuple(keep))


def rd_solve_fd(problem: RDProblem, dt: float) -> RDSolution:
    """Reference solver: centered differences in time and space."""
    if not 0.0 < dt < inf:
        raise DomainError(f"time step must be positive and finite, got {dt}")
    dx = problem.length / problem.modes
    if dt > dx / sqrt(problem.nu2):
        raise StabilityError(
            f"dt={dt:.3g} violates the stability bound dx/sqrt(nu2)={dx / sqrt(problem.nu2):.3g}"
        )
    steps = []
    for t in problem.times:
        n = int(round(t / dt))
        if abs(n * dt - t) > 1e-9 * max(t, dt):
            raise DomainError(f"output time {t} is not a multiple of dt={dt}")
        steps.append(n)

    lam = problem.nu2 * (dt / dx) ** 2
    xi2dt2 = (problem.xi * dt) ** 2
    half_a = 0.5 * problem.a * dt

    def accel(u: np.ndarray) -> np.ndarray:
        return lam * (np.roll(u, 1) + np.roll(u, -1) - 2.0 * u) + xi2dt2 * u

    field = np.empty((len(problem.times), problem.modes))
    prev = problem.n0.copy()
    # Taylor start keeps the first step second-order accurate
    cur = prev + dt * problem.n1 + 0.5 * (accel(prev) - problem.a * dt * dt * problem.n1)
    n_done = 1
    for row, n_target in enumerate(steps):
        if n_target == 0:
            field[row] = problem.n0
            continue
        while n_done < n_target:
            nxt = (2.0 * cur - (1.0 - half_a) * prev + accel(cur)) / (1.0 + half_a)
            prev, cur = cur, nxt
            n_done += 1
        field[row] = cur
    return RDSolution(x=problem.x, times=problem.times, field=field,
                      mode_metadata=problem.mode_table())
