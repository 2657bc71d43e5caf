"""Seeded task batches for the three benchmark workloads.

A task is one CLI invocation: a spec dict as ``mittag-kinetics`` reads it
from ``--spec``. ``generate(workload, seed)`` returns the same tasks for the
same seed, in a seeded order. Continuous inputs come from a stratified
design (``_Design``) whose cells are fixed and whose points the seed
places, and discrete choices are fixed per task slot, so every seed puts
the same tasks in each cost band and the batch cost hardly moves with the
seed.

This module imports only numpy; the program never sees the seed.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("curves", "certify", "rd-field")

KINETIC_KINDS = ("basic", "power-source", "ml-gamma-source", "ml-source", "two-rate")

#: |z| bound the program advertises (``SeriesConfig.max_abs_z``).
MAX_ABS_Z = 50.0
#: Largest |z|^(1/nu) drawn: beyond it today's code hangs or overflows.
MAX_X = 400.0
#: A negative z with |z|^(1/nu) above this is in the cancelling class.
CANCEL_X = 6.0
#: Mild grids stay at or below this |z|^(1/nu) on the negative side, deep
#: grids reach at least DEEP_X: both well clear of where the float series
#: hands over to mpmath (near 5 to 6 for nu < 1).
MILD_X = 4.0
DEEP_X = 8.0
#: Earliest inversion time of a two-sided transform, in units of its beta.
STRIP_T = 0.6
#: Band of sqrt(nu2) t_max for the M = 32 reaction-diffusion problems.
RD_PLATEAU_S = (0.65, 0.8)

#: eval-ml tasks that fail every time: non-integer gamma in the cancelling
#: regime, where the mpmath rerun forms gamma + k in float64.
KEPT_FAULTS = (
    {"nu": 0.537, "mu": 1.194, "gamma": 1.428, "grid": (-15.78, -12.0, 3)},
    {"nu": 0.55, "mu": 1.5, "gamma": 0.7, "grid": (-18.0, -10.0, 3)},
)


@dataclass(frozen=True)
class Task:
    """One CLI task: its spec, whether it is a kept fault, and whether it
    is light (a few ms, run in every pass of a round)."""

    ident: str
    spec: dict
    fault: bool = False
    light: bool = False

    @property
    def name(self) -> str:
        return self.spec["task"]

    @property
    def params(self) -> dict:
        return self.spec["parameters"]

    def grid(self) -> list[float]:
        """The grid the CLI builds from the spec (``np.linspace``)."""
        g = self.spec["grid"]
        if g["n"] == 1:
            return [float(g["start"])]
        return [float(v) for v in np.linspace(g["start"], g["stop"], g["n"])]


def ml_class(nu: float, z: float) -> str:
    """'cancelling' for z < 0 with |z|^(1/nu) > CANCEL_X, else 'mild'."""
    if z < 0.0 and (-z) ** (1.0 / nu) > CANCEL_X:
        return "cancelling"
    return "mild"


def _spec(task: str, params: dict, start: float, stop: float, n: int) -> dict:
    return {"version": "1", "task": task, "parameters": params,
            "grid": {"start": float(start), "stop": float(stop), "n": int(n)}}


class _Design:
    """Points of a stratified design on (0, 1)^dims, one row per task.

    Column j puts exactly one task in each of the n cells of width 1/n.
    Which cell goes with which task is a fixed permutation per column, the
    same for every seed; the seed only places each point in the middle half
    of its cell. So the batch's cost profile is nearly the same for every
    seed while every input value changes.
    """

    def __init__(self, rng: np.random.Generator, group: str, n: int, dims: int) -> None:
        fixed = np.random.default_rng(zlib.crc32(group.encode()))
        cells = np.array([fixed.permutation(n) for _ in range(dims)]).T
        self.u = (cells + 0.25 + 0.5 * rng.random((n, dims))) / n

    def __call__(self, i: int, j: int, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * float(self.u[i, j])

    def log(self, i: int, j: int, lo: float, hi: float) -> float:
        return lo * (hi / lo) ** float(self.u[i, j])


def _kinetic_params(d: _Design, i: int, kind: str, nu: float, c: float, n0: float,
                    mild: bool) -> dict:
    # design columns 3 (mu) and 4 (gamma) of the caller's design
    p = {"kind": kind, "n0": n0, "c": c, "nu": nu}
    if kind in ("power-source", "ml-gamma-source"):
        p["mu"] = d(i, 3, 0.3, 3.0)
    elif kind == "ml-source":
        p["mu"] = d(i, 3, 1.1, 3.0)
    elif kind == "two-rate":
        p["mu"] = nu + d(i, 3, 0.1, 2.0)
    if kind == "ml-gamma-source":
        # integer gamma only where the grid reaches the cancelling regime
        p["gamma"] = _non_integer(d(i, 4), 0.2, 2.5) if mild else float(1 + i % 2)
    return p


def _non_integer(u: float, lo: float, hi: float) -> float:
    """Map u in (0, 1) onto the points of [lo, hi] at least 0.1 from an integer."""
    pieces = []
    a = lo
    for k in range(math.ceil(lo), math.floor(hi) + 1):
        if k - 0.1 > a:
            pieces.append((a, k - 0.1))
        a = max(a, k + 0.1)
    if hi > a:
        pieces.append((a, hi))
    total = sum(b - a for a, b in pieces)
    x = u * total
    for a, b in pieces:
        if x <= b - a:
            return a + x
        x -= b - a
    return pieces[-1][1]


def _two_rate_d(d: _Design, i: int, c: float, tie: bool) -> float:
    # design column 5: ratio of the rates, faster or slower
    if tie:
        return c
    ratio = d(i, 5, 1.5, 2.0)
    return c * ratio if i % 2 else c / ratio


def _curves(rng: np.random.Generator) -> list[Task]:
    # 66 light tasks whose grids stay mild (float series) and 40 that
    # reach the cancelling regime (mpmath rerun), so the median task is
    # inside the first group. Of the 40, 14 'plateau' tasks of like cost
    # fill the ranks around the 90th percentile, 10 deep tasks sit below
    # them, and 4 top tasks and the 2 kept faults above them.
    tasks = []
    # eval-ml: the most negative z spans |z|^(1/nu) in [lo, hi] on a log
    # scale, nu in [0.5, nu_hi] and capped so that |z| <= MAX_ABS_Z; the
    # positive end spans [0.5, pos_hi]; 4-6 grid points, or a fixed count.
    # The positive end decides how many of the evenly spaced points fall
    # deep in the cancelling regime, so plateau tasks keep it mild.
    bands = (("ml-mild", 24, MILD_X / 4, MILD_X, 2.5, MAX_X, None),
             ("ml-deep", 10, DEEP_X, 60.0, 2.5, MAX_X, None),
             ("ml-plateau", 14, 70.0, 100.0, 0.7, MILD_X, 5),
             ("ml-top", 4, 200.0, MAX_X, 2.5, MAX_X, None))
    for group, n, lo, hi, nu_hi, pos_hi, points in bands:
        d = _Design(rng, group, n, 4)
        for i in range(n):
            x_neg = d.log(i, 0, lo, hi)
            nu_max = min(nu_hi, math.log(MAX_ABS_Z) / math.log(x_neg)) if x_neg > 1.0 else nu_hi
            nu = d(i, 1, 0.5, max(nu_max, 0.5))
            params = {"nu": nu, "mu": d(i, 3, 0.3, 3.0), "gamma": float(1 + i % 3)}
            z_neg = min(x_neg**nu, MAX_ABS_Z)
            z_pos = min(d.log(i, 2, 0.5, pos_hi) ** nu, MAX_ABS_Z)
            tasks.append(Task(f"{group}-{i}", _spec("eval-ml", params, -z_neg, z_pos,
                                                    points or 4 + i // 3 % 3),
                              light=group == "ml-mild"))
    # eval-ml, non-integer gamma: mild only
    d = _Design(rng, "ml-frac", 16, 5)
    for i in range(16):
        nu = d(i, 1, 0.5, 2.5)
        params = {"nu": nu, "mu": d(i, 3, 0.3, 3.0), "gamma": _non_integer(d(i, 4), 0.3, 3.0)}
        z_neg = min(d.log(i, 0, MILD_X / 4, MILD_X) ** nu, MAX_ABS_Z)
        z_pos = min(d.log(i, 2, 0.5, MAX_X) ** nu, MAX_ABS_Z)
        tasks.append(Task(f"ml-frac-{i}", _spec("eval-ml", params, -z_neg, z_pos, 4 + i % 3),
                          light=True))
    # eval-wright: one or two Gamma weights, convergence margin m >= 0.5,
    # |z|^(1/m) <= MILD_X on the negative side
    d = _Design(rng, "wright", 16, 6)
    for i in range(16):
        upper = [] if i % 2 == 0 else [[d(i, 2, 0.5, 2.0), d(i, 3, 0.2, 0.8)]]
        lower = [[d(i, 4, 0.5, 2.5), d(i, 5, 0.3, 1.5)]]
        margin = 1.0 + lower[0][1] - sum(aa for _, aa in upper)
        z_neg = min(d.log(i, 0, 1.0, MILD_X) ** margin, 20.0)
        params = {"upper": upper, "lower": lower}
        tasks.append(Task(f"wright-{i}", _spec("eval-wright", params, -z_neg,
                                               d(i, 1, 1.0, 20.0), 4 + i // 2 % 3),
                          light=True))
    # solve-kinetic: per kind two mild grids and two deep ones; the
    # largest c t is the |z|^(1/nu) of the grid's last point. Deep grids
    # stop at 30: two draws a kind cannot pin their cost, and beyond 30
    # they would reach the plateau's ranks.
    for kind in KINETIC_KINDS:
        for group, lo, hi in (("mild", 0.3, MILD_X), ("deep", DEEP_X, 30.0)):
            d = _Design(rng, f"kin-{kind}-{group}", 2, 6)
            for i in range(2):
                nu = d(i, 1, 0.5, 1.8)
                c = d(i, 2, 0.3, 2.0)
                x_max = d.log(i, 0, lo, min(hi, MAX_ABS_Z ** (1.0 / nu)))
                params = _kinetic_params(d, i, kind, nu, c, float(rng.uniform(0.5, 2.0)),
                                         mild=group == "mild")
                fastest = c
                if kind == "two-rate":
                    params["d"] = _two_rate_d(d, i, c, tie=i == 0 and group == "mild")
                    fastest = max(c, params["d"])
                t_max = x_max / fastest
                n = 4 + 2 * i
                tasks.append(Task(f"kin-{kind}-{group}-{i}",
                                  _spec("solve-kinetic", params, t_max / n, t_max, n),
                                  light=group == "mild"))
    for i, f in enumerate(KEPT_FAULTS):
        params = {"nu": f["nu"], "mu": f["mu"], "gamma": f["gamma"]}
        tasks.append(Task(f"fault-{i}", _spec("eval-ml", params, *f["grid"]), fault=True))
    return tasks


def _certify(rng: np.random.Generator) -> list[Task]:
    tasks = []
    # verify: one grid point each, (c t)^nu <= 3 for the faster rate
    for kind in KINETIC_KINDS:
        d = _Design(rng, f"verify-{kind}", 9, 6)
        for i in range(9):
            nu = d(i, 1, 0.45, 1.6)
            t = d(i, 2, 0.2, 3.0)
            c = d(i, 0, 0.05, 3.0) ** (1.0 / nu) / t
            params = _kinetic_params(d, i, kind, nu, c, float(rng.uniform(0.5, 2.0)), mild=True)
            if kind == "two-rate":
                slow = _two_rate_d(d, i, c, tie=i == 0)
                # the faster rate keeps the drawn (c t)^nu
                params["c"], params["d"] = (c, slow) if slow <= c else (c * c / slow, c)
            tasks.append(Task(f"verify-{kind}-{i}", _spec("verify", params, t, t, 1)))
    # invert-lt on the catalogue outside the Mittag-Leffler family. A
    # two-sided kind caps the contour at half of t times its strip bound
    # 1/beta; below t/beta ~ 0.3 the node-doubling check refuses, so the
    # first time is kept at STRIP_T beta or later.
    d = _Design(rng, "invert", 15, 6)
    for i in range(15):
        a1, b1, a2, b2 = (d(i, j, 0.5, 2.5) for j in range(4))
        shape = i % 4
        t_min = 0.2
        if shape == 0:
            desc = {"kind": "GammaPower", "alpha": a1, "beta": b1}
        elif shape == 1:
            desc = {"kind": "LaplaceDensity", "beta": b1}
            t_min = max(t_min, STRIP_T * b1)
        elif shape == 2:
            desc = {"kind": "ResidualProduct", "plus": [[a1, b1]], "minus": [[a2, b2]]}
            t_min = max(t_min, STRIP_T * b2)
        else:
            desc = {"kind": "ResidualProduct", "plus": [[a1, b1], [a2, b2]]}
        t1 = d(i, 4, t_min, 3.0)
        t2 = d(i, 5, t1 + 0.1, 6.0)
        tasks.append(Task(f"invert-{i}", _spec("invert-lt", {"descriptor": desc}, t1, t2, 2)))
    return tasks


def _rd_problem(rng: np.random.Generator, d: _Design, i: int, m: int, nu2: float) -> dict:
    # every mode 1..m/2 is live; zero mean, so mode 0 drops out
    x = np.arange(m) * (2.0 * math.pi / m)
    n0 = np.zeros(m)
    n1 = np.zeros(m)
    for k in range(1, m // 2 + 1):
        a0, a1 = rng.normal(size=2)
        p0, p1 = rng.uniform(0.0, 2.0 * math.pi, 2)
        n0 += a0 * np.cos(k * x + p0) / k
        n1 += a1 * np.cos(k * x + p1) / k
    return {"a": d(i, 1), "nu2": nu2, "xi": d(i, 3, 0.05, 0.3),
            "length": 2.0 * math.pi, "n0": [float(v) for v in n0], "n1": [float(v) for v in n1]}


def _rd_field(rng: np.random.Generator) -> list[Task]:
    # A spectral solve costs about as much as its Mittag-Leffler calls at
    # the top mode, |z| = nu2 (M/2)^2 t^2, and that cost grows steeply
    # with s = sqrt(nu2) t_max. The 36 M = 16 problems draw t_max and nu2
    # apart; the 12 M = 32 ones, the top sixth of the round and so the
    # ranks around the 90th percentile, draw s from a narrow band and
    # derive t_max from it, so that they cost alike (a plateau).
    tasks = []
    problems = []
    for m, n_problems in ((16, 36), (32, 12)):
        d = _Design(rng, f"rd-{m}", n_problems, 4)
        for i in range(n_problems):
            if m == 16:
                nu2 = d(i, 2, 0.5, 1.5)
                t_max = round(d(i, 0, 0.3, 1.0), 2)
            else:
                nu2 = d(i, 2, 0.7, 1.4)
                t_max = round(d(i, 0, *RD_PLATEAU_S) / math.sqrt(nu2), 2)
            n = 1 + i % 2
            start = round(t_max / 2, 2) if n == 2 else t_max
            problems.append((_rd_problem(rng, d, i, m, nu2), start, t_max, n))
    for i, (params, start, stop, n) in enumerate(problems):
        spec = _spec("rd-solve", dict(params, solver="spectral"), start, stop, n)
        tasks.append(Task(f"rd-spectral-{i}", spec))
    # the fd solver on every other problem: half of each grid size
    for i, (params, start, stop, n) in enumerate(problems[::2]):
        spec = _spec("rd-solve", dict(params, solver="fd", dt=0.01), start, stop, n)
        tasks.append(Task(f"rd-fd-{i}", spec))
    return tasks


_GENERATORS = {"curves": _curves, "certify": _certify, "rd-field": _rd_field}


def generate(workload: str, seed: int) -> list[Task]:
    """The workload's task batch for ``seed``, in a seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tasks = _GENERATORS[workload](rng)
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


def domain_errors(task: Task) -> list[str]:
    """Ways in which a drawn task leaves the domain stated in the README."""
    errs = []
    p = task.params
    grid = task.grid()
    if task.name in ("eval-ml", "eval-wright", "solve-kinetic", "verify", "invert-lt"):
        if grid != sorted(grid) or len(set(grid)) != len(grid):
            errs.append("grid not increasing")
    if task.name == "eval-ml":
        if not (0.5 <= p["nu"] <= 2.5 and 0.3 <= p["mu"] <= 3.0 and p["gamma"] > 0):
            errs.append("ml parameters out of range")
        for z in grid:
            if abs(z) > MAX_ABS_Z + 1e-12 or abs(z) ** (1.0 / p["nu"]) > MAX_X * (1 + 1e-12):
                errs.append(f"z={z} out of range")
            if (not task.fault and p["gamma"] != round(p["gamma"])
                    and ml_class(p["nu"], z) == "cancelling"):
                errs.append(f"non-integer gamma at cancelling z={z}")
    elif task.name == "eval-wright":
        margin = 1.0 + sum(b for _, b in p["lower"]) - sum(a for _, a in p["upper"])
        if margin < 0.5 or any(abs(z) > 20.0 for z in grid):
            errs.append("wright parameters out of range")
    elif task.name in ("solve-kinetic", "verify"):
        rates = [p["c"]] + ([p["d"]] if "d" in p else [])
        x_max = max(rates) * grid[-1]
        if grid[0] <= 0.0 or not 0.45 <= p["nu"] <= 1.8:
            errs.append("kinetic grid or order out of range")
        if x_max ** p["nu"] > MAX_ABS_Z * (1 + 1e-12):
            errs.append("kinetic |z| beyond the series domain")
        if task.name == "verify" and x_max ** p["nu"] > 3.0 * (1 + 1e-9):
            errs.append("verify (c t)^nu above 3")
        gam = p.get("gamma")
        if gam is not None and gam != round(gam) and x_max > CANCEL_X:
            errs.append("non-integer gamma in the cancelling regime")
    elif task.name == "invert-lt":
        desc = p["descriptor"]
        betas = [b for _, b in desc.get("minus", [])]
        if desc["kind"] == "LaplaceDensity":
            betas.append(desc["beta"])
        if grid[0] < max([0.2] + [STRIP_T * b for b in betas]) or grid[-1] > 6.1:
            errs.append("inversion times out of range")
    elif task.name == "rd-solve":
        m = len(p["n0"])
        if m not in (16, 32) or not all(0.15 <= t <= 1.0 for t in grid):
            errs.append("rd size or times out of range")
        if abs(sum(p["n0"])) > 1e-9 or abs(sum(p["n1"])) > 1e-9:
            errs.append("rd initial data not zero-mean")
        if p["a"] >= 2.0 * math.sqrt(p["nu2"] - p["xi"] ** 2):
            errs.append("rd damping reaches critical for mode 1")
    return errs
