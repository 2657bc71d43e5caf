"""Reference values per task and the checks that hold CLI output to them.

``reference`` does the oracle work for a task once, before any timing.
``check`` compares one CLI run with it and says how many output values
passed. A task passes only when the CLI exited 0,
every row is where the grid puts it, and every value passed.

Tolerances:

* series values (``eval-ml``, ``eval-wright``, ``solve-kinetic``, the
  ``closed_form`` column of ``verify``): relative 1e-9. The program
  promises fifteen digits after its mpmath rerun and about 1e-13 on the
  float path, and 1e-9 rejects any change in the 8th significant digit.
* Talbot values (``invert-lt``, the ``numeric`` column of ``verify``):
  1e-7 times max(1, |ref|), ten times the default precision target that
  the node-doubling self-check enforces, on the same scale it uses.
* ``verify`` gates, re-checked from the emitted rows: abs_err equals
  |closed_form - numeric|, abs_err / max(1, |closed_form|) <= 1e-5, and
  |residual| <= 1e-4.
* ``rd-solve`` spectral: 1e-9 times the largest |N| of the exact field at
  that time. fd: the O(dt^2) bound of ``oracles.fd_bound`` against the
  exact solution of the semi-discrete system.
"""

from __future__ import annotations

import numpy as np

import oracles
from workloads import Task

SERIES_RTOL = 1e-9
TALBOT_RTOL = 1e-7
VERIFY_TOL = 1e-5
RESIDUAL_GATE = 1e-4
SPECTRAL_RTOL = 1e-9


def reference(task: Task):
    """Oracle values for every output value of ``task``."""
    p = task.params
    grid = task.grid()
    if task.name == "eval-ml":
        return [oracles.ml(p["nu"], p["mu"], p["gamma"], z) for z in grid]
    if task.name == "eval-wright":
        return [oracles.wright(p["upper"], p["lower"], z) for z in grid]
    if task.name in ("solve-kinetic", "verify"):
        return [oracles.kinetic(p, t) for t in grid]
    if task.name == "invert-lt":
        return [oracles.inverse_transform(p["descriptor"], t) for t in grid]
    if task.name == "rd-solve":
        if p["solver"] == "fd":
            return {"field": oracles.rd_field(p, grid, discrete=True),
                    "tol": oracles.fd_bound(p, grid, p["dt"])}
        field = oracles.rd_field(p, grid)
        return {"field": field, "tol": SPECTRAL_RTOL * np.abs(field).max(axis=1)}
    raise ValueError(f"no reference for task {task.name!r}")


def series_ok(value: float, ref: float) -> bool:
    return abs(value - ref) <= SERIES_RTOL * abs(ref)


def talbot_ok(value: float, ref: float) -> bool:
    return abs(value - ref) <= TALBOT_RTOL * max(1.0, abs(ref))


def check(task: Task, ref, rc: int, rows) -> tuple[int, bool]:
    """(values passed, task passed) for one CLI run.

    ``rows`` is the parsed ``rows`` list of the JSON output, or None when
    the CLI wrote none or wrote something that does not parse.
    """
    grid = task.grid()
    if task.name == "rd-solve":
        expected = len(grid) * len(task.params["n0"])
    else:
        expected = len(grid)
    per_row = 2 if task.name == "verify" else 1
    if rc != 0 or rows is None or len(rows) != expected:
        return 0, False
    if task.name == "rd-solve":
        good = _rd_good(task, ref, rows)
        return good, good == expected
    good = 0
    placed = True
    gates = True
    for row, at, want in zip(rows, grid, ref):
        placed = placed and row[0] == at
        if task.name == "verify":
            _, closed, numeric, abs_err, residual = row
            good += series_ok(closed, want) + talbot_ok(numeric, want)
            gates = (gates and abs_err == abs(closed - numeric)
                     and abs_err <= VERIFY_TOL * max(1.0, abs(closed))
                     and abs(residual) <= RESIDUAL_GATE)
        elif task.name == "invert-lt":
            good += talbot_ok(row[1], want)
        else:
            good += series_ok(row[1], want)
    return good, placed and gates and good == expected * per_row


def _rd_good(task: Task, ref: dict, rows) -> int:
    m = len(task.params["n0"])
    got = np.array(rows, dtype=float).reshape(len(task.grid()), m, 3)
    x = np.arange(m) * (task.params["length"] / m)
    placed = (np.array_equal(got[:, :, 0], np.broadcast_to(x, got.shape[:2]))
              and np.array_equal(got[:, 0, 1], np.array(task.grid())))
    if not placed:
        return 0
    err = np.abs(got[:, :, 2] - ref["field"])
    return int(np.sum(err <= ref["tol"][:, None]))
