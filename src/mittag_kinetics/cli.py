"""Command-line front end for the solvers and oracles.

Tasks are driven by a JSON spec file (schema version "1"):

    {
      "version": "1",
      "task": "solve-kinetic",
      "parameters": {"kind": "basic", "n0": 1.0, "c": 1.0, "nu": 0.7},
      "grid": {"start": 0.1, "stop": 3.0, "n": 30},
      "output": {"format": "csv", "path": "out.csv"}
    }

The task named on the command line must match the spec when the spec
names one. A task's parameter keys are the fields of the frozen record
it builds (``_record`` reads them from its dataclass fields) plus the
task's own keys, such as invert-lt's "descriptor.kind" and "nodes".
Names, defaults and value checks live in the records, which refuse NaN
and infinite numbers. Each kind of spec value has one reader: numbers
``_as_float``, counts ``_as_int`` (grid n up to 100,000, nodes up to
1,024), names in a fixed table ``_choice``, lists ``_pair_list`` and
``_samples``.

Every parameter and the output path are validated before any
computation starts; malformed specs and unusable output paths exit with
status 2 and a JSON error object on stderr, numerical failures exit with
status 3, success with 0. Output goes to the --out override, the spec
path, or stdout, with numbers rendered at 17 significant digits so
reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import MittagKineticsError, SpecError
from .fracint import residual_check
from .kinetics import KineticProblem, ProblemKind, invert_three_term, solve, transform_of
from .laplace import (
    DESCRIPTOR_KINDS,
    InversionConfig,
    ThreeTermAlpha,
    ThreeTermBeta,
    lt_invert_numeric,
)
from .special_functions import (
    DEFAULT_SERIES_CONFIG,
    MLParams,
    SeriesConfig,
    WrightParams,
    ml_eval,
    wright_eval,
)
from .reaction_diffusion import RDProblem, rd_solve_fd, rd_solve_spectral

# invert-three-term "numerator" values and the catalog kinds they name
_NUMERATORS = {"alpha-minus-one": ThreeTermAlpha, "beta-minus-one": ThreeTermBeta}

_KINETIC_KINDS = {kind.value: kind for kind in ProblemKind}

# largest grid n and nodes; at 1,024 nodes the mpmath stage sums 2,048 at ~380 digits
_MAX_GRID_POINTS = 100_000
_MAX_NODES = 1_024

# record fields read from the spec as lists of [a, b] pairs; every other
# field is read as a number
_PAIR_FIELDS = frozenset({"plus", "minus", "upper", "lower"})

_RESIDUAL_GATE = 1e-4
_VERIFY_TOL = 1e-5

Rows = list[list[float]]
Meta = dict | None


def _as_float(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecError(f"{what} must be a number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:  # an integer literal beyond float range
        raise SpecError(f"{what} is beyond float range") from None


def _as_int(obj, what: str, least: int, most: int | None = None) -> int:
    if (isinstance(obj, bool) or not isinstance(obj, int) or obj < least
            or (most is not None and obj > most)):
        span = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise SpecError(f"{what} must be an integer {span}, got {obj!r}")
    return obj


def _choice(table: dict, name, what: str):
    """``table[name]``, or SpecError naming the choices."""
    if isinstance(name, str) and name in table:
        return table[name]
    raise SpecError(f"{what} must be one of {', '.join(table)}, got {name!r}")


def _check_keys(params: dict, allowed: set[str], task: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise SpecError(f"unknown parameter(s) for {task}: {', '.join(sorted(unknown))}")


def _load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise SpecError("spec must be a JSON object")
    if spec.get("version") != "1":
        raise SpecError(f"unsupported spec version {spec.get('version')!r}, expected \"1\"")
    unknown = set(spec) - {"version", "task", "parameters", "grid", "output"}
    if unknown:
        raise SpecError(f"unknown spec key(s): {', '.join(sorted(unknown))}")
    return spec


def _parse_grid_flag(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"--grid wants START:STOP:N, got {text!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecError(f"--grid wants numeric START:STOP:N, got {text!r}") from exc
    return _make_grid(start, stop, n)


def _make_grid(start: float, stop: float, n) -> list[float]:
    n = _as_int(n, "grid n", 1, _MAX_GRID_POINTS)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise SpecError("grid bounds must be finite")
    if n == 1:
        return [start]
    if stop <= start:
        raise SpecError(f"grid needs stop > start, got [{start}, {stop}]")
    return [float(v) for v in np.linspace(start, stop, n)]


def _grid_of(spec: dict, override: str | None) -> list[float]:
    if override is not None:
        return _parse_grid_flag(override)
    grid = spec.get("grid")
    if not isinstance(grid, dict):
        raise SpecError("spec needs a grid object {start, stop, n} (or use --grid)")
    _check_keys(grid, {"start", "stop", "n"}, "the grid object")
    for key in ("start", "stop", "n"):
        if key not in grid:
            raise SpecError(f"grid is missing {key!r}")
    return _make_grid(
        _as_float(grid["start"], "grid start"), _as_float(grid["stop"], "grid stop"), grid["n"]
    )


def _tol_or(tol: float | None, default: float) -> float:
    """The --tol value, refused outside (0, 1), or ``default`` when not given."""
    if tol is None:
        return default
    if not 0.0 < tol < 1.0:
        raise SpecError(f"--tol must be in (0, 1), got {tol}")
    return tol


def _series_config(tol: float | None) -> SeriesConfig:
    return SeriesConfig(rel_tol=_tol_or(tol, DEFAULT_SERIES_CONFIG.rel_tol))


def _positive_grid(grid: Sequence[float], what: str) -> None:
    if min(grid) <= 0.0:
        raise SpecError(f"{what} requires strictly positive grid values")


def _pair_list(obj, what: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(obj, list):
        raise SpecError(f"{what} must be a list of [a, b] pairs")
    out = []
    for item in obj:
        if not (isinstance(item, list) and len(item) == 2):
            raise SpecError(f"{what} must contain [a, b] pairs, got {item!r}")
        out.append((_as_float(item[0], what), _as_float(item[1], what)))
    return tuple(out)


def _samples(obj, what: str) -> np.ndarray:
    if not isinstance(obj, list):
        raise SpecError(f"rd-solve needs {what!r} as a list of samples")
    return np.array([_as_float(v, what) for v in obj])


def _record(cls, params: dict, what: str, **given):
    """The frozen record ``cls(**given, ...)`` with its other fields read
    from the spec object ``params``.

    Unknown keys and missing required fields are refused with SpecError;
    values are checked by the record itself.
    """
    fields = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_keys(params, {f.name for f in fields}, what)
    kwargs = dict(given)
    for f in fields:
        if f.name in params:
            read = _pair_list if f.name in _PAIR_FIELDS else _as_float
            kwargs[f.name] = read(params[f.name], f.name)
        elif f.default is dataclasses.MISSING:
            raise SpecError(f"{what} is missing {f.name!r}")
    return cls(**kwargs)


def _kinetic_problem(params: dict) -> KineticProblem:
    fields = dict(params)
    kind = _choice(_KINETIC_KINDS, fields.pop("kind", None), "kinetic kind")
    return _record(KineticProblem, fields, "the kinetic problem", kind=kind)


def _build_eval(cls, evaluate, task: str, params: dict, grid: list[float], tol: float | None):
    record = _record(cls, params, task)
    cfg = _series_config(tol)
    if max(abs(z) for z in grid) > cfg.max_abs_z:
        raise SpecError(f"grid exceeds the series domain |z| <= {cfg.max_abs_z}")

    def compute() -> tuple[Rows, Meta]:
        return [[z, evaluate(record, z, cfg)] for z in grid], None

    return ["z", "value"], compute


def _build_solve_kinetic(params: dict, grid: list[float], tol: float | None):
    problem = _kinetic_problem(params)
    series = solve(problem)
    cfg = _series_config(tol)
    if min(grid) < 0.0 or (min(grid) == 0.0 and any(t.power < 0.0 for t in series.terms)):
        raise SpecError("solution grid must stay where the series is defined (t > 0 here)")

    def compute() -> tuple[Rows, Meta]:
        return [[t, series.evaluate(t, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_invert_lt(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"descriptor", "nodes"}, "invert-lt")
    desc = params.get("descriptor")
    if not isinstance(desc, dict):
        raise SpecError("invert-lt needs a descriptor object with a \"kind\"")
    fields = dict(desc)
    cls = _choice(DESCRIPTOR_KINDS, fields.pop("kind", None), "descriptor kind")
    descriptor = _record(cls, fields, cls.__name__)
    target = _tol_or(tol, 1e-8)
    # nodes is M of the mpmath fixed-Talbot stage (M and 2M nodes); the
    # double-precision stage tried first always sums at 32 and 64
    nodes = _as_int(params.get("nodes", 64), "nodes", 16, _MAX_NODES)
    cfg = InversionConfig(M=nodes, precision_target=target)
    _positive_grid(grid, "inversion")

    def compute() -> tuple[Rows, Meta]:
        return [[t, lt_invert_numeric(descriptor, t, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_invert_three_term(params: dict, grid: list[float], tol: float | None):
    fields = dict(params)
    kind = _choice(_NUMERATORS, fields.pop("numerator", "alpha-minus-one"), "numerator")
    outer = _as_int(fields.pop("outer_terms", 64), "outer_terms", 1)
    d = _record(kind, fields, "invert-three-term")
    cfg = _series_config(tol)
    _positive_grid(grid, "inversion")

    def compute() -> tuple[Rows, Meta]:
        return [[t, invert_three_term(d, t, outer, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_rd_solve(params: dict, grid: list[float], tol: float | None):
    fields = dict(params)
    stepped = _choice({"spectral": False, "fd": True}, fields.pop("solver", "spectral"), "solver")
    dt = fields.pop("dt", None)
    samples = {key: _samples(fields.pop(key, None), key) for key in ("n0", "n1")}
    problem = _record(RDProblem, fields, "rd-solve", times=tuple(grid), **samples)
    if stepped != (dt is not None):
        raise SpecError("the fd solver needs a dt parameter, and dt only applies to it")
    if stepped:
        dt = _as_float(dt, "dt")
        if not 0.0 < dt < math.inf:
            raise SpecError(f"dt must be positive and finite, got {dt}")
        # a stencil step takes 22-45 us at 16-1,024 modes on a 2-vCPU VM: under a minute at the bound
        if max(grid) > 1_000_000 * dt:
            raise SpecError(f"the fd solver takes at most 1,000,000 steps, got {max(grid) / dt:.6g}")

    def compute() -> tuple[Rows, Meta]:
        sol = rd_solve_fd(problem, dt) if stepped else rd_solve_spectral(problem)
        rows = []
        for row, t in enumerate(sol.times):
            for j, x in enumerate(sol.x):
                rows.append([float(x), t, float(sol.field[row, j])])
        return rows, None

    return ["x", "t", "N"], compute


def _build_verify(params: dict, grid: list[float], tol: float | None):
    problem = _kinetic_problem(params)
    series = solve(problem)
    descriptor = transform_of(problem)
    _positive_grid(grid, "verification")
    gate = _tol_or(tol, _VERIFY_TOL)

    def compute() -> tuple[Rows, Meta]:
        residuals = residual_check(problem, series, grid)
        rows = []
        worst_err = 0.0
        worst_res = 0.0
        for t, res in zip(grid, residuals):
            closed = series(t)
            numeric = lt_invert_numeric(descriptor, t)
            abs_err = abs(closed - numeric)
            rows.append([t, closed, numeric, abs_err, res])
            worst_err = max(worst_err, abs_err / max(1.0, abs(closed)))
            worst_res = max(worst_res, abs(res))
        meta = {
            "max_abs_err": worst_err,
            "max_residual": worst_res,
            "tolerance": gate,
            "pass": worst_err <= gate and worst_res <= _RESIDUAL_GATE,
        }
        return rows, meta

    return ["t", "closed_form", "numeric", "abs_err", "residual"], compute


# the evaluators are looked up at call time, so a wrapper installed on the
# module's names (a tracer, a test's counter) sees the eval tasks' calls
_BUILDERS: dict[str, Callable] = {
    "eval-ml": lambda *args: _build_eval(MLParams, ml_eval, "eval-ml", *args),
    "eval-wright": lambda *args: _build_eval(WrightParams, wright_eval, "eval-wright", *args),
    "solve-kinetic": _build_solve_kinetic,
    "invert-lt": _build_invert_lt,
    "invert-three-term": _build_invert_three_term,
    "rd-solve": _build_rd_solve,
    "verify": _build_verify,
}


def _sig17(x: float) -> str:
    return f"{float(x):.17g}"


def _json_text(obj) -> str:
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_text(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in obj) + "]"
    if isinstance(obj, float):
        return _sig17(obj)
    return json.dumps(obj)


def _render_csv(task: str, columns: list[str], rows: Rows) -> str:
    lines = [",".join(columns)] + [",".join(_sig17(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _render_json(task: str, columns: list[str], rows: Rows) -> str:
    return _json_text({"version": "1", "task": task, "columns": columns, "rows": rows}) + "\n"


_FORMATS = {"csv": _render_csv, "json": _render_json}


def _emit_error(kind: str, exc: BaseException) -> None:
    obj = {"error": {"type": type(exc).__name__, "kind": kind, "message": str(exc)}}
    print(json.dumps(obj), file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mittag-kinetics",
        description="Fractional kinetic solvers, Mittag-Leffler evaluation, and "
        "Laplace-transform oracles.",
    )
    sub = parser.add_subparsers(dest="task", required=True, metavar="|".join(_BUILDERS))
    for task in _BUILDERS:
        p = sub.add_parser(task)
        p.add_argument("--spec", required=True, help="JSON problem spec file")
        p.add_argument("--out", help="output path (default: spec output.path or stdout)")
        p.add_argument("--format", choices=tuple(_FORMATS), dest="fmt",
                       help="output format (default: spec output.format or csv)")
        p.add_argument("--tol", type=float,
                       help="numerical tolerance where the task has one")
        p.add_argument("--grid", help="START:STOP:N override of the spec grid")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        spec = _load_spec(args.spec)
        if "task" in spec and spec["task"] != args.task:
            raise SpecError(f"spec names task {spec['task']!r} but {args.task!r} was requested")
        params = spec.get("parameters", {})
        if not isinstance(params, dict):
            raise SpecError("parameters must be a JSON object")
        grid = _grid_of(spec, args.grid)
        output = spec.get("output", {})
        if not isinstance(output, dict):
            raise SpecError("output must be a JSON object")
        _check_keys(output, {"format", "path"}, "the output object")
        render = _choice(_FORMATS, args.fmt or output.get("format", "csv"), "output format")
        path = args.out if args.out is not None else output.get("path")
        if path is not None and not (isinstance(path, str) and path):
            raise SpecError(f"output path must be a non-empty string, got {path!r}")
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise SpecError(f"the directory of output path {path!r} does not exist")
        columns, compute = _BUILDERS[args.task](params, grid, args.tol)
    except MittagKineticsError as exc:
        _emit_error("spec", exc)
        return 2

    try:
        rows, meta = compute()
    except MittagKineticsError as exc:
        _emit_error("numerical", exc)
        return 3

    text = render(args.task, columns, rows)
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            _emit_error("spec", exc)
            return 2

    if meta is not None:
        print(
            f"verify: max relative deviation {_sig17(meta['max_abs_err'])}, "
            f"max residual {_sig17(meta['max_residual'])}",
            file=sys.stderr,
        )
        if not meta["pass"]:
            _emit_error("numerical", MittagKineticsError(
                f"verification failed: deviation {_sig17(meta['max_abs_err'])} "
                f"(tolerance {_sig17(meta['tolerance'])}), "
                f"residual {_sig17(meta['max_residual'])} (gate {_sig17(_RESIDUAL_GATE)})"
            ))
            return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
