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
task's own keys, such as invert-lt's "descriptor.kind" and "nodes";
rd-solve reads RDProblem itself. Names, defaults and value checks live
in the records, which refuse NaN and infinite numbers.

Every parameter is validated before any computation starts;
malformed specs exit with status 2 and a JSON error object on stderr,
numerical failures exit with status 3, success with 0. Output goes to
the spec path, the --out override, or stdout, with numbers rendered at
17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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


def _make_grid(start: float, stop: float, n: int) -> list[float]:
    if n < 1:
        raise SpecError(f"grid needs at least one point, got n={n}")
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
    n = grid["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise SpecError(f"grid n must be an integer, got {n!r}")
    return _make_grid(
        _as_float(grid["start"], "grid start"), _as_float(grid["stop"], "grid stop"), n
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
    name = fields.pop("kind", None)
    try:
        kind = ProblemKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in ProblemKind)
        raise SpecError(f"kinetic kind must be one of {choices}, got {name!r}") from None
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
    if not isinstance(desc, dict) or "kind" not in desc:
        raise SpecError("invert-lt needs a descriptor object with a \"kind\"")
    fields = dict(desc)
    name = fields.pop("kind")
    cls = DESCRIPTOR_KINDS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise SpecError(
            f"unknown descriptor kind {name!r}; known: {', '.join(sorted(DESCRIPTOR_KINDS))}"
        )
    descriptor = _record(cls, fields, name)
    target = _tol_or(tol, 1e-8)
    # nodes is M of the mpmath fixed-Talbot stage (M and 2M nodes); the
    # double-precision stage tried first always sums at 32 and 64
    nodes = params.get("nodes", 64)
    if isinstance(nodes, bool) or not isinstance(nodes, int):
        raise SpecError(f"nodes must be an integer, got {nodes!r}")
    cfg = InversionConfig(M=nodes, precision_target=target)
    _positive_grid(grid, "inversion")

    def compute() -> tuple[Rows, Meta]:
        return [[t, lt_invert_numeric(descriptor, t, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_invert_three_term(params: dict, grid: list[float], tol: float | None):
    fields = dict(params)
    numerator = fields.pop("numerator", "alpha-minus-one")
    outer = fields.pop("outer_terms", 64)
    kind = _NUMERATORS.get(numerator) if isinstance(numerator, str) else None
    if kind is None:
        choices = ", ".join(_NUMERATORS)
        raise SpecError(f"numerator must be one of {choices}, got {numerator!r}")
    d = _record(kind, fields, "invert-three-term")
    if isinstance(outer, bool) or not isinstance(outer, int) or outer < 1:
        raise SpecError(f"outer_terms must be a positive integer, got {outer!r}")
    cfg = _series_config(tol)
    _positive_grid(grid, "inversion")

    def compute() -> tuple[Rows, Meta]:
        return [[t, invert_three_term(d, t, outer, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_rd_solve(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"a", "nu2", "xi", "length", "n0", "n1", "solver", "dt"}, "rd-solve")
    solver = params.get("solver", "spectral")
    if solver not in ("spectral", "fd"):
        raise SpecError(f"solver must be \"spectral\" or \"fd\", got {solver!r}")
    samples = {}
    for key in ("n0", "n1"):
        values = params.get(key)
        if not isinstance(values, list):
            raise SpecError(f"rd-solve needs {key!r} as a list of samples")
        samples[key] = np.array([_as_float(v, key) for v in values])
    problem = RDProblem(
        a=_as_float(params.get("a", 0.0), "a"),
        nu2=_as_float(params.get("nu2"), "nu2"),
        xi=_as_float(params.get("xi", 0.0), "xi"),
        length=_as_float(params.get("length"), "length"),
        n0=samples["n0"],
        n1=samples["n1"],
        times=tuple(grid),
    )
    dt = None
    if solver == "fd":
        if "dt" not in params:
            raise SpecError("the fd solver needs a dt parameter")
        dt = _as_float(params["dt"], "dt")
        if not 0.0 < dt < math.inf:
            raise SpecError(f"dt must be positive and finite, got {dt}")
    elif "dt" in params:
        raise SpecError("dt only applies to the fd solver")

    def compute() -> tuple[Rows, Meta]:
        sol = rd_solve_spectral(problem) if solver == "spectral" else rd_solve_fd(problem, dt)
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


_BUILDERS: dict[str, Callable] = {
    "eval-ml": functools.partial(_build_eval, MLParams, ml_eval, "eval-ml"),
    "eval-wright": functools.partial(_build_eval, WrightParams, wright_eval, "eval-wright"),
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
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _sig17(obj)
    return json.dumps(obj)


def _render(task: str, columns: list[str], rows: Rows, fmt: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_sig17(v) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {"version": "1", "task": task, "columns": columns, "rows": rows}
    return _json_text(payload) + "\n"


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
        p.add_argument("--format", choices=("csv", "json"), dest="fmt",
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
        fmt = args.fmt or output.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise SpecError(f"output format must be csv or json, got {fmt!r}")
        path = args.out or output.get("path")
        columns, compute = _BUILDERS[args.task](params, grid, args.tol)
    except MittagKineticsError as exc:
        _emit_error("spec", exc)
        return 2

    try:
        rows, meta = compute()
    except MittagKineticsError as exc:
        _emit_error("numerical", exc)
        return 3

    text = _render(args.task, columns, rows, fmt)
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

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
