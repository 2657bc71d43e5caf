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
names one. Every parameter is validated before any computation starts;
malformed specs exit with status 2 and a JSON error object on stderr,
numerical failures exit with status 3, success with 0. Output goes to
the spec path, the --out override, or stdout, with numbers rendered at
17 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
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

TASKS = (
    "eval-ml",
    "eval-wright",
    "solve-kinetic",
    "invert-lt",
    "invert-three-term",
    "rd-solve",
    "verify",
)

# invert-three-term "numerator" values and the catalog kinds they name
_NUMERATORS = {"alpha-minus-one": ThreeTermAlpha, "beta-minus-one": ThreeTermBeta}

_RESIDUAL_GATE = 1e-4
_VERIFY_TOL = 1e-5

Rows = list[list[float]]
Meta = dict | None


def _fail(message: str) -> SpecError:
    return SpecError(message)


def _as_float(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise _fail(f"{what} must be a number, got {obj!r}")
    return float(obj)


def _check_keys(params: dict, allowed: set[str], task: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise _fail(f"unknown parameter(s) for {task}: {', '.join(sorted(unknown))}")


def _load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise _fail(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _fail(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise _fail("spec must be a JSON object")
    if spec.get("version") != "1":
        raise _fail(f"unsupported spec version {spec.get('version')!r}, expected \"1\"")
    unknown = set(spec) - {"version", "task", "parameters", "grid", "output"}
    if unknown:
        raise _fail(f"unknown spec key(s): {', '.join(sorted(unknown))}")
    return spec


def _parse_grid_flag(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _fail(f"--grid wants START:STOP:N, got {text!r}")
    try:
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _fail(f"--grid wants numeric START:STOP:N, got {text!r}") from exc
    return _make_grid(start, stop, n)


def _make_grid(start: float, stop: float, n: int) -> list[float]:
    if n < 1:
        raise _fail(f"grid needs at least one point, got n={n}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _fail("grid bounds must be finite")
    if n == 1:
        return [start]
    if stop <= start:
        raise _fail(f"grid needs stop > start, got [{start}, {stop}]")
    return [float(v) for v in np.linspace(start, stop, n)]


def _grid_of(spec: dict, override: str | None) -> list[float]:
    if override is not None:
        return _parse_grid_flag(override)
    grid = spec.get("grid")
    if not isinstance(grid, dict):
        raise _fail("spec needs a grid object {start, stop, n} (or use --grid)")
    _check_keys(grid, {"start", "stop", "n"}, "the grid object")
    for key in ("start", "stop", "n"):
        if key not in grid:
            raise _fail(f"grid is missing {key!r}")
    n = grid["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise _fail(f"grid n must be an integer, got {n!r}")
    return _make_grid(
        _as_float(grid["start"], "grid start"), _as_float(grid["stop"], "grid stop"), n
    )


def _tol_or(tol: float | None, default: float) -> float:
    """The --tol value, refused outside (0, 1), or ``default`` when not given."""
    if tol is None:
        return default
    if not 0.0 < tol < 1.0:
        raise _fail(f"--tol must be in (0, 1), got {tol}")
    return tol


def _series_config(tol: float | None) -> SeriesConfig:
    return SeriesConfig(rel_tol=_tol_or(tol, DEFAULT_SERIES_CONFIG.rel_tol))


def _positive_grid(grid: Sequence[float], what: str) -> None:
    if min(grid) <= 0.0:
        raise _fail(f"{what} requires strictly positive grid values")


def _kinetic_problem(params: dict) -> KineticProblem:
    _check_keys(params, {"kind", "n0", "c", "nu", "mu", "gamma", "d"}, "the kinetic problem")
    try:
        kind = ProblemKind(params.get("kind"))
    except ValueError:
        choices = ", ".join(k.value for k in ProblemKind)
        raise _fail(f"kinetic kind must be one of {choices}, got {params.get('kind')!r}")
    kwargs = {}
    for key in ("n0", "c", "nu", "mu", "gamma", "d"):
        if key in params:
            kwargs[key] = _as_float(params[key], key)
    for key in ("n0", "c", "nu"):
        if key not in kwargs:
            raise _fail(f"kinetic problem is missing {key!r}")
    return KineticProblem(kind, **kwargs)


def _pair_list(obj, what: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(obj, list):
        raise _fail(f"{what} must be a list of [a, b] pairs")
    out = []
    for item in obj:
        if not (isinstance(item, list) and len(item) == 2):
            raise _fail(f"{what} must contain [a, b] pairs, got {item!r}")
        out.append((_as_float(item[0], what), _as_float(item[1], what)))
    return tuple(out)


def _build_eval_ml(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"nu", "mu", "gamma"}, "eval-ml")
    ml = MLParams(
        nu=_as_float(params.get("nu"), "nu"),
        mu=_as_float(params.get("mu", 1.0), "mu"),
        gamma=_as_float(params.get("gamma", 1.0), "gamma"),
    )
    cfg = _series_config(tol)
    if max(abs(z) for z in grid) > cfg.max_abs_z:
        raise _fail(f"grid exceeds the series domain |z| <= {cfg.max_abs_z}")

    def compute() -> tuple[Rows, Meta]:
        return [[z, ml_eval(ml, z, cfg)] for z in grid], None

    return ["z", "value"], compute


def _build_eval_wright(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"upper", "lower"}, "eval-wright")
    wp = WrightParams(
        upper=_pair_list(params.get("upper", []), "upper"),
        lower=_pair_list(params.get("lower", []), "lower"),
    )
    cfg = _series_config(tol)
    if max(abs(z) for z in grid) > cfg.max_abs_z:
        raise _fail(f"grid exceeds the series domain |z| <= {cfg.max_abs_z}")

    def compute() -> tuple[Rows, Meta]:
        return [[z, wright_eval(wp, z, cfg)] for z in grid], None

    return ["z", "value"], compute


def _build_solve_kinetic(params: dict, grid: list[float], tol: float | None):
    problem = _kinetic_problem(params)
    series = solve(problem)
    cfg = _series_config(tol)
    if min(grid) < 0.0 or (min(grid) == 0.0 and any(t.power < 0.0 for t in series.terms)):
        raise _fail("solution grid must stay where the series is defined (t > 0 here)")

    def compute() -> tuple[Rows, Meta]:
        return [[t, series.evaluate(t, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_invert_lt(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"descriptor", "nodes"}, "invert-lt")
    desc_spec = params.get("descriptor")
    if not isinstance(desc_spec, dict) or "kind" not in desc_spec:
        raise _fail("invert-lt needs a descriptor object with a \"kind\"")
    cls = DESCRIPTOR_KINDS.get(desc_spec["kind"])
    if cls is None:
        raise _fail(
            f"unknown descriptor kind {desc_spec['kind']!r}; "
            f"known: {', '.join(sorted(DESCRIPTOR_KINDS))}"
        )
    kwargs = {}
    for key, value in desc_spec.items():
        if key == "kind":
            continue
        if key in ("plus", "minus"):
            kwargs[key] = _pair_list(value, key)
        else:
            kwargs[key] = _as_float(value, key)
    try:
        descriptor = cls(**kwargs)
    except TypeError as exc:
        raise _fail(f"bad descriptor parameters: {exc}") from exc
    target = _tol_or(tol, 1e-8)
    # nodes is M of the mpmath fixed-Talbot stage (M and 2M nodes); the
    # double-precision stage tried first always sums at 32 and 64
    nodes = params.get("nodes", 64)
    if isinstance(nodes, bool) or not isinstance(nodes, int):
        raise _fail(f"nodes must be an integer, got {nodes!r}")
    cfg = InversionConfig(M=nodes, precision_target=target)
    _positive_grid(grid, "inversion")

    def compute() -> tuple[Rows, Meta]:
        return [[t, lt_invert_numeric(descriptor, t, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_invert_three_term(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"alpha", "beta", "a", "b", "numerator", "outer_terms"},
                "invert-three-term")
    numerator = params.get("numerator", "alpha-minus-one")
    kind = _NUMERATORS.get(numerator) if isinstance(numerator, str) else None
    if kind is None:
        choices = ", ".join(_NUMERATORS)
        raise _fail(f"numerator must be one of {choices}, got {numerator!r}")
    d = kind(
        alpha=_as_float(params.get("alpha"), "alpha"),
        beta=_as_float(params.get("beta"), "beta"),
        a=_as_float(params.get("a"), "a"),
        b=_as_float(params.get("b"), "b"),
    )
    outer = params.get("outer_terms", 64)
    if isinstance(outer, bool) or not isinstance(outer, int) or outer < 1:
        raise _fail(f"outer_terms must be a positive integer, got {outer!r}")
    cfg = _series_config(tol)
    _positive_grid(grid, "inversion")

    def compute() -> tuple[Rows, Meta]:
        return [[t, invert_three_term(d, t, outer, cfg)] for t in grid], None

    return ["t", "N"], compute


def _build_rd_solve(params: dict, grid: list[float], tol: float | None):
    _check_keys(params, {"a", "nu2", "xi", "length", "n0", "n1", "solver", "dt"}, "rd-solve")
    solver = params.get("solver", "spectral")
    if solver not in ("spectral", "fd"):
        raise _fail(f"solver must be \"spectral\" or \"fd\", got {solver!r}")
    for key in ("n0", "n1"):
        if not isinstance(params.get(key), list):
            raise _fail(f"rd-solve needs {key!r} as a list of samples")
    problem = RDProblem(
        a=_as_float(params.get("a", 0.0), "a"),
        nu2=_as_float(params.get("nu2"), "nu2"),
        xi=_as_float(params.get("xi", 0.0), "xi"),
        length=_as_float(params.get("length"), "length"),
        n0=np.asarray(params["n0"], dtype=float),
        n1=np.asarray(params["n1"], dtype=float),
        times=tuple(grid),
    )
    dt = None
    if solver == "fd":
        if "dt" not in params:
            raise _fail("the fd solver needs a dt parameter")
        dt = _as_float(params["dt"], "dt")
    elif "dt" in params:
        raise _fail("dt only applies to the fd solver")

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
    "eval-ml": _build_eval_ml,
    "eval-wright": _build_eval_wright,
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
    sub = parser.add_subparsers(dest="task", required=True, metavar="|".join(TASKS))
    for task in TASKS:
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
            raise _fail(f"spec names task {spec['task']!r} but {args.task!r} was requested")
        params = spec.get("parameters", {})
        if not isinstance(params, dict):
            raise _fail("parameters must be a JSON object")
        grid = _grid_of(spec, args.grid)
        output = spec.get("output", {})
        if not isinstance(output, dict):
            raise _fail("output must be a JSON object")
        _check_keys(output, {"format", "path"}, "the output object")
        fmt = args.fmt or output.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise _fail(f"output format must be csv or json, got {fmt!r}")
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
