"""The package's public surface and what importing it loads."""

import json
import os
import pathlib
import subprocess
import sys

import mittag_kinetics

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve():
    missing = [name for name in mittag_kinetics.__all__ if not hasattr(mittag_kinetics, name)]
    assert missing == []


def _run(code: str, *args: str) -> str:
    # a fresh interpreter, so that what the package loads is not hidden by
    # what this test process has already imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_leaves_out_scipy():
    # only verify's residual quadrature and the forward-quadrature oracle need it
    code = ("import sys, mittag_kinetics.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    assert _run(code).strip() == "[]"


_SCIPY_FREE_SPECS = {
    "eval-ml": {"nu": 0.5},
    "eval-wright": {"upper": [[1.0, 1.0]], "lower": [[0.9, 0.5]]},
    "solve-kinetic": {"kind": "basic", "n0": 1.0, "c": 1.0, "nu": 0.5},
    "invert-lt": {"descriptor": {"kind": "GammaPower", "alpha": 1.0, "beta": 1.0}},
    "invert-three-term": {"alpha": 2.0, "beta": 1.0, "a": 0.6, "b": 4.0},
    "rd-solve": {"nu2": 1.0, "length": 6.0, "n0": [1.0, 0.0, -1.0, 0.0], "n1": [0.0] * 4},
}

# runs each task of argv[1] through cli.main in argv[2]; with argv[3] "block"
# scipy cannot be imported
_RUN_TASKS = """
import json, pathlib, sys
if sys.argv[3] == "block":
    sys.modules["scipy"] = None
from mittag_kinetics.cli import main
tasks, workdir = json.loads(sys.argv[1]), pathlib.Path(sys.argv[2])
codes = {}
for task, params in tasks.items():
    spec = workdir / f"{task}.json"
    spec.write_text(json.dumps({"version": "1", "parameters": params,
                                "grid": {"start": 0.5, "stop": 1.5, "n": 3}}))
    codes[task] = main([task, "--spec", str(spec), "--out", str(workdir / f"{task}.out")])
print(json.dumps([codes, "scipy.special" in sys.modules]))
"""


def test_tasks_run_without_scipy(tmp_path):
    # every task but verify
    out = _run(_RUN_TASKS, json.dumps(_SCIPY_FREE_SPECS), str(tmp_path), "block")
    codes, _ = json.loads(out)
    assert codes == {task: 0 for task in _SCIPY_FREE_SPECS}


def test_verify_loads_scipy_special_when_it_runs(tmp_path):
    verify = {"kind": "power-source", "n0": 1.0, "c": 1.2, "nu": 0.7, "mu": 1.4}
    out = _run(_RUN_TASKS, json.dumps({"verify": verify}), str(tmp_path), "allow")
    codes, loaded = json.loads(out)
    assert codes == {"verify": 0}
    assert loaded
