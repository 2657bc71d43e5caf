"""The package's public surface and what importing it loads."""

import os
import pathlib
import subprocess
import sys

import mittag_kinetics

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_public_names_resolve():
    missing = [name for name in mittag_kinetics.__all__ if not hasattr(mittag_kinetics, name)]
    assert missing == []


def test_cli_import_leaves_out_scipy_integrate():
    # only the forward-quadrature oracle needs it, and no CLI task calls that
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import sys, mittag_kinetics.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
