"""Tests for the command-line front end."""

import json
import math
import subprocess
import sys

import pytest

from mittag_kinetics.cli import main


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def basic_spec(**overrides):
    spec = {
        "version": "1",
        "task": "solve-kinetic",
        "parameters": {"kind": "basic", "n0": 1.0, "c": 1.0, "nu": 1.0},
        "grid": {"start": 1.0, "stop": 1.0, "n": 1},
    }
    spec.update(overrides)
    return spec


class TestSolveKinetic:
    def test_exponential_row(self, tmp_path, capsys):
        code = main(["solve-kinetic", "--spec", write_spec(tmp_path, basic_spec())])
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "t,N"
        t, n = row.split(",")
        assert float(t) == 1.0
        assert float(n) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_output_file_and_determinism(self, tmp_path):
        spec = basic_spec(grid={"start": 0.1, "stop": 3.0, "n": 7})
        path = write_spec(tmp_path, spec)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve-kinetic", "--spec", path, "--out", str(out1)]) == 0
        assert main(["solve-kinetic", "--spec", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().splitlines()) == 8

    def test_grid_flag_overrides_spec(self, tmp_path, capsys):
        path = write_spec(tmp_path, basic_spec())
        assert main(["solve-kinetic", "--spec", path, "--grid", "0.5:2.0:4"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0]

    def test_spec_output_path(self, tmp_path):
        target = tmp_path / "result.csv"
        spec = basic_spec(output={"format": "csv", "path": str(target)})
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 0
        assert target.exists()


    @pytest.mark.parametrize("n0, mu", [(1.0, 172.0), (1e10, 171.0)])
    def test_power_source_weight_beyond_float_range(self, tmp_path, capsys, n0, mu):
        # Gamma(172) ended in a traceback; 1e10 Gamma(171) wrote inf rows
        spec = basic_spec(parameters={"kind": "power-source", "n0": n0, "c": 1.0,
                                      "nu": 0.5, "mu": mu},
                          grid={"start": 0.5, "stop": 1.0, "n": 2})
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["kind"]) == ("DomainError", "spec")


class TestOutputPath:
    # the three-term spec fails numerically (exit 3) once computed, so
    # exit 2 shows the path was refused before any computation
    DIVERGENT = {"version": "1", "task": "invert-three-term",
                 "parameters": {"alpha": 1.5, "beta": 0.5, "a": 8.0, "b": 1.0},
                 "grid": {"start": 3.0, "stop": 3.0, "n": 1}}

    @pytest.mark.parametrize("source, path", [
        ("spec", 7), ("spec", ""), ("spec", "missing/out.csv"),
        ("flag", ""), ("flag", "missing/out.csv"),
    ], ids=["spec-number", "spec-empty", "spec-missing-directory", "flag-empty",
            "flag-missing-directory"])
    def test_unusable_path_refused_before_computing(self, tmp_path, capsys, source, path):
        if path == "missing/out.csv":
            path = str(tmp_path / path)
        spec = dict(self.DIVERGENT)
        if source == "spec":
            spec["output"] = {"path": path}
            argv = ["invert-three-term", "--spec", write_spec(tmp_path, spec)]
        else:
            argv = ["invert-three-term", "--spec", write_spec(tmp_path, spec), "--out", path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["kind"]) == ("SpecError", "spec")
        assert "output path" in err["message"]
        assert not (tmp_path / "missing").exists()

    def test_write_failure_is_json_error(self, tmp_path, capsys):
        # a directory passes the path check and fails to open for writing
        path = write_spec(tmp_path, basic_spec())
        assert main(["solve-kinetic", "--spec", path, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["kind"]) == ("IsADirectoryError", "spec")


class TestEvalTasks:
    def test_ml_json(self, tmp_path, capsys):
        spec = {
            "version": "1",
            "parameters": {"nu": 1.0},
            "grid": {"start": 1.0, "stop": 1.0, "n": 1},
        }
        code = main(["eval-ml", "--spec", write_spec(tmp_path, spec), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"] == ["z", "value"]
        assert payload["rows"][0][1] == pytest.approx(math.e, rel=1e-12)

    def test_wright_exponential(self, tmp_path, capsys):
        spec = {
            "version": "1",
            "parameters": {"upper": [], "lower": []},
            "grid": {"start": 0.7, "stop": 0.7, "n": 1},
        }
        assert main(["eval-wright", "--spec", write_spec(tmp_path, spec)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_tasks_back_to_back_in_one_process(self, tmp_path, capsys):
        # the parser is built once per process: flags given to one call
        # (--grid, --format) must not carry over to the next
        kinetic = write_spec(tmp_path, basic_spec(), "kinetic.json")
        ml = write_spec(tmp_path, {
            "version": "1",
            "parameters": {"nu": 1.0},
            "grid": {"start": 1.0, "stop": 1.0, "n": 1},
        }, "ml.json")
        assert main(["solve-kinetic", "--spec", kinetic, "--grid", "0.5:1.0:2",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row[0] for row in payload["rows"]] == [0.5, 1.0]
        assert main(["eval-ml", "--spec", ml]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "z,value"
        assert float(row.split(",")[1]) == pytest.approx(math.e, rel=1e-12)
        assert main(["solve-kinetic", "--spec", kinetic]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "t,N"
        assert float(row.split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_evaluators_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # a wrapper installed on the CLI module's names (as the benchmark's
        # tracer installs its spans) sees every value of an eval task
        from mittag_kinetics import cli

        calls = []

        def counting(name):
            original = getattr(cli, name)

            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        for name in ("ml_eval", "wright_eval"):
            monkeypatch.setattr(cli, name, counting(name))
        grid = {"start": 0.5, "stop": 1.5, "n": 3}
        ml = write_spec(tmp_path, {"version": "1", "parameters": {"nu": 0.5}, "grid": grid},
                        "ml.json")
        wright = write_spec(tmp_path, {"version": "1", "grid": grid,
                                       "parameters": {"upper": [], "lower": []}}, "wright.json")
        assert main(["eval-ml", "--spec", ml, "--out", str(tmp_path / "ml.csv")]) == 0
        assert main(["eval-wright", "--spec", wright, "--out", str(tmp_path / "w.csv")]) == 0
        assert calls == ["ml_eval"] * 3 + ["wright_eval"] * 3

    def test_series_domain_precheck(self, tmp_path):
        spec = {
            "version": "1",
            "parameters": {"nu": 0.5},
            "grid": {"start": -100.0, "stop": 0.0, "n": 3},
        }
        assert main(["eval-ml", "--spec", write_spec(tmp_path, spec)]) == 2


class TestInversionTasks:
    def test_invert_lt_known_pair(self, tmp_path, capsys):
        spec = {
            "version": "1",
            "parameters": {"descriptor": {"kind": "GammaPower", "alpha": 1.0, "beta": 1.0}},
            "grid": {"start": 1.0, "stop": 1.0, "n": 1},
        }
        assert main(["invert-lt", "--spec", write_spec(tmp_path, spec)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-8)

    def test_invert_lt_unknown_kind(self, tmp_path):
        spec = {
            "version": "1",
            "parameters": {"descriptor": {"kind": "Nope"}},
            "grid": {"start": 1.0, "stop": 1.0, "n": 1},
        }
        assert main(["invert-lt", "--spec", write_spec(tmp_path, spec)]) == 2

    def test_three_term_oscillator(self, tmp_path, capsys):
        spec = {
            "version": "1",
            "parameters": {"alpha": 2.0, "beta": 1.0, "a": 0.6, "b": 4.0},
            "grid": {"start": 1.3, "stop": 1.3, "n": 1},
        }
        assert main(["invert-three-term", "--spec", write_spec(tmp_path, spec)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        om = math.sqrt(4.0 - 0.09)
        want = math.exp(-0.39) * (math.cos(1.3 * om) - 0.3 / om * math.sin(1.3 * om))
        assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-9)

    def test_three_term_beta_numerator(self, tmp_path, capsys):
        spec = {
            "version": "1",
            "parameters": {"alpha": 2.0, "beta": 1.0, "a": 0.6, "b": 4.0,
                           "numerator": "beta-minus-one"},
            "grid": {"start": 1.3, "stop": 1.3, "n": 1},
        }
        assert main(["invert-three-term", "--spec", write_spec(tmp_path, spec)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        om = math.sqrt(4.0 - 0.09)
        want = math.exp(-0.39) * math.sin(1.3 * om) / om
        assert float(row.split(",")[1]) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("numerator", ["gamma-minus-one", ["beta-minus-one"], 1.0])
    def test_three_term_unknown_numerator(self, tmp_path, capsys, numerator):
        spec = {
            "version": "1",
            "parameters": {"alpha": 2.0, "beta": 1.0, "a": 0.6, "b": 4.0,
                           "numerator": numerator},
            "grid": {"start": 1.3, "stop": 1.3, "n": 1},
        }
        assert main(["invert-three-term", "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "spec"
        assert "alpha-minus-one" in err["message"] and "beta-minus-one" in err["message"]

    @pytest.mark.parametrize("numerator", ["alpha-minus-one", "beta-minus-one"])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5, 1.5), (1.5, -0.2)])
    def test_three_term_order_refused(self, tmp_path, capsys, numerator, alpha, beta):
        spec = {
            "version": "1",
            "parameters": {"alpha": alpha, "beta": beta, "a": 0.6, "b": 4.0,
                           "numerator": numerator},
            "grid": {"start": 1.3, "stop": 1.3, "n": 1},
        }
        assert main(["invert-three-term", "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["kind"]) == ("DomainError", "spec")
        assert "alpha > beta >= 0" in err["message"]

    def test_three_term_divergence_is_numerical_failure(self, tmp_path, capsys):
        spec = {
            "version": "1",
            "parameters": {"alpha": 1.5, "beta": 0.5, "a": 8.0, "b": 1.0},
            "grid": {"start": 3.0, "stop": 3.0, "n": 1},
        }
        assert main(["invert-three-term", "--spec", write_spec(tmp_path, spec)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "numerical"

    def test_three_term_beyond_float_range_is_numerical_failure(self, tmp_path, capsys):
        # the outer series sums once wrote [t, inf] and [t, nan] rows,
        # which are not JSON, with exit 0
        spec = {
            "version": "1",
            "parameters": {"alpha": 0.21390099888124747, "beta": 0.20975756267490261,
                           "a": -2.9125305091202947, "b": -8.326539888178841},
            "grid": {"start": 0.018436655708995643, "stop": 0.02, "n": 2},
        }
        out = tmp_path / "out.json"
        args = ["invert-three-term", "--spec", write_spec(tmp_path, spec), "--format", "json"]
        assert main(args + ["--out", str(out)]) == 3
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["type"], err["kind"]) == ("DomainError", "numerical")

    def test_pole_outside_contour_is_numerical_failure(self, tmp_path, capsys):
        # the roots -0.05 +- 100i lie outside every contour at t = 1; the
        # node-doubling check alone printed 8.77e-18 for the value 0.82050
        spec = {
            "version": "1",
            "parameters": {"descriptor": {"kind": "ThreeTermAlpha", "a": 0.1, "b": 10000.0,
                                          "alpha": 2.0, "beta": 1.0}},
            "grid": {"start": 1.0, "stop": 1.0, "n": 1},
        }
        assert main(["invert-lt", "--spec", write_spec(tmp_path, spec)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["type"], err["kind"]) == ("InversionFailure", "numerical")

    def test_two_sided_output_frozen(self, tmp_path, capsys):
        # two-sided transforms take the mpmath fixed-Talbot stage only;
        # its output bytes stay as they were before the double stage
        spec = {
            "version": "1",
            "parameters": {"descriptor": {"kind": "ResidualProduct", "plus": [[1.5, 0.7]],
                                          "minus": [[1.2, 0.9]]}},
            "grid": {"start": 0.6, "stop": 2.4, "n": 4},
        }
        assert main(["invert-lt", "--spec", write_spec(tmp_path, spec)]) == 0
        assert capsys.readouterr().out == (
            "t,N\n"
            "0.59999999999999998,0.3087233548364573\n"
            "1.2,0.16520992908562299\n"
            "1.7999999999999998,0.08198630378819069\n"
            "2.3999999999999999,0.039173842782081775\n"
        )

    def test_nonpositive_grid_rejected(self, tmp_path):
        spec = {
            "version": "1",
            "parameters": {"descriptor": {"kind": "MLBasic", "c": 1.0, "nu": 0.5}},
            "grid": {"start": 0.0, "stop": 1.0, "n": 2},
        }
        assert main(["invert-lt", "--spec", write_spec(tmp_path, spec)]) == 2


class TestRdSolve:
    @staticmethod
    def spec(solver=None, dt=None, m=8):
        length = 2.0 * math.pi
        params = {
            "nu2": 1.0,
            "length": length,
            "n0": [math.cos(2.0 * math.pi * j / m) for j in range(m)],
            "n1": [0.0] * m,
        }
        if solver:
            params["solver"] = solver
        if dt is not None:
            params["dt"] = dt
        return {
            "version": "1",
            "parameters": params,
            "grid": {"start": 0.0, "stop": 1.0, "n": 2},
        }

    def test_spectral_rows(self, tmp_path, capsys):
        assert main(["rd-solve", "--spec", write_spec(tmp_path, self.spec())]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,t,N"
        assert len(lines) == 1 + 2 * 8
        x, t, n = (float(v) for v in lines[1].split(","))
        assert (x, t, n) == (0.0, 0.0, 1.0)

    def test_fd_solver(self, tmp_path, capsys):
        spec = self.spec(solver="fd", dt=0.125)
        assert main(["rd-solve", "--spec", write_spec(tmp_path, spec)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        final = [float(r.split(",")[2]) for r in lines[1 + 8:]]
        assert final[0] == pytest.approx(math.cos(1.0), abs=0.05)

    def test_dt_requires_fd(self, tmp_path):
        assert main(["rd-solve", "--spec", write_spec(tmp_path, self.spec(dt=0.1))]) == 2

    def test_fd_requires_dt(self, tmp_path):
        assert main(["rd-solve", "--spec", write_spec(tmp_path, self.spec(solver="fd"))]) == 2

    def test_tol_is_ignored(self, tmp_path):
        assert main(["rd-solve", "--spec", write_spec(tmp_path, self.spec()), "--tol", "0"]) == 0

    def test_spectral_work_bound(self, tmp_path, capsys):
        # 513 modes at 100 output times, about 50 s of inversions
        spec = self.spec(m=1024)
        spec["grid"] = {"start": 0.01, "stop": 1.0, "n": 100}
        assert main(["rd-solve", "--spec", write_spec(tmp_path, spec)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "spec" and "50,000 mode-times" in err["message"]

    def test_fd_step_bound(self, tmp_path, capsys):
        # 2,000,000 steps of dt = 0.01 to t = 2e4, over a minute of stencil
        # work, are refused before any of it runs
        spec = self.spec(solver="fd", dt=0.01)
        spec["grid"] = {"start": 0.0, "stop": 2e4, "n": 3}
        assert main(["rd-solve", "--spec", write_spec(tmp_path, spec)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "spec" and "1,000,000 steps" in err["message"]


class TestVerify:
    spec = {
        "version": "1",
        "parameters": {"kind": "power-source", "n0": 1.0, "c": 1.2, "nu": 0.7, "mu": 1.4},
        "grid": {"start": 0.1, "stop": 3.0, "n": 5},
    }

    def test_report(self, tmp_path, capsys):
        assert main(["verify", "--spec", write_spec(tmp_path, self.spec)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert lines[0] == "t,closed_form,numeric,abs_err,residual"
        assert len(lines) == 6
        for row in lines[1:]:
            t, closed, numeric, abs_err, residual = (float(v) for v in row.split(","))
            assert abs_err < 1e-5 * max(1.0, abs(closed))
            assert abs(residual) < 1e-4
        assert "max relative deviation" in captured.err

    def test_unreachable_tolerance_fails(self, tmp_path, capsys):
        path = write_spec(tmp_path, self.spec)
        assert main(["verify", "--spec", path, "--tol", "1e-16"]) == 3
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert json.loads(err_lines[-1])["error"]["kind"] == "numerical"

    def test_order_too_small_for_the_residual_mesh(self, tmp_path, capsys):
        # the mesh graded by 2/nu = 200 has its first node below the least
        # normal float: the residual was nan, reported as "max residual 0"
        # with exit 0
        spec = {**self.spec, "parameters": {"kind": "basic", "n0": 1.0, "c": 1.0, "nu": 0.01}}
        assert main(["verify", "--spec", write_spec(tmp_path, spec)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["kind"], err["type"]) == ("numerical", "QuadratureFailure")

    @pytest.mark.parametrize("nu", [0.6, 1.4])
    @pytest.mark.parametrize("mu", [0.9, 0.5, 0.2])
    def test_ml_source_at_mu_up_to_one(self, tmp_path, nu, mu):
        # once refused: the pair that solved it needed mu - 1 > 0
        params = {"kind": "ml-source", "n0": 1.0, "c": 1.2, "nu": nu, "mu": mu}
        spec = {**self.spec, "parameters": params}
        assert main(["verify", "--spec", write_spec(tmp_path, spec)]) == 0


@pytest.mark.parametrize("task, params, t", [
    ("verify", {"kind": "power-source", "n0": 1.0, "c": 1e-200, "nu": 0.5, "mu": 3.0}, 1e100),
    ("rd-solve", {"nu2": 1.0, "length": 1.0, "n0": [1.0, 0.0], "n1": [0.0, 0.0]}, 1e300),
    ("invert-three-term", {"a": 0.0, "b": 1.0, "alpha": 2.0, "beta": 1.0}, 1e300),
], ids=["verify", "rd-solve", "invert-three-term"])
def test_beyond_float_range_is_numerical_failure(tmp_path, capsys, task, params, t):
    # each exited 1 with a traceback from a float power's OverflowError
    spec = {"version": "1", "parameters": params, "grid": {"start": t, "stop": t, "n": 1}}
    assert main([task, "--spec", write_spec(tmp_path, spec)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip().splitlines()[-1])["error"]["kind"] == "numerical"


class TestSpecValidation:
    def test_missing_file(self, tmp_path):
        assert main(["eval-ml", "--spec", str(tmp_path / "none.json")]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["eval-ml", "--spec", str(path)]) == 2

    def test_wrong_version(self, tmp_path, capsys):
        assert main(["eval-ml", "--spec", write_spec(tmp_path, {"version": "2"})]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "SpecError"

    def test_task_mismatch(self, tmp_path):
        assert main(["eval-ml", "--spec", write_spec(tmp_path, basic_spec())]) == 2

    def test_unknown_parameter(self, tmp_path):
        spec = basic_spec()
        spec["parameters"]["rate"] = 2.0
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2

    def test_unknown_top_level_key(self, tmp_path, capsys):
        spec = basic_spec()
        spec["params"] = dict(spec["parameters"])
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert "params" in err["error"]["message"]

    def test_unknown_grid_key(self, tmp_path):
        spec = basic_spec()
        spec["grid"]["step"] = 0.1
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2

    def test_bad_kind(self, tmp_path):
        spec = basic_spec()
        spec["parameters"]["kind"] = "quintic"
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2

    def test_missing_grid(self, tmp_path):
        spec = basic_spec()
        del spec["grid"]
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2

    def test_bad_grid_flag(self, tmp_path):
        path = write_spec(tmp_path, basic_spec())
        assert main(["solve-kinetic", "--spec", path, "--grid", "1:2"]) == 2
        assert main(["solve-kinetic", "--spec", path, "--grid", "2:1:5"]) == 2
        assert main(["solve-kinetic", "--spec", path, "--grid", "0:1:x"]) == 2

    def test_invalid_problem_parameters(self, tmp_path):
        spec = basic_spec()
        spec["parameters"]["c"] = -1.0
        assert main(["solve-kinetic", "--spec", write_spec(tmp_path, spec)]) == 2

    @pytest.mark.parametrize("key", ["nu", "mu", "gamma"])
    def test_non_finite_ml_parameter(self, tmp_path, capsys, key):
        # JSON's Infinity parses to a float; it is refused as a spec error
        spec = {"version": "1", "parameters": {"nu": 0.5, key: math.inf},
                "grid": {"start": -1.0, "stop": 0.0, "n": 3}}
        assert main(["eval-ml", "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["kind"], err["type"]) == ("spec", "DomainError")

    def test_non_finite_wright_parameter(self, tmp_path, capsys):
        spec = {"version": "1", "parameters": {"upper": [[math.nan, 1.0]], "lower": []},
                "grid": {"start": -1.0, "stop": 0.0, "n": 3}}
        assert main(["eval-wright", "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert (err["kind"], err["type"]) == ("spec", "DomainError")

    RD_PARAMS = {"nu2": 1.0, "length": 2.0 * math.pi, "n0": [1.0, 0.0, -1.0, 0.0],
                 "n1": [0.0] * 4}

    # a NaN or infinite number, each refused by the record its task builds
    # (rd-solve's dt by the task itself) before anything is computed
    NON_FINITE = {
        "kinetic-n0": ("solve-kinetic", {"kind": "basic", "n0": math.nan, "c": 1.0, "nu": 0.5}),
        "kinetic-d": ("verify", {"kind": "two-rate", "n0": 1.0, "c": 1.0, "nu": 0.5,
                                 "mu": 1.5, "d": math.inf}),
        "laplace-density": ("invert-lt", {"descriptor": {"kind": "LaplaceDensity",
                                                         "beta": math.inf}}),
        "ml-basic": ("invert-lt", {"descriptor": {"kind": "MLBasic", "c": 1.0, "nu": 0.5,
                                                  "n0": math.nan}}),
        "gamma-power": ("invert-lt", {"descriptor": {"kind": "GammaPower",
                                                     "alpha": math.inf, "beta": 1.0}}),
        "residual-product": ("invert-lt", {"descriptor": {"kind": "ResidualProduct",
                                                          "plus": [[1.0, math.inf]]}}),
        "three-term": ("invert-three-term", {"alpha": 1.5, "beta": 0.5, "a": math.nan,
                                             "b": 1.0}),
        "rd-nu2": ("rd-solve", {**RD_PARAMS, "nu2": math.nan}),
        "rd-dt": ("rd-solve", {**RD_PARAMS, "solver": "fd", "dt": math.nan}),
    }

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number_is_spec_error(self, tmp_path, capsys, case):
        task, params = self.NON_FINITE[case]
        spec = {"version": "1", "parameters": params,
                "grid": {"start": 1.0, "stop": 1.0, "n": 1}}
        assert main([task, "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "spec"
        assert "finite" in err["message"]

    @pytest.mark.parametrize("task, params, message", [
        ("eval-ml", {"mu": 2.0}, "eval-ml is missing 'nu'"),
        ("solve-kinetic", {"kind": "basic", "n0": 1.0, "nu": 0.5},
         "the kinetic problem is missing 'c'"),
        ("invert-lt", {"descriptor": {"kind": "GammaPower", "alpha": 1.0}},
         "GammaPower is missing 'beta'"),
        ("invert-lt", {"descriptor": {"kind": "GammaPower", "alpha": 1.0, "beta": 1.0,
                                      "gamma": 1.0}},
         "unknown parameter(s) for GammaPower: gamma"),
        ("invert-three-term", {"alpha": 2.0, "beta": 1.0, "a": 0.6},
         "invert-three-term is missing 'b'"),
    ], ids=["ml", "kinetic", "descriptor-missing", "descriptor-unknown", "three-term"])
    def test_record_names_missing_or_unknown_key(self, tmp_path, capsys, task, params,
                                                 message):
        spec = {"version": "1", "parameters": params,
                "grid": {"start": 1.0, "stop": 1.0, "n": 1}}
        assert main([task, "--spec", write_spec(tmp_path, spec)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["message"]) == ("spec", message)

    @pytest.mark.parametrize("task, params", [
        ("invert-lt", {"descriptor": {"kind": ["GammaPower"], "alpha": 1.0, "beta": 1.0}}),
        ("rd-solve", {**RD_PARAMS, "n0": ["1.0", 0.0, -1.0, 0.0]}),
        ("eval-ml", {"nu": 10**400}),
        ("invert-lt", {"descriptor": {"kind": "ResidualProduct", "plus": [1.0, 1.0]}}),
        ("eval-wright", {"upper": [[1.0, 1.0, 1.0]]}),
        ("eval-wright", {"upper": 1.0}),
        ("rd-solve", {**RD_PARAMS, "n1": 0.0}),
        ("invert-lt", {"descriptor": "MLBasic"}),
    ], ids=["descriptor-kind", "rd-samples", "huge-integer", "plus-not-pairs", "upper-triple",
            "upper-not-a-list", "rd-samples-not-a-list", "descriptor-not-an-object"])
    def test_malformed_value_is_spec_error(self, tmp_path, capsys, task, params):
        # each once escaped as a TypeError, ValueError or OverflowError
        # traceback, exit 1
        spec = {"version": "1", "parameters": params,
                "grid": {"start": 1.0, "stop": 1.0, "n": 1}}
        assert main([task, "--spec", write_spec(tmp_path, spec)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "spec"

    @pytest.mark.parametrize("task, params, output, message", [
        ("rd-solve", {**RD_PARAMS, "solver": "euler"}, {},
         "solver must be one of spectral, fd, got 'euler'"),
        ("eval-ml", {"nu": 1.0}, {"format": "xml"},
         "output format must be one of csv, json, got 'xml'"),
    ], ids=["solver", "format"])
    def test_unknown_choice_names_the_choices(self, tmp_path, capsys, task, params, output,
                                              message):
        spec = {"version": "1", "parameters": params, "output": output,
                "grid": {"start": 1.0, "stop": 1.0, "n": 1}}
        assert main([task, "--spec", write_spec(tmp_path, spec)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], err["message"]) == ("spec", message)

    # specs malformed in their structure or grid, each refused before computing
    MALFORMED_SPECS = {
        "spec-not-an-object": ["eval-ml"],
        "parameters-not-an-object": {"version": "1", "parameters": [],
                                     "grid": {"start": 1.0, "stop": 1.0, "n": 1}},
        "output-not-an-object": {"version": "1", "parameters": {"nu": 1.0}, "output": "csv",
                                 "grid": {"start": 1.0, "stop": 1.0, "n": 1}},
        "grid-missing-key": {"version": "1", "parameters": {"nu": 1.0},
                             "grid": {"start": 1.0, "n": 1}},
        "grid-infinite": {"version": "1", "parameters": {"nu": 1.0},
                          "grid": {"start": -math.inf, "stop": 1.0, "n": 3}},
        "solution-grid-at-zero": {"version": "1", "task": "solve-kinetic",
                                  "parameters": {"kind": "power-source", "n0": 1.0, "c": 1.0,
                                                 "nu": 0.5, "mu": 0.5},
                                  "grid": {"start": 0.0, "stop": 1.0, "n": 3}},
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED_SPECS))
    def test_malformed_spec_is_spec_error(self, tmp_path, capsys, case):
        spec = self.MALFORMED_SPECS[case]
        task = spec.get("task", "eval-ml") if isinstance(spec, dict) else "eval-ml"
        assert main([task, "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["kind"] == "spec"

    # a count given as a bool or a float, each refused by name
    COUNTS = {
        "grid-n": ("eval-ml", {"nu": 1.0}, "n", "grid n"),
        "nodes": ("invert-lt", {"descriptor": {"kind": "MLBasic", "c": 1.0, "nu": 0.5}},
                  "nodes", "nodes"),
        "outer-terms": ("invert-three-term", {"alpha": 2.0, "beta": 1.0, "a": 0.6, "b": 4.0},
                        "outer_terms", "outer_terms"),
    }

    @pytest.mark.parametrize("value", [True, 64.0])
    @pytest.mark.parametrize("case", sorted(COUNTS))
    def test_count_must_be_an_integer(self, tmp_path, capsys, case, value):
        task, params, key, what = self.COUNTS[case]
        grid = {"start": 1.0, "stop": 1.0, "n": 1}
        if key == "n":
            grid = {"start": 0.5, "stop": 1.0, "n": value}
        else:
            params = {**params, key: value}
        spec = {"version": "1", "parameters": params, "grid": grid}
        assert main([task, "--spec", write_spec(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "spec"
        assert err["message"].startswith(f"{what} must be an integer")

    @pytest.mark.parametrize("use_flag", [False, True], ids=["spec", "flag"])
    def test_grid_size_bound(self, tmp_path, capsys, use_flag):
        # at the bound the grid is built and the task's own domain check
        # refuses it; one above, the grid is refused before np.linspace
        def run(n):
            spec = {"version": "1", "parameters": {"nu": 1.0},
                    "grid": {"start": 0.0, "stop": 100.0, "n": n}}
            argv = ["eval-ml", "--spec", write_spec(tmp_path, spec)]
            if use_flag:
                argv += ["--grid", f"0:100:{n}"]
            assert main(argv) == 2
            return json.loads(capsys.readouterr().err)["error"]["message"]

        assert run(100_000) == "grid exceeds the series domain |z| <= 50.0"
        assert run(100_001) == "grid n must be an integer in [1, 100000], got 100001"

    def test_node_count_bound(self, tmp_path, capsys):
        # MLBasic settles in the double-precision stage, so 1,024 mpmath
        # nodes are accepted without summing them
        def spec(nodes):
            params = {"descriptor": {"kind": "MLBasic", "c": 1.0, "nu": 1.0}, "nodes": nodes}
            return write_spec(tmp_path, {"version": "1", "parameters": params,
                                         "grid": {"start": 1.0, "stop": 1.0, "n": 1}})

        assert main(["invert-lt", "--spec", spec(1024)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[1]) == pytest.approx(math.exp(-1.0), rel=1e-8)
        assert main(["invert-lt", "--spec", spec(1025)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"] == "nodes must be an integer in [16, 1024], got 1025"

    # every task that reads --tol, with parameters it accepts
    TOL_TASKS = {
        "eval-ml": {"nu": 1.0},
        "eval-wright": {"upper": [], "lower": []},
        "solve-kinetic": basic_spec()["parameters"],
        "invert-lt": {"descriptor": {"kind": "GammaPower", "alpha": 1.0, "beta": 1.0}},
        "invert-three-term": {"alpha": 2.0, "beta": 1.0, "a": 0.6, "b": 4.0},
        "verify": TestVerify.spec["parameters"],
    }

    @pytest.mark.parametrize("task", sorted(TOL_TASKS))
    @pytest.mark.parametrize("tol", ["0", "1.5"])
    def test_tol_out_of_range(self, tmp_path, capsys, task, tol):
        spec = {"version": "1", "parameters": self.TOL_TASKS[task],
                "grid": {"start": 1.0, "stop": 1.0, "n": 1}}
        assert main([task, "--spec", write_spec(tmp_path, spec), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "spec"
        assert err["message"] == f"--tol must be in (0, 1), got {float(tol)}"


def test_console_entry_point(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(basic_spec()))
    proc = subprocess.run(
        [sys.executable, "-m", "mittag_kinetics.cli", "solve-kinetic", "--spec", str(spec)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "t,N"
