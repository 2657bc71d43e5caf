"""Tests of the benchmark's own parts: oracles, checker, input generation.

    python3 -m pytest perfbench -q
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfcx

import checks
import oracles
import run
import tracing
import workloads

SEEDS = range(6)


@pytest.mark.parametrize("z", [-20.0, -3.3, 0.5, 10.0])
def test_ml_one_is_exp(z):
    assert oracles.ml(1.0, 1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-13)


@pytest.mark.parametrize("x", [0.5, 4.0, 15.0])
def test_ml_half_is_erfcx(x):
    assert oracles.ml(0.5, 1.0, 1.0, -x) == pytest.approx(erfcx(x), rel=1e-13)


@pytest.mark.parametrize("x", [1.0, 5.0, 7.0])
def test_ml_two_is_cos_and_sinc(x):
    assert oracles.ml(2.0, 1.0, 1.0, -x * x) == pytest.approx(math.cos(x), rel=1e-12)
    assert oracles.ml(2.0, 2.0, 1.0, -x * x) == pytest.approx(math.sin(x) / x, rel=1e-12)


def test_ml_three_parameter_matches_derivative_identity():
    # E^2_(1,1)(z) = (1 + z) e^z: (2)_k / k! = k + 1
    z = -7.5
    assert oracles.ml(1.0, 1.0, 2.0, z) == pytest.approx((1 + z) * math.exp(z), rel=1e-12)


def test_wright_reduces_to_mittag_leffler():
    # Gamma(1 + k) / k! = 1, so upper (1, 1) and lower (mu, nu) give E_(nu,mu)
    z = -9.0
    assert oracles.wright([[1.0, 1.0]], [[1.2, 0.7]], z) == pytest.approx(
        oracles.ml(0.7, 1.2, 1.0, z), rel=1e-12)


def test_two_rate_series_matches_partial_fractions():
    c, d, nu, mu, t = 1.3, 0.6, 0.8, 1.7, 2.1
    split = (t ** (mu - nu - 1) / (c**nu - d**nu)
             * (oracles.ml(nu, mu - nu, 1.0, -(d * t) ** nu)
                - oracles.ml(nu, mu - nu, 1.0, -(c * t) ** nu)))
    direct = oracles.kinetic({"kind": "two-rate", "n0": 1.0, "c": c, "d": d,
                              "nu": nu, "mu": mu}, t)
    assert direct == pytest.approx(split, rel=1e-12)


def test_gamma_difference_density_matches_convolution():
    a1, b1, a2, b2, t = 1.4, 0.9, 0.7, 1.6, 1.3

    def g(a, b, u):
        return u ** (a - 1) * mp.exp(-u / b) / (mp.gamma(a) * b**a)

    conv = mp.quad(lambda y: g(a1, b1, t + y) * g(a2, b2, y), [0, 1, mp.inf])
    desc = {"kind": "ResidualProduct", "plus": [[a1, b1]], "minus": [[a2, b2]]}
    assert oracles.inverse_transform(desc, t) == pytest.approx(float(conv), rel=1e-12)


def test_oscillator_field_solves_each_mode():
    m = 8
    x = np.arange(m) * (2 * math.pi / m)
    params = {"a": 0.4, "nu2": 1.2, "xi": 0.2, "length": 2 * math.pi,
              "n0": list(np.cos(2 * x)), "n1": list(0.5 * np.sin(3 * x))}
    t = 0.9
    got = oracles.rd_field(params, [t])[0]
    want = np.zeros(m)
    for k, amp0, amp1, phase in ((2, 1.0, 0.0, np.cos), (3, 0.0, 0.5, np.sin)):
        b = params["nu2"] * k * k - params["xi"] ** 2
        w = math.sqrt(b - params["a"] ** 2 / 4)
        damp = math.exp(-params["a"] * t / 2)
        rate = (amp1 + amp0 * params["a"] / 2) / w
        mode = damp * (amp0 * math.cos(w * t) + rate * math.sin(w * t))
        want += mode * phase(k * x)
    np.testing.assert_allclose(got, want, atol=1e-13)


def _perturb(v: float) -> float:
    """v with its 8th significant digit moved by one."""
    return v + math.copysign(10.0 ** (math.floor(math.log10(abs(v))) - 7), v)


def _task(name: str):
    return next(t for t in workloads.generate(name, 0) if not t.fault)


def test_checker_rejects_eighth_digit_in_series_values():
    for name, kind in (("curves", "eval-ml"), ("curves", "solve-kinetic"),
                       ("certify", "verify")):
        task = next(t for t in workloads.generate(name, 0) if t.name == kind and not t.fault)
        ref = checks.reference(task)
        if kind == "verify":
            rows = [[t, v, v, 0.0, 0.0] for t, v in zip(task.grid(), ref)]
        else:
            rows = [[t, v] for t, v in zip(task.grid(), ref)]
        assert checks.check(task, ref, 0, rows)[1]
        rows[-1][1] = _perturb(rows[-1][1])
        if kind == "verify":  # keep the gates satisfied: only the value is off
            rows[-1][3] = abs(rows[-1][1] - rows[-1][2])
        assert not checks.check(task, ref, 0, rows)[1], kind


def test_checker_rejects_eighth_digit_in_spectral_field():
    task = next(t for t in workloads.generate("rd-field", 0)
                if t.params["solver"] == "spectral")
    ref = checks.reference(task)
    m = len(task.params["n0"])
    x = np.arange(m) * (task.params["length"] / m)
    rows = [[float(xj), t, float(ref["field"][i, j])]
            for i, t in enumerate(task.grid()) for j, xj in enumerate(x)]
    assert checks.check(task, ref, 0, rows)[1]
    worst = max(range(len(rows)), key=lambda i: abs(rows[i][2]))
    rows[worst][2] = _perturb(rows[worst][2])
    assert not checks.check(task, ref, 0, rows)[1]


def test_checker_rejects_failed_exit_and_missing_rows():
    task = _task("curves")
    ref = checks.reference(task)
    rows = [[t, v] for t, v in zip(task.grid(), ref)]
    assert not checks.check(task, ref, 3, rows)[1]
    assert not checks.check(task, ref, 0, rows[:-1])[1]
    assert not checks.check(task, ref, 0, None)[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generation_repeats_for_a_seed(name):
    first = [(t.ident, t.spec, t.fault) for t in workloads.generate(name, 7)]
    again = [(t.ident, t.spec, t.fault) for t in workloads.generate(name, 7)]
    other = [(t.ident, t.spec, t.fault) for t in workloads.generate(name, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_round_make_up_does_not_depend_on_seed(name):
    shapes = set()
    for seed in SEEDS:
        tasks = workloads.generate(name, seed)
        kinds = sorted((t.name, t.params.get("solver", ""), t.fault, t.light) for t in tasks)
        faults = sorted(str(t.spec) for t in tasks if t.fault)
        shapes.add((tuple(kinds), tuple(faults)))
    assert len(shapes) == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_round_runs_light_tasks_every_pass_and_others_once(name):
    tasks = workloads.generate(name, 0)
    counts = [0] * len(tasks)
    for i in run.schedule(tasks):
        counts[i] += 1
    assert counts == [run.LIGHT_PASSES if t.light else 1 for t in tasks]
    assert not any(t.light and t.fault for t in tasks)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_drawn_inputs_stay_in_domain(name):
    for seed in SEEDS:
        for task in workloads.generate(name, seed):
            assert workloads.domain_errors(task) == [], (seed, task.ident)


def test_reported_metrics_are_the_declared_ones():
    declared = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    tally = run.Tally(2)
    for rnd in range(3):
        tally.add(0, workloads.generate("curves", 0)[0], 0.01 + rnd, 3, True)
        tally.add(1, workloads.generate("curves", 0)[1], 0.02, 2, True)
        tally.rounds += 1
    e2e = {k: u for k, (_, u) in run.end_to_end_metrics(0.5, tally).items()}
    layers = {k: u for k, (_, u) in tracing.layer_metrics(tracing.Tracer(), 1, 0.5, 1.0).items()}
    assert e2e == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert layers == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
