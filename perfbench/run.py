"""Benchmark of mittag-kinetics: seeded CLI task batches, checked against oracles.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. One process runs everything on one thread:

1. set-up time: the median of three fresh interpreters, each importing
   ``mittag_kinetics`` and generating and writing the workload's specs;
2. import of the package here, task generation, spec files;
3. oracle values for every task (``checks.reference``), untimed;
4. whole rounds of the batch until ``--seconds`` of task time have
   passed, at least three. A round is LIGHT_PASSES passes: light tasks
   (a few ms each) run in every pass, the others in one pass each
   (``schedule``). Each task is one in-process call of
   ``mittag_kinetics.cli.main`` with ``--out`` a file; only that call is
   timed. Every output is parsed and checked after its call. A task's
   time is the 90th percentile of its times over the rounds
   (``Tally.typical``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` untraced and traced rounds
alternate; the traced ones run with spans around each layer's public
calls (``tracing.py``), the metrics are the per-layer ones, and the
untraced rounds are the base for the tracing overhead. Results and the
spans of the first traced round go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3
MIN_ROUNDS = 3
#: Passes per round; a light task runs once in each.
LIGHT_PASSES = 4


def _parse_args(argv=None) -> argparse.Namespace:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median set-up time over fresh interpreters (``setup_probe.py``)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def write_specs(tasks, workdir: Path) -> list[tuple[Path, Path]]:
    """Spec file and output file for each task."""
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, task in enumerate(tasks):
        spec = workdir / f"{i:03d}-{task.ident}.json"
        spec.write_text(json.dumps(task.spec), encoding="utf-8")
        paths.append((spec, workdir / f"{i:03d}-{task.ident}.out.json"))
    return paths


def schedule(tasks) -> list[int]:
    """Task indices in the order one round runs them.

    The round is LIGHT_PASSES passes over the batch order. Light tasks
    run in every pass, so that their times are sampled as often as their
    cost allows and spread over the round; the others are dealt to the
    passes in turn and run once a round.
    """
    heavy = [i for i, task in enumerate(tasks) if not task.light]
    dealt = {i: k % LIGHT_PASSES for k, i in enumerate(heavy)}
    return [i for k in range(LIGHT_PASSES)
            for i, task in enumerate(tasks) if task.light or dealt[i] == k]


class Tally:
    """Per-task times and check results over the rounds of one run."""

    def __init__(self, n_tasks: int) -> None:
        self.times: list[list[float]] = [[] for _ in range(n_tasks)]
        self.good = [0] * n_tasks
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected: set[str] = set()

    def add(self, i: int, task, seconds: float, good: int, ok: bool) -> None:
        self.times[i].append(seconds)
        self.good[i] += good
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not task.fault:
                self.unexpected.add(task.ident)

    def typical(self) -> list[float]:
        """Each task's time at the machine's ordinary speed: the 90th
        percentile of its times over the rounds.

        On a shared machine the speed changes in spells of seconds: now
        and then a spell runs up to a third faster, at times for most of a
        run, and rarer ones run slower. Whether a task's shortest time,
        or even its median one, fell in a fast spell is luck that changes
        from run to run; the 90th percentile moves only when fast spells
        fill nine tenths of the run or slow ones a tenth.
        """
        return [statistics.quantiles(t, n=10, method="inclusive")[8] for t in self.times]

    def good_per_batch(self) -> float:
        """Output values that passed their checks in one run of each task."""
        return sum(g / len(t) for g, t in zip(self.good, self.times))


def run_round(cli, tasks, refs, paths, tally: Tally, tracer=None) -> float:
    """One round (``schedule``); returns the summed task time."""
    import checks

    total = 0.0
    for i in schedule(tasks):
        task, ref, (spec, out) = tasks[i], refs[i], paths[i]
        if out.exists():
            out.unlink()
        argv = [task.name, "--spec", str(spec), "--out", str(out), "--format", "json"]
        if tracer is not None:
            tracer.task = i
        crash = None
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash fails the task, not the run
                rc, crash = -1, traceback.format_exc()
            elapsed = time.perf_counter() - start
        if crash and task.ident not in tally.unexpected:
            print(f"perfbench: {task.ident} crashed:\n{crash}", file=sys.stderr)
        total += elapsed
        rows = None
        if rc == 0:
            try:
                rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
            except (OSError, ValueError, KeyError):
                rows = None
        good, ok = checks.check(task, ref, rc, rows)
        tally.add(i, task, elapsed, good, ok)
    tally.rounds += 1
    return total


def end_to_end_metrics(setup_s: float, tally: Tally) -> dict:
    """name -> (value, unit) of the metrics a run reports with --trace 0."""
    typical = tally.typical()
    typical_ms = [1e3 * t for t in typical]
    return {
        "setup_s": (setup_s, "s"),
        "task_ms_p50": (statistics.median(typical_ms), "ms"),
        "task_ms_p90": (statistics.quantiles(typical_ms, n=10, method="inclusive")[8], "ms"),
        "good_values_per_s": (tally.good_per_batch() / sum(typical), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mittag_kinetics" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/mittag_kinetics", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        start = time.perf_counter()
        import mittag_kinetics
        import mittag_kinetics.cli as cli
        import_s = time.perf_counter() - start
        if Path(mittag_kinetics.__file__).resolve().parent != (SRC / "mittag_kinetics").resolve():
            print(f"perfbench: imported {mittag_kinetics.__file__}, not the checkout's",
                  file=sys.stderr)
            return 2

        tasks = workloads.generate(args.workload, args.seed)
        paths = write_specs(tasks, workdir)
        refs = [checks.reference(task) for task in tasks]

        plain = Tally(len(tasks))
        traced = Tally(len(tasks))
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        timed = 0.0
        # untraced: rounds until --seconds of task time, at least
        # MIN_ROUNDS; traced: untraced and traced rounds alternate, so
        # both see the same spells of machine load
        while timed < args.seconds or plain.rounds < MIN_ROUNDS - bool(args.trace):
            timed += run_round(cli, tasks, refs, paths, plain)
            if tracer is not None:
                tracer.install()
                try:
                    timed += run_round(cli, tasks, refs, paths, traced, tracer)
                finally:
                    tracer.remove()
                tracer.keep_spans = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = (plain, traced)
    unexpected = set().union(*(t.unexpected for t in runs))
    if unexpected:
        print(f"perfbench: unexpected failures: {', '.join(sorted(unexpected))}", file=sys.stderr)
    if args.trace:
        overhead = 100.0 * (sum(traced.typical()) / sum(plain.typical()) - 1.0)
        metrics = tracing.layer_metrics(tracer, traced.rounds, import_s, overhead)
    else:
        metrics = end_to_end_metrics(setup_s, plain)
    result = {
        "correct": not unexpected,
        "attempted": sum(t.attempted for t in runs),
        "failed": sum(t.failed for t in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(tasks)} tasks, "
          f"{len(schedule(tasks))} task runs a round, "
          f"{plain.rounds + traced.rounds} rounds, {timed:.3f} s of task time", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
