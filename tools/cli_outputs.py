"""Fingerprint every benchmark task's CLI output, to show that a change
leaves the outputs of all three workloads byte-identical.

    python tools/cli_outputs.py --seeds 1,2,3 > change.json
    python tools/cli_outputs.py --seeds 1,2,3 --root ../parent > parent.json
    python tools/cli_outputs.py --compare parent.json change.json

Every task of each workload of ``perfbench/workloads.py`` (``curves``,
``certify``, ``rd-field``) at each seed runs once, in one process and in
the workloads' order, through ``mittag_kinetics.cli.main`` with the
arguments ``perfbench/run.py`` passes (``TASK --spec SPEC --out OUT
--format json``). The spec and output files are named relative to a
scratch working directory, so that no absolute path reaches a message
and checkouts in different directories hash alike. The JSON printed
maps ``workload/seed/NNN-task`` to the task's fingerprint: ``sha256``,
over the ``--out`` bytes, the captured stderr and the exit code; ``rc``,
the exit code, or for a task that raises the exception's type and
message; ``stderr``; and ``values``, every number of the output's rows
in order (null when there is no output to parse).
``--root`` names the source checkout whose ``src`` package and
workloads are run; it defaults to the one holding this script.

``--compare BEFORE AFTER`` reads two such files instead, prints each task
key whose ``sha256`` differs, with the largest relative change of any
value and whether the exit code or stderr changed, or that one file
lacks, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path


def _digest(out: bytes, err: str, rc: int | str) -> str:
    h = hashlib.sha256()
    for part in (out, err.encode("utf-8"), str(rc).encode("utf-8")):
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def _values(out: bytes) -> list[float] | None:
    """Every number of the output's rows, in order; None without rows."""
    try:
        rows = json.loads(out)["rows"]
    except (ValueError, KeyError, TypeError):
        return None
    return [float(v) for row in rows for v in row]


def _run_task(cli, task, stem: str) -> dict:
    spec, out = Path(f"{stem}.json"), Path(f"{stem}.out.json")
    spec.write_text(json.dumps(task.spec), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main([task.name, "--spec", str(spec), "--out", str(out), "--format", "json"])
        except Exception as exc:  # a crash is an outcome to fingerprint, not the end of the run
            rc = f"raised {type(exc).__name__}: {exc}"
            print(f"cli_outputs: {stem} raised:\n{traceback.format_exc()}", file=sys.__stderr__)
    data = out.read_bytes() if out.exists() else b""
    return {"sha256": _digest(data, err.getvalue(), rc), "rc": rc, "stderr": err.getvalue(),
            "values": _values(data)}


def _moved(old: dict, new: dict) -> str:
    """How far a differing task's outputs moved, in words."""
    a, b = old["values"], new["values"]
    if a is None or b is None or len(a) != len(b):
        values = "values not comparable (missing, or a different count)"
    else:
        rel = max((abs(x - y) / max(abs(x), abs(y)) for x, y in zip(a, b) if x != y), default=0.0)
        values = f"largest relative change {rel:.3g} over {len(a)} values"
    flags = [what + (" changed" if old[what] != new[what] else " same") for what in ("rc", "stderr")]
    return "; ".join([values, *flags])


def compare(before: Path, after: Path) -> int:
    old, new = (json.loads(path.read_text(encoding="utf-8")) for path in (before, after))
    keys = sorted(old.keys() | new.keys())
    changed = [key for key in keys
               if key not in old or key not in new or old[key]["sha256"] != new[key]["sha256"]]
    for key in changed:
        if key in old and key in new:
            print(f"{key}: differs; {_moved(old[key], new[key])}")
        else:
            print(f"{key}: only in {before if key in old else after}")
    print(f"cli_outputs: {len(changed)} of {len(keys)} task outputs differ", file=sys.stderr)
    return 1 if changed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seeds", help="comma-separated workload seeds, e.g. 1,2,3")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                      help="fingerprint files to compare task by task")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="source checkout to run (default: this script's)")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    seeds = [int(s) for s in args.seeds.split(",")]
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]

    import mittag_kinetics.cli as cli
    import workloads

    if Path(cli.__file__).resolve().parent != root / "src" / "mittag_kinetics":
        print(f"cli_outputs: imported {cli.__file__}, not {root}'s", file=sys.stderr)
        return 2
    digests = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for workload in workloads.WORKLOADS:
                for seed in seeds:
                    for i, task in enumerate(workloads.generate(workload, seed)):
                        stem = f"{i:03d}-{task.ident}"
                        digests[f"{workload}/{seed}/{stem}"] = _run_task(cli, task, stem)
        finally:
            os.chdir(home)
    print(json.dumps(digests, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
