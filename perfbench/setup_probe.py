"""Time one benchmark set-up in a fresh interpreter and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is what a run pays before its first task: importing
``mittag_kinetics`` and generating and writing the workload's spec files.
Interpreter start-up is not included; oracle work is not set-up.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    start = time.perf_counter()
    import mittag_kinetics  # noqa: F401  (the import is what is timed)
    import workloads
    from run import write_specs

    write_specs(workloads.generate(workload, seed), workdir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
