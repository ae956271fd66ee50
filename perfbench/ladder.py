"""The resolution ladder of the roadmap, end to end through the CLI.

    python3 perfbench/ladder.py

Solves SpaceTiltPower(0.5, 0.1, 2) with k = 2 on S^2 32x64, 64x128 and
128x256, and with k = 1 and a1 = 0 on S^1 128, each through
``dscurv.cli.parse_config`` and ``dscurv.cli.run``.  Prints a markdown
table with the median wall time of five solves, the homotopy steps and
Newton iterations from the run's artifacts, the final t, and the cause
of a failing rung.
"""

import os

# One thread for every BLAS and OpenMP pool, as in run.py.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
RUNGS = (("S^1 128", {"grid.dim": 1, "grid.n": 128, "k": 1,
                      "prescription.a1": 0.0}),
         ("S^2 32x64", {"grid.dim": 2, "grid.nlat": 32, "grid.nlon": 64}),
         ("S^2 64x128", {"grid.dim": 2, "grid.nlat": 64, "grid.nlon": 128}),
         ("S^2 128x256", {"grid.dim": 2, "grid.nlat": 128, "grid.nlon": 256}))


def solve(cli, workdir, overrides):
    """One CLI solve; returns (seconds, row cells or failure cause)."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    values = {"mode": "solve", "out": out, "k": 2,
              "prescription.name": "space_tilt_power", "prescription.a0": 0.5,
              "prescription.a1": 0.1, "prescription.p": 2.0, "solver.p": 2.0}
    values.update(overrides)
    path = workloads.write_config(workdir / "ladder.cfg", values)
    start = time.perf_counter()
    try:
        code = cli.run(cli.parse_config(path), quiet=True)
    except Exception as exc:        # a rung that crashes is reported, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    summary = workloads.read_summary(out)
    if code != 0:
        return elapsed, f"exit {code}: {summary.get('continuation')}"
    trace = workloads.read_columns(out / "trace.csv")
    cont = summary["continuation"]
    return elapsed, (cont["steps"], int(sum(trace["newton_iters"])),
                     repr(cont["t"]))


def main():
    dscurv = workloads.load_program(ROOT)
    workdir = Path(__file__).resolve().parent / "_runs" / f"ladder-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    print(f"median of {REPEATS} solves per rung, one thread, nproc "
          f"{len(os.sched_getaffinity(0))}\n")
    print("| grid | time | steps | Newton its | final t | notes |")
    print("| --- | --- | --- | --- | --- | --- |")
    try:
        for name, overrides in RUNGS:
            times, results = [], set()
            for _ in range(REPEATS):
                elapsed, result = solve(dscurv.cli, workdir, overrides)
                times.append(elapsed)
                results.add(result)
            cells = f"{statistics.median(times):.3g} s"
            result = results.pop() if len(results) == 1 else (
                f"repeats disagree: {sorted(map(str, results))}")
            if isinstance(result, tuple):
                steps, iters, t_final = result
                print(f"| {name} | {cells} | {steps} | {iters} | {t_final} | |")
            else:
                print(f"| {name} | {cells} | | | | fails: {result} |")
            sys.stdout.flush()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
