"""Seeded end-to-end benchmark of dscurv.

    python3 perfbench/run.py --workload solve-s2 --seed 1 --seconds 20 --trace 0

Runs one workload (solve-s2, solve-s2-fine or verify) in this process as
a closed loop with one client: one untimed warm-up operation, then
operations back to back until --seconds have passed.  Each operation
goes through dscurv's public entry points, as the ``dscurv`` command
does, and its outputs are checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end ones: ``op_s`` (median
operation time), ``setup_s`` (median, over several fresh processes, of
the time from process start until the first operation can be issued)
and ``peak_rss_mb`` (peak resident set size of this process).  With
--trace 1 every other timed operation runs under the per-layer tracer
(tracer.py) and the metrics are the per-layer ones, with the tracing
overhead measured against the untraced operations of the same run.
"""

import os

# One thread for every BLAS and OpenMP pool, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup(args, workdir):
    """Everything before the first operation: imports and inputs."""
    dscurv = workloads.load_program(ROOT)
    return workloads.Workload(args.workload, args.seed, dscurv, workdir)


def _setup_seconds(args, workdir):
    """Median wall time of fresh processes doing only the set-up."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", str(workdir / f"probe{i}"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(elapsed)
    return statistics.median(samples), samples


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": os.environ["OPENBLAS_NUM_THREADS"],
            "git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


class Outcome:
    """Attempted, failed and problem tallies over a run's operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = []

    def record(self, execute, check, count=True):
        """Run one operation; returns its wall time in seconds."""
        start = time.perf_counter()
        try:
            result = execute()
        except Exception as exc:       # the loop keeps running; report it
            elapsed = time.perf_counter() - start
            problems = [("exception", f"{type(exc).__name__}: {exc}")]
        else:
            elapsed = time.perf_counter() - start
            problems = check(result)
        failed = [p for p in problems if p[0] in workloads.FAILURES]
        wrong = [p for p in problems if p not in failed]
        if count:
            self.attempted += 1
            self.failed += bool(failed)
        self.failures += failed
        self.problems += wrong
        return elapsed


def main(argv=None):
    args = _parse_args(argv)
    workdir = Path(args.setup_probe or
                   BENCH_DIR / "_runs" / f"{args.workload}-{os.getpid()}")
    try:
        workload = _setup(args, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return _measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, workdir):
    env = _environment()
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    outcome = Outcome()
    outcome.record(*workload.next_op(), count=False)      # warm-up

    tracer = Tracer()
    traced, untraced, layer_runs = [], [], []
    start = time.perf_counter()
    index = 0
    while (time.perf_counter() - start < args.seconds
           or not untraced or (args.trace and not traced)):
        op = workload.next_op()
        if args.trace and index % 2 == 0:
            tracer.reset()
            with tracer.installed():
                traced.append(outcome.record(*op))
            layer_runs.append(tracer.layer_metrics())
        else:
            untraced.append(outcome.record(*op))
        index += 1

    for name, message in outcome.failures[:3]:
        print(f"# failed {name}: {message}", file=sys.stderr)
    for name, message in outcome.problems[:10]:
        print(f"# check {name}: {message}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        metrics = _layer_summary(spec["per_layer"], layer_runs, traced,
                                 untraced)
    else:
        setup_s, samples = _setup_seconds(args, workdir)
        print("# op_s samples " + json.dumps([round(t, 4) for t in untraced]))
        print("# setup_s samples " + json.dumps([round(t, 4) for t in samples]))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"op_s": statistics.median(untraced), "setup_s": setup_s,
                  "peak_rss_mb": peak_kb / 1024.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not outcome.problems,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def _layer_summary(per_layer, layer_runs, traced, untraced):
    """Counts from the first traced operation, which repeat exactly for a
    seed; times as medians over the traced operations."""
    traced_op = statistics.median(traced)
    untraced_op = statistics.median(untraced)
    derived = {
        "trace.op_s": traced_op,
        "trace.untraced_op_s": untraced_op,
        "trace.overhead": traced_op / untraced_op - 1.0,
        "trace.unattributed_s": statistics.median(
            t - sum(run[f"{layer}.self_s"] for layer in LAYERS)
            for t, run in zip(traced, layer_runs)),
    }
    metrics = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        if name in derived:
            value = derived[name]
        elif unit == "s":
            value = statistics.median(run[name] for run in layer_runs)
        else:
            value = layer_runs[0][name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
