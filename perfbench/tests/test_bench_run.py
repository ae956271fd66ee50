"""The runner end to end: repeatable traced counts, refusal without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "11", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("workload", ["solve-s2", "verify"])
def test_traced_counts_repeat(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] != "s" and not m["name"].startswith("trace.")]
    results = []
    for _ in range(2):
        proc = _run(ROOT, workload, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        results.append({name: result["metrics"][name]["value"]
                        for name in counts})
    assert results[0] == results[1]


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = _run(tmp_path, "verify", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
