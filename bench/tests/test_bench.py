"""Self-check of the benchmark harness.

Tiny-size smoke runs of every workload, traced and untraced, plus the checks
that every per-layer metric in BENCHMARK.json is recorded as nonzero on at
least one workload (a wrapper bound to the wrong module name reads zero) and
that the harness refuses to run without the library. Run from the checkout
root:

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, script=RUN, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"], proc.stdout
    assert out["attempted"] >= 1
    return out


@pytest.fixture(scope="module")
def traced():
    return {w: result(run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    metrics = result(run(workload, 0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_runs_report_every_layer_metric(traced):
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for out in traced.values():
        assert {name: m["unit"] for name, m in out["metrics"].items()} == expected


def test_every_layer_metric_is_nonzero_on_some_workload(traced):
    zero = [
        m["name"] for m in SPEC["per_layer"]
        if not any(out["metrics"][m["name"]]["value"] for out in traced.values())
    ]
    assert zero == []


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, script=tmp_path / "bench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
