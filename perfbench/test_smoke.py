"""Smoke test of the benchmark: every workload at its tiny size, checks on.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that each run reports exactly the metrics BENCHMARK.json names,
with their units, that the known bc-primes defects surface as failed ops,
that traced call counts repeat exactly and that the benchmark refuses to
run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
META_KEYS = ("python", "nproc", "cpu_model", "commit", "seed", "rounds", "failed_ratio",
             "failures", "mismatches")


def run(workload, trace, root=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    meta, result = parse(run(workload, trace))
    assert result["correct"], meta["mismatches"]
    assert result["attempted"] >= 1 and result["failed"] == 0, meta["failures"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key in META_KEYS:
        assert key in meta
    if not trace:
        assert set(meta["op_tail"]) == {"percentile", "samples", "beyond"}
        assert len(meta["setup_samples_s"]) > 1


def test_traced_call_counts_repeat():
    counts = []
    for _ in range(2):
        _, result = parse(run("bc-primes", 1))
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["bc.prime_window.calls"] > 0


def test_known_defects_count_as_failures():
    meta, result = parse(run("bc-primes-defects", 0))
    assert result["correct"]
    assert result["failed"] == 1 and meta["failed_ratio"] == 0.5
    (failure,) = meta["failures"]
    assert failure["op"] == "Q(i) 97"
    assert failure["type"] == "RuntimeError"
    assert failure["message"] == "prime generator search exhausted its height window"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
