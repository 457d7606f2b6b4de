"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402

WORKLOADS = ("tune_grid", "schedule_surface", "store_history")

# every end-to-end metric the benchmark defines, by workload, with its unit
NAMED = {
    "all": {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio",
            "output_ok": "bool"},
    "tune_grid": {"trials_per_s": "1/s", "train_steps_per_s": "1/s"},
    "schedule_surface": {"lr_evals_per_s": "1/s", "surface_steps_per_s": "1/s"},
    "store_history": {"store_load_s": "s", "append_p50_us": "us", "append_p90_us": "us",
                      "topk_p50_ms": "ms", "topk_p90_ms": "ms"},
}


def run(workload, trace, seed=3, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], proc.stdout
    assert last["failed"] == 0 and last["attempted"] >= 1
    return last


def table(stdout: str) -> dict:
    """name -> unit for every row the human-readable report printed."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3 and not line.startswith("  gated"):
            rows[parts[0]] = parts[2]
    return rows


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload):
    proc = run(workload, trace=0)
    last = result(proc)
    wanted = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in last["metrics"].values())
    rows = table(proc.stdout)
    for name, unit in {**NAMED["all"], **NAMED[workload]}.items():
        assert rows.get(name) == unit, (name, rows)
    assert rows["output_ok"] and "failed_frac" in rows


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(run(workload, trace=1))["metrics"] for _ in range(2))
    wanted = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == wanted
    exact = set(tracer.EXACT)
    if workload == "tune_grid":
        # its records carry each trial's measured wall time, whose printed
        # length varies by a few bytes from run to run
        exact.discard("store.bytes_written")
    assert {k: first[k]["value"] for k in exact} == {k: second[k]["value"] for k in exact}
    busy = {"tune_grid": "trainer.steps", "schedule_surface": "schedule.lr_at.calls",
            "store_history": "store.append.written"}[workload]
    assert first[busy]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = run("store_history", trace=0, root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
