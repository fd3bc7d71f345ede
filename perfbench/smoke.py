"""Smoke test of the benchmark command at its smallest scale.

    python3 perfbench/smoke.py            # or: python3 -m pytest perfbench/smoke.py

Runs the smallest workload for one second, untraced and traced, and
the multiprocess workload traced; checks the result contract; then checks
that the command refuses to run without the sources.  Takes about 40 s.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench(trace: int, cwd: str = ROOT, workload: str = "serving_query"):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return done.returncode, done.stdout


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_untraced_run_reports_every_end_to_end_metric():
    code, out = _bench(0)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced(workload: str) -> dict:
    code, out = _bench(1, workload=workload)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    setup_layers = {"world.build.self_s", "world.fill.self_s"}
    summed = sum(
        value for name, value in metrics.items()
        if name.endswith(".self_s") and name not in setup_layers
    ) + metrics["gc.pause_s"] + metrics["trace.unattributed_s"]
    run_phase = metrics["trace.run_phase_s"]
    assert abs(summed - run_phase) < 0.002
    assert 0 <= metrics["trace.unattributed_s"] < 0.05 * run_phase
    return metrics


def test_traced_run_accounts_for_its_run_phase():
    metrics = _traced("serving_query")
    assert metrics["serving.queries"] == 12_000
    assert metrics["engine.windows"] == 0


def test_traced_multiprocess_run_reports_the_engine():
    metrics = _traced("grid_mp")
    assert metrics["engine.windows"] > 0 and metrics["engine.cross_frames"] > 0
    assert metrics["engine.serial_run_s"] > 0 and metrics["engine.fork_s"] > 0
    assert metrics["engine.self_s"] > 0


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out = _bench(0, cwd=bare)
    assert code != 0
    assert out.strip() == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
