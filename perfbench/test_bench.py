"""Smoke test of the benchmark itself, at the --quick shapes.

    python3 -m pytest -q perfbench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that the correctness checks run, that the trace holds one span per layer
call with its parent, and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

LAYER_CALLS = {
    "interacting_swarm": {
        "constants.chi_star": 1, "simulator.draw_initial": 1,
        "simulator.draw_noise": 1, "simulator.run": 1,
        "estimators.paper_moments": 1},
    "pair_ensemble": {
        "simulator.draw_initial": 1, "simulator.draw_noise": 1,
        "simulator.run": 1, "io.write_trajectory_csv": 1,
        "io.read_trajectory_csv": 1, "io.write_trajectory_bin": 1,
        "io.read_trajectory_bin": 1, "estimators.drift_domination_check": 1,
        "estimators.holder_modulus": 1},
    "brownian_residuals": {
        "simulator.draw_initial": 3, "simulator.draw_noise": 3,
        "simulator.run": 3, "estimators.ito_balance_check": 1,
        "estimators.martingale_residual": 2},
}
CHECKS = {
    "interacting_swarm": {"no_blowups", "chi_star_remark61", "chi_admissible",
                          "moment_E1", "moment_E2", "moment_E3", "moment_E4",
                          "moment_S", "moment_S_bar"},
    "pair_ensemble": {"no_blowups", "csv_roundtrip_exact",
                      "ksw1_roundtrip_exact", "domination_no_violations",
                      "holder_ok"},
    "brownian_residuals": {"ito_ci_contains_zero", "variance_ratio_16_64"},
}
# too few replicas at the quick shapes for these to be meaningful
STATISTICAL = {"ito_ci_contains_zero", "variance_ratio_16_64"}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@functools.cache
def quick_run(workload: str, trace: int):
    """Standard output and result record of one quick run (run once)."""
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    path = BENCH / "out" / f"result-{workload}-seed3-trace{trace}-quick.json"
    return proc.stdout, json.loads(path.read_text())


@pytest.mark.parametrize("workload", sorted(LAYER_CALLS))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_and_checks(workload, trace):
    stdout, rec = quick_run(workload, trace)
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float))

    assert CHECKS[workload] <= set(rec["check_names"])
    assert {c["name"] for c in rec["failed_checks"]} <= STATISTICAL
    assert last["failed"] == len(rec["failed_checks"])
    if not trace:
        for s in rec["end_to_end"].values():
            assert s["n"] >= 1 and s["q1"] <= s["median"] <= s["q3"]


@pytest.mark.parametrize("workload", sorted(LAYER_CALLS))
def test_one_span_per_layer_call(workload):
    spans = quick_run(workload, 1)[1]["spans"]
    assert spans
    by_trace: dict[str, list[dict]] = {}
    for s in spans:
        by_trace.setdefault(s["trace"], []).append(s)
    for trace_spans in by_trace.values():
        ids = {s["id"]: s for s in trace_spans}
        roots = [s for s in trace_spans if s["parent"] is None]
        assert [r["name"] for r in roots] == ["iteration"]
        for s in trace_spans:
            assert s["start"] <= s["end"]
            if s["parent"] is None:
                continue
            parent = ids[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            if s["name"].startswith("stage."):
                assert parent["name"] == "iteration"
            else:
                assert parent["name"].startswith("stage.")
        calls = Counter(s["name"] for s in trace_spans
                        if s["parent"] is not None
                        and not s["name"].startswith("stage."))
        assert calls == Counter(LAYER_CALLS[workload])


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("pair_ensemble", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
