"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run: each
test runs whole workload passes, several minutes in all.  They check that
every workload emits every metric that BENCHMARK.json names, with its unit,
that a deliberately wrong expected value is counted as a failure rather
than passing silently, and that the benchmark refuses to report a result
when the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted(workload):
    meta, result = run.run_workload(workload, seed=3, seconds=0, trace=0)
    _check_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert meta["ops_per_pass"] >= 100 and meta["samples_above_p90"] >= 10
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_per_layer_metrics_emitted(workload):
    meta, result = run.run_workload(workload, seed=3, seconds=0, trace=1)
    _check_metrics(result, BENCHMARK["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"] and metrics["fail_ratio"] == 0
    assert metrics["tracing_overhead"] > 0 and metrics["trace.spans"] > 0
    layer_self = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s") and k != "bench.self_s")
    assert layer_self + metrics["bench.self_s"] == pytest.approx(metrics["traced_pass_s"])
    assert (workloads.ROOT / meta["trace_file"]).is_file()


def _expected_with(mutate):
    expected = workloads.load_expected()
    mutate(expected)
    return expected


def test_wrong_analyze_delta_is_a_failure():
    key = workloads.design_key(*workloads.ANALYZE_DESIGNS[0])

    def mutate(expected):
        expected["analyze"][key]["delta"]["2"] += 1

    meta, result = run.run_workload("analyze", seed=3, seconds=0, trace=0,
                                    expected=_expected_with(mutate))
    assert not result["correct"]
    assert result["failed"] == 1
    assert meta["fail_ratio"] == result["failed"] / result["attempted"]


def test_wrong_verdict_and_recorded_delta_are_failures():
    def mutate(expected):
        for entry in expected["analyze"].values():
            for verdicts in (entry["verify"], entry["cascade"]):
                for mu in verdicts:
                    verdicts[mu] = not verdicts[mu]

    meta, result = run.run_workload("analyze", seed=3, seconds=0, trace=0,
                                    expected=_expected_with(mutate))
    verdict_ops = sum(bases for _, kind, _, bases in workloads.analyze_op_list()
                      if kind in ("verify", "cascade"))
    assert result["failed"] == verdict_ops

    name = workloads.crosscheck_large_items()[0]["name"]

    def mutate_crosscheck(expected):
        expected["crosscheck"][name] += 1

    meta, result = run.run_workload("crosscheck", seed=3, seconds=0, trace=0,
                                    expected=_expected_with(mutate_crosscheck))
    assert result["failed"] == 1


def test_witness_is_checked_by_recomputation():
    """A witness that does not attain Delta fails even when Delta is right."""
    import wiretapnc
    import wiretapnc.serialize

    n, M, k, p = workloads.ANALYZE_DESIGNS[4]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    design = wiretapnc.serialize.design_from_json(
        workloads.gen.combination_design(n, M, p, k, identity))
    H, code = design.coset.parity_check, design.netcode
    delta, witness, _ = wiretapnc.equivocation_rank(H, code, 2)
    assert workloads._check_delta(wiretapnc, H, code, 2, delta, witness, delta) is None
    assert workloads._check_delta(wiretapnc, H, code, 2, delta, ("Sm0",), delta)
    # both edges carry the same vector: the pair leaves equivocation 1, not 0
    assert workloads._check_delta(wiretapnc, H, code, 2, delta, ("Sm0", "m0r0"), delta)


def test_refuses_without_program():
    """Run from a directory holding only BENCHMARK.json and perfbench/."""
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
