"""Tests of the benchmark itself, on calls that take milliseconds.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import probe
import run
import speed
import workloads
from workloads import bracket, compute, verify

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(rng: random.Random) -> list[workloads.Call]:
    blocks = [[1, 2], [3, 4], [5, 6]]
    return [
        compute("rho2", 7, 3, None, 7),
        compute("gamma_k", 5, 2, 2, 4),
        compute("rho2", 13, 5, None, 3),  # closed by a construction
        verify("gamma_k", 1, 6, 2, blocks, 15 - 3),
        verify("gamma_xkt", 2, 6, 2, blocks[:2], None),
    ]


def run_tiny(monkeypatch, capsys, tmp_path, calls, trace=0):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda rng: calls)
    monkeypatch.setattr(run, "BENCH", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.05",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_correct_workload_passes(monkeypatch, capsys, tmp_path):
    code, result = run_tiny(monkeypatch, capsys, tmp_path, tiny(None))
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 5 == 0 and result["attempted"] >= 5
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads((tmp_path / "results" /
                         "tiny-seed3-trace0.json").read_text())
    assert record["provenance"]["seed"] == 3
    assert record["provenance"]["nproc"] >= 1


def test_wrong_recorded_value_counts_as_failure(monkeypatch, capsys, tmp_path):
    _, good = run_tiny(monkeypatch, capsys, tmp_path, tiny(None))
    calls = tiny(None)
    calls[0] = compute("rho2", 7, 3, None, 8)  # rho2(K(7,3)) is 7
    code, result = run_tiny(monkeypatch, capsys, tmp_path, calls)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] * 5 == result["attempted"]
    # the failed call is not left out of the gated counts: they rise
    for name in ("search_nodes", "candidate_values"):
        assert result["metrics"][name]["value"] \
            > good["metrics"][name]["value"], name
    assert result["metrics"]["search_nodes"]["value"] \
        >= workloads.FAILED_CALL_NODES


def test_search_nodes_count_each_root():
    tally = workloads.Tally()
    # 1 for its root when it closes at the root bounds
    tally.add(compute("rho2", 13, 5, None, 3), 0,
              json.dumps({"status": "optimal", "value": 3, "nodes": 0,
                          "witness": [[1, 2, 3, 4, 5], [1, 6, 7, 8, 9],
                                      [1, 10, 11, 12, 13]]}), "")
    assert tally.failed == 0
    assert (tally.search_nodes, tally.candidate_values) == (1, 1)


def test_wrong_exit_code_counts_as_failure(monkeypatch, capsys, tmp_path):
    # closes well inside the budget, so it exits 0 where 2 is expected
    calls = [bracket("rho2", 7, 3, None, 30.0, 7)]
    code, result = run_tiny(monkeypatch, capsys, tmp_path, calls)
    assert code == 1 and result["failed"] == result["attempted"]


def test_trace_reports_every_layer(monkeypatch, capsys, tmp_path):
    code, result = run_tiny(monkeypatch, capsys, tmp_path, tiny(None), trace=1)
    assert code == 0
    metrics = {name: v["value"] for name, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["cli.calls"] == 5
    assert metrics["familydoc.members"] == 5
    assert metrics["certify.invalid"] == 1
    assert metrics["core.vertices_enumerated"] > 0
    assert metrics["solve.nodes"] > 0
    for layer in ("cli", "familydoc", "core", "construct", "solve", "certify"):
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.self_s"] >= 0, layer
    spans = json.loads((tmp_path / "results" /
                        "tiny-seed3-trace1.json").read_text())["spans"]
    assert {"id", "name", "parent", "call", "start", "end"} <= set(spans[0])
    # the originals are back after a traced pass
    import kneserdom.cli
    assert not hasattr(kneserdom.cli.solve_rho2, "__wrapped__")


def test_probe_prints_each_budget(capsys):
    # a budget of milliseconds ends every run with a bracket
    assert probe.main([("gamma_k", 8, 3, 2, 0.02, None)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("gamma_k K(8,3) k=2 budget 0.02s")
    for budget in ("0.01s [", "0.02s [", "0.04s ["):
        assert budget in line
    assert "None" not in line and "FAILED" not in line


def test_independent_checks_reject_bad_witnesses():
    assert workloads.domination_violation(
        5, 2, [[1, 2], [3, 4], [1, 5]], "gamma_k", 2) is not None
    assert workloads.domination_violation(
        5, 2, [[1, 2], [1, 3], [1, 4], [1, 5]], "gamma_k", 2) is None
    assert workloads.packing_violation(7, 3, [[1, 2, 3], [4, 5, 6]])
    assert not workloads.packing_violation(7, 3, [[1, 2, 4], [2, 3, 5]])


def test_documents_follow_the_seed():
    first = workloads.clique_documents(random.Random(1))
    assert first == workloads.clique_documents(random.Random(1))
    assert first != workloads.clique_documents(random.Random(2))
    blocks, drops = first
    assert sorted(x for b in blocks for x in b) == list(range(1, 41))
    assert len(drops) == 3 and all(0 <= d < len(blocks) for d in drops)


def test_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.2, 0, 0)["verdict"] \
        == "gain"
    assert compare.verdict(parent, faster, "lower", 0.2, 0, 1)["verdict"] \
        != "gain"
    assert compare.verdict(parent, list(parent), "lower", 0.2, 0, 0)[
        "verdict"] == "unchanged"
    slower = [v * 1.3 for v in parent]
    assert compare.verdict(parent, slower, "lower", 0.2, 0, 0)["verdict"] \
        == "regression"
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.2, 0, 0)[
        "verdict"] == "unresolved"


def test_reference_seconds():
    meter = speed.SpeedMeter()
    meter.times = [0.0, 0.5, 1.0]
    meter.refs = [speed.NOMINAL, speed.NOMINAL * 2, speed.NOMINAL * 2]
    assert meter.scaled(0.0, 0.4) == pytest.approx(0.4)
    # a machine at half speed: twice the wall time is the same work
    assert meter.scaled(0.5, 1.5) == pytest.approx(0.5)
    # no sample inside: the last one before the interval's end
    assert meter.scaled(1.1, 1.2) == pytest.approx(0.05)
    with speed.SpeedMeter() as live:
        pass
    assert len(live.refs) == 1 and live.refs[0] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rho2-clique",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "cannot import kneserdom" in proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
