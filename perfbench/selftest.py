"""Tests of the benchmark itself: a wrong output must raise the error rate.

    python3 -m pytest perfbench/selftest.py

Each workload runs one repetition in this process with one treewalk function
replaced by a deliberately wrong one, and its checks must count failures.
The file is not named test_*.py so that the package's own test suite does
not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import treewalk  # noqa: E402
import treewalk.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _off_by_one_kemeny(t):
    return treewalk.kemeny(t) + 1


def _unchanged(t, snapshot_depth=8):
    return t, treewalk.TransformTrace("decreasing", min(treewalk.joining_all(t)), b"")


def _all_verified(*args, **kwargs):
    return dataclasses.replace(_real_audit_formula(*args, **kwargs), status=treewalk.VERIFIED)


def _far_off(*args, **kwargs):
    return dataclasses.replace(_real_simulate(*args, **kwargs), z_score=9.0)


_real_audit_formula = treewalk.audit_formula
_real_simulate = treewalk.simulate_hitting

FAULTS = {
    "exhaustive-audit": (treewalk.cli, "kemeny", _off_by_one_kemeny),
    "family-ledger": (treewalk, "audit_formula", _all_verified),
    "monte-carlo": (treewalk, "simulate_hitting", _far_off),
}


@pytest.mark.parametrize("workload", sorted(FAULTS))
def test_wrong_output_raises_error_rate(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "PIPELINE_TREES", 10)
    monkeypatch.setattr(worker, "WARM_REPLAYS", 1)
    clean = worker.run(workload, 3, tmp_path)
    assert clean["failed"] == 0, clean["failures"]
    module, name, fake = FAULTS[workload]
    monkeypatch.setattr(module, name, fake)
    broken = worker.run(workload, 3, tmp_path)
    assert 0 < broken["failed"] <= broken["attempted"]


def test_minimize_pipeline_postcondition_is_checked(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "PIPELINE_TREES", 5)
    monkeypatch.setattr(treewalk, "minimize_pipeline", _unchanged)
    broken = worker.run("family-ledger", 3, tmp_path)
    assert any(k.startswith("minimize:") for k in broken["failures"])


def test_analyze_checks_catch_wrong_values(tmp_path, monkeypatch):
    n = 300
    edges = worker.random_edges(worker.random.Random(5), n)
    (tmp_path / "tree.txt").write_text(worker.edge_list_text(n, edges), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc, out = worker.run_cli(worker.LargeTree.ANALYZE)
    assert rc == 0
    res = json.loads(out)["results"]
    assert worker.check_analyze(n, edges, res, seed=5) == []
    wrong = json.loads(out)["results"]
    wrong["kemeny"]["num"] += 1
    assert worker.check_analyze(n, edges, wrong, seed=5)
    wrong = json.loads(out)["results"]
    wrong["barycenter"] = [0]
    assert worker.check_analyze(n, edges, wrong, seed=5)


def test_tracing_counts_calls_and_self_time(tmp_path, monkeypatch):
    n = 200
    edges = worker.random_edges(worker.random.Random(2), n)
    (tmp_path / "tree.txt").write_text(worker.edge_list_text(n, edges), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    treewalk.enumeration.tree_classes.cache_clear()
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        worker.run_cli(worker.LargeTree.ANALYZE)
        treewalk.tree_classes(6)
    finally:
        undo()
        treewalk.enumeration.tree_classes.cache_clear()
    assert treewalk.walkstats.joining_all.__name__ == "joining_all"
    assert not hasattr(treewalk.walkstats.joining_all, "__wrapped__")
    m = tracing.layer_metrics(tracer.spans)
    assert m["walkstats.joining_all_calls"] == 4
    assert m["enumeration.classes"] == 6
    selfs = tracing.self_times(tracer.spans, tracing.busy_times(tracer.spans))
    assert min(selfs) >= 0
    roots = [sp for sp in tracer.spans if sp.parent < 0]
    assert sum(selfs) == pytest.approx(sum(sp.duration for sp in roots))


def test_self_time_leaves_out_pauses():
    spans = [
        tracing.Span(0, "outer", 0.0, 10.0, -1, "r"),
        tracing.Span(1, "inner", 2.0, 6.0, 0, "r"),
    ]
    assert tracing.self_times(spans, tracing.busy_times(spans)) == [6.0, 4.0]
    busy = tracing.busy_times(spans, [(3.0, 4.0), (7.0, 7.5)])
    assert busy == [8.5, 3.0]
    assert tracing.self_times(spans, busy) == [5.5, 3.0]


def test_simulate_fit_recovers_costs():
    walk_us, step_ns = tracing.fit_simulate((100, 1000, 100 * 2e-6 + 1000 * 5e-9), (10, 90000, 10 * 2e-6 + 90000 * 5e-9))
    assert walk_us == pytest.approx(2.0)
    assert step_ns == pytest.approx(5.0)


def test_spread_is_interquartile_share_of_median():
    assert run.spread([10.0] * 10) == 0
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

