"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import pytest  # noqa: E402

import run  # noqa: E402
from mrsqkd import verify  # noqa: E402
from mrsqkd.bell_algebra import BellType  # noqa: E402
from tracing import TARGETS, SpanTable, Tracer  # noqa: E402
from workloads import WORKLOADS, UnitResult, distribution_failures, read_rows  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _failed_frac(w, rows):
    failed = sum(w.row_failed(r) for r in rows)
    unit = UnitResult(len(rows), 1.0, 1.0, len(rows), failed, b"", w.law_samples(rows))
    attempted, failed = run.gate(w, [(1, unit)])
    return failed / attempted


def _planted(path, column, value):
    with open(path, "rb") as fh:
        rows = read_rows(fh.read())
    rows[0] = dict(rows[0], **{column: value})
    return rows


def test_planted_key_mismatch_raises_failed_frac(tmp_path):
    w = WORKLOADS["honest-n256"]
    path = str(tmp_path / "u.csv")
    assert w.run_unit(7, path, trials=4).failed == 0
    assert _failed_frac(w, _planted(path, "keys_match", "true")) == 0
    assert _failed_frac(w, _planted(path, "keys_match", "false")) > 0


def test_planted_chain_abort_raises_failed_frac(tmp_path):
    w = WORKLOADS["parity-n64"]
    path = str(tmp_path / "u.csv")
    assert w.run_unit(7, path, trials=20).failed == 0
    planted = _planted(path, "abort_stage", "CASE4")
    planted[0]["status"] = "ABORTED"
    assert _failed_frac(w, planted) > 0


def test_pooled_law_rejects_a_biased_raw_key():
    w = WORKLOADS["honest-n256"]
    rows = [{"status": "COMPLETED", "keys_match": "true", "raw_key_len": str(v)}
            for v in (90, 98, 95, 101, 96, 93)]
    assert not w.law_failed(w.law_samples(rows))
    biased = [dict(r, raw_key_len="60") for r in rows[:-1]] + rows[-1:]
    assert w.law_failed(w.law_samples(biased))


def test_planted_outcome_breaking_its_relation_is_counted():
    script = verify.make_cycle((0, 1, 2, 3), "cycle")
    dist = verify.exact_distribution(script, 1)
    assert distribution_failures(script, dist) == 0
    outcome = list(next(iter(dist)))
    outcome[0] = BellType(outcome[0].value ^ 1)
    assert distribution_failures(script, {**dist, tuple(outcome): 0.0}) == 1


def test_tracing_keeps_csv_bytes_and_restores_functions(tmp_path):
    w = WORKLOADS["parity-n64"]
    originals = {(o, a): vars(o)[a] for o, a, _ in TARGETS}
    plain = w.run_unit(11, str(tmp_path / "a.csv"), trials=30)
    tracer = Tracer()
    tracer.install()
    try:
        traced = w.run_unit(11, str(tmp_path / "b.csv"), trials=30)
    finally:
        tracer.uninstall()
    assert traced.csv_digest == plain.csv_digest
    assert {(o, a): vars(o)[a] for o, a, _ in TARGETS} == originals
    table = SpanTable(tracer)
    trials = table.select("harness.run_trial")
    assert len(trials) == 30
    assert all(table.parent[i] == -1 for i in trials)
    # Every Z measurement sits inside a trial and its self time is its duration.
    z = table.select("engine.measure_z", root="harness.run_trial")
    assert len(z) == 30 * 128
    assert all(table.self_ns[i] == table.dur[i] for i in z)
    metrics = run.layer_metrics(table, dense=False)
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_frac", "harness.pool_speedup"}
    assert metrics["engine.measure_bell.calls_per_trial"] == 0


def test_declared_metrics_match_the_code():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "parity-n64", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == _declared(kind)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
