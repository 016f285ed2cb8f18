"""Benchmark of the mrsqkd package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload honest-n256 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh interpreters, then units of work repeated for ``--seconds``
and reported as medians. ``--trace 1`` runs units untraced for a third of
``--seconds``, replays them with span tracing installed, and reports the
per-layer metrics, the tracing overhead and the pool speedup.
Both check every output and print, as the last line of stdout, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Side files go to ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.measure_bell_us.p50": "us",
    "engine.measure_bell.calls_per_trial": "count",
    "engine.measure_bell.share": "frac",
    "engine.measure_z_us.p50": "us",
    "engine.measure_z.calls_per_trial": "count",
    "engine.measure_z.share": "frac",
    "engine.prepare_bell_us.p50": "us",
    "engine.prepare_bell.calls_per_trial": "count",
    "engine.prepare_bell.share": "frac",
    "engine.busy_frac": "frac",
    "protocol.setup_us": "us",
    "protocol.choices_us": "us",
    "protocol.classify_us": "us",
    "protocol.evaluate_us": "us",
    "protocol.self_us": "us",
    "adversary.on_return_self_us": "us",
    "privacy.amplify_us": "us",
    "privacy.amplify.calls_per_trial": "count",
    "bell_algebra.check_us": "us",
    "bell_algebra.checks_per_trial": "count",
    "harness.trial_ms.p50": "ms",
    "harness.trial_ms.p99": "ms",
    "harness.trial_ms.samples": "count",
    "harness.csv_ms": "ms",
    "harness.summarize_ms": "ms",
    "harness.pool_speedup": "ratio",
    "dense.exact_config_ms": "ms",
    "dense.branch_yield": "ratio",
    "dense.protocol_trial_s": "s",
    "verify.sample_tableau_ms": "ms",
    "verify.exact_ms": "ms",
    "trace.overhead_frac": "frac",
}

ENGINE_OPS = ("measure_bell", "measure_z", "prepare_bell")
BELL_CHECKS = (
    "bell_algebra.xor_rule_holds",
    "bell_algebra.chain_relation_holds",
    "bell_algebra.infer_remote_bit",
)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_times(workload: str, seed: int, out_dir: str) -> tuple[list[float], int]:
    """Wall seconds of fresh interpreters that import ``mrsqkd.cli``, build
    the workload's inputs and run one warm-up unit; and how many failed."""
    probe = os.path.join(HERE, "setup_probe.py")
    out_path = os.path.join(out_dir, "setup.csv")
    times, failed = [], 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, probe, workload, str(seed), out_path],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failed += 1
            sys.stderr.write(proc.stderr)
    return times, failed


def run_units(w, seeds, out_path: str, seconds: float) -> list:
    """(unit seed, UnitResult) for units started before ``seconds`` ran out."""
    done = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        unit_seed = next(seeds)
        done.append((unit_seed, w.run_unit(unit_seed, out_path)))
    return done


def gate(w, units: list) -> tuple[int, int]:
    """Attempted and failed over the units, with the pooled statistical law."""
    attempted = sum(u.attempted for _, u in units)
    failed = sum(u.failed for _, u in units)
    failed += w.law_failed([x for _, u in units for x in u.law])
    return attempted, failed


def end_to_end(w, seed: int, seconds: float, out_dir: str) -> tuple[dict, int, int]:
    setup, setup_failed = setup_times(w.name, seed, out_dir)
    out_path = os.path.join(out_dir, "unit.csv")
    units = run_units(w, w.unit_seeds(seed), out_path, seconds)
    attempted, failed = gate(w, units)
    first_seed, first = units[0]
    # Same seed, same bytes: rerun the first unit's campaign command.
    failed += w.rerun_digest(first_seed, out_path) != first.csv_digest
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": statistics.median(u.trials / u.trial_wall_s for _, u in units),
        "verdict_s": statistics.median(u.verdict_wall_s for _, u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"units={len(units)} setup_s={sorted(setup)}", file=sys.stderr)
    return metrics, attempted + SETUP_REPEATS, failed + setup_failed


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(table, dense: bool) -> dict:
    """Per-layer metrics from the traced spans. A layer the workload never
    calls reads 0."""
    trials = table.select("harness.run_trial")
    n_trials = len(trials)
    trial_ns = sum(table.dur[i] for i in trials)
    trial_ms = [table.dur[i] / 1e6 for i in trials]

    def in_trials(*names: str) -> list[int]:
        return [i for nm in names for i in table.select(nm, root="harness.run_trial")]

    def self_us_per_trial(*names: str) -> float:
        return sum(table.self_ns[i] for i in in_trials(*names)) / n_trials / 1e3

    def median_ms(spans: list[int]) -> float:
        return statistics.median(table.dur[i] for i in spans) / 1e6 if spans else 0.0

    m = {}
    engine_ns = 0
    for op in ENGINE_OPS:
        calls = in_trials(f"engine.{op}")
        op_ns = sum(table.dur[i] for i in calls)
        engine_ns += op_ns
        m[f"engine.{op}_us.p50"] = median_ms(calls) * 1e3
        m[f"engine.{op}.calls_per_trial"] = len(calls) / n_trials
        m[f"engine.{op}.share"] = op_ns / trial_ns
    m["engine.busy_frac"] = engine_ns / trial_ns
    m["protocol.setup_us"] = self_us_per_trial("protocol.new_register", "protocol.derive_seed")
    m["protocol.choices_us"] = self_us_per_trial("protocol.party_step2")
    m["protocol.classify_us"] = self_us_per_trial("protocol.classify_components")
    m["protocol.evaluate_us"] = self_us_per_trial("protocol.evaluate_step4")
    m["protocol.self_us"] = self_us_per_trial("protocol.run_protocol")
    m["adversary.on_return_self_us"] = self_us_per_trial("adversary.on_return")
    m["privacy.amplify_us"] = self_us_per_trial("privacy.amplify")
    m["privacy.amplify.calls_per_trial"] = len(in_trials("privacy.amplify")) / n_trials
    m["bell_algebra.check_us"] = self_us_per_trial(*BELL_CHECKS)
    m["bell_algebra.checks_per_trial"] = len(in_trials(*BELL_CHECKS)) / n_trials
    m["harness.trial_ms.p50"] = statistics.median(trial_ms)
    m["harness.trial_ms.p99"] = _percentile(trial_ms, 99)
    m["harness.trial_ms.samples"] = n_trials
    m["harness.csv_ms"] = median_ms(table.select("harness.emit_csv"))
    m["harness.summarize_ms"] = median_ms(table.select("harness.summarize"))
    exact = table.select("verify.exact_distribution")
    copies = len(table.select("dense.copy"))
    m["dense.exact_config_ms"] = median_ms(exact)
    m["dense.branch_yield"] = table.counts.get("verify.exact_distribution", 0) / copies if copies else 0.0
    m["dense.protocol_trial_s"] = statistics.median(trial_ms) / 1e3 if dense else 0.0
    passes = len(table.select("verify.verify_backends"))
    for metric, name in (("verify.sample_tableau_ms", "verify.sample_tableau"),
                         ("verify.exact_ms", "verify.exact_distribution")):
        spans = table.select(name, parent="verify.verify_backends")
        m[metric] = sum(table.dur[i] for i in spans) / passes / 1e6 if passes else 0.0
    return m


def pool_speedup(w, unit_seed: int, out_path: str) -> float:
    """Throughput at every core over throughput at one worker, untraced."""
    from workloads import quiet_main

    rates = []
    for workers in (1, os.cpu_count() or 1):
        argv, trials = w.pool_command(unit_seed, workers)
        t0 = time.perf_counter()
        quiet_main(argv + ["--out", out_path])
        rates.append(trials / (time.perf_counter() - t0))
    return rates[1] / rates[0]


def traced(w, seed: int, seconds: float, out_dir: str) -> tuple[dict, int, int]:
    from tracing import SpanTable, Tracer

    out_path = os.path.join(out_dir, "unit.csv")
    seeds = w.unit_seeds(seed)
    # Caches fill on the first unit; keep it out of the overhead ratio.
    warm_seed = next(seeds)
    warm = [(warm_seed, w.run_unit(warm_seed, out_path))]
    plain = run_units(w, seeds, out_path, seconds / 3)
    tracer = Tracer()
    tracer.install()
    try:
        replay = [(s, w.run_unit(s, out_path)) for s, _ in plain]
    finally:
        tracer.uninstall()
    attempted, failed = gate(w, warm + plain)
    replay_attempted, replay_failed = gate(w, replay)
    # Tracing must not change a byte of the CSV.
    failed += replay_failed + sum(
        a.csv_digest != b.csv_digest for (_, a), (_, b) in zip(plain, replay)
    )
    metrics = layer_metrics(SpanTable(tracer), w.dense)
    metrics["trace.overhead_frac"] = (
        sum(u.verdict_wall_s for _, u in replay) / sum(u.verdict_wall_s for _, u in plain) - 1
    )
    metrics["harness.pool_speedup"] = pool_speedup(w, plain[0][0], out_path)
    tracer.write(os.path.join(out_dir, "spans.csv"))
    print(f"units={len(plain)} spans={len(tracer)}", file=sys.stderr)
    return metrics, attempted + replay_attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mrsqkd", "__init__.py")):
        print(f"error: no mrsqkd sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from "
              f"{', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    out_dir = os.path.join(OUT, w.name)
    os.makedirs(out_dir, exist_ok=True)
    measure = traced if args.trace else end_to_end
    values, attempted, failed = measure(w, args.seed, args.seconds, out_dir)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"environment={json.dumps(environment())} failed_frac={failed / attempted}",
          file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
