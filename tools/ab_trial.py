"""In-process A/B timing of campaign trials: a git revision against the
working tree.

Run from the root of a checkout:

    python tools/ab_trial.py --base HEAD --attack honest --n 256 --batches 40 --batch 100
    python tools/ab_trial.py --base HEAD --attack honest --n 256 --stages 500
    python tools/ab_trial.py --base HEAD --attack honest --n 10 --backend dense --stages 50

``git archive`` extracts the base revision's ``src/mrsqkd`` into a
temporary directory, where it is imported as ``mrsqkd_base`` beside the
working tree's ``mrsqkd``. Separate processes on a shared VM drift by
tens of percent, so both copies run in one process, in alternating
batches of ``harness.run_trial`` (which goes first alternates too). The
output gives the median ms per trial of each side, the median of the
per-batch speedups with its quartiles, and how many batches the working
tree won.

Before any timing, in either mode, each side renders the CSV of trials
0..299 of ``--attack`` at ``--n`` with its own ``harness.render_csv``;
if the two differ, the tool prints one line and exits 1, so a speedup
it reports comes with byte-identical rows.

``--backend`` picks the engine of every run on both sides: ``tableau``
(the default) or ``dense``. A run that the backend cannot hold, or any
other bad ``--n``, ends the tool with one ``error:`` line and exit 2.

``--stages K`` instead times K ``run_protocol`` calls of ``--attack`` at
``--n``, alternating the two copies call by call, and prints the median
µs of each stage. The stages come from the run's own marks: each side's
``RunResult.stage_ns`` bounds the stages named by its ``protocol.STAGES``.
A revision without ``stage_ns`` cannot be timed this way, and the tool
exits 2 with one line. Given with ``--batches`` too, it times both, the
batches first.

``--json PATH`` also writes what was timed to PATH: the command, the
machine, the base commit, then under ``batches`` each side's ms per trial
in every batch and their medians, the median speedup with its quartiles
and the batches won, and under ``stages`` the median µs of each stage and
their totals. This is how a ``BENCH_*.json`` at the root is made:

    python tools/ab_trial.py --base HEAD --batches 20 --batch 50 --stages 500 --json BENCH.json
"""
from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

import numpy

ROOT = os.getcwd()
IDENTITY_TRIALS = 300
STRATEGIES = {"honest": "honest", "naive-measure": "naive_measure",
              "parity-measure": "parity_aware_measure"}


def load_base(rev: str, into: str):
    """The package at ``rev``, importable as ``mrsqkd_base``."""
    data = subprocess.run(["git", "archive", rev, "src/mrsqkd"], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into, filter="data")
    os.rename(os.path.join(into, "src", "mrsqkd"), os.path.join(into, "mrsqkd_base"))
    sys.path.insert(0, into)
    return importlib.import_module("mrsqkd_base")


def modules(pkg: str) -> dict:
    return {m: importlib.import_module(f"{pkg}.{m}")
            for m in ("adversary", "engine", "harness", "protocol")}


def strategy(mods: dict, attack: str):
    return getattr(mods["adversary"], STRATEGIES[attack])()


def trial_runner(mods: dict, args):
    h = mods["harness"]
    config = h.CampaignConfig(n=args.n, trials=1, master_seed=12345,
                              strategy=strategy(mods, args.attack),
                              backend=mods["engine"].Backend(args.backend))
    return lambda i: h.run_trial(config, i)


def same_rows(base: dict, work: dict, args) -> bool:
    """Whether both sides write the same CSV for the first trials."""
    csvs = []
    for mods in (base, work):
        run = trial_runner(mods, args)
        csvs.append(mods["harness"].render_csv([run(i) for i in range(IDENTITY_TRIALS)]))
    return csvs[0] == csvs[1]


def ab_batches(base: dict, work: dict, args) -> dict:
    runs = {"base": trial_runner(base, args), "work": trial_runner(work, args)}
    for i in range(50):  # warm the pair-block tables and caches of both
        runs["base"](i), runs["work"](i)
    ms = {"base": [], "work": []}
    for b in range(args.batches):
        for side in ("base", "work") if b % 2 == 0 else ("work", "base"):
            t0 = time.perf_counter()
            for i in range(b * args.batch, (b + 1) * args.batch):
                runs[side](i)
            ms[side].append((time.perf_counter() - t0) / args.batch * 1e3)
    ratios = [b / w for b, w in zip(ms["base"], ms["work"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    timed = {"batches": args.batches, "batch": args.batch,
             "base_ms": statistics.median(ms["base"]), "work_ms": statistics.median(ms["work"]),
             "speedup": statistics.median(ratios), "speedup_q1": q1, "speedup_q3": q3,
             "work_won": sum(r > 1 for r in ratios),
             "base_ms_per_batch": ms["base"], "work_ms_per_batch": ms["work"]}
    print(f"{args.attack} n={args.n}: base {timed['base_ms']:.3f} ms/trial, "
          f"work {timed['work_ms']:.3f} ms/trial, speedup "
          f"{timed['speedup']:.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"work won {timed['work_won']}/{args.batches} batches")
    return timed


def stage_us(mods: dict, args, seed: int) -> dict[str, float]:
    """µs per stage of one ``run_protocol`` call, from its own marks."""
    pr = mods["protocol"]
    config = pr.ProtocolConfig(n=args.n, seed=seed, backend=mods["engine"].Backend(args.backend))
    marks = pr.run_protocol(config, strategy(mods, args.attack)).stage_ns
    return {stage: (end - start) / 1e3 for stage, start, end in zip(pr.STAGES, marks, marks[1:])}


def ab_stages(base: dict, work: dict, args) -> dict:
    """Median µs per stage, the two sides alternating call by call."""
    runs = {"base": base, "work": work}
    spans = {side: [] for side in runs}
    for k, seed in enumerate(range(1000 - 50, 1000 + args.stages)):
        for side in ("base", "work") if k % 2 == 0 else ("work", "base"):
            stages = stage_us(runs[side], args, seed)
            if seed >= 1000:  # the first 50 calls warm both copies
                spans[side].append(stages)
    medians = [{stage: statistics.median(s[stage] for s in rows) for stage in rows[0]}
               for rows in spans.values()]
    print(f"{args.attack} n={args.n}")
    print(f"{'stage':10s} {'base_us':>9s} {'work_us':>9s}")
    for stage in dict.fromkeys([*medians[0], *medians[1]]):  # a stage one side lacks reads -
        cells = [f"{m[stage]:9.1f}" if stage in m else f"{'-':>9s}" for m in medians]
        print(f"{stage:10s} {cells[0]} {cells[1]}")
    totals = [sum(m.values()) for m in medians]
    print(f"{'total':10s} {totals[0]:9.1f} {totals[1]:9.1f}")
    return {"calls": args.stages, "base_us": medians[0], "work_us": medians[1],
            "base_total_us": totals[0], "work_total_us": totals[1]}


def compare(base: dict, work: dict, args) -> int:
    """Check that both sides can be compared, then time them; the exit code."""
    if args.stages:
        for name, mods in ((f"base {args.base}", base), ("the working tree", work)):
            if "stage_ns" not in mods["protocol"].RunResult.__dataclass_fields__:
                print(f"error: {name} has no RunResult.stage_ns to time --stages from",
                      file=sys.stderr)
                return 2
    for mods in (base, work):
        try:
            trial_runner(mods, args)
        except (ValueError, mods["engine"].CapacityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not same_rows(base, work, args):
        print(f"error: base {args.base} and the working tree write different CSV rows "
              f"for trials 0..{IDENTITY_TRIALS - 1} of {args.attack} n={args.n}",
              file=sys.stderr)
        return 1
    timed = {}
    if args.batches:
        timed["batches"] = ab_batches(base, work, args)
    if args.stages:
        timed["stages"] = ab_stages(base, work, args)
    if args.json:
        write_json(args, timed)
    return 0


def write_json(args, timed: dict) -> None:
    """What was timed, with the command and the machine that timed it."""
    commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    record = {
        "command": " ".join(["python", "tools/ab_trial.py", *sys.argv[1:]]),
        "base": args.base, "base_commit": commit,
        "attack": args.attack, "n": args.n, "backend": args.backend,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        **timed,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--attack", default="honest", choices=tuple(STRATEGIES))
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--backend", default="tableau", choices=("tableau", "dense"))
    parser.add_argument("--batches", type=int, help="alternating batches (default 40, or 0 "
                        "with --stages)")
    parser.add_argument("--batch", type=int, default=100, help="trials per batch")
    parser.add_argument("--stages", type=int, default=0, help="time K runs stage by stage")
    parser.add_argument("--json", help="also write what was timed to this file")
    args = parser.parse_args()
    if args.batches is None:
        args.batches = 0 if args.stages else 40
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        load_base(args.base, tmp)
        return compare(modules("mrsqkd_base"), modules("mrsqkd"), args)


if __name__ == "__main__":
    sys.exit(main())
