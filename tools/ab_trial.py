"""In-process A/B timing of campaign trials: a git revision against the
working tree.

Run from the root of a checkout:

    python tools/ab_trial.py --base HEAD --attack honest --n 256 --batches 40 --batch 100
    python tools/ab_trial.py --base HEAD --stages 500

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

``--stages K`` instead times the stages of K honest trials at ``--n``,
alternating the two copies trial by trial, and prints the median µs of
each stage. It replays ``run_protocol`` step by step through the
protocol's own functions, so it has to follow them when they change.
Its ``pa`` stage draws the PA seed and builds the ``Outcome``, which
checks the inputs of privacy amplification; a revision whose
``Outcome`` computes its final keys on first read hashes nothing there.
"""
from __future__ import annotations

import argparse
import importlib
import io
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.getcwd()
IDENTITY_TRIALS = 300
STAGES = ("setup", "prep", "choices", "z", "bell", "classify", "evaluate", "pa", "stats")


def load_base(rev: str, into: str):
    """The package at ``rev``, importable as ``mrsqkd_base``."""
    data = subprocess.run(["git", "archive", rev, "src/mrsqkd"], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(into)
    os.rename(os.path.join(into, "src", "mrsqkd"), os.path.join(into, "mrsqkd_base"))
    sys.path.insert(0, into)
    return importlib.import_module("mrsqkd_base")


def modules(pkg: str) -> dict:
    return {m: importlib.import_module(f"{pkg}.{m}")
            for m in ("adversary", "engine", "harness", "privacy", "protocol")}


def trial_runner(mods: dict, attack: str, n: int):
    strategy = {"honest": "honest", "naive-measure": "naive_measure",
                "parity-measure": "parity_aware_measure"}[attack]
    h = mods["harness"]
    config = h.CampaignConfig(n=n, trials=1, master_seed=12345,
                              strategy=getattr(mods["adversary"], strategy)())
    return lambda i: h.run_trial(config, i)


def same_rows(base: dict, work: dict, args) -> bool:
    """Whether both sides write the same CSV for the first trials."""
    csvs = []
    for mods in (base, work):
        run = trial_runner(mods, args.attack, args.n)
        csvs.append(mods["harness"].render_csv([run(i) for i in range(IDENTITY_TRIALS)]))
    return csvs[0] == csvs[1]


def ab_batches(base: dict, work: dict, args) -> None:
    runs = {"base": trial_runner(base, args.attack, args.n),
            "work": trial_runner(work, args.attack, args.n)}
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
    print(f"{args.attack} n={args.n}: base {statistics.median(ms['base']):.3f} ms/trial, "
          f"work {statistics.median(ms['work']):.3f} ms/trial, speedup "
          f"{statistics.median(ratios):.3f} (quartiles {q1:.3f}-{q3:.3f}), "
          f"work won {sum(r > 1 for r in ratios)}/{args.batches} batches")


def trial_stages(mods: dict, n: int, seed: int) -> list[float]:
    """µs per stage of one honest trial, replaying ``run_protocol``."""
    pr, priv = mods["protocol"], mods["privacy"]
    strategy = mods["adversary"].honest()
    clock = time.perf_counter_ns
    config = pr.ProtocolConfig(n=n, seed=seed)
    t = [clock()]
    engine = pr.new_register(2 * n, config.backend, pr.derive_seed(seed, 0))
    alice_rng = pr.philox(pr.derive_seed(seed, 1))
    bob_rng = pr.philox(pr.derive_seed(seed, 2))
    hooks = strategy.instantiate(pr.philox(pr.derive_seed(seed, 3)))
    t.append(clock())
    wire_a, wire_b = hooks.prepare(engine, n)
    t.append(clock())
    alice = pr.party_step2(alice_rng, n, pr.Role.ALICE)
    bob = pr.party_step2(bob_rng, n, pr.Role.BOB)
    t.append(clock())
    for party, wire in ((alice, wire_a), (bob, wire_b)):
        for p in party.measured_positions:
            party.z_results[p] = engine.measure_z(wire[p])
    q1 = tuple(wire_a[p] for p in alice.send_order)
    q2 = tuple(wire_b[p] for p in bob.send_order)
    t.append(clock())
    mr = tuple(hooks.on_return(engine, q1, q2))
    t.append(clock())
    cls = pr.classify_components(alice.measured_positions, bob.measured_positions,
                                 alice.send_order, bob.send_order, n)
    t.append(clock())
    ev = pr.evaluate_step4(cls, mr, alice, bob)
    t.append(clock())
    raw_a, raw_b = ev.raw_key_alice, ev.raw_key_bob
    n_seed = priv.seed_length(len(raw_a), config.pa_ratio)
    bits = tuple(alice_rng.integers(0, 2, size=n_seed, dtype="uint8").tolist())
    params = priv.PAParams(config.pa_ratio, bits)
    if "pa" in pr.Outcome.__dataclass_fields__:  # final keys computed on first read
        outcome = pr.Outcome(pr.RunStatus.COMPLETED, raw_a, raw_b, pa=params)
    else:  # a base that amplifies both keys in the run
        outcome = pr.Outcome(pr.RunStatus.COMPLETED, raw_a, raw_b,
                             tuple(priv.amplify(raw_a, params)), tuple(priv.amplify(raw_b, params)))
    t.append(clock())
    pr._build_stats(0, config, strategy, cls, ev, outcome)
    t.append(clock())
    return [(end - start) / 1e3 for start, end in zip(t, t[1:])]


def ab_stages(base: dict, work: dict, args) -> None:
    """Median µs per stage, the two sides alternating trial by trial."""
    runs = {"base": base, "work": work}
    spans = {side: [] for side in runs}
    for k, seed in enumerate(range(1000 - 50, 1000 + args.stages)):
        for side in ("base", "work") if k % 2 == 0 else ("work", "base"):
            stages = trial_stages(runs[side], args.n, seed)
            if seed >= 1000:  # the first 50 trials warm both copies
                spans[side].append(stages)
    medians = {side: [statistics.median(col) for col in zip(*rows)] for side, rows in spans.items()}
    print(f"{'stage':10s} {'base_us':>9s} {'work_us':>9s}")
    for i, stage in enumerate(STAGES):
        print(f"{stage:10s} {medians['base'][i]:9.1f} {medians['work'][i]:9.1f}")
    print(f"{'total':10s} {sum(medians['base']):9.1f} {sum(medians['work']):9.1f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--attack", default="honest",
                        choices=("honest", "naive-measure", "parity-measure"))
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--batches", type=int, default=40)
    parser.add_argument("--batch", type=int, default=100, help="trials per batch")
    parser.add_argument("--stages", type=int, default=0, help="time K trials stage by stage")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        load_base(args.base, tmp)
        base, work = modules("mrsqkd_base"), modules("mrsqkd")
        if not same_rows(base, work, args):
            print(f"error: base {args.base} and the working tree write different CSV rows "
                  f"for trials 0..{IDENTITY_TRIALS - 1} of {args.attack} n={args.n}",
                  file=sys.stderr)
            return 1
        (ab_stages if args.stages else ab_batches)(base, work, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
