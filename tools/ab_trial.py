"""In-process A/B timing of campaign trials: a git revision against the
working tree.

Run from the root of a checkout:

    python tools/ab_trial.py --base HEAD --attack honest --n 256 --batches 40 --batch 100
    python tools/ab_trial.py --base HEAD --attack modify --gate x --m 4 --n 256 --batches 20
    python tools/ab_trial.py --base HEAD --attack honest --n 256 --stages 500
    python tools/ab_trial.py --base HEAD --attack honest --n 10 --backend dense --stages 50

Every flag the tool does not define is a flag of ``mrsqkd campaign``
(``--attack``, ``--gate``, ``--m``, ``--n``, ``--seed``, ``--backend``,
``--pa-ratio``), read by each side's own ``cli.build_parser()``: the
trials timed are those of ``campaign`` with these flags, its defaults
included (n=64, seed 1). ``--trials``, ``--out``, ``--workers`` and
``--config`` do not pick the trials, so the tool refuses them, written
out or abbreviated. Such a flag, a bad flag, or a campaign that the CLI
would refuse (an odd ``--n``, an ``--m`` over n) ends the tool with the
CLI's one ``error:`` line and exit 2.

``git archive`` extracts the base revision's ``src/mrsqkd`` into a
temporary directory, where it is imported as ``mrsqkd_base`` beside the
working tree's ``mrsqkd``. Separate processes on a shared VM drift by
tens of percent, so both copies run in one process, in alternating
batches of ``harness.run_trial`` (which goes first alternates too). The
output gives the median of the per-batch speedups with its quartiles,
and how many batches the working tree won. It gives no median ms of
either side: when the VM changes speed during a run, each side's median
can land in a different phase and contradict the paired speedup beside
it, while each batch's speedup compares two runs of the same phase.

Before any timing, in either mode, each side renders the CSV of the
campaign's trials 0..299 with its own ``harness.render_csv``; if the two
differ, the tool prints one line and exits 1, so a speedup it reports
comes with byte-identical rows.

``--stages K`` instead times K ``run_protocol`` calls of the campaign's
strategy at its n and backend, with seeds 1000 to 1000 + K - 1,
alternating the two copies call by call, and prints the median
µs of each stage. The stages come from the run's own marks: each side's
``RunResult.stage_ns`` bounds the stages named by its ``protocol.STAGES``.
A revision without ``stage_ns`` cannot be timed this way, and the tool
exits 2 with one line. Given with ``--batches`` too, it times both, the
batches first.

``--exact K`` times the exact oracle instead: K rounds of
``verify.exact_distribution`` over every Bell-code configuration of
4-pair cycles and chains (512 laws), the two copies alternating round by
round. Before timing, both sides must return the same outcomes in the
same order, each probability within 1e-12 of the other side's; if not,
the tool prints one line and exits 1. Given with ``--batches`` or
``--stages`` too, it times them all, the exact rounds last.

``--verify K`` times K rounds of ``verify.verify_backends`` at 1000
samples, as the ``perfbench`` oracle workload runs it, the two copies
alternating round by round. Before timing, both sides must print the same
report lines; if not, the tool prints one line and exits 1. It runs after
every other timing asked for.

``--json PATH`` also writes what was timed to PATH: the command, the
machine, the base commit, the campaign's strategy (as ``describe()``
gives it), n and backend, then under ``batches`` each side's ms per trial
in every batch, the median speedup with its quartiles and the batches
won, under ``stages`` the median µs of each stage and their totals, and
under ``exact`` and ``verify`` each side's ms in every round, the median
speedup with its quartiles and the rounds won. This is how a
``BENCH_*.json`` at the root is made:

    python tools/ab_trial.py --base HEAD --batches 20 --batch 50 --stages 500 --json BENCH.json
    python tools/ab_trial.py --base HEAD --backend dense --n 10 --batches 20 --exact 20 \
        --verify 10 --json BENCH.json
"""
from __future__ import annotations

import argparse
import importlib
import io
import itertools
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
EXACT_PAIRS = 4  # --exact: every Bell-code configuration of 4-pair cycles and chains
EXACT_TOLERANCE = 1e-12
VERIFY_SAMPLES = 1000  # --verify: verify_backends as the oracle benchmark runs it
UNUSED = ("--config", "--out", "--trials", "--workers")  # campaign flags that pick no trial


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
            for m in ("cli", "engine", "harness", "protocol", "verify")}


def campaign(mods: dict, flags: list[str]):
    """The side's ``CampaignConfig`` of ``mrsqkd campaign`` with ``flags``,
    one trial long, as its own CLI reads them; ValueError for a flag of
    ``UNUSED``. After the parse every token that starts with ``--`` is a
    flag, or a prefix of one that the CLI took as that flag."""
    cli = mods["cli"]
    run = cli.build_parser().parse_args(["campaign", *flags])
    for flag in flags:
        name = flag.partition("=")[0]
        unused = [u for u in UNUSED if len(name) > 2 and u.startswith(name)]
        if unused:
            raise ValueError(f"{unused[0]} does not pick the trials timed; leave it out")
    return mods["harness"].CampaignConfig(
        n=run.n, trials=1, strategy=cli._strategy(run), master_seed=run.seed,
        backend=mods["engine"].Backend(run.backend), pa_ratio=run.pa_ratio)


def trial_runner(mods: dict, args):
    config, run_trial = campaign(mods, args.campaign), mods["harness"].run_trial
    return lambda i: run_trial(config, i)


def title(mods: dict, args) -> str:
    """The campaign's strategy and n, as the side reads them."""
    config = campaign(mods, args.campaign)
    return f"{config.strategy.describe()} n={config.n}"


def same_rows(base: dict, work: dict, args) -> bool:
    """Whether both sides write the same CSV for the first trials."""
    csvs = []
    for mods in (base, work):
        run = trial_runner(mods, args)
        csvs.append(mods["harness"].render_csv([run(i) for i in range(IDENTITY_TRIALS)]))
    return csvs[0] == csvs[1]


def speedups(base_ms: list[float], work_ms: list[float]) -> dict:
    """The median of the per-round speedups base / work, its quartiles
    and the rounds the working tree won."""
    ratios = [b / w for b, w in zip(base_ms, work_ms)]
    q1, _, q3 = statistics.quantiles(ratios, n=4)
    return {"speedup": statistics.median(ratios), "speedup_q1": q1, "speedup_q3": q3,
            "work_won": sum(r > 1 for r in ratios)}


def alternate(rounds: int, run) -> dict[str, list[float]]:
    """Each side's ms of ``run(side, r)`` for r in range(rounds), the two
    sides taking turns to go first."""
    ms = {"base": [], "work": []}
    for r in range(rounds):
        for side in ("base", "work") if r % 2 == 0 else ("work", "base"):
            t0 = time.perf_counter()
            run(side, r)
            ms[side].append((time.perf_counter() - t0) * 1e3)
    return ms


def rounds_timed(what: str, ms: dict[str, list[float]],
                 noun: tuple[str, str] = ("round", "rounds"), **extra) -> dict:
    """The record of alternating rounds (``noun``: one, many), printed as
    one line. Both hold only paired figures: the median of the per-round
    speedups, its quartiles and the rounds won, and in the record each
    side's ms in every round, paired by index. Neither holds a side's
    median over its own rounds, which can fall in another phase of the
    VM's speed than the other side's."""
    one, many = noun
    rounds = len(ms["work"])
    timed = {many: rounds, **extra, **speedups(ms["base"], ms["work"]),
             f"base_ms_per_{one}": ms["base"], f"work_ms_per_{one}": ms["work"]}
    print(f"{what}: speedup {timed['speedup']:.3f} (quartiles {timed['speedup_q1']:.3f}-"
          f"{timed['speedup_q3']:.3f}), work won {timed['work_won']}/{rounds} {many}")
    return timed


def ab_batches(base: dict, work: dict, args) -> dict:
    runs = {"base": trial_runner(base, args), "work": trial_runner(work, args)}
    for i in range(50):  # warm the pair-block tables and caches of both
        runs["base"](i), runs["work"](i)

    def batch(side: str, b: int) -> None:
        for i in range(b * args.batch, (b + 1) * args.batch):
            runs[side](i)

    ms = {side: [t / args.batch for t in times]
          for side, times in alternate(args.batches, batch).items()}
    return rounds_timed(title(work, args), ms, ("batch", "batches"), batch=args.batch)


def exact_scripts(mods: dict) -> list:
    """Every configuration --exact times, as the side's own scripts."""
    v = mods["verify"]
    codes = list(itertools.product(range(4), repeat=EXACT_PAIRS))
    return [v.make_cycle(c, "cycle") for c in codes] + [v.make_chain(c, "chain") for c in codes]


def same_laws(base: dict, work: dict) -> bool:
    """Whether both sides give every configuration the same outcomes in
    the same order, each probability within EXACT_TOLERANCE."""
    exact_b, exact_w = base["verify"].exact_distribution, work["verify"].exact_distribution
    for script_b, script_w in zip(exact_scripts(base), exact_scripts(work)):
        b, w = exact_b(script_b, 11), exact_w(script_w, 11)
        # Outcomes compare as codes: each side has its own BellType.
        if [tuple(map(int, k)) for k in b] != [tuple(map(int, k)) for k in w]:
            return False
        if max(abs(p - q) for p, q in zip(b.values(), w.values())) > EXACT_TOLERANCE:
            return False
    return True


def ab_exact(base: dict, work: dict, args) -> dict:
    """ms per round of every --exact law, the two sides alternating."""
    sides = {"base": base, "work": work}
    scripts = {side: exact_scripts(mods) for side, mods in sides.items()}

    def laws(side: str, r: int) -> None:
        exact = sides[side]["verify"].exact_distribution
        for script in scripts[side]:
            exact(script, 11)

    configurations = len(scripts["work"])
    return rounds_timed(f"exact laws of {configurations} configurations",
                        alternate(args.exact, laws), configurations=configurations)


def report_lines(mods: dict) -> list[str]:
    return mods["verify"].verify_backends(samples=VERIFY_SAMPLES).lines()


def ab_verify(base: dict, work: dict, args) -> dict:
    """ms per round of --verify's verify_backends, the two sides alternating."""
    sides = {"base": base, "work": work}
    ms = alternate(args.verify, lambda side, r: report_lines(sides[side]))
    return rounds_timed(f"verify_backends at {VERIFY_SAMPLES} samples", ms,
                        samples=VERIFY_SAMPLES)


def stage_us(mods: dict, config, seed: int) -> dict[str, float]:
    """µs per stage of one ``run_protocol`` call of the campaign
    ``config`` at ``seed``, from its own marks."""
    pr = mods["protocol"]
    run = pr.ProtocolConfig(n=config.n, seed=seed, backend=config.backend,
                            pa_ratio=config.pa_ratio)
    marks = pr.run_protocol(run, config.strategy).stage_ns
    return {stage: (end - start) / 1e3 for stage, start, end in zip(pr.STAGES, marks, marks[1:])}


def ab_stages(base: dict, work: dict, args) -> dict:
    """Median µs per stage, the two sides alternating call by call."""
    runs = {"base": base, "work": work}
    configs = {side: campaign(mods, args.campaign) for side, mods in runs.items()}
    spans = {side: [] for side in runs}
    for k, seed in enumerate(range(1000 - 50, 1000 + args.stages)):
        for side in ("base", "work") if k % 2 == 0 else ("work", "base"):
            stages = stage_us(runs[side], configs[side], seed)
            if seed >= 1000:  # the first 50 calls warm both copies
                spans[side].append(stages)
    medians = [{stage: statistics.median(s[stage] for s in rows) for stage in rows[0]}
               for rows in spans.values()]
    print(title(work, args))
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
    for mods in (base, work):  # leaves the working tree's config
        try:
            config = campaign(mods, args.campaign)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not same_rows(base, work, args):
        print(f"error: base {args.base} and the working tree write different CSV rows "
              f"for trials 0..{IDENTITY_TRIALS - 1} of {title(work, args)}", file=sys.stderr)
        return 1
    if args.exact and not same_laws(base, work):
        print(f"error: base {args.base} and the working tree give different exact laws "
              f"of the {EXACT_PAIRS}-pair cycles and chains", file=sys.stderr)
        return 1
    if args.verify and report_lines(base) != report_lines(work):
        print(f"error: base {args.base} and the working tree print different verify-backends "
              f"reports at {VERIFY_SAMPLES} samples", file=sys.stderr)
        return 1
    timed = {}
    if args.batches:
        timed["batches"] = ab_batches(base, work, args)
    if args.stages:
        timed["stages"] = ab_stages(base, work, args)
    if args.exact:
        timed["exact"] = ab_exact(base, work, args)
    if args.verify:
        timed["verify"] = ab_verify(base, work, args)
    if args.json:
        write_json(args, config, timed)
    return 0


def write_json(args, config, timed: dict) -> None:
    """What was timed, with the command, the working tree's campaign
    ``config`` and the machine that timed it."""
    commit = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip()
    record = {
        "command": " ".join(["python", "tools/ab_trial.py", *sys.argv[1:]]),
        "base": args.base, "base_commit": commit,
        "attack": config.strategy.describe(), "n": config.n, "backend": config.backend.value,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        **timed,
    }
    with open(args.json, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False,
        epilog="Any other flag is a flag of `mrsqkd campaign` and picks the trials timed.")
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--batches", type=int, help="alternating batches (default 40, or 0 "
                        "with --stages, --exact or --verify)")
    parser.add_argument("--batch", type=int, default=100, help="trials per batch")
    parser.add_argument("--stages", type=int, default=0, help="time K runs stage by stage")
    parser.add_argument("--exact", type=int, default=0,
                        help="time K rounds of the exact oracle's 4-pair laws")
    parser.add_argument("--verify", type=int, default=0,
                        help=f"time K rounds of verify_backends at {VERIFY_SAMPLES} samples")
    parser.add_argument("--json", help="also write what was timed to this file")
    args, flags = parser.parse_known_args()
    args.campaign = flags
    if args.batches is None:
        args.batches = 0 if args.stages or args.exact or args.verify else 40
    if 1 in (args.batches, args.exact, args.verify):  # a median's quartiles need two of them
        parser.error("--batches, --exact and --verify need 0 or at least 2")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as tmp:
        load_base(args.base, tmp)
        return compare(modules("mrsqkd_base"), modules("mrsqkd"), args)


if __name__ == "__main__":
    sys.exit(main())
