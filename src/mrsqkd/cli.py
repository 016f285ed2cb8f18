"""Command-line experiment runner.

Subcommands: ``simulate`` (one verbose run, transcript on stdout),
``campaign`` (Monte Carlo batch with CSV output), ``verify-backends``
(pair-block backend vs dense oracle), ``curves`` (analytic detection
curves, optionally next to freshly measured campaign rates).

Every flag can also come from a config file of flat ``key=value`` lines
(keys are the long flag names without the dashes); command-line flags
override file values.
"""
from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import Optional

from .adversary import StrategyKind, TpStrategy, modification
from .engine import Backend, CapacityError, GateName
from .harness import CampaignConfig, default_workers, detection_curves, run_campaign
from .protocol import ProtocolConfig, RunStatus, run_protocol
from .verify import verify_backends

ATTACKS = tuple(k.value for k in StrategyKind)
GATES = tuple(g.value for g in GateName)
BACKENDS = tuple(b.value for b in Backend)


def load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad config line (need key=value): {line!r}")
            values[key.strip()] = value.strip()
    return values


class _Options:
    """Flag values merged over config-file values merged over defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self._args = args
        self._file = load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default, cast):
        cli = getattr(self._args, key.replace("-", "_"), None)
        if cli is not None:
            return cli
        return cast(self._file[key]) if key in self._file else default


def _parse_ratio(text: str) -> Fraction:
    ratio = Fraction(text)
    if not (0 < ratio <= 1):
        raise argparse.ArgumentTypeError(f"pa-ratio must be in (0, 1], got {text}")
    return ratio


def _strategy(opts: _Options) -> TpStrategy:
    kind = StrategyKind(opts.get("attack", "honest", str))
    if kind is StrategyKind.MODIFICATION:
        return modification(GateName(opts.get("gate", "x", str)), opts.get("m", 1, int))
    return TpStrategy(kind)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value file supplying flag defaults")
    parser.add_argument("--n", type=int, help="Bell pair count (even)")
    parser.add_argument("--attack", choices=ATTACKS, help="server strategy")
    parser.add_argument("--gate", choices=GATES, help="gate for --attack modify")
    parser.add_argument("--m", type=int, help="attacked qubit count for --attack modify")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--backend", choices=BACKENDS, help="quantum backend")
    parser.add_argument("--pa-ratio", type=_parse_ratio, help="privacy amplification ratio, e.g. 1/2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrsqkd",
        description="Mediated semi-quantum key distribution laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trial and dump its transcript")
    _add_common(sim)

    camp = sub.add_parser("campaign", help="Monte Carlo campaign with CSV output")
    _add_common(camp)
    camp.add_argument("--trials", type=int, help="number of trials")
    camp.add_argument("--out", help="CSV output path")
    camp.add_argument(
        "--workers", type=int, help="worker processes (default: all cores)"
    )

    ver = sub.add_parser("verify-backends", help="pair-block (tableau) vs exact dense oracle")
    ver.add_argument("--config", help="flat key=value file supplying flag defaults")
    ver.add_argument("--samples", type=int, help="pair-block samples per circuit")
    ver.add_argument("--max-qubits", type=int, help="largest circuit to include")
    ver.add_argument("--seed", type=int, help="master seed")

    cur = sub.add_parser("curves", help="analytic detection curves (CSV)")
    cur.add_argument("--config", help="flat key=value file supplying flag defaults")
    cur.add_argument("--max", type=int, help="largest x value (from 0)")
    cur.add_argument("--out", help="CSV output path")
    cur.add_argument("--empirical-trials", type=int,
                     help="when > 0, also measure modify-attack detection per m")
    cur.add_argument("--n", type=int, help="Bell pair count for empirical rows")
    cur.add_argument("--seed", type=int, help="master seed for empirical rows")
    return parser


def cmd_simulate(opts: _Options) -> int:
    config = ProtocolConfig(
        n=opts.get("n", 16, int),
        seed=opts.get("seed", 1, int),
        backend=Backend(opts.get("backend", "tableau", str)),
        pa_ratio=opts.get("pa-ratio", Fraction(1, 2), _parse_ratio),
    )
    result = run_protocol(config, _strategy(opts))
    sys.stdout.write(result.transcript.render())
    outcome = result.outcome
    print(f"status={outcome.status.value}")
    if outcome.status is RunStatus.COMPLETED:
        print(f"raw_key_alice={''.join(map(str, outcome.raw_key_alice))}")
        print(f"raw_key_bob={''.join(map(str, outcome.raw_key_bob))}")
        print(f"final_key_alice={''.join(map(str, outcome.final_key_alice))}")
        print(f"final_key_bob={''.join(map(str, outcome.final_key_bob))}")
        print(f"keys_match={str(result.stats.keys_match).lower()}")
    else:
        print(f"abort_stage={outcome.abort_stage} abort_component={outcome.abort_component}")
    return 0


def cmd_campaign(opts: _Options) -> int:
    config = CampaignConfig(
        n=opts.get("n", 64, int),
        trials=opts.get("trials", 100, int),
        strategy=_strategy(opts),
        master_seed=opts.get("seed", 1, int),
        backend=Backend(opts.get("backend", "tableau", str)),
        pa_ratio=opts.get("pa-ratio", Fraction(1, 2), _parse_ratio),
        out_path=opts.get("out", None, str),
        workers=opts.get("workers", default_workers(), int),
    )
    t0 = time.perf_counter()
    _, summary = run_campaign(config)
    elapsed = time.perf_counter() - t0
    for line in summary.lines():
        print(line)
    print(f"elapsed_s={elapsed:.2f}", file=sys.stderr)
    return 0


def cmd_verify_backends(opts: _Options) -> int:
    report = verify_backends(
        max_qubits=opts.get("max-qubits", 12, int),
        samples=opts.get("samples", 10000, int),
        seed=opts.get("seed", 20240, int),
    )
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_curves(opts: _Options) -> int:
    xmax = opts.get("max", 16, int)
    if xmax < 0:
        raise ValueError(f"--max must be >= 0, got {xmax}")
    rows = detection_curves(range(0, xmax + 1))
    empirical_trials = opts.get("empirical-trials", 0, int)
    header = "x,detect_measure_analytic,detect_modify_analytic"
    lines = []
    if empirical_trials > 0:
        header += ",detect_modify_empirical"
        n = opts.get("n", 64, int)
        seed = opts.get("seed", 1, int)
        for x, measure_curve, modify_curve in rows:
            if x == 0:
                lines.append(f"{x},{measure_curve:.6f},{modify_curve:.6f},0.000000")
                continue
            stats, summary = run_campaign(
                CampaignConfig(
                    n=n,
                    trials=empirical_trials,
                    strategy=modification(GateName.X, x),
                    master_seed=seed + x,
                    workers=default_workers(),
                )
            )
            lines.append(
                f"{x},{measure_curve:.6f},{modify_curve:.6f},{summary.detection_rate:.6f}"
            )
    else:
        for x, measure_curve, modify_curve in rows:
            lines.append(f"{x},{measure_curve:.6f},{modify_curve:.6f}")
    text = header + "\n" + "\n".join(lines) + "\n"
    out = opts.get("out", None, str)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        opts = _Options(args)
        if args.command == "simulate":
            return cmd_simulate(opts)
        if args.command == "campaign":
            return cmd_campaign(opts)
        if args.command == "verify-backends":
            return cmd_verify_backends(opts)
        return cmd_curves(opts)
    except (CapacityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
