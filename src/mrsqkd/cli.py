"""Command-line experiment runner.

Subcommands: ``simulate`` (one verbose run, transcript on stdout),
``campaign`` (Monte Carlo batch with CSV output), ``verify-backends``
(pair-block backend vs dense oracle), ``curves`` (analytic detection
curves, optionally next to freshly measured campaign rates).

Every flag can also come from a config file of flat ``key=value`` lines
(keys are the subcommand's long flag names without the dashes, and any
other key is an error). File values are read as ``--key=value`` flags
placed ahead of the command line's own flags, so argparse converts and
checks them exactly like the flags, and an explicit flag still wins. The
parser is built once per process and never changed after. Any bad flag,
value or file line ends the command with one ``error:`` line on stderr
and exit code 2.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from typing import NoReturn, Optional

from .adversary import StrategyKind, TpStrategy, modification
from .engine import Backend, CapacityError, GateName
from .harness import (
    CampaignConfig,
    default_workers,
    detection_curves,
    open_csv,
    rewrite,
    run_campaign,
)
from .protocol import ProtocolConfig, RunStatus, run_protocol
from .verify import verify_backends

ATTACKS = tuple(k.value for k in StrategyKind)
GATES = tuple(g.value for g in GateName)
BACKENDS = tuple(b.value for b in Backend)
# File values are checked against these first, so the error names the config file.
_CHOICES = {"attack": ATTACKS, "gate": GATES, "backend": BACKENDS}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError instead of printing usage and exiting, so ``main``
    reports every parse error on one line. Subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _ratio(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid ratio {text!r}") from None


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


def _file_flags(args: argparse.Namespace) -> list[str]:
    """The values of ``args.config`` as ``--key=value`` flags of the subcommand."""
    values = load_config_file(args.config)
    # Every dest of the subcommand's parser but these two is a long flag.
    flags = {dest.replace("_", "-") for dest in vars(args)} - {"command", "config"}
    for key, value in values.items():
        if key not in flags:
            raise ValueError(f"config file: unknown key {key!r}")
        if key in _CHOICES and value not in _CHOICES[key]:
            choices = ", ".join(_CHOICES[key])
            raise ValueError(f"config file: invalid {key} {value!r} (choose from {choices})")
    return [f"--{key}={value}" for key, value in values.items()]


def _strategy(args: argparse.Namespace) -> TpStrategy:
    kind = StrategyKind(args.attack)
    if kind is StrategyKind.MODIFICATION:
        return modification(GateName(args.gate), args.m)
    return TpStrategy(kind)


def _add_common(parser: argparse.ArgumentParser, n: int) -> None:
    parser.add_argument("--n", type=int, default=n, help="Bell pair count (even)")
    parser.add_argument("--attack", choices=ATTACKS, default="honest", help="server strategy")
    parser.add_argument("--gate", choices=GATES, default="x", help="gate for --attack modify")
    parser.add_argument("--m", type=int, default=1,
                        help="attacked qubit count for --attack modify")
    parser.add_argument("--seed", type=int, default=1, help="master seed")
    parser.add_argument("--backend", choices=BACKENDS, default="tableau", help="quantum backend")
    parser.add_argument("--pa-ratio", type=_ratio, default=Fraction(1, 2),
                        help="privacy amplification ratio, e.g. 1/2")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="mrsqkd",
        description="Mediated semi-quantum key distribution laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trial and dump its transcript")
    _add_common(sim, n=16)

    camp = sub.add_parser("campaign", help="Monte Carlo campaign with CSV output")
    _add_common(camp, n=64)
    camp.add_argument("--trials", type=int, default=100, help="number of trials")
    camp.add_argument("--out", help="CSV output path")
    camp.add_argument("--workers", type=int, help="worker processes (default: all cores)")

    ver = sub.add_parser("verify-backends", help="exact pair-block law vs exact dense oracle")
    ver.add_argument("--samples", type=int, default=10000,
                     help="seeded pair-block shots per circuit")
    ver.add_argument("--max-qubits", type=int, default=12, help="largest circuit to include")
    ver.add_argument("--seed", type=int, default=20240, help="master seed of the shots")

    cur = sub.add_parser("curves", help="analytic detection curves (CSV)")
    cur.add_argument("--max", type=int, default=16, help="largest x value (from 0)")
    cur.add_argument("--out", help="CSV output path")
    cur.add_argument("--empirical-trials", type=int, default=0,
                     help="when > 0, also measure modify-attack detection per m")
    cur.add_argument("--n", type=int, default=64, help="Bell pair count for empirical rows")
    cur.add_argument("--seed", type=int, default=1, help="master seed for empirical rows")

    for command in sub.choices.values():
        command.add_argument("--config", help="flat key=value file of flags (explicit flags win)")
    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    config = ProtocolConfig(
        n=args.n, seed=args.seed, backend=Backend(args.backend), pa_ratio=args.pa_ratio
    )
    result = run_protocol(config, _strategy(args))
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


def cmd_campaign(args: argparse.Namespace) -> int:
    config = CampaignConfig(
        n=args.n,
        trials=args.trials,
        strategy=_strategy(args),
        master_seed=args.seed,
        backend=Backend(args.backend),
        pa_ratio=args.pa_ratio,
        out_path=args.out,
        workers=default_workers() if args.workers is None else args.workers,
    )
    t0 = time.perf_counter()
    _, summary = run_campaign(config)
    elapsed = time.perf_counter() - t0
    for line in summary.lines():
        print(line)
    print(f"elapsed_s={elapsed:.2f}", file=sys.stderr)
    return 0


def cmd_verify_backends(args: argparse.Namespace) -> int:
    report = verify_backends(max_qubits=args.max_qubits, samples=args.samples, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_curves(args: argparse.Namespace) -> int:
    if args.max < 0:
        raise ValueError(f"--max must be >= 0, got {args.max}")
    if args.empirical_trials < 0:
        raise ValueError(f"--empirical-trials must be >= 0, got {args.empirical_trials}")
    header = "x,detect_measure_analytic,detect_modify_analytic"
    campaigns: dict[int, CampaignConfig] = {}  # x -> its empirical campaign
    if args.empirical_trials > 0:
        header += ",detect_modify_empirical"
        # --n and every point are checked before the first campaign runs;
        # no qubit is attacked at x = 0, so it needs none.
        ProtocolConfig(n=args.n, seed=args.seed)
        campaigns = {
            x: CampaignConfig(
                n=args.n,
                trials=args.empirical_trials,
                strategy=modification(GateName.X, x),
                master_seed=args.seed + x,
                workers=default_workers(),
            )
            for x in range(1, args.max + 1)
        }
    lines = [header]
    out = open_csv(args.out) if args.out else None  # a bad path fails before any campaign
    with out or nullcontext():
        for x, measure_curve, modify_curve in detection_curves(range(0, args.max + 1)):
            line = f"{x},{measure_curve:.6f},{modify_curve:.6f}"
            if args.empirical_trials > 0:
                rate = run_campaign(campaigns[x])[1].detection_rate if x else 0.0
                line += f",{rate:.6f}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
        if out is not None:
            rewrite(out, text)
        else:
            sys.stdout.write(text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _file_flags(args) + argv[at:])
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "campaign":
            return cmd_campaign(args)
        if args.command == "verify-backends":
            return cmd_verify_backends(args)
        return cmd_curves(args)
    except (CapacityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
