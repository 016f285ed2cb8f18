"""Monte Carlo campaign runner, statistics aggregation and CSV output.

Trial seeds derive from the master seed by a counter-based stream, so a
campaign is one deterministic function of its configuration: the same
CampaignConfig always produces byte-identical CSV output, and running
trials on a worker pool yields the same per-trial records as running
them sequentially. Wall-clock timings therefore stay out of the CSV.

A trial counts as *detected* when the run aborts at a verification check
or when it completes with disagreeing raw keys (the users' final key
comparison exposes tampering that the in-protocol checks missed). The
abort fraction alone is reported alongside.
"""
from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from enum import Enum
from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from typing import Optional, Sequence, TextIO, Union

from .adversary import TpStrategy
from .engine import Backend, derive_seed
from .protocol import ProtocolConfig, RunStats, RunStatus, run_protocol

CSV_COLUMNS = [f.name for f in fields(RunStats)]
_csv_values = attrgetter(*CSV_COLUMNS)


@dataclass(frozen=True)
class CampaignConfig:
    n: int
    trials: int
    strategy: TpStrategy
    master_seed: int
    backend: Backend = Backend.TABLEAU
    pa_ratio: Fraction = Fraction(1, 2)
    out_path: Optional[str] = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # Fail here on what would fail every trial's ProtocolConfig.
        object.__setattr__(self, "pa_ratio", _protocol_config(self, self.master_seed).pa_ratio)
        self.strategy.check_fits(self.n)


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    completed: int
    aborted: int
    abort_rate: float
    mismatched: int
    mismatch_rate: float  # among completed trials
    detection_rate: float  # share of all trials that are detected()
    mean_raw_key_len: float
    mean_final_key_len: float
    empirical_qe: float  # mean raw key length / (2n), completed trials
    group1_checks: int
    group1_passed: int
    group2_checks: int
    group2_passed: int
    case4_checks: int
    case4_passed: int

    def lines(self) -> list[str]:
        def rate(passed: int, total: int) -> str:
            return f"{passed / total:.6f}" if total else "nan"

        return [
            f"trials={self.trials} completed={self.completed} aborted={self.aborted}",
            f"abort_rate={self.abort_rate:.6f}",
            f"mismatch_rate={self.mismatch_rate:.6f}",
            f"detection_rate={self.detection_rate:.6f}",
            f"mean_raw_key_len={self.mean_raw_key_len:.4f}",
            f"mean_final_key_len={self.mean_final_key_len:.4f}",
            f"empirical_qe={self.empirical_qe:.6f}",
            f"group1_pass_rate={rate(self.group1_passed, self.group1_checks)}"
            f" ({self.group1_passed}/{self.group1_checks})",
            f"group2_pass_rate={rate(self.group2_passed, self.group2_checks)}"
            f" ({self.group2_passed}/{self.group2_checks})",
            f"case4_pass_rate={rate(self.case4_passed, self.case4_checks)}"
            f" ({self.case4_passed}/{self.case4_checks})",
        ]


def detected(stats: RunStats) -> bool:
    """Aborted, or completed with a raw-key mismatch."""
    return stats.status is RunStatus.ABORTED or stats.keys_match is False


def _protocol_config(config: CampaignConfig, seed: int) -> ProtocolConfig:
    return ProtocolConfig(n=config.n, seed=seed, backend=config.backend, pa_ratio=config.pa_ratio)


def run_trial(config: CampaignConfig, trial_index: int) -> RunStats:
    run_config = _protocol_config(config, derive_seed(config.master_seed, trial_index))
    return run_protocol(run_config, config.strategy, trial_id=trial_index).stats


def run_campaign(config: CampaignConfig) -> tuple[list[RunStats], CampaignSummary]:
    """Execute all trials and aggregate. Writes CSV when out_path is set."""
    out = None if config.out_path is None else open_csv(config.out_path)
    with out or nullcontext():
        # A fork pool starts all its workers at once: no more than there are trials.
        workers = min(config.workers, config.trials)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chunksize = max(1, config.trials // (8 * workers))
                trials = range(config.trials)
                stats = list(pool.map(run_trial, repeat(config), trials, chunksize=chunksize))
        else:
            stats = [run_trial(config, i) for i in range(config.trials)]
        summary = summarize(stats)
        if out is not None:
            emit_csv(stats, out)
    return stats, summary


def summarize(stats: Sequence[RunStats]) -> CampaignSummary:
    completed = [s for s in stats if s.status is RunStatus.COMPLETED]
    aborted = len(stats) - len(completed)
    mismatched = sum(1 for s in completed if s.keys_match is False)
    raw_lens = [s.raw_key_len for s in completed if s.raw_key_len is not None]
    final_lens = [s.final_key_len for s in completed if s.final_key_len is not None]
    mean_raw = sum(raw_lens) / len(raw_lens) if raw_lens else float("nan")
    mean_final = sum(final_lens) / len(final_lens) if final_lens else float("nan")
    qubit_total = stats[0].qubit_total if stats else 0
    return CampaignSummary(
        trials=len(stats),
        completed=len(completed),
        aborted=aborted,
        abort_rate=aborted / len(stats),
        mismatched=mismatched,
        mismatch_rate=mismatched / len(completed) if completed else float("nan"),
        detection_rate=sum(map(detected, stats)) / len(stats),
        mean_raw_key_len=mean_raw,
        mean_final_key_len=mean_final,
        empirical_qe=mean_raw / qubit_total if raw_lens else float("nan"),
        group1_checks=sum(s.group1_checks for s in stats),
        group1_passed=sum(s.group1_passed for s in stats),
        group2_checks=sum(s.group2_checks for s in stats),
        group2_passed=sum(s.group2_passed for s in stats),
        case4_checks=sum(s.case4_checks for s in stats),
        case4_passed=sum(s.case4_passed for s in stats),
    )


def _cell(value) -> object:
    """CSV form of a RunStats value: enums by value, booleans in lower
    case, absent values empty."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, Enum):
        return value.value
    return value


def render_csv(stats: Sequence[RunStats]) -> str:
    """CSV text: mandatory header, one row per trial, LF line endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for s in stats:
        writer.writerow([_cell(v) for v in _csv_values(s)])
    return buf.getvalue()


def open_csv(path: str) -> TextIO:
    """``path`` opened for ``rewrite`` with what it holds left as it is (a
    missing file is made empty): a bad path fails before any work, and a
    command that fails later leaves an existing file untouched."""
    try:
        return open(os.open(path, os.O_RDWR | os.O_CREAT, 0o666), "r+",
                    encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc


def rewrite(fh: TextIO, text: str) -> None:
    """Replace the contents of ``fh``, a file from ``open_csv``, with ``text``."""
    fh.seek(0)
    fh.write(text)
    fh.truncate()


def emit_csv(stats: Sequence[RunStats], out: Union[str, TextIO]) -> None:
    """Write the CSV to ``out``, a path or a file from ``open_csv``, in
    place of what it held."""
    with open_csv(out) if isinstance(out, str) else out as fh:
        rewrite(fh, render_csv(stats))


# --------------------------------------------------------------------------
# Analytic detection curves


def detection_curves(xs: Sequence[int]) -> list[tuple[int, float, float]]:
    """Closed-form detection probabilities for comparison plots: the
    measure-and-fake curve 1 - (21/32)^x (x counting shared key bits) and
    the modification curve 1 - (1/2)^x (x counting attacked qubits)."""
    rows = []
    for x in xs:
        if x < 0:
            raise ValueError("curve range must be non-negative")
        rows.append((x, 1.0 - (21.0 / 32.0) ** x, 1.0 - 0.5**x))
    return rows


def default_workers() -> int:
    return max(1, os.cpu_count() or 1)
