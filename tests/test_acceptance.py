"""Acceptance suite: every criterion exercised end to end at its stated
tolerance, one printed verdict line per criterion (run with ``-s`` to see
them as they complete)."""
import csv
import io
import time
from contextlib import contextmanager
from functools import reduce
from itertools import product
from operator import xor

import numpy as np

from mrsqkd import adversary, cli
from mrsqkd.engine import GateName, derive_seed
from mrsqkd.harness import CampaignConfig, detected, detection_curves, run_campaign
from mrsqkd.protocol import ComponentKind, ProtocolConfig, RunStatus, run_protocol


@contextmanager
def verdict(number, title):
    notes = []
    try:
        yield notes
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS  [{'; '.join(notes)}]")


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def binom_sigma(p, trials):
    return (p * (1 - p) / trials) ** 0.5


def test_criterion_1_honest_completeness(tmp_path):
    with verdict(1, "honest completeness") as notes:
        out = tmp_path / "c1.csv"
        t0 = time.perf_counter()
        rc = cli.main(
            ["campaign", "--attack", "honest", "--n", "64", "--trials", "1000",
             "--seed", "101", "--out", str(out)]
        )
        elapsed = time.perf_counter() - t0
        assert rc == 0
        rows = read_csv(str(out))
        assert len(rows) == 1000
        aborts = sum(r["status"] == "ABORTED" for r in rows)
        matches = sum(r["keys_match"] == "true" for r in rows)
        assert aborts == 0
        assert matches == 1000
        assert elapsed < 60
        notes.append(f"0 aborts, 1000/1000 keys match, {elapsed:.1f}s")


def test_criterion_2_qubit_efficiency(tmp_path):
    with verdict(2, "qubit efficiency 3/16") as notes:
        out = tmp_path / "c2.csv"
        t0 = time.perf_counter()
        rc = cli.main(
            ["campaign", "--attack", "honest", "--n", "256", "--trials", "2000",
             "--seed", "102", "--out", str(out)]
        )
        elapsed = time.perf_counter() - t0
        assert rc == 0
        rows = read_csv(str(out))
        raw = np.array([int(r["raw_key_len"]) for r in rows], dtype=float)
        sem = raw.std(ddof=1) / len(raw) ** 0.5
        # Exact honest mean 3n/8 + n/(8(n-1)), derived in README.md
        # ("The honest raw-key mean"); 3n/8 (QE 3/16) is its large-n limit.
        target = 3 * 256 / 8 + 256 / (8 * 255)
        assert abs(raw.mean() - target) <= 3 * sem, (raw.mean(), sem)
        qe = raw.mean() / 512
        assert abs(qe - target / 512) <= 3 * sem / 512
        assert elapsed < 120
        notes.append(
            f"mean raw key {raw.mean():.3f} vs {target:.4f} (3*SEM={3 * sem:.3f}), "
            f"QE {qe:.5f} vs {target / 512:.5f} (limit 0.1875), {elapsed:.1f}s"
        )


def test_criterion_3_backend_equivalence(capsys):
    with verdict(3, "algebra oracle equivalence") as notes:
        t0 = time.perf_counter()
        rc = cli.main(["verify-backends"])
        elapsed = time.perf_counter() - t0
        text = capsys.readouterr().out
        assert rc == 0, text
        assert "overall: PASS" in text
        assert "outside=0" in text and "FAIL" not in text
        circuits = text.splitlines()[:-1]
        assert len(circuits) == 16
        for line in circuits:
            assert "same_support=yes max_dp<=1e-12 " in line, line
        assert elapsed < 300
        notes.append(
            f"{len(circuits)} circuits, exact law: same support, max |dp| <= 1e-12, {elapsed:.1f}s"
        )


def test_criterion_4_modification_attack():
    with verdict(4, "modification attack 1-(1/2)^m") as notes:
        t0 = time.perf_counter()
        rates = {}
        for m in (1, 2, 4, 8):
            stats, summary = run_campaign(
                CampaignConfig(
                    n=256, trials=5000,
                    strategy=adversary.modification(GateName.X, m),
                    master_seed=1040 + m,
                )
            )
            target = 1 - 0.5**m
            sigma = binom_sigma(target, 5000)
            assert abs(summary.detection_rate - target) <= 3 * sigma, (
                m, summary.detection_rate, target, sigma,
            )
            rates[m] = summary.detection_rate
        z_stats, z_summary = run_campaign(
            CampaignConfig(
                n=256, trials=500,
                strategy=adversary.modification(GateName.Z, 256),
                master_seed=1049,
            )
        )
        assert z_summary.detection_rate == 0.0
        assert all(s.keys_match for s in z_stats)
        elapsed = time.perf_counter() - t0
        assert elapsed < 300
        notes.append(
            "X detection "
            + " ".join(f"m={m}:{rates[m]:.4f}" for m in (1, 2, 4, 8))
            + f"; Z m=n invisible (500/500 match), {elapsed:.1f}s"
        )


def _enumerated_cycle_pass_rate(length):
    """Fraction of fake result tuples that satisfy the two-bit XOR rule."""
    hits = sum(
        1 for tup in product(range(4), repeat=length) if reduce(xor, tup) == 0
    )
    return hits / 4**length


def _enumerated_chain_pass_rate(length, target):
    """Fraction of fake result tuples whose parity XOR hits the target."""
    hits = sum(
        1
        for tup in product(range(4), repeat=length)
        if reduce(xor, (c >> 1 for c in tup)) == target
    )
    return hits / 4**length


def test_criterion_5_naive_measurement_attack():
    with verdict(5, "naive measurement attack") as notes:
        by_cycle_len: dict[int, list[bool]] = {}
        chain_checks = []
        raw_lens = []
        # The trials of a 2,000-trial campaign with master seed 105.
        for i in range(2000):
            res = run_protocol(
                ProtocolConfig(n=64, seed=derive_seed(105, i)), adversary.naive_measure()
            )
            raw_lens.append(res.stats.raw_key_len)
            for comp, passed in zip(res.classification.components, res.evaluation.verdicts):
                if passed is None:
                    continue
                if comp.kind is ComponentKind.CYCLE:
                    by_cycle_len.setdefault(comp.length, []).append(passed)
                else:
                    chain_checks.append(passed)

        # Group-1 slots and longer cycles against enumerated rates.
        for length, outcomes in sorted(by_cycle_len.items()):
            if len(outcomes) < 100:
                continue
            expected = _enumerated_cycle_pass_rate(length)
            rate = sum(outcomes) / len(outcomes)
            sigma = binom_sigma(expected, len(outcomes))
            assert abs(rate - expected) <= 3 * sigma, (length, rate, expected)
        assert len(by_cycle_len.get(1, [])) >= 100  # group 1 was actually tested
        expected_chain = _enumerated_chain_pass_rate(2, 0)
        assert expected_chain == _enumerated_chain_pass_rate(2, 1) == 0.5
        chain_rate = sum(chain_checks) / len(chain_checks)
        assert abs(chain_rate - 0.5) <= 3 * binom_sigma(0.5, len(chain_checks))

        # Per-trial detection grows with n and saturates above 99%.
        grid = [8, 16, 32, 64, 256]
        rates = []
        for i, n in enumerate(grid):
            _, summary = run_campaign(
                CampaignConfig(
                    n=n, trials=2000, strategy=adversary.naive_measure(),
                    master_seed=1050 + i,
                )
            )
            rates.append(summary.detection_rate)
        for lo, hi, n_lo, n_hi in zip(rates, rates[1:], grid, grid[1:]):
            slack = 3 * (
                binom_sigma(max(lo, 1e-9), 2000) ** 2
                + binom_sigma(max(hi, 1e-9), 2000) ** 2
            ) ** 0.5
            assert hi >= lo - slack, (n_lo, lo, n_hi, hi)
        assert rates[-1] > rates[0]
        assert rates[-1] > 0.99

        # The aggregate closed-form curve is reported, not asserted.
        mean_raw = np.mean([x for x in raw_lens if x is not None])
        t_proxy = int(round(float(mean_raw)))
        ((_, curve_at_t, _),) = detection_curves([t_proxy])
        notes.append(
            f"group1 rate {sum(by_cycle_len[1]) / len(by_cycle_len[1]):.4f} vs 1/4, "
            f"chain rate {chain_rate:.4f} vs 1/2, detection by n "
            + " ".join(f"{n}:{r:.4f}" for n, r in zip(grid, rates))
            + f"; aggregate curve at t={t_proxy} would give "
            f"{curve_at_t:.4f} (reported only)"
        )


def test_criterion_6_parity_aware_attack():
    with verdict(6, "parity-aware measurement attack") as notes:
        stats, summary = run_campaign(
            CampaignConfig(
                n=64, trials=10_000,
                strategy=adversary.parity_aware_measure(), master_seed=106,
            )
        )
        case34_aborts = sum(
            1 for s in stats if s.abort_stage not in (None, "CASE2")
        )
        assert case34_aborts == 0
        assert all(s.case4_checks == s.case4_passed for s in stats)
        assert all(s.keys_match for s in stats if s.status is RunStatus.COMPLETED)

        cycle_checks = sum(s.group1_checks + s.group2_checks for s in stats)
        cycle_passed = sum(s.group1_passed + s.group2_passed for s in stats)
        rate = cycle_passed / cycle_checks
        assert abs(rate - 0.5) <= 3 * binom_sigma(0.5, cycle_checks)

        observed = np.array([float(detected(s)) for s in stats])
        predicted = np.array([1 - 2.0**-s.cycle_components for s in stats])
        diff = observed - predicted
        sem = diff.std(ddof=1) / len(diff) ** 0.5
        assert abs(diff.mean()) <= 3 * sem, (observed.mean(), predicted.mean())
        notes.append(
            f"0 chain aborts in 10000 trials, cycle pass {rate:.4f} vs 1/2, "
            f"detection {observed.mean():.4f} vs sign-bound {predicted.mean():.4f}"
        )


def test_criterion_7_determinism(tmp_path):
    with verdict(7, "byte-identical reruns") as notes:
        honest_args = ["campaign", "--attack", "honest", "--n", "64", "--trials",
                       "1000", "--seed", "101"]
        naive_args = ["campaign", "--attack", "naive-measure", "--n", "64",
                      "--trials", "300", "--seed", "107"]
        curve_args = ["curves", "--max", "16"]
        pairs = []
        for name, args in (("honest", honest_args), ("naive", naive_args)):
            a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
            assert cli.main(args + ["--out", str(a)]) == 0
            assert cli.main(args + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
            pairs.append(name)
        ca, cb = tmp_path / "curves_a.csv", tmp_path / "curves_b.csv"
        assert cli.main(curve_args + ["--out", str(ca)]) == 0
        assert cli.main(curve_args + ["--out", str(cb)]) == 0
        assert ca.read_bytes() == cb.read_bytes()
        notes.append("campaign x2 commands and curves rerun byte-identical")
