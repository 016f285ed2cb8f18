"""Campaign runner: accounting, CSV determinism, parallel equivalence,
config files, and the CLI surface."""
import hashlib
import os
import subprocess
import sys

import pytest

import mrsqkd

from mrsqkd import adversary, cli
from mrsqkd.harness import (
    CampaignConfig,
    detection_curves,
    detected,
    emit_csv,
    render_csv,
    run_campaign,
    run_trial,
    summarize,
)
from mrsqkd.protocol import RunStatus


# The header documented in the README, written out so that a change to
# RunStats cannot change it unnoticed.
CSV_HEADER = (
    "trial,n,strategy,status,abort_stage,abort_component,raw_key_len,final_key_len,"
    "keys_match,case1_bits,case3_bits,case4_disclosed_bits,cycle_components,"
    "chain_components,group1_checks,group1_passed,group2_checks,group2_passed,"
    "case4_checks,case4_passed,qubit_total"
)


def _campaign(**kw):
    defaults = dict(
        n=16, trials=30, strategy=adversary.honest(), master_seed=11, workers=1
    )
    defaults.update(kw)
    return CampaignConfig(**defaults)


def test_summary_accounting_matches_stats():
    stats, summary = run_campaign(_campaign(strategy=adversary.naive_measure(), trials=60))
    aborted = sum(1 for s in stats if s.status is RunStatus.ABORTED)
    mismatched = sum(1 for s in stats if s.keys_match is False)
    assert summary.trials == 60
    assert summary.aborted == aborted
    assert summary.abort_rate == aborted / 60
    assert summary.detection_rate == (aborted + mismatched) / 60
    assert summary.detection_rate == sum(detected(s) for s in stats) / 60


def test_honest_summary_has_full_agreement():
    stats, summary = run_campaign(_campaign(trials=100))
    assert summary.aborted == 0
    assert summary.mismatch_rate == 0.0
    assert all(s.keys_match for s in stats)
    assert summary.empirical_qe == pytest.approx(summary.mean_raw_key_len / 32)


def test_csv_layout_and_determinism(tmp_path):
    stats, _ = run_campaign(_campaign(trials=5))
    text = render_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    assert text.endswith("\n") and "\r" not in text

    again, _ = run_campaign(_campaign(trials=5))
    assert render_csv(again) == text

    path1, path2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(stats, str(path1))
    emit_csv(again, str(path2))
    assert path1.read_bytes() == path2.read_bytes()


def test_csv_aborted_rows_leave_key_fields_empty():
    stats, _ = run_campaign(_campaign(strategy=adversary.naive_measure(), n=64, trials=20))
    rows = render_csv(stats).strip().split("\n")[1:]
    saw_abort = False
    for s, row in zip(stats, rows):
        cells = row.split(",")
        if s.status is RunStatus.ABORTED:
            saw_abort = True
            assert cells[3] == "ABORTED"
            assert cells[6] == "" and cells[7] == "" and cells[8] == ""
            assert cells[4] in ("CASE2", "CASE4")
        else:
            assert cells[3] == "COMPLETED"
            assert cells[8] in ("true", "false")
    assert saw_abort


def test_emit_csv_surfaces_path_errors(tmp_path):
    stats, _ = run_campaign(_campaign(trials=1))
    bad = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="missing_dir"):
        emit_csv(stats, str(bad))


def test_parallel_equals_sequential():
    seq_stats, seq_summary = run_campaign(_campaign(trials=24, workers=1))
    par_stats, par_summary = run_campaign(_campaign(trials=24, workers=2))
    assert render_csv(seq_stats) == render_csv(par_stats)
    assert seq_summary == par_summary


def test_trial_seeds_are_order_independent():
    config = _campaign(trials=10)
    stats, _ = run_campaign(config)
    lone = run_trial(config, 7)
    assert render_csv([stats[7]]) == render_csv([lone])


def test_summarize_all_aborted_is_nan_safe():
    stats, _ = run_campaign(_campaign(strategy=adversary.naive_measure(), n=256, trials=3))
    summary = summarize([s for s in stats if s.status is RunStatus.ABORTED])
    assert summary.mismatch_rate != summary.mismatch_rate  # NaN
    assert summary.detection_rate == 1.0


def test_detection_curves_reference_points():
    rows = detection_curves(range(0, 3))
    assert rows[0] == (0, 0.0, 0.0)
    assert rows[1][1] == pytest.approx(11 / 32)
    assert rows[1][2] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        detection_curves([-1])


def test_campaign_config_validation():
    with pytest.raises(ValueError):
        _campaign(trials=0)
    with pytest.raises(ValueError):
        _campaign(workers=0)


# ---------------------------------------------------------------------------
# CLI


def test_cli_simulate_prints_transcript(capsys):
    assert cli.main(["simulate", "--n", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("QUANTUM_SEND dir=TP->ALICE count=8\n")
    assert "status=" in out


def test_cli_campaign_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli.main(
        [
            "campaign", "--n", "16", "--trials", "8", "--attack", "honest",
            "--seed", "5", "--out", str(out), "--workers", "1",
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "trials=8 completed=8 aborted=0" in printed
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 9
    assert lines[0].startswith("trial,n,strategy,status")


def test_cli_campaign_same_seed_byte_identical(tmp_path):
    args = ["campaign", "--n", "16", "--trials", "6", "--attack", "naive-measure",
            "--seed", "21", "--workers", "1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_modify_attack_flags(tmp_path):
    out = tmp_path / "m.csv"
    rc = cli.main(
        [
            "campaign", "--n", "16", "--trials", "5", "--attack", "modify",
            "--gate", "z", "--m", "16", "--seed", "2", "--out", str(out),
            "--workers", "1",
        ]
    )
    assert rc == 0
    body = out.read_text()
    assert "modify:gate=z,m=16" in body


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# campaign defaults\nn=16\ntrials=99\nattack=honest\nseed=5\nworkers=1\n"
        f"out={tmp_path / 'cfg.csv'}\npa-ratio=1/4\n"
    )
    rc = cli.main(["campaign", "--config", str(cfg), "--trials", "4"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "trials=4" in printed  # flag beat the file
    lines = (tmp_path / "cfg.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    assert ",16," in lines[1]  # n came from the file


def test_cli_config_file_rejects_garbage(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just some words\n")
    assert cli.main(["campaign", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: bad config line")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "7"],
        ["campaign", "--trials", "0"],
        ["campaign", "--workers", "0"],
        ["campaign", "--workers", "-3"],
        ["campaign", "--attack", "modify", "--m", "40", "--n", "16"],
        ["verify-backends", "--max-qubits", "30"],
        ["curves", "--max", "-1"],
    ],
    ids=" ".join,
)
def test_cli_bad_input_exits_2_with_one_error_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_cli_verify_backends_small(capsys):
    rc = cli.main(["verify-backends", "--samples", "500", "--max-qubits", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "overall: PASS" in out


def test_cli_curves_stdout_and_file(tmp_path, capsys):
    assert cli.main(["curves", "--max", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "x,detect_measure_analytic,detect_modify_analytic"
    assert out.splitlines()[1] == "0,0.000000,0.000000"
    path = tmp_path / "curves.csv"
    assert cli.main(["curves", "--max", "2", "--out", str(path)]) == 0
    assert path.read_text() == out


def test_cli_curves_with_empirical_column(tmp_path):
    path = tmp_path / "curves.csv"
    rc = cli.main(
        ["curves", "--max", "2", "--empirical-trials", "40", "--n", "16",
         "--seed", "3", "--out", str(path)]
    )
    assert rc == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0].endswith(",detect_modify_empirical")
    assert len(lines) == 4
    for line in lines[1:]:
        assert len(line.split(",")) == 4


# SHA-256 of outputs at fixed seeds. Rerunning the same code twice
# (criterion 7) cannot see a change to how or in what order random bits
# are drawn; these digests can.
GOLDEN = [
    (["campaign", "--attack", "honest", "--n", "64", "--seed", "101"],
     "8f9bcf96bd260ca6768dddb4d8fc180e2ea561781b0b302f31d724829cc3a1dc"),
    (["campaign", "--attack", "parity-measure", "--n", "64", "--seed", "7"],
     "a1f2cf9f6cfeeb3e4dd1730e2900f1a35c3dd1e4ece1304d0ae408c91bdf1271"),
    (["campaign", "--attack", "naive-measure", "--n", "16", "--seed", "3"],
     "56c1d78f04fe70e1f8c0394e715db4588b10b97bbe0876b7259ce6360baf3592"),
    (["campaign", "--attack", "modify", "--gate", "y", "--m", "5", "--n", "64", "--seed", "9"],
     "e4143a6ca202a0aeb238078a51e7ef72b08e37049b4c661a938f14711ca80532"),
    (["campaign", "--attack", "modify", "--gate", "h", "--m", "3", "--n", "32", "--seed", "11"],
     "18ac9f127eab163b404b349a9b90731aa315322d0a74f52daaba3ae5512b429a"),
    (["simulate", "--attack", "honest", "--n", "16", "--seed", "5"],
     "5f02e3b5c3164c50268b5188cad6cd853877011fa308c6a418aabff59aee2d16"),
    (["verify-backends", "--samples", "2000"],
     "26b8bb3528db9fa70a9df94abf067d9be447212b64412da52f91db5fa56e8344"),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN, ids=["-".join(a).replace("---", "-") for a, _ in GOLDEN]
)
def test_golden_output_digests(argv, digest, tmp_path, capsys):
    """Campaign CSVs (200 trials, one worker) and the stdout of the
    other commands hash to the pinned values."""
    if argv[0] == "campaign":
        out = tmp_path / "golden.csv"
        assert cli.main(argv + ["--workers", "1", "--trials", "200", "--out", str(out)]) == 0
        data = out.read_bytes()
    else:
        assert cli.main(argv) == 0
        data = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(data).hexdigest() == digest


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(mrsqkd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, mrsqkd.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0
