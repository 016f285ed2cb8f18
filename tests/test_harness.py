"""Campaign runner: accounting, CSV determinism, parallel equivalence,
config files, and the CLI surface."""
import ast
import dataclasses
import gc
import hashlib
import os
import pathlib
import pickle
import subprocess
import sys
import tracemalloc

import pytest

import mrsqkd

from mrsqkd import adversary, cli, harness
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
from mrsqkd.engine import GateName
from mrsqkd.protocol import ProtocolConfig, RunStats, RunStatus, run_protocol


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


@pytest.mark.parametrize(
    "argv",
    [["campaign", "--n", "16", "--trials", "50", "--workers", "1"],
     ["curves", "--max", "2", "--empirical-trials", "40", "--n", "16"]],
    ids=["campaign", "curves"],
)
def test_cli_bad_out_path_fails_before_any_trial(argv, tmp_path, capsys, monkeypatch):
    calls = []
    real = harness.run_trial
    monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(cli, "default_workers", lambda: 1)  # curves' campaigns, in-process
    bad = tmp_path / "missing_dir" / "out.csv"
    assert cli.main(argv + ["--out", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "missing_dir" in lines[0]
    assert calls == []


@pytest.mark.parametrize(
    "argv, error",
    [(["campaign", "--backend", "dense", "--n", "14", "--trials", "2"],
      "error: dense backend holds at most 24 qubits, got 28"),
     (["curves", "--max", "3", "--n", "2", "--empirical-trials", "2"],
      "error: cannot attack 3 of 2 qubits")],
    ids=["campaign-dense-over-capacity", "curves-point-over-n"],
)
def test_cli_config_error_fails_before_any_campaign_or_file(argv, error, tmp_path, capsys,
                                                             monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_campaign", lambda *a: calls.append(a))
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [error]
    assert calls == []
    assert not out.exists()


def test_package_exports_resolve():
    missing = [name for name in mrsqkd.__all__ if not hasattr(mrsqkd, name)]
    assert missing == []


def test_csv_columns_are_the_run_stats_fields():
    assert harness.CSV_COLUMNS == [f.name for f in dataclasses.fields(RunStats)]


def test_campaign_record_holds_only_its_row():
    """A campaign keeps every trial's record, so no per-component data may
    ride along: at most 1 KB retained and 500 pickled bytes per record
    (about 0.3 KB and 431 B when each holds just its CSV row)."""
    config = _campaign(n=256, trials=500)
    for i in range(20):  # warm any first-call caches outside the count
        run_trial(config, i)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = [run_trial(config, i) for i in range(config.trials)]
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / len(records)
    finally:
        tracemalloc.stop()
    assert retained <= 1024, retained
    assert max(len(pickle.dumps(r)) for r in records) <= 500


def test_parallel_equals_sequential():
    seq_stats, seq_summary = run_campaign(_campaign(trials=24, workers=1))
    par_stats, par_summary = run_campaign(_campaign(trials=24, workers=2))
    assert render_csv(seq_stats) == render_csv(par_stats)
    assert seq_summary == par_summary


def test_pool_starts_no_more_workers_than_trials(monkeypatch):
    """A fork pool starts every worker up front, so it is sized by the
    trial count. The recording stand-in runs the trials in this process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    seq_stats, _ = run_campaign(_campaign(trials=3, workers=1))
    for workers, expected in ((64, [3]), (2, [2]), (3, [3])):
        sizes.clear()
        stats, _ = run_campaign(_campaign(trials=3, workers=workers))
        assert sizes == expected
        assert render_csv(stats) == render_csv(seq_stats)
    sizes.clear()
    stats, _ = run_campaign(_campaign(trials=1, workers=64))
    assert sizes == []  # one trial runs in this process
    assert render_csv(stats) == render_csv(seq_stats[:1])


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
    too_many = adversary.modification(GateName.X, 17)
    with pytest.raises(ValueError, match="cannot attack 17 of 16 qubits"):
        _campaign(strategy=too_many)
    with pytest.raises(ValueError, match="cannot attack 17 of 16 qubits"):
        run_protocol(ProtocolConfig(n=16, seed=1), too_many)
    _campaign(strategy=adversary.modification(GateName.X, 16))
    # What a trial's ProtocolConfig rejects fails when the campaign is built.
    for bad in (dict(n=7), dict(n=-4), dict(pa_ratio=2)):
        with pytest.raises(ValueError):
            _campaign(**bad)


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


def test_cli_parser_is_built_once_and_keeps_no_config(tmp_path, capsys, monkeypatch):
    """Three commands in one process build the parser at most once, and a
    config file's values do not reach the next command."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=8\nattack=naive-measure\nseed=4\n")
    outputs = []
    for argv in (["--config", str(cfg)], [], ["--n", "16", "--seed", "1"]):
        assert cli.main(["simulate"] + argv) == 0
        outputs.append(capsys.readouterr().out)
    assert built.count("mrsqkd") <= 1
    with_file, plain, explicit = outputs
    assert plain == explicit != with_file


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
        ["verify-backends", "--max-qubits", "0"],
        ["verify-backends", "--max-qubits", "1"],
        ["verify-backends", "--samples", "0"],
        ["verify-backends", "--samples", "-5"],
        ["curves", "--max", "-1"],
        ["curves", "--empirical-trials", "-3"],
        ["curves", "--max", "0", "--n", "7", "--empirical-trials", "5"],
        ["simulate", "--pa-ratio", "2"],
        ["campaign", "--pa-ratio", "0"],
        # The value after --config is written to a file, whose path replaces it.
        ["campaign", "--config", "attack=bogus"],
        ["campaign", "--config", "attack=modify\ngate=cnot"],
        ["simulate", "--config", "backend=gpu"],
        # argparse's own errors: a bad type, flag, choice or ratio, no subcommand.
        ["simulate", "--n", "abc"],
        ["campaign", "--nope", "1"],
        ["simulate", "--attack", "bogus"],
        ["simulate", "--pa-ratio", "1/0"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no subcommand",
)
def test_cli_bad_input_exits_2_with_one_error_line(argv, tmp_path, capsys):
    config = None
    if "--config" in argv:
        at = argv.index("--config") + 1
        config = argv[at]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        argv = argv[:at] + [str(cfg)] + argv[at + 1:]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if config is not None:
        # The last line of each file holds the bad value.
        key, value = config.splitlines()[-1].split("=")
        allowed = ", ".join({"attack": cli.ATTACKS, "gate": cli.GATES, "backend": cli.BACKENDS}[key])
        assert lines[0] == f"error: config file: invalid {key} {value!r} (choose from {allowed})"


@pytest.mark.parametrize(
    "argv, key",
    [(["campaign", "--config", "trails=3"], "trails"),
     (["verify-backends", "--config", "n=8"], "n"),
     (["simulate", "--config", "config=x"], "config")],
    ids=["campaign trails=3", "verify-backends n=8", "simulate config=x"],
)
def test_cli_config_file_unknown_key_exits_2(argv, key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(argv[-1] + "\n")
    assert cli.main(argv[:-1] + [str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: config file: unknown key {key!r}"]


@pytest.mark.parametrize("ratio", ["2", "0", "-1/2"])
def test_cli_config_file_pa_ratio_out_of_range_exits_2(ratio, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"pa-ratio={ratio}\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: pa_ratio must be in (0, 1], got {ratio}"]


def test_cli_config_file_bad_value_names_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=abc\n")
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: argument --n: invalid int value: 'abc'"]


@pytest.mark.parametrize("in_file", [False, True], ids=["flag", "config file"])
def test_cli_pa_ratio_zero_denominator_exits_2(in_file, tmp_path, capsys):
    argv = ["simulate", "--pa-ratio", "1/0"]
    if in_file:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pa-ratio=1/0\n")
        argv = ["simulate", "--config", str(cfg)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: argument --pa-ratio: invalid ratio '1/0'"]


# One representative flag set per subcommand; ``out`` is added per form.
CONFIG_FORMS = [
    ("simulate", {"n": "8", "attack": "modify", "gate": "h", "m": "2", "seed": "4",
                  "backend": "dense", "pa-ratio": "3/4"}),
    ("campaign", {"n": "16", "trials": "6", "attack": "parity-measure", "seed": "8",
                  "backend": "tableau", "pa-ratio": "1/4", "workers": "1"}),
    ("verify-backends", {"samples": "20", "max-qubits": "4", "seed": "3"}),
    ("curves", {"max": "2", "empirical-trials": "10", "n": "8", "seed": "2"}),
]


@pytest.mark.parametrize("command, values", CONFIG_FORMS, ids=[c for c, _ in CONFIG_FORMS])
def test_cli_config_file_matches_flags(command, values, tmp_path, capsys):
    """A config file holding a flag set gives the same output as the flags."""
    outputs = []
    for form in ("flags", "file"):
        pairs = dict(values)
        if command in ("campaign", "curves"):
            pairs["out"] = str(tmp_path / f"{form}.csv")
        if form == "flags":
            argv = [command] + [arg for key, value in pairs.items() for arg in (f"--{key}", value)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("".join(f"{key}={value}\n" for key, value in pairs.items()))
            argv = [command, "--config", str(cfg)]
        assert cli.main(argv) == 0
        written = pathlib.Path(pairs["out"]).read_bytes() if "out" in pairs else b""
        outputs.append((capsys.readouterr().out, written))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]


@pytest.mark.parametrize("argv", [[], ["simulate"], ["campaign"], ["verify-backends"], ["curves"]],
                         ids=lambda argv: " ".join(argv) or "mrsqkd")
def test_cli_help_exits_0_with_usage_on_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + ["--help"])
    assert exit_.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mrsqkd")
    assert captured.err == ""


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
     "9dc1d1eecf2cb96914dda1f04c7c95733477bd939b634be466e7d7666f906be6"),
    # DENSE pins: Z measurements that drop qubits from their factors, and
    # gates and Bell measurements that bring measured qubits back.
    (["campaign", "--attack", "honest", "--backend", "dense", "--n", "6", "--seed", "13"],
     "1de673a267340595ffe260031d2811c588310e2f1b7bc8aa7c7b67671fab369b"),
    (["campaign", "--attack", "modify", "--gate", "h", "--m", "3", "--backend", "dense",
      "--n", "8", "--seed", "17"],
     "0de047c0154caf11b26b7e2bb1010d5e11d2c66457dff83d2cab2818c1c2566a"),
    (["simulate", "--attack", "parity-measure", "--backend", "dense", "--n", "8", "--seed", "2"],
     "ab061b4fc4e43254810e2222838b1005cb2046c75ab789323824bbd6dae5f1a5"),
    # Whole DENSE runs at the register's widest, 20 and 24 qubits.
    (["simulate", "--attack", "modify", "--gate", "h", "--m", "3", "--backend", "dense",
      "--n", "12", "--seed", "23"],
     "3384df4b00951418e8db41750d05ac347d855222dbc0d12c30367e1a97cc2ab0"),
    (["campaign", "--attack", "naive-measure", "--backend", "dense", "--n", "10", "--seed", "29"],
     "508975fb66568d5ff1347432a2182fb343ec1b02d88cbb05a5703c3fb85dc78e"),
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


def test_library_has_no_bare_assert():
    """``python -O`` strips assert statements, so no library invariant
    may rest on one."""
    src = pathlib.Path(mrsqkd.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(mrsqkd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, mrsqkd.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env, timeout=120).returncode == 0


def test_verify_backends_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(mrsqkd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys; sys.modules['scipy'] = None; import mrsqkd.cli; "
        "sys.exit(mrsqkd.cli.main(['verify-backends', '--max-qubits', '4', '--samples', '10']))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.parametrize(
    "argv",
    [["campaign", "--n", "16", "--trials", "3", "--workers", "1"],
     ["curves", "--max", "2", "--empirical-trials", "3", "--n", "16"]],
    ids=["campaign", "curves"],
)
def test_cli_out_replaces_a_longer_file_and_a_failed_command_keeps_it(argv, tmp_path, capsys,
                                                                     monkeypatch):
    monkeypatch.setattr(cli, "default_workers", lambda: 1)
    out = tmp_path / "out.csv"
    old = "x" * 100_000 + "\n"
    out.write_text(old)
    real = harness.run_trial

    def failing(config, i):
        raise ValueError("trial failed")

    monkeypatch.setattr(harness, "run_trial", failing)
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: trial failed\n"
    assert out.read_text() == old
    monkeypatch.setattr(harness, "run_trial", real)
    assert cli.main(argv + ["--out", str(out)]) == 0
    written = out.read_bytes()
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    if argv[0] == "campaign":
        expected = render_csv(run_campaign(_campaign(n=16, trials=3, master_seed=1))[0])
    assert written == expected.encode()
