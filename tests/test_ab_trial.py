"""tools/ab_trial.py, run in-process with the working tree's package on
both sides, so the timing tool cannot drift from the run it times."""
import argparse
import dataclasses
import importlib.util
import json
import pathlib
import types

import pytest

from mrsqkd import protocol
from mrsqkd.dense import DenseState

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab_trial.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab_trial", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage_args(stages=3, attack="parity-measure", n=16, backend="tableau", campaign=(), **kw):
    """The tool's own flags, and ``mrsqkd campaign`` flags for what it times."""
    flags = ["--attack", attack, "--n", str(n), "--backend", backend, *campaign]
    args = dict(base="HEAD", campaign=flags, stages=stages, batches=0, batch=2, exact=0,
                verify=0, json=None)
    return argparse.Namespace(**{**args, **kw})


def test_stages_prints_the_medians_of_the_runs_own_stages(ab, capsys):
    work = ab.modules("mrsqkd")
    assert ab.compare(work, work, stage_args()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:2] == ["parity-measure n=16", f"{'stage':10s} {'base_us':>9s} {'work_us':>9s}"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [*protocol.STAGES, "total"]
    for side in (1, 2):
        us = [float(row[side]) for row in rows]
        assert min(us) >= 0 and sum(us[:-1]) == pytest.approx(us[-1], abs=0.1 * len(us))


def test_stages_time_dense_runs(ab, capsys, monkeypatch):
    """--backend dense: every run of both sides, in the CSV identity gate
    and in the timed stages, prepares its pairs on the dense state."""
    preps = []
    prepare_bell = DenseState.prepare_bell

    def counted(state, a, b):
        preps.append((a, b))
        prepare_bell(state, a, b)

    monkeypatch.setattr(DenseState, "prepare_bell", counted)
    work = ab.modules("mrsqkd")
    assert ab.compare(work, work, stage_args(attack="honest", n=4, backend="dense")) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split() for line in captured.out.splitlines()[2:]]
    assert [row[0] for row in rows] == [*protocol.STAGES, "total"]
    runs = 2 * ab.IDENTITY_TRIALS + 2 * (50 + 3)  # the gate, then warm-up and timed calls
    assert len(preps) == 4 * runs


def test_batches_time_the_modify_campaign(ab, capsys):
    work = ab.modules("mrsqkd")
    args = stage_args(stages=0, batches=2, attack="modify", campaign=["--gate", "x", "--m", "2"])
    assert ab.compare(work, work, args) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("modify:gate=x,m=2 n=16: speedup ")
    assert captured.out.endswith(" batches\n")


@pytest.mark.parametrize("kw, message", [
    (dict(n=14, backend="dense", attack="modify", campaign=["--m", "99"]),
     "cannot attack 99 of 14 qubits"),
    (dict(stages=0, n=14, backend="dense", attack="modify", campaign=["--m", "99"]),
     "cannot attack 99 of 14 qubits"),
    (dict(n=7), "n must be even and >= 2, got 7"),
    (dict(campaign=["--bogus"]), "unrecognized arguments: --bogus"),
    (dict(campaign=["--config", "run.cfg"]), "--config does not pick the trials timed; leave it out"),
    (dict(campaign=["--work=2"]), "--workers does not pick the trials timed; leave it out"),
], ids=["stages dense n=14", "batches dense n=14", "n=7", "unknown flag", "config", "workers"])
def test_a_run_that_cannot_be_made_is_one_error_line(ab, capsys, kw, message):
    work = ab.modules("mrsqkd")
    assert ab.compare(work, work, stage_args(**kw)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def fake_protocol(stages, marks):
    """A protocol module whose every run reports the given marks."""
    result = types.SimpleNamespace(stage_ns=marks)
    return types.SimpleNamespace(STAGES=stages, ProtocolConfig=lambda **kw: kw,
                                 run_protocol=lambda config, strategy: result)


def test_stage_rows_follow_each_sides_stages(ab, capsys):
    work = ab.modules("mrsqkd")
    base = dict(work, protocol=fake_protocol(("setup", "rest"), (0, 1000, 3500)))
    work = dict(work, protocol=fake_protocol(("setup", "rest", "extra"), (10, 510, 1510, 1520)))
    ab.ab_stages(base, work, stage_args(stages=2))
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert rows == [["setup", "1.0", "0.5"], ["rest", "2.5", "1.0"], ["extra", "-", "0.0"],
                    ["total", "3.5", "1.5"]]


def test_a_revision_without_stage_marks_is_refused(ab, capsys):
    work = ab.modules("mrsqkd")
    old_result = dataclasses.make_dataclass("RunResult", ["outcome", "transcript", "stats", "hooks"])
    old = dict(work, protocol=types.SimpleNamespace(RunResult=old_result))
    for base, tree in ((old, work), (work, old)):
        assert ab.compare(base, tree, stage_args()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "stage_ns" in lines[0]


def test_json_records_the_batches_and_the_stage_table(ab, capsys, tmp_path):
    work = ab.modules("mrsqkd")
    path = tmp_path / "bench.json"
    assert ab.compare(work, work, stage_args(batches=4, stages=3, json=str(path))) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(path.read_text())
    assert set(record) == {"command", "base", "base_commit", "attack", "n", "backend", "machine",
                           "batches", "stages"}
    assert (record["attack"], record["n"], record["backend"]) == ("parity-measure", 16, "tableau")
    assert set(record["machine"]) == {"cpus", "python", "numpy", "platform"}
    batches = record["batches"]
    assert set(batches) == {"batches", "batch", "speedup", "speedup_q1", "speedup_q3",
                            "work_won", "base_ms_per_batch", "work_ms_per_batch"}
    assert len(batches["base_ms_per_batch"]) == len(batches["work_ms_per_batch"]) == 4
    assert batches["speedup_q1"] <= batches["speedup"] <= batches["speedup_q3"]
    assert 0 <= batches["work_won"] <= 4
    assert printed[0].endswith(f"work won {batches['work_won']}/4 batches")
    stages = record["stages"]
    assert set(stages) == {"calls", "base_us", "work_us", "base_total_us", "work_total_us"}
    assert list(stages["work_us"]) == list(protocol.STAGES)
    rows = {line.split()[0]: line.split()[1:] for line in printed[3:]}
    for stage, us in stages["work_us"].items():
        assert rows[stage][1] == f"{us:.1f}"
    assert stages["work_total_us"] == pytest.approx(sum(stages["work_us"].values()))


def test_json_records_the_exact_rounds_beside_the_batches(ab, capsys, tmp_path):
    work = ab.modules("mrsqkd")
    path = tmp_path / "bench.json"
    args = stage_args(stages=0, batches=2, exact=3, json=str(path))
    assert ab.compare(work, work, args) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(path.read_text())
    assert set(record) == {"command", "base", "base_commit", "attack", "n", "backend", "machine",
                           "batches", "exact"}
    exact = record["exact"]
    assert set(exact) == {"rounds", "configurations", "speedup", "speedup_q1", "speedup_q3",
                          "work_won", "base_ms_per_round", "work_ms_per_round"}
    assert (exact["rounds"], exact["configurations"]) == (3, 2 * 4**4)
    assert len(exact["base_ms_per_round"]) == len(exact["work_ms_per_round"]) == 3
    assert exact["speedup_q1"] <= exact["speedup"] <= exact["speedup_q3"]
    assert 0 <= exact["work_won"] <= 3
    assert printed[-1].startswith("exact laws of 512 configurations: ")
    assert printed[-1].endswith(f"work won {exact['work_won']}/3 rounds")


def test_exact_laws_that_differ_are_refused_before_timing(ab, capsys):
    work = ab.modules("mrsqkd")
    verify = work["verify"]

    def shifted(script, seed):
        return {k: p + 2e-12 for k, p in verify.exact_distribution(script, seed).items()}

    base = dict(work, verify=types.SimpleNamespace(
        make_cycle=verify.make_cycle, make_chain=verify.make_chain, exact_distribution=shifted))
    assert ab.compare(base, work, stage_args(stages=0, exact=2)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "exact laws" in lines[0]


def test_json_records_the_verify_rounds(ab, capsys, tmp_path):
    work = ab.modules("mrsqkd")
    path = tmp_path / "bench.json"
    assert ab.compare(work, work, stage_args(stages=0, verify=2, json=str(path))) == 0
    printed = capsys.readouterr().out.splitlines()
    record = json.loads(path.read_text())
    assert set(record) == {"command", "base", "base_commit", "attack", "n", "backend", "machine",
                           "verify"}
    timed = record["verify"]
    assert set(timed) == {"rounds", "samples", "speedup", "speedup_q1", "speedup_q3",
                          "work_won", "base_ms_per_round", "work_ms_per_round"}
    assert (timed["rounds"], timed["samples"]) == (2, 1000)
    assert len(timed["base_ms_per_round"]) == len(timed["work_ms_per_round"]) == 2
    assert timed["speedup_q1"] <= timed["speedup"] <= timed["speedup_q3"]
    assert printed == [f"verify_backends at 1000 samples: speedup {timed['speedup']:.3f} "
                       f"(quartiles {timed['speedup_q1']:.3f}-{timed['speedup_q3']:.3f}), "
                       f"work won {timed['work_won']}/2 rounds"]


def test_a_change_of_speed_mid_run_reports_only_paired_figures(ab, capsys):
    """The VM slows down during the run: each side's median over its own
    rounds (10 and 45 ms) lands in another phase and reads 4.5x slower,
    while every round but one, run in one phase, reads 1.11x faster.
    Neither the line nor the record holds a per-side figure."""
    base, work = [10.0, 10.0, 10.0, 50.0, 50.0], [9.0, 9.0, 45.0, 45.0, 45.0]
    timed = ab.rounds_timed("phases", {"base": base, "work": work})
    assert capsys.readouterr().out.splitlines() == [
        "phases: speedup 1.111 (quartiles 0.667-1.111), work won 4/5 rounds"]
    assert timed == {"rounds": 5, "speedup": pytest.approx(10 / 9),
                     "speedup_q1": pytest.approx(2 / 3),
                     "speedup_q3": pytest.approx(10 / 9), "work_won": 4,
                     "base_ms_per_round": base, "work_ms_per_round": work}


def test_verify_reports_that_differ_are_refused_before_timing(ab, capsys):
    work = ab.modules("mrsqkd")
    calls = []

    def verify_backends(samples):
        calls.append(samples)
        report = work["verify"].verify_backends(samples=samples)
        return types.SimpleNamespace(lines=lambda: report.lines()[:-1] + ["overall: FAIL"])

    base = dict(work, verify=types.SimpleNamespace(verify_backends=verify_backends))
    assert ab.compare(base, work, stage_args(stages=0, verify=2)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "verify-backends" in lines[0]
    assert calls == [1000]


@pytest.mark.parametrize("flag", ["--batches", "--exact", "--verify"])
def test_one_round_is_refused_before_any_run(ab, capsys, monkeypatch, flag):
    monkeypatch.setattr("sys.argv", ["ab_trial.py", flag, "1"])
    with pytest.raises(SystemExit) as exit_:
        ab.main()
    assert exit_.value.code == 2
    assert "need 0 or at least 2" in capsys.readouterr().err
