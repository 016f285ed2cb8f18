"""Server strategies: honest baseline, measure-and-fake attacks, gate
modification, and the structural commitment guarantees."""
import dataclasses

import numpy as np
import pytest

from mrsqkd import adversary
from mrsqkd.adversary import TpHooks, TpStrategy, StrategyKind
from mrsqkd.bell_algebra import BellType
from mrsqkd.engine import GateName
from mrsqkd.protocol import (
    ComponentKind,
    MRAnnounce,
    OrderAnnounce,
    ProtocolConfig,
    Role,
    RunStatus,
    classify_components,
    run_protocol,
    tp_step1,
)


def _run(n, seed, strategy):
    return run_protocol(ProtocolConfig(n=n, seed=seed), strategy)


def _classification(result):
    orders = [r for r in result.transcript.records if isinstance(r, OrderAnnounce)]
    a = next(r for r in orders if r.role is Role.ALICE)
    b = next(r for r in orders if r.role is Role.BOB)
    return classify_components(a.measured, b.measured, a.order, b.order, 2 * len(a.order))


def test_strategy_parameter_validation():
    with pytest.raises(ValueError):
        TpStrategy(StrategyKind.MODIFICATION)
    with pytest.raises(ValueError):
        TpStrategy(StrategyKind.HONEST, gate=GateName.X)
    with pytest.raises(ValueError):
        adversary.modification(GateName.X, -1)


def test_honest_never_aborts():
    for seed in range(300):
        res = _run(16, seed, adversary.honest())
        assert res.outcome.status is RunStatus.COMPLETED
        assert res.stats.keys_match


def test_honest_group1_results_are_phi_plus():
    for seed in range(50):
        res = _run(16, seed, adversary.honest())
        mr = next(r for r in res.transcript.records if isinstance(r, MRAnnounce))
        for passed in res.evaluation.verdicts:
            assert passed in (True, None)
        cls = _classification(res)
        for comp in cls.components:
            if comp.kind is ComponentKind.CYCLE and comp.length == 1:
                assert mr.results[comp.slots[0]] is BellType.PHI_PLUS


def test_naive_measure_component_pass_rates():
    group1 = []
    group2 = []
    case4 = []
    for seed in range(2000):
        res = _run(64, seed, adversary.naive_measure())
        for comp, passed in zip(res.classification.components, res.evaluation.verdicts):
            if passed is None:
                continue
            if comp.kind is ComponentKind.CYCLE and comp.length == 1:
                group1.append(passed)
            elif comp.kind is ComponentKind.CYCLE:
                group2.append(passed)
            else:
                case4.append(passed)

    def check(outcomes, p):
        rate = sum(outcomes) / len(outcomes)
        sigma = (p * (1 - p) / len(outcomes)) ** 0.5
        assert abs(rate - p) <= 3 * sigma, (rate, p, len(outcomes))

    check(group1, 0.25)
    check(group2, 0.25)
    check(case4, 0.5)


@pytest.mark.parametrize("make", [adversary.naive_measure, adversary.parity_aware_measure])
def test_measuring_server_learns_case3_key_bits(make):
    # On every completed trial the recorded Z bits at the single-slot
    # chains' wire-B qubits equal the users' raw key bits for those chains.
    completed = 0
    for seed in range(400):
        res = _run(8, seed, make())
        if res.outcome.status is not RunStatus.COMPLETED:
            continue
        completed += 1
        cls = _classification(res)
        case3 = sorted(
            (c for c in cls.components if c.kind is ComponentKind.CHAIN and c.length == 1),
            key=lambda c: c.slots[0],
        )
        case3_alice_bits = list(
            res.outcome.raw_key_alice[res.stats.case1_bits :]
        )
        tp_bits = [res.hooks.z_q2[c.slots[0]] for c in case3]
        assert tp_bits == case3_alice_bits
    assert completed > 20


def test_parity_aware_only_cycle_aborts():
    cycle_checks = []
    detections = []
    predicted = []
    for seed in range(1500):
        res = _run(32, seed, adversary.parity_aware_measure())
        assert res.stats.case4_checks == res.stats.case4_passed  # chains all pass
        if res.outcome.status is RunStatus.ABORTED:
            assert res.outcome.abort_stage == "CASE2"
            detections.append(1)
        else:
            assert res.stats.keys_match  # parity-true results keep keys equal
            detections.append(0)
        for comp, passed in zip(res.classification.components, res.evaluation.verdicts):
            if comp.kind is ComponentKind.CYCLE:
                cycle_checks.append(passed)
        predicted.append(1 - 2.0 ** -res.stats.cycle_components)
    rate = sum(cycle_checks) / len(cycle_checks)
    sigma = (0.25 / len(cycle_checks)) ** 0.5
    assert abs(rate - 0.5) <= 3 * sigma
    diff = np.array(detections, dtype=float) - np.array(predicted)
    sem = diff.std(ddof=1) / len(diff) ** 0.5
    assert abs(diff.mean()) <= 3 * sem


def test_modification_z_full_wire_is_invisible():
    n = 32
    for seed in range(150):
        res = _run(n, seed, adversary.modification(GateName.Z, n))
        assert res.outcome.status is RunStatus.COMPLETED
        assert res.stats.keys_match


def test_modification_x_single_qubit_detection_rate():
    detected = 0
    trials = 1500
    for seed in range(trials):
        res = _run(64, seed, adversary.modification(GateName.X, 1))
        if res.outcome.status is RunStatus.ABORTED or res.stats.keys_match is False:
            detected += 1
    sigma = (0.25 / trials) ** 0.5
    assert abs(detected / trials - 0.5) <= 3 * sigma, detected / trials


def test_modification_h_runs_and_disturbs():
    outcomes = set()
    for seed in range(100):
        res = _run(16, seed, adversary.modification(GateName.H, 16))
        kinds = [type(r) for r in res.transcript.records]
        assert kinds.count(MRAnnounce) == 1 and kinds.count(OrderAnnounce) == 2
        assert kinds.index(MRAnnounce) < kinds.index(OrderAnnounce)
        outcomes.add(res.outcome.status)
    assert RunStatus.ABORTED in outcomes  # H tampering is detectable


def test_modification_m_larger_than_n_rejected():
    with pytest.raises(ValueError):
        _run(8, 1, adversary.modification(GateName.X, 9))


def test_all_strategies_emit_legal_transcripts():
    strategies = [
        adversary.honest(),
        adversary.naive_measure(),
        adversary.parity_aware_measure(),
        adversary.modification(GateName.Y, 2),
    ]
    for strategy in strategies:
        res = _run(16, 77, strategy)
        kinds = [type(r) for r in res.transcript.records]
        assert kinds.count(MRAnnounce) == 1 and kinds.count(OrderAnnounce) == 2
        assert kinds.index(MRAnnounce) < kinds.index(OrderAnnounce)
        text = res.transcript.render()
        assert text.startswith("QUANTUM_SEND dir=TP->ALICE count=16\n")
        for line in text.strip().split("\n"):
            head = line.split(" ", 1)[0]
            assert head in {
                "QUANTUM_SEND", "MR_ANNOUNCE", "ORDER_ANNOUNCE",
                "CASE4_DISCLOSE", "ABORT", "PA_SEED",
            }


def test_announcement_commitment_is_structural():
    res = _run(16, 5, adversary.naive_measure())
    mr = next(r for r in res.transcript.records if isinstance(r, MRAnnounce))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mr.results = (BellType.PHI_PLUS,) * 8
    assert isinstance(mr.results, tuple)
    records = res.transcript.records
    assert isinstance(records, tuple)  # no list handle to rewrite history with


def test_adversarial_preparation_is_detected_downstream():
    class PsiPreparingHooks(TpHooks):
        def prepare(self, engine, n):
            wires = tp_step1(engine, n)
            for q in wires[0]:
                engine.apply_gate(GateName.X, q)  # every pair becomes psi+
            return wires

    class PsiStrategy(TpStrategy):
        def instantiate(self, rng):
            return PsiPreparingHooks(rng)

    strategy = PsiStrategy(StrategyKind.HONEST)
    detected = 0
    trials = 200
    for seed in range(trials):
        res = _run(16, seed, strategy)
        if res.outcome.status is RunStatus.ABORTED or res.stats.keys_match is False:
            detected += 1
    assert detected / trials > 0.95
