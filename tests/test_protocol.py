"""Protocol state machine: classification examples, step contracts, and
whole-run invariants (all positions 0-based; the worked examples below
translate 1-based pair numbering to 0-based by subtracting one)."""
import statistics
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsqkd import adversary, harness, protocol
from mrsqkd.adversary import StrategyKind
from mrsqkd.bell_algebra import (
    BellType,
    chain_relation_holds,
    infer_remote_bit,
    parity,
    xor_rule_holds,
)
from mrsqkd.engine import Backend, GateName, new_register
from mrsqkd.protocol import (
    Case4Disclose,
    Classification,
    Component,
    ComponentKind,
    MRAnnounce,
    OrderAnnounce,
    Outcome,
    PartyState,
    PASeed,
    ProtocolConfig,
    QuantumSend,
    Role,
    RunStatus,
    classify_components,
    evaluate_step4,
    party_step2,
    run_protocol,
    tp_step1,
    tp_step3_honest,
)
from mrsqkd.privacy import PAParams, amplify, seed_length

PHI_P = BellType.PHI_PLUS
PSI_P = BellType.PSI_PLUS


def rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# ---------------------------------------------------------------------------
# Step 2


def test_party_step2_smallest_case():
    state = party_step2(rng(1), 2)
    assert len(state.measured_positions) == 1
    assert len(state.send_order) == 1
    assert set(state.measured_positions) | set(state.send_order) == {0, 1}


def test_party_step2_rejects_odd_n():
    with pytest.raises(ValueError):
        party_step2(rng(1), 7)


def test_party_step2_uniform_positions():
    n, draws = 8, 10_000
    counts = [0] * n
    g = rng(42)
    for _ in range(draws):
        for p in party_step2(g, n).measured_positions:
            counts[p] += 1
    sigma = (0.25 / draws) ** 0.5
    for c in counts:
        assert abs(c / draws - 0.5) <= 3 * sigma


def test_party_step2_overlap_is_hypergeometric():
    n, draws = 256, 2000
    g = rng(7)
    overlaps = []
    for _ in range(draws):
        a = set(party_step2(g, n).measured_positions)
        b = set(party_step2(g, n).measured_positions)
        overlaps.append(len(a & b))
    # mean n/4; hypergeometric std for n/2 draws from n items, n/2 marked
    half = n // 2
    var = half * 0.5 * 0.5 * (n - half) / (n - 1)
    sem = (var / draws) ** 0.5
    assert abs(statistics.mean(overlaps) - n / 4) <= 3 * sem


# ---------------------------------------------------------------------------
# Steps 1 and 3


def test_tp_step1_pairs_are_correlated():
    reg = new_register(2, Backend.TABLEAU, 5)
    wire_a, wire_b = tp_step1(reg, 1)
    assert reg.measure_z(wire_a[0]) == reg.measure_z(wire_b[0])


def test_tp_step1_honest_bell_results():
    reg = new_register(8, Backend.TABLEAU, 5)
    wire_a, wire_b = tp_step1(reg, 4)
    mr = tp_step3_honest(reg, wire_a, wire_b)
    assert mr == (PHI_P,) * 4


def test_tp_step1_capacity():
    """The register refuses the pairs it cannot hold; CapacityError is
    only the DENSE oracle's join bound."""
    reg = new_register(4, Backend.TABLEAU, 5)
    with pytest.raises(ValueError, match="size-4 register"):
        tp_step1(reg, 4)


def test_protocol_config_puts_no_qubit_cap_on_dense():
    """A DENSE run's register holds 2n qubits at any n, as a pair-block
    run's does: n=14 (28 qubits) and the paper's n=1024 configure."""
    for n in (12, 14, 1024):
        ProtocolConfig(n=n, seed=1, backend=Backend.DENSE)
    ProtocolConfig(n=14, seed=1)


def test_tp_step3_length_mismatch():
    reg = new_register(4, Backend.TABLEAU, 5)
    with pytest.raises(ValueError):
        tp_step3_honest(reg, (0, 1), (2,))


# ---------------------------------------------------------------------------
# Classification (worked examples)


def test_classify_case1_chain_and_cycle():
    cls = classify_components({0, 1}, {0, 2}, (2, 3), (1, 3), 4)
    assert cls.case1_positions == (0,)
    assert cls.components == (
        Component(ComponentKind.CHAIN, (0,), endpoint_a=1, endpoint_b=2),
        Component(ComponentKind.CYCLE, (1,)),
    )
    chain, cycle = cls.components
    assert chain.group == 3
    assert cycle.group == 1


def test_classify_reorder_merges_into_group4_chain():
    cls = classify_components({0, 1}, {0, 2}, (3, 2), (1, 3), 4)
    assert cls.case1_positions == (0,)
    assert cls.components == (
        Component(ComponentKind.CHAIN, (1, 0), endpoint_a=1, endpoint_b=2),
    )
    assert cls.components[0].group == 4


def test_classify_forced_structure_n2():
    cls = classify_components({0}, {0}, (1,), (1,), 2)
    assert cls.case1_positions == (0,)
    assert cls.components == (Component(ComponentKind.CYCLE, (0,)),)


def test_classify_rejects_inconsistent_inputs():
    with pytest.raises(ValueError):
        classify_components({0, 1}, {0, 2}, (2, 2), (1, 3), 4)
    with pytest.raises(ValueError):
        classify_components({0}, {0, 2}, (2, 3), (1, 3), 4)
    with pytest.raises(ValueError):
        classify_components({0, 1}, {0, 2}, (1, 3), (1, 3), 4)
    # Positions outside 0..n-1, and an order of the wrong length.
    with pytest.raises(ValueError, match="measured set A"):
        classify_components({-1, 1}, {0, 2}, (2, 3), (1, 3), 4)
    with pytest.raises(ValueError, match="measured set B"):
        classify_components({0, 1}, {0, 4}, (2, 3), (1, 3), 4)
    with pytest.raises(ValueError, match="order A"):
        classify_components({0, 1}, {0, 2}, (2, 3, 3), (1, 3), 4)
    with pytest.raises(ValueError, match="order B"):
        classify_components({0, 1}, {0, 2}, (2, 3), (1,), 4)
    with pytest.raises(ValueError, match="order B"):
        classify_components({0, 1}, {0, 2}, (2, 3), (1, -1), 4)


# ---------------------------------------------------------------------------
# Step 4 evaluation


def _party(measured, order, z):
    return PartyState(tuple(measured), tuple(order), dict(z))


def test_invariant_violations_raise_value_error():
    # Explicit checks, not asserts: they hold under python -O too.
    pa = PAParams(Fraction(1, 2), (0, 0))  # the seed a 2-bit raw key needs
    with pytest.raises(ValueError, match="equal length"):
        Outcome(RunStatus.COMPLETED, raw_key_alice=(0, 1), raw_key_bob=(0,), pa=pa)
    # amplify's input checks run at construction, not when a key is read.
    with pytest.raises(ValueError, match="0/1"):
        Outcome(RunStatus.COMPLETED, raw_key_alice=(0, 1), raw_key_bob=(0, 2), pa=pa)
    with pytest.raises(ValueError, match="seed has 2 bits"):
        Outcome(RunStatus.COMPLETED, raw_key_alice=(0, 1, 1), raw_key_bob=(0, 1, 1), pa=pa)
    with pytest.raises(ValueError, match="amplification parameters"):
        Outcome(RunStatus.COMPLETED, raw_key_alice=(0, 1), raw_key_bob=(0, 1))
    no_ends = Classification((), (Component(ComponentKind.CHAIN, (0,)),))
    alice = _party((0,), (1,), {0: 0})
    bob = _party((1,), (0,), {1: 0})
    with pytest.raises(ValueError):
        evaluate_step4(no_ends, (PHI_P,), alice, bob)


def test_evaluate_cycle_check_passes_on_phi_plus():
    cls = classify_components({0}, {0}, (1,), (1,), 2)
    alice = _party((0,), (1,), {0: 1})
    bob = _party((0,), (1,), {0: 1})
    result = evaluate_step4(cls, (PHI_P,), alice, bob)
    assert result.abort is None
    assert result.verdicts == (True,)
    assert result.raw_key_alice == result.raw_key_bob == (1,)


def test_evaluate_cycle_check_aborts_on_psi_plus():
    cls = classify_components({0}, {0}, (1,), (1,), 2)
    alice = _party((0,), (1,), {0: 0})
    bob = _party((0,), (1,), {0: 0})
    result = evaluate_step4(cls, (PSI_P,), alice, bob)
    assert result.abort == ("CASE2", 0)


def test_evaluate_group4_chain_disclosure_and_pass():
    # A={0,3}, B={1,3}: chain slot0(z1 at 1) -> pair 2 -> slot1(z2 at 0).
    cls = classify_components({0, 3}, {1, 3}, (1, 2), (2, 0), 4)
    assert cls.case1_positions == (3,)
    (chain,) = cls.components
    assert chain.kind is ComponentKind.CHAIN and chain.length == 2
    alice = _party((0, 3), (1, 2), {0: 0, 3: 1})
    bob = _party((1, 3), (2, 0), {1: 1, 3: 1})
    result = evaluate_step4(cls, (PHI_P, PSI_P), alice, bob)
    assert result.abort is None
    assert [d.bit for d in result.disclosures] == [0, 1]
    assert {d.role for d in result.disclosures} == {Role.ALICE, Role.BOB}
    # Disclosed bits never enter the key; only the Case-1 position does.
    assert result.raw_key_alice == (1,) and result.raw_key_bob == (1,)
    # Flipping one announced parity breaks the chain relation.
    result_bad = evaluate_step4(cls, (PHI_P, PHI_P), alice, bob)
    assert result_bad.abort == ("CASE4", 0)


def test_evaluate_case3_inference():
    cls = classify_components({0, 1}, {0, 2}, (2, 3), (1, 3), 4)
    alice = _party((0, 1), (2, 3), {0: 1, 1: 1})
    bob = _party((0, 2), (1, 3), {0: 1, 2: 0})
    # Chain slot 0 joins collapsed halves with values z_b(2)=0 and z_a(1)=1:
    # a psi-type result; Bob infers Alice's bit from his own plus the parity.
    result = evaluate_step4(cls, (PSI_P, PHI_P), alice, bob)
    assert result.abort is None
    assert result.raw_key_alice == (1, 1)  # case1 bit at 0, case3 bit at 1
    assert result.raw_key_bob == (1, 1)


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([4, 8, 16, 64]), seed=st.integers(0, 2**32))
def test_raw_key_is_case1_by_position_then_case3_by_slot(n, seed):
    """Random step-2 draws, Z results and announcements: the raw keys are
    the Case-1 bits by ascending position, then the Case-3 bits by
    ascending slot. The reference reads Case 3 straight off the slots: a
    slot whose two returned qubits were both collapsed by the other user."""
    g = rng(seed)
    half = n // 2
    alice = party_step2(g, n)
    bob = party_step2(g, n)
    for party in (alice, bob):
        bits = g.integers(0, 2, size=half).tolist()
        party.z_results.update(zip(party.measured_positions, bits))
    mr = tuple(BellType(c) for c in g.integers(0, 4, size=half).tolist())
    cls = classify_components(
        alice.measured_positions, bob.measured_positions,
        alice.send_order, bob.send_order, n,
    )
    result = evaluate_step4(cls, mr, alice, bob)

    case1 = sorted(set(alice.measured_positions) & set(bob.measured_positions))
    case3 = [
        k for k in range(half)
        if alice.send_order[k] in bob.measured_positions
        and bob.send_order[k] in alice.measured_positions
    ]
    assert result.raw_key_alice == tuple(
        [alice.z_results[p] for p in case1]
        + [alice.z_results[bob.send_order[k]] for k in case3]
    )
    assert result.raw_key_bob == tuple(
        [bob.z_results[p] for p in case1]
        + [bob.z_results[alice.send_order[k]] ^ parity(mr[k]) for k in case3]
    )


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([4, 8, 16, 64]), seed=st.integers(0, 2**32))
def test_component_verdicts_match_a_plain_int_reference(n, seed):
    """Random step-2 draws, Z results and announcements: every verdict,
    the abort and the disclosures agree with a reference computed in plain
    ints off the slots (cycle: XOR of the codes is 0; multi-slot chain: Bob's
    bit is Alice's XOR the parity bits of the codes; single slot: None).
    RunStats group counters agree with the run's per-component verdicts."""
    g = rng(seed)
    half = n // 2
    alice = party_step2(g, n)
    bob = party_step2(g, n)
    for party in (alice, bob):
        bits = g.integers(0, 2, size=half).tolist()
        party.z_results.update(zip(party.measured_positions, bits))
    codes = g.integers(0, 4, size=half).tolist()
    mr = tuple(BellType(c) for c in codes)
    cls = classify_components(
        alice.measured_positions, bob.measured_positions,
        alice.send_order, bob.send_order, n,
    )
    result = evaluate_step4(cls, mr, alice, bob)

    expected, disclosures = [], []
    for comp in cls.components:
        xor = 0
        for k in comp.slots:
            xor ^= codes[k]
        if comp.kind is ComponentKind.CYCLE:
            expected.append(xor == 0)
            continue
        # A chain starts at a wire-A qubit Bob measured and ends at a
        # wire-B qubit Alice measured.
        assert comp.endpoint_b == alice.send_order[comp.slots[0]]
        assert comp.endpoint_a == bob.send_order[comp.slots[-1]]
        if len(comp.slots) == 1:
            expected.append(None)
            continue
        za = alice.z_results[comp.endpoint_a]
        zb = bob.z_results[comp.endpoint_b]
        expected.append(zb == za ^ (xor >> 1))
        disclosures += [(Role.ALICE, comp.endpoint_a, za), (Role.BOB, comp.endpoint_b, zb)]
    assert list(result.verdicts) == expected
    assert [(d.role, d.position, d.bit) for d in result.disclosures] == disclosures
    first = expected.index(False) if False in expected else None
    if first is None:
        assert result.abort is None
    else:
        stage = "CASE2" if cls.components[first].kind is ComponentKind.CYCLE else "CASE4"
        assert result.abort == (stage, first)

    res = run_protocol(ProtocolConfig(n=n, seed=seed), adversary.naive_measure())
    stats = res.stats
    rows = list(zip(res.classification.components, res.evaluation.verdicts))

    def count(kind, single, passed=None):
        return sum(
            1 for comp, ok in rows
            if comp.kind is kind and (comp.length == 1) == single
            and (passed is None or ok is passed)
        )

    cycle, chain = ComponentKind.CYCLE, ComponentKind.CHAIN
    assert stats.group1_checks == count(cycle, True)
    assert stats.group1_passed == count(cycle, True, True)
    assert stats.group2_checks == count(cycle, False)
    assert stats.group2_passed == count(cycle, False, True)
    assert stats.case3_bits == count(chain, True)
    assert stats.case4_checks == count(chain, False)
    assert stats.case4_passed == count(chain, False, True)
    assert stats.case4_disclosed_bits == 2 * stats.case4_checks
    assert stats.cycle_components == stats.group1_checks + stats.group2_checks
    assert stats.chain_components == stats.case3_bits + stats.case4_checks
    assert sum(comp.length for comp, _ in rows) == half


# ---------------------------------------------------------------------------
# Whole runs


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_honest_completeness_across_seeds(n):
    for seed in range(250):
        res = run_protocol(ProtocolConfig(n=n, seed=seed), adversary.honest())
        out, stats = res.outcome, res.stats
        assert out.status is RunStatus.COMPLETED
        assert out.raw_key_alice == out.raw_key_bob
        assert out.final_key_alice == out.final_key_bob
        assert stats.keys_match is True
        kinds = [type(r) for r in res.transcript.records]
        assert kinds.count(MRAnnounce) == 1 and kinds.count(OrderAnnounce) == 2
        assert kinds.index(MRAnnounce) < kinds.index(OrderAnnounce)

        # Slot conservation and chain parity.
        half = n // 2
        records = res.transcript.records
        orders = [r for r in records if isinstance(r, OrderAnnounce)]
        a = next(r for r in orders if r.role is Role.ALICE)
        b = next(r for r in orders if r.role is Role.BOB)
        cls = classify_components(a.measured, b.measured, a.order, b.order, n)
        assert sum(c.length for c in cls.components) == half
        chains = [c for c in cls.components if c.kind is ComponentKind.CHAIN]
        assert len(chains) == len(set(a.measured) - set(b.measured))
        for chain in chains:
            assert chain.endpoint_a in set(a.measured) - set(b.measured)
            assert chain.endpoint_b in set(b.measured) - set(a.measured)
        # Surviving pairs all show up inside components exactly once: the
        # wire-A qubit of every cycle slot and of every chain slot after
        # the first.
        surviving = set(range(n)) - set(a.measured) - set(b.measured)
        pairs_in_components = [
            a.order[k]
            for c in cls.components
            for k in (c.slots if c.kind is ComponentKind.CYCLE else c.slots[1:])
        ]
        assert len(pairs_in_components) == len(set(pairs_in_components))
        assert set(pairs_in_components) == surviving
        assert stats.raw_key_len == stats.case1_bits + stats.case3_bits


def test_expected_raw_key_length():
    n, trials = 64, 1000
    lens = []
    for seed in range(trials):
        res = run_protocol(ProtocolConfig(n=n, seed=seed), adversary.honest())
        lens.append(res.stats.raw_key_len)
    sem = statistics.stdev(lens) / trials**0.5
    # Exact mean, derived in perfbench/README.md; 3n/8 is its large-n limit.
    assert abs(statistics.mean(lens) - (3 * n / 8 + n / (8 * (n - 1)))) <= 3 * sem


def test_transcript_is_deterministic_and_ordered():
    a = run_protocol(ProtocolConfig(n=16, seed=9), adversary.honest())
    b = run_protocol(ProtocolConfig(n=16, seed=9), adversary.honest())
    assert a.transcript.render() == b.transcript.render()
    c = run_protocol(ProtocolConfig(n=16, seed=10), adversary.honest())
    assert a.transcript.render() != c.transcript.render()
    kinds = [type(r).__name__ for r in a.transcript.records]
    assert kinds.index("MRAnnounce") < kinds.index("OrderAnnounce")


@pytest.mark.parametrize("backend, n", [(Backend.TABLEAU, 16), (Backend.DENSE, 6)])
@pytest.mark.parametrize("strategy", ["honest", "naive_measure", "parity_aware_measure"])
def test_stage_marks_bound_every_stage(strategy, backend, n):
    statuses = set()
    for seed in range(12):
        res = run_protocol(ProtocolConfig(n, seed, backend), getattr(adversary, strategy)())
        statuses.add(res.outcome.status)
        marks = res.stage_ns
        assert len(marks) == len(protocol.STAGES) + 1
        assert all(type(t) is int for t in marks)
        assert list(marks) == sorted(marks)
    expected = {RunStatus.COMPLETED} if strategy == "honest" else set(RunStatus)
    assert statuses == expected


@pytest.mark.parametrize("strategy", [adversary.honest(), adversary.parity_aware_measure()],
                         ids=["honest", "parity_aware_measure"])
def test_same_seed_same_run_whatever_the_marks(strategy):
    a, b = (run_protocol(ProtocolConfig(n=32, seed=21), strategy) for _ in range(2))
    assert a.stats == b.stats
    assert a.transcript.render() == b.transcript.render()
    assert a.stage_ns != b.stage_ns


@pytest.mark.parametrize("backend, n", [(Backend.TABLEAU, 16), (Backend.DENSE, 6)])
def test_transcript_agrees_with_the_outcome_and_stats(backend, n):
    statuses = set()
    for seed in range(12):
        res = run_protocol(ProtocolConfig(n, seed, backend), adversary.naive_measure())
        out, stats = res.outcome, res.stats
        statuses.add(out.status)
        lines = res.transcript.render().splitlines()
        assert lines[:4] == [f"QUANTUM_SEND dir={d} count={c}" for d, c in (
            ("TP->ALICE", n), ("TP->BOB", n), ("ALICE->TP", n // 2), ("BOB->TP", n // 2))]
        assert sum(line.startswith("CASE4_DISCLOSE ") for line in lines) == stats.case4_disclosed_bits
        if out.status is RunStatus.ABORTED:
            assert lines[-1] == f"ABORT stage={out.abort_stage} component={out.abort_component}"
        else:
            bits = lines[-1].removeprefix("PA_SEED ratio=1/2 bits=")
            assert bits == "".join(map(str, out.pa.seed_bits))
            assert len(bits) == seed_length(stats.raw_key_len, Fraction(1, 2))
    assert statuses == set(RunStatus)


def _verdicts_from_transcript(records):
    """Every component's verdict, rebuilt from a run's published records
    alone: n, the MR announcement, both orders and the CASE4 disclosures."""
    n = next(r.count for r in records if isinstance(r, QuantumSend))
    mr = next(r.results for r in records if isinstance(r, MRAnnounce))
    orders = {r.role: r for r in records if isinstance(r, OrderAnnounce)}
    disclosed = {(r.role, r.position): r.bit for r in records if isinstance(r, Case4Disclose)}
    a, b = orders[Role.ALICE], orders[Role.BOB]
    cls = classify_components(a.measured, b.measured, a.order, b.order, n)
    verdicts = []
    for comp in cls.components:
        results = [mr[k] for k in comp.slots]
        phis = [PHI_P] * len(results)  # every pair starts in phi+
        if comp.kind is ComponentKind.CYCLE:
            verdicts.append(xor_rule_holds(phis, results))
        elif comp.length == 1:
            verdicts.append(None)
        else:
            za = disclosed[Role.ALICE, comp.endpoint_a]
            zb = disclosed[Role.BOB, comp.endpoint_b]
            verdicts.append(chain_relation_holds(PHI_P, PHI_P, phis[1:], za, zb, results))
    return cls, verdicts


@pytest.mark.parametrize("backend, n", [(Backend.TABLEAU, 16), (Backend.DENSE, 6)])
@pytest.mark.parametrize(
    "strategy",
    [adversary.honest(), adversary.naive_measure(), adversary.parity_aware_measure(),
     adversary.modification(GateName.H, 3)],
    ids=["honest", "naive_measure", "parity_aware_measure", "modify_h"],
)
def test_verdicts_rebuild_from_the_transcript_alone(strategy, backend, n):
    statuses = set()
    for seed in range(24):
        res = run_protocol(ProtocolConfig(n, seed, backend), strategy)
        statuses.add(res.outcome.status)
        cls, verdicts = _verdicts_from_transcript(res.transcript.records)
        assert cls == res.classification
        assert tuple(verdicts) == res.evaluation.verdicts
        if res.outcome.status is RunStatus.ABORTED:
            assert res.outcome.abort_component == verdicts.index(False)
        else:
            assert False not in verdicts
    expected = {RunStatus.COMPLETED} if strategy.kind is StrategyKind.HONEST else set(RunStatus)
    assert statuses == expected


def test_final_key_length_tracks_pa_ratio():
    from fractions import Fraction

    res = run_protocol(
        ProtocolConfig(n=32, seed=4, pa_ratio=Fraction(1, 4)), adversary.honest()
    )
    assert res.stats.final_key_len == res.stats.raw_key_len // 4


@pytest.mark.parametrize("backend, n", [(Backend.TABLEAU, 16), (Backend.DENSE, 6)])
@pytest.mark.parametrize("ratio", [Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)])
def test_final_keys_are_the_amplified_raw_keys(ratio, backend, n):
    statuses = set()
    for seed in range(16):
        for strategy in (adversary.honest(), adversary.naive_measure()):
            res = run_protocol(ProtocolConfig(n, seed, backend, ratio), strategy)
            out = res.outcome
            statuses.add(out.status)
            if out.status is RunStatus.ABORTED:
                assert out.final_key_alice is None and out.final_key_bob is None
                continue
            (bits,) = [r.bits for r in res.transcript.records if isinstance(r, PASeed)]
            params = PAParams(ratio, bits)
            assert out.final_key_alice == tuple(amplify(out.raw_key_alice, params))
            assert out.final_key_bob == tuple(amplify(out.raw_key_bob, params))
            assert res.stats.final_key_len == len(out.final_key_alice)
    assert statuses == {RunStatus.COMPLETED, RunStatus.ABORTED}


def test_campaign_computes_no_final_key(monkeypatch):
    calls = []
    real = protocol.amplify
    monkeypatch.setattr(protocol, "amplify", lambda *a: calls.append(a) or real(*a))
    config = harness.CampaignConfig(n=64, trials=50, strategy=adversary.honest(), master_seed=8)
    stats, _ = harness.run_campaign(config)
    assert calls == [] and all(s.final_key_len > 0 for s in stats)
    # Reading a key hashes it once, through the name the campaign did not call.
    out = run_protocol(ProtocolConfig(n=64, seed=8), adversary.honest()).outcome
    assert out.final_key_alice == out.final_key_alice and len(calls) == 1


def test_run_protocol_on_dense_backend():
    res = run_protocol(
        ProtocolConfig(n=4, seed=11, backend=Backend.DENSE), adversary.honest()
    )
    assert res.outcome.status is RunStatus.COMPLETED
    assert res.stats.keys_match


@pytest.mark.parametrize("n", [10, 12])
@pytest.mark.parametrize("strategy", [adversary.honest, adversary.parity_aware_measure],
                         ids=["honest", "parity-measure"])
def test_dense_trial_memory_stays_near_its_state(strategy, n):
    """A DENSE trial holds a product of its components' states, never the
    2^(2n) amplitudes of all its qubits (16 MB at n=10, 256 MB at n=12):
    it peaks under 1 MB."""
    run_protocol(ProtocolConfig(n=4, seed=1, backend=Backend.DENSE), strategy())
    tracemalloc.start()
    try:
        run_protocol(ProtocolConfig(n=n, seed=3, backend=Backend.DENSE), strategy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak / 2**20


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(n=5, seed=1)
    with pytest.raises(ValueError):
        ProtocolConfig(n=0, seed=1)
    from fractions import Fraction

    with pytest.raises(ValueError):
        ProtocolConfig(n=4, seed=1, pa_ratio=Fraction(3, 2))


def test_mr_announcement_in_transcript_matches_checks():
    res = run_protocol(ProtocolConfig(n=16, seed=123), adversary.honest())
    mr = next(r for r in res.transcript.records if isinstance(r, MRAnnounce))
    assert len(mr.results) == 8
    assert all(isinstance(v, BellType) for v in mr.results)


# ---------------------------------------------------------------------------
# The announcement check and step 4 against the Bell-algebra identities


class _AnnouncingHooks(adversary.TpHooks):
    """Measures honestly, then announces ``announce(slots)`` instead."""

    announce = None

    def on_return(self, engine, q1, q2):
        super().on_return(engine, q1, q2)
        return type(self).announce(len(q1))


def _announcing(announce):
    hooks = type("Hooks", (_AnnouncingHooks,), {"announce": staticmethod(announce)})

    class Strategy(adversary.TpStrategy):
        def instantiate(self, rng):
            return hooks(rng)

    return Strategy(StrategyKind.HONEST)


@pytest.mark.parametrize("announce", [
    lambda k: [0] * (k - 1),
    lambda k: [0] * (k + 1),
    lambda k: [],
    lambda k: [0] * (k - 1) + [4],
    lambda k: [-1] + [0] * (k - 1),
    lambda k: [0, "x"] + [0] * (k - 2),
    lambda k: [1.0] * k,
    lambda k: [None] * k,
    lambda k: k,
], ids=["short", "long", "empty", "4", "-1", "x", "float", "None", "int"])
def test_a_malformed_announcement_is_refused(announce):
    with pytest.raises(ValueError, match="malformed measurement-result list"):
        run_protocol(ProtocolConfig(n=8, seed=3), _announcing(announce))


@pytest.mark.parametrize("announce", [
    lambda k: [c % 4 for c in range(k)],
    lambda k: tuple(BellType(c % 4) for c in range(k)),
    lambda k: [BellType(3) if c % 2 else 2 for c in range(k)],
], ids=["ints", "members", "mixed"])
def test_ints_and_members_in_0_to_3_are_announced(announce):
    res = run_protocol(ProtocolConfig(n=8, seed=3), _announcing(announce))
    (mr,) = [r for r in res.transcript.records if isinstance(r, MRAnnounce)]
    assert mr.results == tuple(announce(4))
    assert all(type(v) is BellType for v in mr.results)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize(
    "strategy",
    [adversary.honest(), adversary.naive_measure(), adversary.parity_aware_measure(),
     adversary.modification(GateName.H, 3)],
    ids=["honest", "naive_measure", "parity_aware_measure", "modify_h"],
)
def test_step4_agrees_with_the_bell_algebra_identities(strategy, n, monkeypatch):
    """Each component's verdict, Case-3 bit and disclosed bits are what the
    identities give on the published data, and the records built when first
    read equal the ones built here from the same rows."""
    calls = []
    real = protocol.evaluate_step4
    monkeypatch.setattr(protocol, "evaluate_step4", lambda *a: calls.append(a) or real(*a))
    for seed in range(12):
        res = run_protocol(ProtocolConfig(n, seed), strategy)
        cls, mr, alice, bob = calls[-1]
        za, zb = alice.z_results, bob.z_results
        components, verdicts, bits_a, bits_b, disclosures = [], [], [], [], []
        for kind, slots, end_a, end_b in cls.rows:
            components.append(Component(kind, slots, end_a, end_b))
            results = [BellType(mr[k]) for k in slots]
            phis = [PHI_P] * len(slots)
            if kind is ComponentKind.CYCLE:
                verdicts.append(xor_rule_holds(phis, results))
            elif len(slots) == 1:
                verdicts.append(None)
                bits_a.append(za[end_a])
                bits_b.append(infer_remote_bit(zb[end_b], PHI_P, PHI_P, (), results))
            else:
                verdicts.append(chain_relation_holds(PHI_P, PHI_P, phis[1:], za[end_a],
                                                     zb[end_b], results))
                disclosures += [Case4Disclose(Role.ALICE, end_a, za[end_a]),
                                Case4Disclose(Role.BOB, end_b, zb[end_b])]
        ev = res.evaluation
        case1 = len(cls.case1_positions)
        assert ev.verdicts == tuple(verdicts)
        assert ev.raw_key_alice[case1:] == tuple(bits_a)
        assert ev.raw_key_bob[case1:] == tuple(bits_b)
        assert ev.disclosures == tuple(disclosures)
        assert [type(d) for d in ev.disclosures] == [Case4Disclose] * len(disclosures)
        assert res.classification.components == tuple(components)
        assert {type(c) for c in res.classification.components} == {Component}
        records = res.transcript.records
        assert [r for r in records if isinstance(r, Case4Disclose)] == disclosures
