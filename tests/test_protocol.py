"""Protocol state machine: classification examples, step contracts, and
whole-run invariants (all positions 0-based; the worked examples below
translate 1-based pair numbering to 0-based by subtracting one)."""
import statistics

import numpy as np
import pytest

from mrsqkd import adversary
from mrsqkd.bell_algebra import BellType
from mrsqkd.engine import Backend, CapacityError, new_register
from mrsqkd.protocol import (
    Classification,
    Component,
    ComponentKind,
    MRAnnounce,
    OrderAnnounce,
    Outcome,
    PartyState,
    ProtocolConfig,
    Role,
    RunStatus,
    classify_components,
    evaluate_step4,
    party_step2,
    run_protocol,
    tp_step1,
    tp_step3_honest,
)

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
    reg = new_register(4, Backend.TABLEAU, 5)
    with pytest.raises(CapacityError):
        tp_step1(reg, 4)


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
    assert chain.group == 3 and chain.case == 3
    assert cycle.group == 1 and cycle.case == 2


def test_classify_reorder_merges_into_group4_chain():
    cls = classify_components({0, 1}, {0, 2}, (3, 2), (1, 3), 4)
    assert cls.case1_positions == (0,)
    assert cls.components == (
        Component(
            ComponentKind.CHAIN, (1, 0), endpoint_a=1, endpoint_b=2, intermediates=(3,)
        ),
    )
    assert cls.components[0].group == 4 and cls.components[0].case == 4


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


# ---------------------------------------------------------------------------
# Step 4 evaluation


def _party(role, measured, order, z):
    return PartyState(role, tuple(measured), tuple(order), dict(z))


def test_invariant_violations_raise_value_error():
    # Explicit checks, not asserts: they hold under python -O too.
    with pytest.raises(ValueError):
        Outcome(RunStatus.COMPLETED, (0, 1), (0,), None, None)
    no_ends = Classification((), (Component(ComponentKind.CHAIN, (0,)),))
    alice = _party(Role.ALICE, (0,), (1,), {0: 0})
    bob = _party(Role.BOB, (1,), (0,), {1: 0})
    with pytest.raises(ValueError):
        evaluate_step4(no_ends, (PHI_P,), alice, bob)


def test_evaluate_cycle_check_passes_on_phi_plus():
    cls = classify_components({0}, {0}, (1,), (1,), 2)
    alice = _party(Role.ALICE, (0,), (1,), {0: 1})
    bob = _party(Role.BOB, (0,), (1,), {0: 1})
    result = evaluate_step4(cls, (PHI_P,), alice, bob)
    assert result.abort is None
    assert [c.passed for c in result.checks] == [True]
    assert result.raw_key_alice == result.raw_key_bob == (1,)


def test_evaluate_cycle_check_aborts_on_psi_plus():
    cls = classify_components({0}, {0}, (1,), (1,), 2)
    alice = _party(Role.ALICE, (0,), (1,), {0: 0})
    bob = _party(Role.BOB, (0,), (1,), {0: 0})
    result = evaluate_step4(cls, (PSI_P,), alice, bob)
    assert result.abort == ("CASE2", 0)


def test_evaluate_group4_chain_disclosure_and_pass():
    # A={0,3}, B={1,3}: chain slot0(z1 at 1) -> pair 2 -> slot1(z2 at 0).
    cls = classify_components({0, 3}, {1, 3}, (1, 2), (2, 0), 4)
    assert cls.case1_positions == (3,)
    (chain,) = cls.components
    assert chain.kind is ComponentKind.CHAIN and chain.length == 2
    alice = _party(Role.ALICE, (0, 3), (1, 2), {0: 0, 3: 1})
    bob = _party(Role.BOB, (1, 3), (2, 0), {1: 1, 3: 1})
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
    alice = _party(Role.ALICE, (0, 1), (2, 3), {0: 1, 1: 1})
    bob = _party(Role.BOB, (0, 2), (1, 3), {0: 1, 2: 0})
    # Chain slot 0 joins collapsed halves with values z_b(2)=0 and z_a(1)=1:
    # a psi-type result; Bob infers Alice's bit from his own plus the parity.
    result = evaluate_step4(cls, (PSI_P, PHI_P), alice, bob)
    assert result.abort is None
    assert result.raw_key_alice == (1, 1)  # case1 bit at 0, case3 bit at 1
    assert result.raw_key_bob == (1, 1)


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
        assert res.transcript.ordering_ok()

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
        # Surviving pairs all show up inside components exactly once.
        surviving = set(range(n)) - set(a.measured) - set(b.measured)
        pairs_in_components = sum(
            c.length if c.kind is ComponentKind.CYCLE else len(c.intermediates)
            for c in cls.components
        )
        assert pairs_in_components == len(surviving)
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


def test_final_key_length_tracks_pa_ratio():
    from fractions import Fraction

    res = run_protocol(
        ProtocolConfig(n=32, seed=4, pa_ratio=Fraction(1, 4)), adversary.honest()
    )
    assert res.stats.final_key_len == res.stats.raw_key_len // 4


def test_run_protocol_on_dense_backend():
    res = run_protocol(
        ProtocolConfig(n=4, seed=11, backend=Backend.DENSE), adversary.honest()
    )
    assert res.outcome.status is RunStatus.COMPLETED
    assert res.stats.keys_match


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
