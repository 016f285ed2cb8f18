"""Bell-code algebra: frozen examples plus oracle-grounded properties.

The oracle-soundness tests rebuild every chain/cycle structure up to five
pairs on the dense backend, enumerate the exact outcome support for every
initial-state assignment, and check each outcome against the XOR rules.
"""
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mrsqkd.bell_algebra import (
    BellType,
    bm_parity,
    chain_relation_holds,
    collapse_partner,
    infer_remote_bit,
    parity,
    xor_rule_holds,
)
from mrsqkd.verify import exact_distribution, make_chain, make_cycle

PHI_P = BellType.PHI_PLUS
PHI_M = BellType.PHI_MINUS
PSI_P = BellType.PSI_PLUS
PSI_M = BellType.PSI_MINUS

bell_types = st.sampled_from(list(BellType))


def test_bell_code_values():
    assert int(PHI_P) == 0b00
    assert int(PHI_M) == 0b01
    assert int(PSI_P) == 0b10
    assert int(PSI_M) == 0b11


def test_parity_values():
    assert parity(PSI_P) == 1
    assert parity(PHI_M) == 0
    assert parity(PSI_M) == 1
    assert parity(PHI_P) == 0


@given(bell_types)
def test_code_roundtrip_and_parity_bit(v):
    assert BellType(int(v)) is v
    assert parity(v) == int(v) >> 1


def test_make_cycle_rejects_bad_code():
    with pytest.raises(ValueError):
        make_cycle([4], "bad")


def test_xor_rule_examples():
    assert xor_rule_holds([PHI_P], [PHI_P])
    assert xor_rule_holds([PHI_P, PHI_P], [PSI_P, PSI_P])
    assert not xor_rule_holds([PHI_P, PHI_P], [PSI_P, PHI_P])


def test_xor_rule_input_validation():
    with pytest.raises(ValueError):
        xor_rule_holds([], [])
    with pytest.raises(ValueError):
        xor_rule_holds([PHI_P], [PHI_P, PHI_P])


@given(st.lists(bell_types, min_size=1, max_size=6))
def test_xor_rule_reflexive(initials):
    assert xor_rule_holds(initials, list(initials))


def test_collapse_partner_examples():
    assert collapse_partner(PHI_P, 0) == 0
    assert collapse_partner(PSI_P, 0) == 1
    assert collapse_partner(PHI_M, 1) == 1


def test_bm_parity_examples():
    assert bm_parity(0, 1) == 1
    assert bm_parity(0, 0) == 0
    assert bm_parity(1, 1) == 0
    with pytest.raises(ValueError):
        bm_parity(2, 0)


def test_chain_relation_examples():
    assert chain_relation_holds(PHI_P, PHI_P, (), zmr1=0, zmr2=1, mrs=(PSI_P,))
    assert chain_relation_holds(PHI_P, PHI_P, (PHI_P,), zmr1=0, zmr2=1, mrs=(PHI_P, PSI_P))
    assert chain_relation_holds(PSI_P, PHI_P, (), zmr1=0, zmr2=0, mrs=(PSI_P,))


def test_chain_relation_validation():
    with pytest.raises(ValueError, match="intermediates"):
        chain_relation_holds(PHI_P, PHI_P, (PHI_P,), zmr1=0, zmr2=0, mrs=(PHI_P,))
    with pytest.raises(ValueError, match="zmr1"):
        chain_relation_holds(PHI_P, PHI_P, (), zmr1=2, zmr2=0, mrs=(PHI_P,))
    with pytest.raises(ValueError, match="zmr2"):
        chain_relation_holds(PHI_P, PHI_P, (), zmr1=0, zmr2=2, mrs=(PHI_P,))
    with pytest.raises(ValueError):
        make_chain([0], "one pair")


def test_infer_remote_bit_examples():
    assert infer_remote_bit(1, PHI_P, PHI_P, (), (PSI_P,)) == 0
    assert infer_remote_bit(1, PHI_P, PHI_P, (), (PHI_P,)) == 1
    assert infer_remote_bit(0, PHI_P, PHI_P, (PHI_P,), (PSI_M, PHI_M)) == 1


def test_infer_remote_bit_validation():
    with pytest.raises(ValueError):
        infer_remote_bit(0, PHI_P, PHI_P, (PHI_P,), (PHI_P,))


@given(
    st.integers(0, 1),
    bell_types,
    bell_types,
    st.lists(bell_types, max_size=4),
    st.data(),
)
def test_infer_remote_bit_involution(b, is_own, is_remote, mids, data):
    mrs = data.draw(st.lists(bell_types, min_size=len(mids) + 1, max_size=len(mids) + 1))
    remote = infer_remote_bit(b, is_own, is_remote, mids, mrs)
    assert infer_remote_bit(remote, is_remote, is_own, mids, mrs) == b


@given(
    st.integers(0, 1),
    st.integers(0, 1),
    bell_types,
    bell_types,
    st.lists(bell_types, max_size=4),
    st.data(),
)
def test_chain_relation_matches_inference(z1, z2, is1, is2, mids, data):
    mrs = data.draw(st.lists(bell_types, min_size=len(mids) + 1, max_size=len(mids) + 1))
    assert chain_relation_holds(is1, is2, mids, z1, z2, mrs) == (
        z2 == infer_remote_bit(z1, is1, is2, mids, mrs)
    )


# ---------------------------------------------------------------------------
# The identities as one XOR over codes, against per-element loops over
# the old definitions: BellType(v).value for the code, its high bit for
# the parity.


def _ref_xor_rule(initials, results):
    acc = 0
    for v in initials:
        acc ^= BellType(v).value
    for v in results:
        acc ^= BellType(v).value
    return acc == 0


def _ref_remote_bit(own, is_own, is_remote, mids, mrs):
    bit = own ^ (BellType(is_own).value >> 1) ^ (BellType(is_remote).value >> 1)
    for v in mids:
        bit ^= BellType(v).value >> 1
    for v in mrs:
        bit ^= BellType(v).value >> 1
    return bit


@st.composite
def code_seqs(draw, size):
    """``size`` codes given as members, as plain ints, or as a mix."""
    codes = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    form = draw(st.sampled_from(["members", "ints", "mix"]))
    if form == "mix":
        return [BellType(c) if draw(st.booleans()) else c for c in codes]
    return [BellType(c) for c in codes] if form == "members" else codes


@given(st.data())
def test_identities_match_per_element_reference(data):
    k = data.draw(st.integers(1, 6))
    initials, results = data.draw(code_seqs(k)), data.draw(code_seqs(k))
    assert xor_rule_holds(initials, results) == _ref_xor_rule(initials, results)
    mids = data.draw(code_seqs(data.draw(st.integers(0, 4))))
    mrs = data.draw(code_seqs(len(mids) + 1))
    is1, is2 = data.draw(code_seqs(2))
    z1, z2 = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    remote = _ref_remote_bit(z1, is1, is2, mids, mrs)
    assert infer_remote_bit(z1, is1, is2, mids, mrs) == remote
    assert chain_relation_holds(is1, is2, mids, z1, z2, mrs) == (z2 == remote)


@pytest.mark.parametrize("c", range(4))
def test_bell_type_is_its_code(c):
    assert BellType(c) == c
    assert parity(c) == c >> 1
    assert parity(BellType(c)) == c >> 1


# ---------------------------------------------------------------------------
# Oracle soundness: dense enumeration of every structure up to 5 pairs.


def _cycle_outcomes(is_codes, seed=11):
    return exact_distribution(make_cycle(is_codes, "oracle"), seed)


def _chain_outcomes(is_codes, seed=11):
    return exact_distribution(make_chain(is_codes, "oracle"), seed)


def _check_cycle_config(is_codes):
    initials = [BellType(c) for c in is_codes]
    dist = _cycle_outcomes(is_codes)
    assert dist
    for outcome in dist:
        assert xor_rule_holds(initials, list(outcome)), (is_codes, outcome)
    if all(c == 0 for c in is_codes):
        # phi+ everywhere: support is exactly the XOR-consistent tuples,
        # uniformly weighted.
        assert len(dist) == 4 ** (len(is_codes) - 1)
        probs = list(dist.values())
        assert max(probs) - min(probs) < 1e-9


def _check_chain_config(is_codes):
    is1 = BellType(is_codes[0])
    is2 = BellType(is_codes[-1])
    mids = tuple(BellType(c) for c in is_codes[1:-1])
    dist = _chain_outcomes(is_codes)
    assert dist
    for outcome in dist:
        holds = chain_relation_holds(is1, is2, mids, outcome[0], outcome[1], outcome[2:])
        assert holds, (is_codes, outcome)
    if all(c == 0 for c in is_codes):
        # Both endpoint bits free, result parities pinned to their XOR.
        assert len(dist) == 2 * 4 ** (len(is_codes) - 1)
        probs = list(dist.values())
        assert max(probs) - min(probs) < 1e-9


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cycle_oracle_soundness_exhaustive_small(k):
    for is_codes in itertools.product(range(4), repeat=k):
        _check_cycle_config(is_codes)


@pytest.mark.parametrize("pairs", [2, 3])
def test_chain_oracle_soundness_exhaustive_small(pairs):
    for is_codes in itertools.product(range(4), repeat=pairs):
        _check_chain_config(is_codes)


@pytest.mark.parametrize("k", [4, 5])
def test_cycle_oracle_soundness_exhaustive_large(k):
    for is_codes in itertools.product(range(4), repeat=k):
        _check_cycle_config(is_codes)


@pytest.mark.parametrize("pairs", [4, 5])
def test_chain_oracle_soundness_exhaustive_large(pairs):
    for is_codes in itertools.product(range(4), repeat=pairs):
        _check_chain_config(is_codes)
