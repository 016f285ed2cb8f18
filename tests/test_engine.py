"""Engine contract tests run against both backends wherever possible."""
import itertools
import pickle

import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrsqkd import adversary, harness, verify
from mrsqkd.bell_algebra import BellType
from mrsqkd.dense import DenseState
from mrsqkd.engine import (
    Backend,
    BellMeasure,
    CapacityError,
    GateName,
    UnsupportedOperationError,
    ZMeasure,
    derive_seed,
    Register,
    new_register,
    philox,
)
from mrsqkd.pairblock import _TABLES, PairBlockState, _state

BOTH = [Backend.DENSE, Backend.TABLEAU]


@pytest.mark.parametrize("backend", BOTH)
def test_fresh_register_measures_zero(backend):
    reg = new_register(2, backend, 7)
    assert reg.measure_z(0) == 0
    assert reg.measure_z(1) == 0


def test_tableau_scales_to_huge_registers():
    reg = new_register(100000, Backend.TABLEAU, 1)
    assert reg.measure_z(0) == 0
    assert reg.measure_z(99999) == 0


def test_dense_capacity_cap():
    with pytest.raises(CapacityError):
        new_register(30, Backend.DENSE, 1)
    new_register(24, Backend.DENSE, 1)


@pytest.mark.parametrize("backend", BOTH)
def test_register_validation(backend):
    reg = new_register(3, backend, 1)
    with pytest.raises(ValueError):
        reg.measure_z(3)
    with pytest.raises(ValueError):
        reg.prepare_bell_phi_plus(1, 1)
    with pytest.raises(ValueError):
        reg.measure_bell(2, 2)
    with pytest.raises(ValueError):
        new_register(0, backend, 1)
    # A negative index would wrap around the pair-block state's lists.
    for op, args in (
        (reg.measure_z, (-1,)),
        (reg.measure_bell, (-1, 0)),
        (reg.measure_bell, (0, -1)),
        (reg.prepare_bell_phi_plus, (-1, 0)),
        (reg.prepare_bell_phi_plus, (0, -1)),
        (reg.apply_gate, (GateName.X, -1)),
        (reg.apply_gate, (GateName.X, 3)),
    ):
        with pytest.raises(ValueError, match="qubit"):
            op(*args)
    reg.prepare_bell_phi_plus(0, 2)  # the rejected calls left every qubit fresh


@pytest.mark.parametrize("backend", BOTH)
def test_prepare_bell_needs_fresh_qubits(backend):
    reg = new_register(6, backend, 1)
    reg.measure_z(0)
    with pytest.raises(ValueError):
        reg.prepare_bell_phi_plus(0, 1)  # measured
    reg.prepare_bell_phi_plus(1, 2)
    with pytest.raises(ValueError):
        reg.prepare_bell_phi_plus(3, 2)  # entangled
    reg.apply_gate(GateName.X, 3)
    reg.apply_gate(GateName.X, 3)
    with pytest.raises(ValueError):
        reg.prepare_bell_phi_plus(3, 4)  # back in |0>, but touched
    reg.prepare_bell_phi_plus(4, 5)  # the rejected call left 4 fresh
    assert reg.measure_bell(4, 5) is BellType.PHI_PLUS


@pytest.mark.parametrize("backend", BOTH)
def test_bell_pair_z_correlation(backend):
    for seed in range(40):
        reg = new_register(2, backend, seed)
        reg.prepare_bell_phi_plus(0, 1)
        assert reg.measure_z(0) == reg.measure_z(1)


@pytest.mark.parametrize("backend", BOTH)
def test_bell_pair_measures_phi_plus(backend):
    for seed in range(20):
        reg = new_register(2, backend, seed)
        reg.prepare_bell_phi_plus(0, 1)
        assert reg.measure_bell(0, 1) is BellType.PHI_PLUS


@pytest.mark.parametrize("backend", BOTH)
@pytest.mark.parametrize(
    "gate,expected",
    [
        (GateName.X, BellType.PSI_PLUS),
        (GateName.Y, BellType.PSI_MINUS),
        (GateName.Z, BellType.PHI_MINUS),
    ],
)
def test_pauli_on_half_maps_bell_type(backend, gate, expected):
    for seed in range(15):
        reg = new_register(2, backend, seed)
        reg.prepare_bell_phi_plus(0, 1)
        reg.apply_gate(gate, 0)
        assert reg.measure_bell(0, 1) is expected


@pytest.mark.parametrize("backend", BOTH)
@pytest.mark.parametrize("gate", list(GateName))
def test_gate_twice_is_identity(backend, gate):
    # Same seed with and without the doubled gate: outcome streams match.
    for seed in range(10):
        plain = new_register(2, backend, seed)
        plain.prepare_bell_phi_plus(0, 1)
        doubled = new_register(2, backend, seed)
        doubled.prepare_bell_phi_plus(0, 1)
        doubled.apply_gate(gate, 0)
        doubled.apply_gate(gate, 0)
        assert doubled.measure_bell(0, 1) is plain.measure_bell(0, 1)
        assert doubled.measure_z(0) == plain.measure_z(0)


def test_hadamard_unbiased_tableau():
    ones = 0
    n_samples = 10_000
    per_reg = 100
    for chunk in range(n_samples // per_reg):
        reg = new_register(per_reg, Backend.TABLEAU, 1000 + chunk)
        for q in range(per_reg):
            reg.apply_gate(GateName.H, q)
            ones += reg.measure_z(q)
    p = ones / n_samples
    assert abs(p - 0.5) <= 3 * 0.005, p  # 3 sigma of a fair coin over 1e4


def test_bell_half_unbiased_and_partner_correlated():
    ones = 0
    n_samples = 10_000
    per_reg = 50
    for chunk in range(n_samples // per_reg):
        reg = new_register(2 * per_reg, Backend.TABLEAU, 5000 + chunk)
        for i in range(per_reg):
            a, b = 2 * i, 2 * i + 1
            reg.prepare_bell_phi_plus(a, b)
            m = reg.measure_z(a)
            assert reg.measure_z(b) == m
            ones += m
    assert abs(ones / n_samples - 0.5) <= 3 * 0.005


@pytest.mark.parametrize("backend", BOTH)
def test_psi_partner_anticorrelated(backend):
    for seed in range(25):
        reg = new_register(2, backend, seed)
        reg.prepare_bell_phi_plus(0, 1)
        reg.apply_gate(GateName.X, 0)  # phi+ -> psi+
        assert reg.measure_z(0) != reg.measure_z(1)


@pytest.mark.parametrize("backend", BOTH)
def test_product_state_bell_measurement(backend):
    seen = set()
    for seed in range(60):
        reg = new_register(2, backend, seed)
        reg.apply_gate(GateName.X, 1)  # |0>|1>
        got = reg.measure_bell(0, 1)
        assert got in (BellType.PSI_PLUS, BellType.PSI_MINUS)
        seen.add(got)
    assert seen == {BellType.PSI_PLUS, BellType.PSI_MINUS}


@pytest.mark.parametrize("backend", BOTH)
def test_crossed_swap_partners_match(backend):
    seen = set()
    for seed in range(80):
        reg = new_register(4, backend, seed)
        reg.prepare_bell_phi_plus(0, 1)
        reg.prepare_bell_phi_plus(2, 3)
        first = reg.measure_bell(0, 3)
        assert reg.measure_bell(2, 1) is first
        seen.add(first)
    assert seen == set(BellType)


@pytest.mark.parametrize("backend", BOTH)
def test_collapse_idempotent_on_entangled_state(backend):
    for seed in range(20):
        reg = new_register(4, backend, seed)
        reg.prepare_bell_phi_plus(0, 2)
        reg.apply_gate(GateName.H, 3)
        for q in (0, 2, 3):
            first = reg.measure_z(q)
            assert reg.measure_z(q) == first


@pytest.mark.parametrize("backend", BOTH)
def test_deterministic_for_fixed_seed(backend):
    def stream(seed):
        reg = new_register(6, backend, seed)
        reg.prepare_bell_phi_plus(0, 1)
        reg.prepare_bell_phi_plus(2, 3)
        reg.apply_gate(GateName.H, 4)
        out = [reg.measure_z(4), reg.measure_z(0), reg.measure_z(1)]
        out.append(reg.measure_bell(2, 3))
        out.append(reg.measure_bell(4, 5))
        return out

    assert stream(42) == stream(42)
    streams = {tuple(map(repr, stream(s))) for s in range(25)}
    assert len(streams) > 1  # seeds actually matter


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(123, 0)
    assert a == derive_seed(123, 0)
    assert len({derive_seed(123, i) for i in range(100)}) == 100
    assert derive_seed(124, 0) != a


MASK64 = 2**64 - 1
SEEDS = st.integers(-(2**70), 2**70)  # negative and >= 2**64 keep their low 64 bits


@settings(max_examples=200, deadline=None)
@given(master=SEEDS, index=st.integers(0, 2**40))
def test_derive_seed_is_the_keyed_philox_counter_stream(master, index):
    ref = np.random.Philox(key=master & MASK64, counter=[0, 0, 0, index])
    assert derive_seed(master, index) == np.random.Generator(ref).integers(0, 2**63, dtype=np.int64)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_philox_is_the_keyed_stream_and_pickles(seed):
    ours, ref = philox(seed), np.random.Generator(np.random.Philox(key=seed & MASK64))
    assert ours.bit_generator.random_raw(8).tolist() == ref.bit_generator.random_raw(8).tolist()
    assert ours.permutation(256).tolist() == ref.permutation(256).tolist()
    twin = pickle.loads(pickle.dumps(ours))
    expected = ref.integers(0, 2**63, size=4).tolist()
    assert twin.integers(0, 2**63, size=4).tolist() == expected
    assert ours.integers(0, 2**63, size=4).tolist() == expected


def test_trials_and_registers_read_no_os_entropy(monkeypatch):
    calls = []
    real = bit_generator.randbits
    monkeypatch.setattr(bit_generator, "randbits", lambda *a: calls.append(a) or real(*a))
    np.random.Philox(key=1)  # numpy's keyed constructor still reads OS entropy
    assert len(calls) == 1
    calls.clear()
    config = harness.CampaignConfig(n=64, trials=1, strategy=adversary.honest(), master_seed=3)
    harness.run_trial(config, 0)
    new_register(8, Backend.DENSE, 5)
    assert calls == []


# ---------------------------------------------------------------------------
# Exact oracle


def test_distribution_phi_plus_z_pair():
    reg = new_register(2, Backend.DENSE, 1)
    reg.prepare_bell_phi_plus(0, 1)
    dist = reg.outcome_distribution([ZMeasure(0), ZMeasure(1)])
    assert dist == {(0, 0): pytest.approx(0.5), (1, 1): pytest.approx(0.5)}


def test_distribution_phi_plus_bell():
    reg = new_register(2, Backend.DENSE, 1)
    reg.prepare_bell_phi_plus(0, 1)
    dist = reg.outcome_distribution([BellMeasure(0, 1)])
    assert dist == {(BellType.PHI_PLUS,): pytest.approx(1.0)}


def test_distribution_product_01_bell():
    reg = new_register(2, Backend.DENSE, 1)
    reg.apply_gate(GateName.X, 1)
    dist = reg.outcome_distribution([BellMeasure(0, 1)])
    assert dist == {
        (BellType.PSI_PLUS,): pytest.approx(0.5),
        (BellType.PSI_MINUS,): pytest.approx(0.5),
    }


def test_distribution_does_not_collapse_live_register():
    reg = new_register(2, Backend.DENSE, 3)
    reg.prepare_bell_phi_plus(0, 1)
    reg.outcome_distribution([ZMeasure(0)])
    # Still the entangled pair: Bell measurement stays deterministic.
    assert reg.measure_bell(0, 1) is BellType.PHI_PLUS


def test_distribution_rejects_tableau():
    reg = new_register(2, Backend.TABLEAU, 1)
    with pytest.raises(UnsupportedOperationError):
        reg.outcome_distribution([ZMeasure(0)])


def _bell_project(state, a, b, s, p):
    """Collapsed copy of ``state`` (None if it cannot occur) and the
    probability of Bell outcome (s, p) on (a, b), straight from the
    definition: the overlap with (|0,p> + (-1)^s |1,1-p>)/sqrt(2) on the
    pair's tensor axes."""
    n = state.n
    t = np.moveaxis(state.amps.reshape([2] * n), (n - 1 - a, n - 1 - b), (0, 1))
    rest = (t[0, p] + (-1) ** s * t[1, 1 - p]) / np.sqrt(2)
    prob = float(np.sum(np.abs(rest) ** 2))
    if prob <= 1e-12:
        return None, prob
    out = np.zeros_like(t)
    out[0, p] = rest / np.sqrt(2 * prob)
    out[1, 1 - p] = (-1) ** s * rest / np.sqrt(2 * prob)
    branch = state.copy()
    branch.amps = np.moveaxis(out, (0, 1), (n - 1 - a, n - 1 - b)).reshape(-1)
    return branch, prob


def _reference_distribution(state, plan, prefix=(), prob=1.0, dist=None):
    """Recursive depth-first enumeration, one branch copy at a time."""
    dist = {} if dist is None else dist
    if not plan:
        dist[prefix] = prob
        return dist
    step, rest = plan[0], plan[1:]
    if isinstance(step, ZMeasure):
        p1 = state.prob_one(step.qubit)
        for outcome, p in ((0, 1.0 - p1), (1, p1)):
            if p > 1e-12:
                branch = state.copy()
                branch.project(step.qubit, outcome)
                _reference_distribution(branch, rest, prefix + (outcome,), prob * p, dist)
    else:
        for s in (0, 1):
            for p in (0, 1):
                branch, q = _bell_project(state, step.a, step.b, s, p)
                if q > 1e-12:
                    bell = BellType((p << 1) | s)
                    _reference_distribution(branch, rest, prefix + (bell,), prob * q, dist)
    return dist


@st.composite
def prepared_registers(draw):
    """A DENSE register of 2 to 6 qubits holding Bell pairs and gates."""
    n = draw(st.integers(2, 6))
    reg = new_register(n, Backend.DENSE, 1)
    fresh = list(range(n))
    for _ in range(draw(st.integers(0, 8))):
        if len(fresh) >= 2 and draw(st.booleans()):
            a, b = draw(st.permutations(fresh))[:2]
            reg.prepare_bell_phi_plus(a, b)
            fresh = [q for q in fresh if q not in (a, b)]
        else:
            q = draw(st.integers(0, n - 1))
            reg.apply_gate(draw(st.sampled_from(list(GateName))), q)
            fresh = [f for f in fresh if f != q]
    return reg


@st.composite
def oracle_cases(draw):
    """Bell pairs and gates on at most 6 qubits, then 1 to 6 Z and Bell
    steps on any qubits, so a qubit may be measured again after its
    first measurement."""
    reg = draw(prepared_registers())
    n = reg.size
    qubit = st.integers(0, n - 1)
    pairs = st.permutations(range(n)).map(lambda qs: BellMeasure(qs[0], qs[1]))
    plan = draw(st.lists(st.one_of(qubit.map(ZMeasure), pairs), min_size=1, max_size=6))
    return reg, plan


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_outcome_distribution_matches_recursive_reference(case):
    reg, plan = case
    dist = reg.outcome_distribution(plan)
    ref = _reference_distribution(reg._state.copy(), plan)
    assert list(dist) == list(ref)
    for key, p in ref.items():
        assert dist[key] == pytest.approx(p, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(prepared_registers(), st.integers(0, 2**32), st.data())
def test_dense_measure_bell_draws_twice_and_collapses_onto_its_branch(reg, seed, data):
    """Each of 1 to 3 Bell measurements in a row draws exactly two
    numbers (a twin generator advanced twice gives the next draw), returns
    the code those two numbers pick from the bell_branches law (s = 1 when
    the first is below P(s=1), then p = 1 when the second is below
    P(p=1 | s)), and leaves the state of that code's branch, up to global
    phase."""
    state = reg._state
    state.rng, twin = philox(seed), philox(seed)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.permutations(range(state.n)))[:2]
        law = {c: (prob, br) for c, prob, br in state.bell_branches(a, b)}
        prob = {c: law[c][0] if c in law else 0.0 for c in range(4)}
        code = state.measure_bell(a, b)
        s = int(twin.random() < prob[1] + prob[3])
        p = int(twin.random() < prob[2 | s] / (prob[s] + prob[2 | s]))
        assert state.rng.random() == twin.random()
        assert code == (p << 1) | s
        assert abs(np.vdot(law[code][1].amps, state.amps)) == pytest.approx(1.0, abs=1e-9)


class _FullWidth:
    """Plain full-width statevector with DenseState's draws: the reference
    for a register held as a product of factors, whose measured and
    fresh qubits are in none."""

    def __init__(self, n, rng):
        self.n, self.rng = n, rng
        self.amps = np.zeros(1 << n, dtype=complex)
        self.amps[0] = 1.0

    def _axes(self, *qubits):
        """Tensor view of the amplitudes, the axes of ``qubits`` first."""
        t = self.amps.reshape([2] * self.n)
        return np.moveaxis(t, [self.n - 1 - q for q in qubits], range(len(qubits)))

    def prepare_bell(self, a, b):
        t = self._axes(a, b)
        t[0, 0] /= np.sqrt(2)
        t[1, 1] = t[0, 0]

    def apply(self, gate, q):
        t = self._axes(q)
        zero, one = t[0].copy(), t[1].copy()
        t[0], t[1] = {
            GateName.X: (one, zero),
            GateName.Y: (one, -zero),
            GateName.Z: (zero, -one),
            GateName.H: ((zero + one) / np.sqrt(2), (zero - one) / np.sqrt(2)),
        }[gate]

    def measure_z(self, q):
        t = self._axes(q)
        outcome = int(self.rng.random() < np.sum(np.abs(t[1]) ** 2))
        t[1 - outcome] = 0
        self.amps /= np.linalg.norm(self.amps)
        return outcome

    def measure_bell(self, a, b):
        t = self._axes(a, b)
        rest = {(s, p): (t[0, p] + (-1) ** s * t[1, 1 - p]) / np.sqrt(2)
                for s in (0, 1) for p in (0, 1)}
        prob = {k: np.sum(np.abs(v) ** 2) for k, v in rest.items()}
        sign = prob[1, 0] + prob[1, 1]
        s = int(self.rng.random() < sign / (sign + prob[0, 0] + prob[0, 1]))
        p = int(self.rng.random() < prob[s, 1] / (prob[s, 0] + prob[s, 1]))
        kept = rest[s, p] / np.sqrt(2 * prob[s, p])
        t[...] = 0
        t[0, p], t[1, 1 - p] = kept, (-1) ** s * kept
        return BellType((p << 1) | s)


@st.composite
def live_set_scripts(draw):
    """Pair preparations on fresh qubits, gates, Z and Bell measurements in
    any order on 2 to 7 qubits: gates and Bell measurements reach fresh
    and Z-measured qubits, which leave their factors and rejoin as
    factors of their own, and Bell measurements merge factors."""
    n = draw(st.integers(2, 7))
    qubit = st.integers(0, n - 1)
    fresh, ops = set(range(n)), []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(["prep", "gate", "z", "bell"]))
        if kind == "prep" and len(fresh) >= 2:
            a, b = draw(st.permutations(sorted(fresh)))[:2]
            ops.append(("prep", a, b))
        elif kind in ("prep", "bell"):
            a, b = draw(st.permutations(range(n)))[:2]
            ops.append(("bell", a, b))
        elif kind == "gate":
            a = b = draw(qubit)
            ops.append(("gate", draw(st.sampled_from(list(GateName))), a))
        else:
            a = b = draw(qubit)
            ops.append(("z", a))
        fresh -= {a, b}
    pairs = st.permutations(range(n)).map(lambda qs: BellMeasure(qs[0], qs[1]))
    plan = draw(st.lists(st.one_of(qubit.map(ZMeasure), pairs), min_size=1, max_size=4))
    return n, ops, plan


@settings(max_examples=300, deadline=None)
@given(live_set_scripts(), st.integers(0, 2**32))
@example((2, [("gate", GateName.X, 0), ("z", 0), ("gate", GateName.H, 0)], [ZMeasure(0)]), 0)
@example((2, [("gate", GateName.Y, 0), ("z", 0)], [ZMeasure(1)]), 0)  # a phase of -1 left over
def test_dense_live_set_matches_a_full_width_reference(script, seed):
    """After every operation the register's full vector equals the
    reference's at 1e-12, both draw the same numbers (a twin generator),
    and the exact law of a final plan matches the recursive reference on
    a copy whose every qubit is in one factor."""
    n, ops, plan = script
    reg = new_register(n, Backend.DENSE, seed)
    ref = _FullWidth(n, philox(seed))
    for op in ops:
        if op[0] == "prep":
            reg.prepare_bell_phi_plus(*op[1:])
            ref.prepare_bell(*op[1:])
        elif op[0] == "gate":
            reg.apply_gate(*op[1:])
            ref.apply(*op[1:])
        elif op[0] == "z":
            assert reg.measure_z(op[1]) == ref.measure_z(op[1])
        else:
            assert reg.measure_bell(*op[1:]) is ref.measure_bell(*op[1:])
        np.testing.assert_allclose(reg._state.amps, ref.amps, rtol=0, atol=1e-12)
    assert reg._state.rng.random() == ref.rng.random()
    full = DenseState(n, None)
    full.amps = ref.amps
    expected = _reference_distribution(full, plan)
    dist = reg.outcome_distribution(plan)
    assert list(dist) == list(expected)
    for key, p in expected.items():
        assert dist[key] == pytest.approx(p, abs=1e-12)


def test_distribution_validates_plan():
    reg = new_register(2, Backend.DENSE, 1)
    with pytest.raises(ValueError):
        reg.outcome_distribution([ZMeasure(5)])
    with pytest.raises(ValueError):
        reg.outcome_distribution([BellMeasure(1, 1)])


# ---------------------------------------------------------------------------
# Pair-block backend against the dense oracle

FUZZ_QUBITS = 12


@st.composite
def fuzz_scripts(draw):
    """Pair preparations on fresh qubits and gates in any order, then a
    short measurement plan; at most FUZZ_QUBITS qubits."""
    n = draw(st.integers(2, FUZZ_QUBITS))
    qubit = st.integers(0, n - 1)
    fresh = list(range(n))
    prep = []
    for _ in range(draw(st.integers(0, 12))):
        if len(fresh) >= 2 and draw(st.booleans()):
            a = draw(st.sampled_from(fresh))
            b = draw(st.sampled_from([q for q in fresh if q != a]))
            prep.append(("bell", a, b))
        else:
            a = b = draw(qubit)
            prep.append(("gate", draw(st.sampled_from(list(GateName))), a))
        fresh = [q for q in fresh if q not in (a, b)]
    pairs = st.tuples(qubit, qubit).filter(lambda ab: ab[0] != ab[1])
    step = st.one_of(qubit.map(ZMeasure), pairs.map(lambda ab: BellMeasure(*ab)))
    plan = draw(st.lists(step, min_size=1, max_size=4))
    return verify.CircuitScript("fuzz", n, tuple(prep), tuple(plan), None)


@settings(max_examples=150, deadline=None)
@given(fuzz_scripts(), st.integers(0, 2**32))
def test_pairblock_samples_lie_in_dense_support(script, seed):
    exact = verify.exact_distribution(script, seed)
    for outcome in verify.sample_tableau(script, 16, seed):
        assert outcome in exact, (outcome, sorted(exact, key=repr))
    law = verify.tableau_distribution(script)
    assert law.keys() == exact.keys()
    assert max(abs(law[o] - exact[o]) for o in exact) <= verify.TOLERANCE


def test_exact_check_catches_a_leaf_moved_inside_the_support(monkeypatch):
    """Flipping the sign bit of chain_3_between's last Bell result on the
    all-ones bit path moves one 2^-9 leaf onto an outcome in the dense
    support that keeps the chain relation: every sample still passes, and
    only the exact law can fail the circuit."""

    def tracked(draw):
        def rand_bit(self):
            bit = draw(self)
            self.all_ones = getattr(self, "all_ones", True) and bit == 1
            return bit
        return rand_bit

    for cls in (PairBlockState, verify._Replay):
        monkeypatch.setattr(cls, "_rand_bit", tracked(cls._rand_bit))
    measure = PairBlockState.measure_bell

    def measure_bell(self, a, b):
        code = measure(self, a, b)
        return code ^ 1 if (a, b) == (7, 8) and self.all_ones else code

    monkeypatch.setattr(PairBlockState, "measure_bell", measure_bell)
    report = verify.verify_backends(max_qubits=10, samples=500, seed=3)
    assert not report.passed
    (faulty,) = [c for c in report.circuits if not c.passed]
    assert faulty.name == "chain_3_between"
    assert faulty.outside_support == 0 and faulty.relation_failures == 0
    assert not faulty.same_support and abs(faulty.max_dp - 2**-9) <= verify.TOLERANCE
    assert faulty.line().startswith("FAIL")


def _block_setups():
    """(paired, gate word) for every state a qubit's block can be in, as
    seen from that qubit: one shortest word of gates applied to it, alone
    or as one half of a phi+ pair."""
    setups, seen = [], set()
    for paired in (False, True):
        for k in range(4):
            for word in itertools.product("xyzh", repeat=k):
                probe = PairBlockState(2, None)
                if paired:
                    probe.prepare_bell(0, 1)
                for g in word:
                    getattr(probe, f"apply_{g}")(0)
                if probe._sid[0] not in seen:
                    seen.add(probe._sid[0])
                    setups.append((paired, word))
    return setups


def _pairblock_amplitudes(state, lower):
    """Statevector of a pair-block state, rebuilt from its blocks, each
    pair as seen from its lower or its higher qubit."""
    blocks = []
    for q in range(state.n):
        p = state._partner[q]
        if p < 0 or (q < p) == lower:
            qubits = (q,) if p < 0 else (q, p)
            blocks.append((_TABLES.vecs[state._sid[q]], qubits))
    return _state(blocks).amps


def _assert_same_state(fast, exact):
    """Equal up to global phase, reading each pair from either half."""
    for lower in (True, False):
        overlap = abs(np.vdot(_pairblock_amplitudes(fast, lower), exact.amps))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def test_pairblock_bell_measurement_of_every_block_combination():
    """Qubit 0 (partner 2, if paired) and qubit 1 (partner 3) in every
    combination of block states, or partners of each other; each seed's
    Bell outcome, and then a Z outcome on qubit 2, leave the pair-block
    state equal to the matching dense branch."""
    setups = _block_setups()
    assert len(setups) == 13  # fresh |0>, 4 single states, 8 pair states
    cases = [
        ([(0, 2)] * paired_a + [(1, 3)] * paired_b, word_a, word_b)
        for (paired_a, word_a), (paired_b, word_b) in itertools.product(setups, repeat=2)
    ]
    cases += [([(0, 1)], word, ()) for paired, word in setups if paired]
    for preps, word_a, word_b in cases:
        for seed in range(6):
            rng = np.random.Generator(np.random.Philox(key=seed))
            fast, exact = PairBlockState(4, rng), DenseState(4, rng)
            for state in (fast, exact):
                for a, b in preps:
                    state.prepare_bell(a, b)
                for q, word in ((0, word_a), (1, word_b)):
                    for g in word:
                        getattr(state, f"apply_{g}")(q)
            code = fast.measure_bell(0, 1)
            branches = {c: br for c, _, br in exact.bell_branches(0, 1)}
            assert code in branches
            exact = branches[code]
            _assert_same_state(fast, exact)
            assert exact.project(2, fast.measure_z(2)) > 1e-9
            _assert_same_state(fast, exact)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pairblock_follows_dense_branch_by_branch(data):
    """Gates and measurements interleaved: each sampled outcome has
    nonzero exact probability, and after collapsing the dense state onto
    it the two backends hold the same state up to global phase."""
    n = data.draw(st.integers(2, FUZZ_QUBITS))
    rng = np.random.Generator(np.random.Philox(key=data.draw(st.integers(0, 2**32))))
    fast, exact = PairBlockState(n, rng), DenseState(n, rng)
    fresh = set(range(n))
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(["bell", "gate", "z", "bell_measure"]))
        if op == "bell" and len(fresh) >= 2:
            a, b = data.draw(st.permutations(sorted(fresh)))[:2]
            fast.prepare_bell(a, b)
            exact.prepare_bell(a, b)
        elif op == "bell_measure":
            a, b = data.draw(st.permutations(range(n)))[:2]
            code = fast.measure_bell(a, b)
            branches = {c: br for c, _, br in exact.bell_branches(a, b)}
            assert code in branches
            exact = branches[code]
        else:
            a = b = data.draw(st.integers(0, n - 1))
            if op == "z":
                assert exact.project(a, fast.measure_z(a)) > 1e-9
            else:
                gate = data.draw(st.sampled_from("xyzh"))
                getattr(fast, f"apply_{gate}")(a)
                getattr(exact, f"apply_{gate}")(a)
        fresh -= {a, b}
    _assert_same_state(fast, exact)


# ---------------------------------------------------------------------------
# Whole-wire operations


def _snapshot(reg):
    """Everything a later operation reads: the state and its next draw,
    taken from a copy so the register itself is not advanced."""
    state = reg._state
    if isinstance(state, PairBlockState):
        rng = pickle.loads(pickle.dumps(state._rng))
        bits = list(state._bits) or rng.integers(0, 2, size=512, dtype=np.uint8).tolist()
        return list(state._sid), list(state._partner), bits[-1]
    rng = pickle.loads(pickle.dumps(state.rng))
    return state.amps.tolist(), state._touched, rng.random()


def _twins(backend, n, seed, data):
    """Two registers of n qubits in the same state: the same seed and the
    same drawn history of pairs, gates and measurements."""
    twins = [new_register(n, backend, seed) for _ in range(2)]
    fresh = list(range(n))
    for _ in range(data.draw(st.integers(0, 6))):
        op = data.draw(st.sampled_from(["pair", "gate", "z", "bell"]))
        if op == "pair" and len(fresh) >= 2:
            a, b = data.draw(st.permutations(fresh))[:2]
            fresh = [p for p in fresh if p not in (a, b)]
            for reg in twins:
                reg.prepare_bell_phi_plus(a, b)
        elif op == "gate":
            q = data.draw(st.integers(0, n - 1))
            gate = data.draw(st.sampled_from(list(GateName)))
            for reg in twins:
                reg.apply_gate(gate, q)
            fresh = [p for p in fresh if p != q]
        elif op == "z":
            q = data.draw(st.integers(0, n - 1))
            for reg in twins:
                reg.measure_z(q)
            fresh = [p for p in fresh if p != q]
        elif op == "bell":
            a, b = data.draw(st.permutations(range(n)))[:2]
            for reg in twins:
                reg.measure_bell(a, b)
            fresh = [p for p in fresh if p not in (a, b)]
    return twins, fresh


@pytest.mark.parametrize("backend", BOTH)
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_whole_wire_ops_equal_the_loop_of_single_ops(backend, seed, data):
    """Each whole-wire op on one register and the loop of its single op on
    a twin give the same outcomes, the same state and the same next draw."""
    n = data.draw(st.integers(2, 10))
    (wire, loop), fresh = _twins(backend, n, seed, data)
    op = data.draw(st.sampled_from(["pairs", "z", "bell"]))
    if op == "pairs":
        qubits = data.draw(st.permutations(fresh))
        k = len(qubits) // 2
        wire_a, wire_b = tuple(qubits[:k]), tuple(qubits[k:2 * k])
        assert wire.prepare_pairs(wire_a, wire_b) is None
        for a, b in zip(wire_a, wire_b):
            loop.prepare_bell_phi_plus(a, b)
    elif op == "z":
        qubits = tuple(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)))
        outcomes = wire.measure_z_many(qubits)
        assert type(outcomes) is list and all(type(z) is int for z in outcomes)
        assert outcomes == [loop.measure_z(q) for q in qubits]
    else:
        pairs = data.draw(st.lists(st.permutations(range(n)).map(lambda p: p[:2]), max_size=n))
        q1, q2 = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        codes = wire.measure_bell_many(q1, q2)
        assert all(type(c) is int and 0 <= c <= 3 for c in codes)
        assert codes == [loop.measure_bell(a, b) for a, b in pairs]
    assert _snapshot(wire) == _snapshot(loop)


@pytest.mark.parametrize("backend", BOTH)
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_a_bad_qubit_fails_a_whole_wire_op_before_any_change(backend, seed, data):
    """A qubit out of range, a pair of one qubit twice, or (for pairs) a
    qubit that is not fresh or sits in two pairs, anywhere in the wire:
    ValueError, and the state and the next draw are as they were."""
    n = data.draw(st.integers(4, 10))
    (reg, _), fresh = _twins(backend, n, seed, data)
    before = _snapshot(reg)
    op = data.draw(st.sampled_from(["pairs", "z", "bell"]))
    bad = data.draw(st.sampled_from([-1, n, n + 7]))
    if op == "pairs":
        good = data.draw(st.permutations(fresh))
        k = len(good) // 2
        wire_a, wire_b = list(good[:k]), list(good[k:2 * k])
        used = [q for q in range(n) if q not in fresh]
        # A qubit already used, a qubit of this wire again, or one out of
        # range, paired with any other qubit.
        bad = data.draw(st.sampled_from(used + wire_a + wire_b + [bad]))
        mate = data.draw(st.sampled_from([q for q in range(n) if q != bad]))
        at = data.draw(st.integers(0, k))
        if data.draw(st.booleans()):
            bad, mate = mate, bad
        wire_a.insert(at, bad)
        wire_b.insert(at, mate)
        call = lambda: reg.prepare_pairs(tuple(wire_a), tuple(wire_b))  # noqa: E731
    elif op == "z":
        qubits = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        qubits.insert(data.draw(st.integers(0, len(qubits))), bad)
        call = lambda: reg.measure_z_many(tuple(qubits))  # noqa: E731
    else:
        pairs = data.draw(st.lists(st.permutations(range(n)).map(lambda p: p[:2]), max_size=n))
        q = data.draw(st.integers(0, n - 1))
        pairs.insert(data.draw(st.integers(0, len(pairs))),
                     data.draw(st.sampled_from([(q, q), (q, bad), (bad, q)])))
        call = lambda: reg.measure_bell_many(*map(tuple, zip(*pairs)))  # noqa: E731
    with pytest.raises(ValueError):
        call()
    assert _snapshot(reg) == before


def test_whole_wire_ops_map_a_replaced_single_op():
    """A subclass that replaces a single op sees every qubit of the
    whole-wire form go through it."""
    seen = []

    class Counting(Register):
        def measure_z(self, q):
            seen.append(q)
            return super().measure_z(q)

    reg = Counting(8, Backend.TABLEAU, 3)
    reg.prepare_pairs((0, 1, 2), (3, 4, 5))
    twin = new_register(8, Backend.TABLEAU, 3)
    twin.prepare_pairs((0, 1, 2), (3, 4, 5))
    assert reg.measure_z_many((0, 4, 2, 5)) == twin.measure_z_many((0, 4, 2, 5))
    assert seen == [0, 4, 2, 5]


def test_whole_wire_pairs_of_unequal_length_fail():
    reg = new_register(8, Backend.TABLEAU, 1)
    for call in (lambda: reg.prepare_pairs((0, 1), (2,)),
                 lambda: reg.measure_bell_many((0,), (1, 2))):
        with pytest.raises(ValueError, match="wire length mismatch: [12] vs [21]"):
            call()


@pytest.mark.parametrize("backend", BOTH)
def test_prepare_pairs_of_qubit_runs(backend):
    """Wires given as ranges, as the protocol's step 1 gives them: the same
    pairs as the loop of single preparations, and a used or repeated
    qubit anywhere in a run fails the call before any pair is made."""
    wire, loop = new_register(12, backend, 1), new_register(12, backend, 1)
    for wire_a, wire_b in ((range(2, 6), range(8, 12)), (range(6, 8), range(0, 2))):
        wire.prepare_pairs(wire_a, wire_b)
        for a, b in zip(wire_a, wire_b):
            loop.prepare_bell_phi_plus(a, b)
        assert _snapshot(wire) == _snapshot(loop)
    used = new_register(12, backend, 1)
    used.prepare_pairs(range(0, 4), range(4, 8))
    for wire_a, wire_b in ((range(8, 10), range(6, 8)), (range(8, 10), range(9, 11)),
                           (range(10, 12), range(3, 5))):
        before = _snapshot(used)
        with pytest.raises(ValueError):
            used.prepare_pairs(wire_a, wire_b)
        assert _snapshot(used) == before
