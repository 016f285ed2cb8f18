"""Engine contract tests run against both backends wherever possible."""
import dataclasses
import hashlib
import itertools
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import numpy.random.bit_generator as bit_generator
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrsqkd import adversary, dense, harness, verify
from mrsqkd.bell_algebra import BellType
from mrsqkd.dense import DenseState
from mrsqkd.engine import (
    Backend,
    CapacityError,
    GateName,
    UnsupportedOperationError,
    derive_seed,
    Register,
    new_register,
    philox,
)
from mrsqkd.pairblock import _TABLES, PairBlockState, _Tables

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
    """A DENSE register has no qubit cap, as its factors hold at most 2
    qubits each: a 30-qubit register builds and runs. The cap bounds only
    the row an exact law joins (the join-bound tests below)."""
    reg = new_register(30, Backend.DENSE, 1)
    reg.prepare_bell_phi_plus(28, 29)
    assert reg.measure_bell(28, 29) is BellType.PHI_PLUS


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
    dist = reg.outcome_distribution([(0,), (1,)])
    assert dist == {(0, 0): pytest.approx(0.5), (1, 1): pytest.approx(0.5)}


def test_distribution_phi_plus_bell():
    reg = new_register(2, Backend.DENSE, 1)
    reg.prepare_bell_phi_plus(0, 1)
    dist = reg.outcome_distribution([(0, 1)])
    assert dist == {(BellType.PHI_PLUS,): pytest.approx(1.0)}


def test_distribution_product_01_bell():
    reg = new_register(2, Backend.DENSE, 1)
    reg.apply_gate(GateName.X, 1)
    dist = reg.outcome_distribution([(0, 1)])
    assert dist == {
        (BellType.PSI_PLUS,): pytest.approx(0.5),
        (BellType.PSI_MINUS,): pytest.approx(0.5),
    }


def test_distribution_does_not_collapse_live_register():
    reg = new_register(2, Backend.DENSE, 3)
    reg.prepare_bell_phi_plus(0, 1)
    reg.outcome_distribution([(0,)])
    # Still the entangled pair: Bell measurement stays deterministic.
    assert reg.measure_bell(0, 1) is BellType.PHI_PLUS


def test_distribution_rejects_tableau():
    reg = new_register(2, Backend.TABLEAU, 1)
    with pytest.raises(UnsupportedOperationError):
        reg.outcome_distribution([(0,)])


def _amps(state):
    """The full 2^n statevector of a DenseState, qubit q at bit q of the
    index, global phase included: the outer product of its factors, each
    qubit in no factor at its Z bit."""
    vals = np.array([state._phase])
    pos = np.array([state._known])  # index of each amplitude in the full vector
    for f in dict.fromkeys(state._of.values()):  # each factor once
        offsets = np.zeros(1, dtype=np.int64)
        for q in f.qubits:
            offsets = np.concatenate((offsets, offsets | (1 << q)))
        vals = np.outer(f.psi, vals).reshape(-1)
        pos = (offsets[:, None] | pos[None, :]).reshape(-1)
    full = np.zeros(1 << state.n, dtype=np.complex128)
    full[pos] = vals
    return full


def _set_amps(state, amps):
    """Put every qubit of ``state`` in one factor holding ``amps`` (qubit q
    at bit q of the index), all of them touched: a state wider than any
    the library builds, which the oracle's rules must handle too."""
    f = dense._Factor(np.array(amps, dtype=np.complex128).reshape(-1), list(range(state.n)))
    state._of = dict.fromkeys(f.qubits, f)
    state._phase = 1.0 + 0.0j
    state._known = 0
    state._touched = (1 << state.n) - 1


def _branches(state, qubits):
    """(outcome code, probability, collapsed copy) for every outcome of
    measuring ``qubits`` (Z for one, Bell for a pair) that can occur, in
    the order of the draws, each from ``_measure`` given that outcome on a
    copy; ``state`` is left as it is."""
    for k, code in enumerate(dense._BASES[len(qubits)][1]):
        branch = state.copy()
        prob = branch._measure(qubits, k)[1]
        if prob > dense._MIN_PROB:
            yield int(code), prob, branch


def _bell_project(state, a, b, s, p):
    """Collapsed copy of ``state`` (None if it cannot occur) and the
    probability of Bell outcome (s, p) on (a, b), straight from the
    definition: the overlap with (|0,p> + (-1)^s |1,1-p>)/sqrt(2) on the
    pair's tensor axes."""
    n = state.n
    t = np.moveaxis(_amps(state).reshape([2] * n), (n - 1 - a, n - 1 - b), (0, 1))
    rest = (t[0, p] + (-1) ** s * t[1, 1 - p]) / np.sqrt(2)
    prob = float(np.sum(np.abs(rest) ** 2))
    if prob <= 1e-12:
        return None, prob
    out = np.zeros_like(t)
    out[0, p] = rest / np.sqrt(2 * prob)
    out[1, 1 - p] = (-1) ** s * rest / np.sqrt(2 * prob)
    branch = state.copy()
    _set_amps(branch, np.moveaxis(out, (0, 1), (n - 1 - a, n - 1 - b)).reshape(-1))
    return branch, prob


def _reference_distribution(state, plan, prefix=(), prob=1.0, dist=None):
    """Recursive depth-first enumeration, one branch copy at a time."""
    dist = {} if dist is None else dist
    if not plan:
        dist[prefix] = prob
        return dist
    step, rest = plan[0], plan[1:]
    if len(step) == 1:
        for outcome, p, branch in _branches(state, step):
            _reference_distribution(branch, rest, prefix + (outcome,), prob * p, dist)
    else:
        for s in (0, 1):
            for p in (0, 1):
                branch, q = _bell_project(state, *step, s, p)
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
def distinct_plans(draw, n, max_steps):
    """1 to ``max_steps`` Z and Bell steps that measure distinct qubits of
    0..n-1: a drawn permutation split into steps of 1 or 2, up to the
    steps it holds."""
    qubits = draw(st.permutations(range(n)))
    plan = []
    for size in draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=max_steps)):
        if size > len(qubits):
            break
        plan.append(tuple(qubits[:size]))
        qubits = qubits[size:]
    return plan


@st.composite
def oracle_cases(draw):
    """Bell pairs and gates on at most 6 qubits, then 1 to 6 Z and Bell
    steps on distinct qubits."""
    reg = draw(prepared_registers())
    return reg, draw(distinct_plans(reg.size, 6))


@settings(max_examples=300, deadline=None)
@given(oracle_cases())
def test_outcome_distribution_matches_recursive_reference(case):
    reg, plan = case
    dist = reg.outcome_distribution(plan)
    ref = _reference_distribution(reg._state.copy(), plan)
    assert list(dist) == list(ref)
    for key, p in ref.items():
        assert dist[key] == pytest.approx(p, abs=1e-12)


REMEASURE_PLAN = [(1, 2), (3, 4), (2,), (5, 6), (2, 7), (0,), (4,), (1, 3)]


def _four_pairs_with_gates():
    reg = new_register(8, Backend.DENSE, 3)
    for a in range(0, 8, 2):
        reg.prepare_bell_phi_plus(a, a + 1)
    for gate, q in ((GateName.H, 0), (GateName.X, 3), (GateName.Y, 5), (GateName.H, 6)):
        reg.apply_gate(gate, q)
    return reg


def test_outcome_distribution_refuses_a_qubit_measured_again():
    """A plan measures each qubit at most once: a step whose qubit an
    earlier step measured, by Z or by Bell, raises the ValueError that
    names it, also on a plan past the join bound, before any join."""
    reg = _four_pairs_with_gates()
    for plan, step, q in ((REMEASURE_PLAN, (2,), 2), ([(0,), (0,)], (0,), 0),
                          ([(0, 1), (1,)], (1,), 1), ([(0,), (1, 0)], (1, 0), 0)):
        with pytest.raises(ValueError) as refused:
            reg.outcome_distribution(plan)
        assert str(refused.value) == f"plan step {step}: qubit {q} is measured by an earlier step"
    with pytest.raises(ValueError, match=r"^plan step \(0,\): qubit 0 is measured"):
        _thirty_pairs().outcome_distribution([(q,) for q in range(26)] + [(0,)])


# SHA-256 of every exact law of the 512 four-pair cycle and chain
# configurations, then of the scripted circuits: one line per outcome,
# in the order the oracle returns them.
LAW_DIGEST = "90a00b440c06aee4faee86b7dd9c218e1f61f3855e1d26185cdbd9a9dec83517"


def test_exact_laws_of_the_oracle_configurations_are_pinned():
    codes = list(itertools.product(range(4), repeat=4))
    scripts = [verify.make_cycle(c, f"cycle{c}") for c in codes]
    scripts += [verify.make_chain(c, f"chain{c}") for c in codes]
    scripts += verify.scripted_circuits()
    digest = hashlib.sha256()
    for script in scripts:
        for key, p in verify.exact_distribution(script, 11).items():
            digest.update(f"{script.name} {tuple(map(int, key))} {p:.12g}\n".encode())
    assert digest.hexdigest() == LAW_DIGEST


def _typed_items(dist):
    """A law's items with the type of every outcome value: BellType and
    int compare equal, so ``==`` on the laws alone would not see a type."""
    return [(key, tuple(map(type, key)), p) for key, p in dist.items()]


def test_a_law_from_a_cleared_cache_equals_the_cached_law():
    """Every oracle configuration: from cleared caches, then from the
    caches, bit for bit."""
    codes = list(itertools.product(range(4), repeat=4))
    scripts = [verify.make_cycle(c, "cycle") for c in codes]
    scripts += [verify.make_chain(c, "chain") for c in codes] + verify.scripted_circuits()
    assert len(scripts) == 528
    for script in scripts:
        dense._law_axes.cache_clear()
        dense._key_table.cache_clear()
        cold = verify.exact_distribution(script, 11)
        assert dense._law_axes.cache_info().misses == 1
        hot = verify.exact_distribution(script, 11)
        assert dense._law_axes.cache_info().hits == 1
        assert _typed_items(hot) == _typed_items(cold)


def test_the_schedule_caches_stay_within_their_bounds():
    """More plan shapes than either cache holds, every law still the
    recursive reference's."""
    reg = _four_pairs_with_gates()
    plans = []
    for steps in range(1, 5):
        for sizes in itertools.product((1, 2), repeat=steps):
            for first in (0, 3, 5):
                qubits = itertools.cycle(range(first, first + 8))
                plans.append([tuple(next(qubits) % 8 for _ in range(size)) for size in sizes])
    assert len(plans) > dense._LAW_AXES
    for plan in plans:
        dist = reg.outcome_distribution(plan)
        ref = _reference_distribution(reg._state.copy(), plan)
        assert list(dist) == list(ref)
        for key, p in ref.items():
            assert dist[key] == pytest.approx(p, abs=1e-12)
    assert dense._law_axes.cache_info().currsize == dense._LAW_AXES
    assert dense._key_table.cache_info().currsize == dense._KEY_TABLES


@settings(max_examples=200, deadline=None)
@given(prepared_registers(), st.integers(0, 2**32), st.data())
def test_dense_measure_bell_draws_twice_and_collapses_onto_its_branch(reg, seed, data):
    """Each of 1 to 3 Bell measurements in a row draws exactly two
    numbers (a twin generator advanced twice gives the next draw), returns
    the code those two numbers pick from the ``_branches`` law (s = 1 when
    the first is below P(s=1), then p = 1 when the second is below
    P(p=1 | s)), and leaves the state of that code's branch, up to global
    phase."""
    state = reg._state
    state.rng, twin = philox(seed), philox(seed)
    for _ in range(data.draw(st.integers(1, 3))):
        a, b = data.draw(st.permutations(range(state.n)))[:2]
        law = {c: (prob, br) for c, prob, br in _branches(state, (a, b))}
        prob = {c: law[c][0] if c in law else 0.0 for c in range(4)}
        code = state.measure_bell(a, b)
        s = int(twin.random() < prob[1] + prob[3])
        p = int(twin.random() < prob[2 | s] / (prob[s] + prob[2 | s]))
        assert state.rng.random() == twin.random()
        assert code == (p << 1) | s
        assert abs(np.vdot(_amps(law[code][1]), _amps(state))) == pytest.approx(1.0, abs=1e-9)


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
    return n, ops, draw(distinct_plans(n, 4))


@settings(max_examples=300, deadline=None)
@given(live_set_scripts(), st.integers(0, 2**32))
@example((2, [("gate", GateName.X, 0), ("z", 0), ("gate", GateName.H, 0)], [(0,)]), 0)
@example((2, [("gate", GateName.Y, 0), ("z", 0)], [(1,)]), 0)  # a phase of -1 left over
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
        np.testing.assert_allclose(_amps(reg._state), ref.amps, rtol=0, atol=1e-12)
    assert reg._state.rng.random() == ref.rng.random()
    full = DenseState(n, None)
    _set_amps(full, ref.amps)
    expected = _reference_distribution(full, plan)
    dist = reg.outcome_distribution(plan)
    assert list(dist) == list(expected)
    for key, p in expected.items():
        assert dist[key] == pytest.approx(p, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(live_set_scripts(), st.integers(0, 2**32))
def test_dense_factors_hold_at_most_two_qubits(script, seed):
    """Every state these operations reach is a product of blocks of at
    most two qubits, and the register stores it so: after every
    preparation, gate, Z or Bell measurement each factor holds at most 2
    qubits, its 2^w amplitudes, and is the factor of each of them."""
    n, ops, _ = script
    reg = new_register(n, Backend.DENSE, seed)
    run = {"prep": reg.prepare_bell_phi_plus, "gate": reg.apply_gate,
           "z": reg.measure_z, "bell": reg.measure_bell}
    for op in ops:
        run[op[0]](*op[1:])
        for q, f in reg._state._of.items():
            assert q in f.qubits and len(f.qubits) <= 2
            assert f.psi.shape == (1 << len(f.qubits),)
            assert all(reg._state._of[other] is f for other in f.qubits)


def test_distribution_validates_plan():
    reg = new_register(2, Backend.DENSE, 1)
    with pytest.raises(ValueError):
        reg.outcome_distribution([(5,)])
    with pytest.raises(ValueError):
        reg.outcome_distribution([(1, 1)])


def test_a_plan_step_holds_one_or_two_qubits():
    """A step that is not a tuple, a bare int or a list, gets the same
    ValueError as a tuple of the wrong size, a repeated qubit, one outside
    the register or one that is not an int, before it is iterated or
    hashed as a cache key. (1.0,) on a qubit held in a factor hashes as
    (1,), which the law of [(1,)] has just cached."""
    reg = new_register(3, Backend.DENSE, 1)
    reg.prepare_bell_phi_plus(0, 1)
    assert reg.outcome_distribution([(1,)])
    for step in ((), (0, 1, 2), 0, [0], (0, 0), (5,), (2.0,), ("a",), (None,), (1.0,)):
        with pytest.raises(ValueError, match=r"^plan step .*: not 1 or 2 distinct qubits"):
            reg.outcome_distribution([step])


def _thirty_pairs():
    """A 60-qubit DENSE register of 30 phi+ pairs (2i, 2i + 1)."""
    reg = new_register(60, Backend.DENSE, 1)
    reg.prepare_pairs(range(0, 60, 2), range(1, 60, 2))
    return reg


def test_a_law_over_the_join_bound_fails_before_it_joins():
    """Z on qubits 0..25 reaches 13 pairs, 26 qubits, past
    DENSE_QUBIT_CAP: CapacityError before any outer product, where the
    joined row alone would take 2^26 amplitudes (1 GiB)."""
    reg = _thirty_pairs()
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="at most 24 qubits, this one 26"):
            reg.outcome_distribution([(q,) for q in range(26)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_law_within_the_join_bound_ignores_the_rest_of_the_register():
    """A plan that reaches 4 qubits of the 60-qubit register gives, bit
    for bit and in the same order, the law it gives on a register of
    just those 4 qubits."""
    small, big = new_register(4, Backend.DENSE, 1), _thirty_pairs()
    small.prepare_pairs([0, 2], [1, 3])
    for reg, at in ((small, 0), (big, 40)):
        reg.apply_gate(GateName.H, at)
        reg.apply_gate(GateName.Y, at + 3)
    law = small.outcome_distribution([(0, 3), (1,), (2,)])
    assert len(law) > 1
    assert list(big.outcome_distribution([(40, 43), (41,), (42,)]).items()) == list(law.items())


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
    plan = draw(distinct_plans(n, 4))
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


def test_tableau_samples_repeat_for_a_seed_and_share_the_exact_keys_types():
    script = verify.make_chain([2, 1, 0], "chain")
    exact = verify.exact_distribution(script, 0)
    (types,) = {tuple(map(type, key)) for key in exact}
    assert types == (int, int, BellType, BellType)
    shots = verify.sample_tableau(script, 200, 9)
    assert len(shots) == 200
    assert verify.sample_tableau(script, 200, 9) == shots
    assert {tuple(map(type, shot)) for shot in shots} == {types}
    assert set(shots) <= exact.keys()


def test_verify_backends_memory_stays_flat_in_the_sample_count(monkeypatch):
    """Shots are drawn a chunk at a time: the traced peak of a run at 4x
    the samples stays within 1.5x of the peak at 1x."""
    two_qubits = [script for script in verify.scripted_circuits() if script.qubits == 2]
    monkeypatch.setattr(verify, "scripted_circuits", lambda: two_qubits)
    peaks = []
    for samples in (verify._SHOT_CHUNK, 4 * verify._SHOT_CHUNK):
        tracemalloc.start()
        try:
            assert verify.verify_backends(samples=samples, seed=5).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_verify_backends_checks_each_distinct_outcome_once(monkeypatch):
    """The relation runs once per distinct outcome, exact or drawn; an
    outcome that breaks it counts once if exact and once per shot."""
    script = verify.make_cycle([0, 0, 0], "cycle_3")
    calls = Counter()

    def sign_bit_0(outcome):  # broken by a first result of sign bit 1
        calls[outcome] += 1
        return not int(outcome[0]) & 1

    counted = dataclasses.replace(script, relation=sign_bit_0)
    monkeypatch.setattr(verify, "scripted_circuits", lambda: [counted])
    (circuit,) = verify.verify_backends(samples=300, seed=7).circuits
    exact = verify.exact_distribution(script, derive_seed(7, 0))
    assert calls == Counter(dict.fromkeys(exact, 1))  # the shots fall in the support
    shots = Counter(verify.sample_tableau(script, 300, derive_seed(derive_seed(7, 0), 0)))
    broken = [outcome for outcome in exact if int(outcome[0]) & 1]
    assert circuit.relation_failures == len(broken) + sum(shots[o] for o in broken)
    assert 0 < sum(shots[o] for o in broken) < 300


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
    report = verify.verify_backends(samples=500, seed=3)
    assert not report.passed
    (faulty,) = [c for c in report.circuits if not c.passed]
    assert faulty.name == "chain_3_between"
    assert faulty.outside_support == 0 and faulty.relation_failures == 0
    assert not faulty.same_support and abs(faulty.max_dp - 2**-9) <= verify.TOLERANCE
    assert faulty.line().startswith("FAIL")


def test_pairblock_batches_are_the_bits_of_integers():
    """Three refills in a row pop the bits ``integers(0, 2, size=512,
    dtype=np.uint8)`` draws on a twin generator, from the end of each
    batch, and leave both generators at the same next draw."""
    for seed in range(100):
        state, twin = PairBlockState(2, philox(seed)), philox(seed)
        drawn = [state._rand_bit() for _ in range(3 * 512)]
        expected = []
        for _ in range(3):
            expected += twin.integers(0, 2, size=512, dtype=np.uint8).tolist()[::-1]
        assert drawn == expected
        assert state._rng.random() == twin.random()


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
                    probe.apply_gate(g, 0)
                if probe._sid[0] not in seen:
                    seen.add(probe._sid[0])
                    setups.append((paired, word))
    return setups


def _state(blocks):
    """Product state of ``blocks``, each (amplitudes, qubits it covers)."""
    n = sum(len(qubits) for _, qubits in blocks)
    idx = np.arange(1 << n)
    amps = np.ones(idx.size, dtype=np.complex128)
    for vec, qubits in blocks:
        amps *= vec[sum(((idx >> q) & 1) << k for k, q in enumerate(qubits))]
    state = DenseState(n, None)
    _set_amps(state, amps)
    return state


def _pairblock_amplitudes(state, lower):
    """Statevector of a pair-block state, rebuilt from its blocks, each
    pair as seen from its lower or its higher qubit."""
    blocks = []
    for q in range(state.n):
        p = state._partner[q]
        if p < 0 or (q < p) == lower:
            qubits = (q,) if p < 0 else (q, p)
            blocks.append((_TABLES.vecs[state._sid[q]], qubits))
    return _amps(_state(blocks))


def _assert_same_state(fast, exact):
    """Equal up to global phase, reading each pair from either half."""
    for lower in (True, False):
        overlap = abs(np.vdot(_pairblock_amplitudes(fast, lower), _amps(exact)))
        assert overlap == pytest.approx(1.0, abs=1e-9)


def _branch(exact, qubits, code):
    """The dense branch of outcome ``code`` of measuring ``qubits``,
    which must have nonzero probability."""
    law = {c: (p, br) for c, p, br in _branches(exact, qubits)}
    assert law.get(code, (0.0,))[0] > 1e-9
    return law[code][1]


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
                        state.apply_gate(g, q)
            exact = _branch(exact, (0, 1), fast.measure_bell(0, 1))
            _assert_same_state(fast, exact)
            exact = _branch(exact, (2,), fast.measure_z(2))
            _assert_same_state(fast, exact)


def _fill_every_entry(tables):
    """Every Bell entry (sa, sb) of ``tables``, with sb = -1 for a pair
    block; the constructor made every other entry."""
    for sid, vec in enumerate(tables.vecs):
        if vec.size == 4:
            tables.bell_entry(sid, -1)
        for other in range(len(tables.vecs)):
            tables.bell_entry(sid, other)


def test_pairblock_table_is_complete_but_for_bell_entries():
    """A fresh table holds the 13 block states, the gate, swap and Z
    entries of each, and no Bell entry; filling every Bell entry adds no
    state, so every id a Bell entry holds has entries of its own."""
    tables = _Tables()
    assert len(tables.vecs) == 13  # fresh |0>, 4 single states, 8 pair states
    assert len(tables.z) == len(tables.swap) == 13
    assert all(len(table) == 13 for table in tables.gate.values())
    assert None not in tables.z
    assert all(outcome in (-1, 0, 1) and len(results) == 2 for outcome, results in tables.z)
    assert tables.bell == {}
    _fill_every_entry(tables)
    assert len(tables.bell) == 177
    assert len(tables.vecs) == 13


def test_pairblock_tables_need_no_dense_measurement(monkeypatch):
    """Every entry comes from the block amplitudes: filling the whole
    table builds no DenseState and calls no DenseState measurement, nor
    ``copy``."""

    def forbidden(*args, **kwargs):
        raise AssertionError("pair-block tables used a DenseState")

    for name in ("__init__", "_measure", "copy", "measure_z", "measure_bell"):
        monkeypatch.setattr(DenseState, name, forbidden)
    tables = _Tables()
    _fill_every_entry(tables)
    assert len(tables.vecs) == 13  # fresh |0>, 4 single states, 8 pair states
    assert len(tables.bell) == 177  # 13 x 13 pairs of blocks, 8 pairs measured together
    assert None not in tables.z


def _flag_matches(flag, p_one):
    """A table's fixed outcome (or -1 for a fair coin) agrees with the
    probability of outcome 1."""
    return p_one == pytest.approx(0.5 if flag < 0 else flag, abs=1e-9)


def _blocks_hold(blocks, exact):
    """The product of ``blocks``, each (amplitudes, qubits it covers), is
    the dense state up to global phase."""
    return abs(np.vdot(_amps(_state(blocks)), _amps(exact))) == pytest.approx(1.0, abs=1e-9)


def test_pairblock_tables_are_the_dense_law_of_every_block_combination():
    """The converse of the sampled check: for every block state and every
    gate, the gate entry's block is DENSE's ``apply_gate`` on the block;
    for every block state and every pair of them, each measurement
    entry's possible outcomes are exactly DENSE's branches, each leaving
    the blocks DENSE's branch holds, and its fixed-or-random flags match
    DENSE's probabilities."""
    tables = _Tables()
    _fill_every_entry(tables)
    vecs = tables.vecs
    for sid, vec in enumerate(vecs):
        qubits = (0, 1) if vec.size == 4 else (0,)
        for gate, table in tables.gate.items():
            exact = _state([(vec, qubits)])
            exact.apply_gate(gate, 0)
            assert _blocks_hold([(vecs[table[sid]], qubits)], exact), (sid, gate)
    for sid, (outcome, results) in enumerate(tables.z):
        paired = vecs[sid].size == 4
        exact = _state([(vecs[sid], (0, 1) if paired else (0,))])
        law = {c: (p, br) for c, p, br in _branches(exact, (0,))}
        assert _flag_matches(outcome, law.get(1, (0.0,))[0])
        for j, result in enumerate(results):
            assert (law.get(j, (0.0,))[0] > 1e-9) == (result is not None)
            if result is not None:
                own, partner = result
                assert _blocks_hold([(vecs[own], (0,))] + [(vecs[partner], (1,))] * paired, law[j][1])
    for (sa, sb), (sign, parity, results) in tables.bell.items():
        parts, rest = [(vecs[sa], (0, 1))], ()
        if sb >= 0:  # Dense layout: a=0, b=1, then a's partner, then b's partner.
            parts = []
            for q, vec in ((0, vecs[sa]), (1, vecs[sb])):
                if vec.size == 4:
                    rest += (2 + len(rest),)
                parts.append((vec, (q, rest[-1]) if vec.size == 4 else (q,)))
        branches = {c: (p, br) for c, p, br in _branches(_state(parts), (0, 1))}
        assert {c for c, r in enumerate(results) if r is not None} == branches.keys()
        p_sign = [sum(p for c, (p, _) in branches.items() if c & 1 == s) for s in (0, 1)]
        assert _flag_matches(sign, p_sign[1])
        for s in (0, 1):
            if p_sign[s] > 1e-9:
                assert _flag_matches(parity[s], branches.get(2 | s, (0.0,))[0] / p_sign[s])
        for code, (_, branch) in branches.items():
            ab, left = results[code]
            assert (left >= 0) == bool(rest)
            assert _blocks_hold([(vecs[ab], (0, 1))] + [(vecs[left], rest)] * bool(rest), branch)


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
            exact = _branch(exact, (a, b), fast.measure_bell(a, b))
        else:
            a = b = data.draw(st.integers(0, n - 1))
            if op == "z":
                exact = _branch(exact, (a,), fast.measure_z(a))
            else:
                gate = data.draw(st.sampled_from("xyzh"))
                fast.apply_gate(gate, a)
                exact.apply_gate(gate, a)
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
    return _amps(state).tolist(), state._touched, rng.random()


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


def test_pairblock_prepares_strided_runs_by_slices(monkeypatch):
    """Two ranges of one step that share no qubit, as ``sample_tableau``'s
    shots give them (starts apart modulo the step, or spans apart), leave
    the ``_sid`` and ``_partner`` that per-pair ``prepare_bell`` leaves,
    with no per-pair call."""
    runs = [(range(0, 24, 6), range(3, 24, 6)), (range(5, 24, 6), range(1, 24, 6)),
            (range(0, 8, 2), range(10, 18, 2)), (range(11, 19, 2), range(1, 9, 2))]
    expected = []
    for wire_a, wire_b in runs:
        loop = PairBlockState(24, None)
        for a, b in zip(wire_a, wire_b):
            loop.prepare_bell(a, b)
        expected.append((loop._sid, loop._partner))

    def per_pair(self, a, b):
        raise AssertionError("a strided run fell back to per-pair preparation")

    monkeypatch.setattr(PairBlockState, "prepare_bell", per_pair)
    for (wire_a, wire_b), state in zip(runs, expected):
        sliced = PairBlockState(24, None)
        sliced.prepare_pairs(wire_a, wire_b)
        assert (sliced._sid, sliced._partner) == state


def test_pairblock_strided_runs_that_share_a_qubit_fail_unchanged():
    """Ranges of one step and one residue whose spans overlap share a
    qubit: ValueError, with no qubit changed."""
    for wire_a, wire_b in ((range(0, 8, 2), range(4, 12, 2)), (range(3, 15, 3), range(0, 12, 3)),
                           (range(8, 16, 4), range(12, 20, 4))):
        state = PairBlockState(24, None)
        state.prepare_bell(22, 23)
        before = (list(state._sid), list(state._partner))
        with pytest.raises(ValueError, match="needs two fresh"):
            state.prepare_pairs(wire_a, wire_b)
        assert (state._sid, state._partner) == before


@pytest.mark.parametrize("backend", BOTH)
def test_prepare_pairs_of_qubit_runs(backend):
    """Wires given as ranges, as the protocol's step 1 gives them: the same
    pairs as the loop of single preparations, and a used or repeated
    qubit anywhere in a run, or a run paired with itself, fails the call
    before any pair is made."""
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
    fresh = new_register(4, backend, 1)
    before = _snapshot(fresh)
    with pytest.raises(ValueError):
        fresh.prepare_pairs(range(0, 4, 2), range(0, 4, 2))
    assert _snapshot(fresh) == before
