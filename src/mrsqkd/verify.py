"""Backend cross-verification on scripted circuits.

Each script prepares a few Bell pairs (optionally tampered into other
Bell states), runs a measurement plan, and carries the algebraic
relation its outcomes must satisfy. The dense backend enumerates the
exact outcome distribution; so does the pair-block stabilizer backend
(``Backend.TABLEAU``), by replaying the script over every bit string it
can draw, and the two must agree. Every outcome, exact or from seeded
pair-block shots, is also checked against the cycle XOR rule or the
generalized chain relation, which is what grounds the derived values
used all over the test suite.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bell_algebra import _BELL_BY_CODE, BellType, chain_relation_holds, xor_rule_holds
from .engine import Backend, GateName, Register, derive_seed, new_register
from .dense import DENSE_QUBIT_CAP
from .pairblock import PairBlockState

TOLERANCE = 1e-12  # largest |pair-block - dense| probability of an outcome
# Seeded shots per ``sample_tableau`` call of ``verify_backends``, so its
# memory does not grow with the sample count.
_SHOT_CHUNK = 4096

PrepOp = tuple  # ("bell", a, b) or ("gate", GateName, q)
Step = tuple  # (q,) for Z or (a, b) for Bell


@dataclass(frozen=True)
class CircuitScript:
    name: str
    qubits: int
    prep: tuple[PrepOp, ...]
    plan: tuple[Step, ...]
    relation: Optional[Callable[[tuple], bool]]


def _prep_pairs(is_codes: Sequence[int]) -> tuple[PrepOp, ...]:
    """phi+ on each pair (2i, 2i+1), then gates mapping it to the Bell
    state of code ``is_codes[i]`` (ValueError outside 0..3)."""
    ops: list[PrepOp] = []
    for i, code in enumerate(map(BellType, is_codes)):
        ops.append(("bell", 2 * i, 2 * i + 1))
        if code & 2:
            ops.append(("gate", GateName.X, 2 * i + 1))
        if code & 1:
            ops.append(("gate", GateName.Z, 2 * i))
    return tuple(ops)


def make_cycle(is_codes: Sequence[int], name: str) -> CircuitScript:
    """k pairs Bell-measured in a ring: slot i joins the first qubit of
    pair i with the second qubit of pair i+1 (mod k)."""
    k = len(is_codes)
    prep = _prep_pairs(is_codes)
    plan = tuple((2 * i, 2 * ((i + 1) % k) + 1) for i in range(k))
    initials = tuple(is_codes)

    def relation(outcome: tuple) -> bool:
        return xor_rule_holds(initials, outcome)

    return CircuitScript(name, 2 * k, prep, plan, relation)


def make_chain(is_codes: Sequence[int], name: str) -> CircuitScript:
    """Endpoint pairs around j intermediates: the first qubit of the first
    pair and the last qubit of the last pair are Z-measured, then Bell
    measurements run down the line of leftover qubits."""
    k = len(is_codes)
    if k < 2:
        raise ValueError(f"a chain needs at least 2 pairs, got {k}")
    prep = _prep_pairs(is_codes)
    plan = ((0,), (2 * k - 1,)) + tuple((2 * i + 1, 2 * i + 2) for i in range(k - 1))
    is1, *mids, is2 = is_codes

    def relation(outcome: tuple) -> bool:
        return chain_relation_holds(is1, is2, mids, outcome[0], outcome[1], outcome[2:])

    return CircuitScript(name, 2 * k, prep, plan, relation)


def _gate_on_half(gate: GateName, expected: Optional[BellType]) -> CircuitScript:
    ops: tuple[PrepOp, ...] = (("bell", 0, 1), ("gate", gate, 0))
    relation = None
    if expected is not None:
        relation = lambda outcome: outcome[0] is expected  # noqa: E731
    return CircuitScript(f"half_{gate.value}", 2, ops, ((0, 1),), relation)


def scripted_circuits() -> list[CircuitScript]:
    return [
        CircuitScript("empty", 2, (), ((0,), (1,)), None),
        make_cycle([0], "original_pair"),
        _gate_on_half(GateName.X, BellType.PSI_PLUS),
        _gate_on_half(GateName.Y, BellType.PSI_MINUS),
        _gate_on_half(GateName.Z, BellType.PHI_MINUS),
        _gate_on_half(GateName.H, None),
        CircuitScript(
            "product_01",
            2,
            (("gate", GateName.X, 1),),
            ((0, 1),),
            lambda out: out[0] in (BellType.PSI_PLUS, BellType.PSI_MINUS),
        ),
        make_cycle([0, 0], "crossed_pairs"),
        make_cycle([0, 0, 0], "cycle_3"),
        make_cycle([2, 1, 3], "cycle_3_mixed"),
        make_cycle([0, 0, 0, 0, 0], "cycle_5"),
        make_chain([0, 0], "collapsed_pair"),
        make_chain([2, 0], "collapsed_pair_mixed"),
        make_chain([0, 0, 0], "chain_1_between"),
        make_chain([2, 1, 0], "chain_1_between_mixed"),
        make_chain([0, 0, 0, 0, 0], "chain_3_between"),
    ]


# --------------------------------------------------------------------------
# Execution


def _apply_prep(reg: Register, prep: Sequence[PrepOp]) -> None:
    for op in prep:
        if op[0] == "bell":
            reg.prepare_bell_phi_plus(op[1], op[2])
        else:
            reg.apply_gate(op[1], op[2])


def _run_plan(reg: Register, plan: Sequence[Step]) -> tuple:
    return tuple(reg.measure_z(*step) if len(step) == 1 else reg.measure_bell(*step)
                 for step in plan)


def sample_tableau(script: CircuitScript, samples: int, seed: int) -> list[tuple]:
    """Draw outcome tuples from the pair-block (TABLEAU) backend. Shot i
    runs on qubits i*q .. i*q + q - 1 of one register of q * ``samples``
    qubits, and each op of the script runs over every shot before the
    next op: a pair preparation or a plan step is one whole-wire call."""
    q = script.qubits
    size = q * samples
    reg = new_register(size, Backend.TABLEAU, seed)
    for op in script.prep:
        if op[0] == "bell":
            reg.prepare_pairs(range(op[1], size, q), range(op[2], size, q))
        else:
            for offset in range(0, size, q):
                reg.apply_gate(op[1], op[2] + offset)
    columns = []
    for step in script.plan:
        wires = [range(first, size, q) for first in step]
        if len(step) == 1:
            columns.append(reg.measure_z_many(*wires))
        else:
            columns.append(map(_BELL_BY_CODE.__getitem__, reg.measure_bell_many(*wires)))
    return list(zip(*columns)) if columns else [()] * samples


def exact_distribution(script: CircuitScript, seed: int) -> dict[tuple, float]:
    reg = new_register(script.qubits, Backend.DENSE, seed)
    _apply_prep(reg, script.prep)
    return reg.outcome_distribution(script.plan)


class _Replay(PairBlockState):
    """Pair-block state whose random bits are ``prefix``, then 0s; ``bits``
    holds every bit drawn."""

    def __init__(self, n: int, prefix: list[int]) -> None:
        super().__init__(n, None)
        self.prefix, self.bits = prefix, []

    def _rand_bit(self) -> int:
        k = len(self.bits)
        self.bits.append(self.prefix[k] if k < len(self.prefix) else 0)
        return self.bits[-1]


def tableau_distribution(script: CircuitScript) -> dict[tuple, float]:
    """Exact outcome law of the pair-block backend, which spends one fair
    bit per random outcome: the script replayed, depth first, over every
    bit string the sampler can draw. Each replay queues the 1-branch of
    every bit it drew past its prefix; an outcome after k bits weighs 2^-k."""
    reg = new_register(script.qubits, Backend.TABLEAU, 0)
    dist: dict[tuple, float] = {}
    todo: list[list[int]] = [[]]
    while todo:
        # The register keeps its checks and BellType outcomes over the replay.
        state = reg._state = _Replay(script.qubits, todo.pop())
        _apply_prep(reg, script.prep)
        outcome = _run_plan(reg, script.plan)
        todo.extend(state.bits[:k] + [1] for k in range(len(state.prefix), len(state.bits)))
        dist[outcome] = dist.get(outcome, 0.0) + 2.0 ** -len(state.bits)
    return dist


@dataclass(frozen=True)
class CircuitReport:
    name: str
    qubits: int
    support_size: int
    same_support: bool
    max_dp: float
    outside_support: int
    relation_failures: int

    @property
    def passed(self) -> bool:
        return (self.same_support and self.max_dp <= TOLERANCE
                and self.outside_support == 0 and self.relation_failures == 0)

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        # Within the tolerance only the bound is printed, so the line does
        # not depend on the last bits of the dense arithmetic.
        dp = f"<={TOLERANCE:g}" if self.max_dp <= TOLERANCE else f"={self.max_dp:.3g}"
        return (
            f"{status:4s} {self.name:24s} qubits={self.qubits:<3d} "
            f"support={self.support_size:<4d} same_support={'yes' if self.same_support else 'NO'} "
            f"max_dp{dp} outside={self.outside_support} "
            f"relation_failures={self.relation_failures}"
        )


@dataclass(frozen=True)
class VerifyReport:
    samples: int
    circuits: tuple[CircuitReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.circuits)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.circuits]
        out.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.circuits)}/{len(self.circuits)} circuits, "
            f"tolerance={TOLERANCE:g}, samples={self.samples})"
        )
        return out


def verify_backends(
    max_qubits: int = 12, samples: int = 10000, seed: int = 20240
) -> VerifyReport:
    """Compare the pair-block law with dense enumeration circuit by
    circuit, draw ``samples`` seeded pair-block shots into the exact
    support, and check the swap algebra on every outcome seen. The shots
    come in chunks of _SHOT_CHUNK, chunk k seeded by stream k of the
    circuit's seed."""
    scripts = scripted_circuits()
    smallest = min(script.qubits for script in scripts)
    if not smallest <= max_qubits <= DENSE_QUBIT_CAP:
        raise ValueError(f"max_qubits must be in {smallest}..{DENSE_QUBIT_CAP}, got {max_qubits}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    reports = []
    for idx, script in enumerate(scripts):
        if script.qubits > max_qubits:
            continue
        circuit_seed = derive_seed(seed, idx)
        exact = exact_distribution(script, circuit_seed)
        law = tableau_distribution(script)
        drawn: Counter = Counter()  # outcome -> shots
        for k, start in enumerate(range(0, samples, _SHOT_CHUNK)):
            shots = min(_SHOT_CHUNK, samples - start)
            drawn.update(sample_tableau(script, shots, derive_seed(circuit_seed, k)))
        relation = script.relation or (lambda outcome: True)
        reports.append(
            CircuitReport(
                name=script.name,
                qubits=script.qubits,
                support_size=len(exact),
                same_support=exact.keys() == law.keys(),
                max_dp=max(abs(law.get(o, 0.0) - exact.get(o, 0.0)) for o in {*exact, *law}),
                outside_support=sum(k for outcome, k in drawn.items() if outcome not in exact),
                relation_failures=sum(not relation(outcome) for outcome in exact)
                + sum(k for outcome, k in drawn.items() if not relation(outcome)),
            )
        )
    return VerifyReport(samples=samples, circuits=tuple(reports))
