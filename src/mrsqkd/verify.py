"""Backend cross-verification on scripted circuits.

Each script prepares a few Bell pairs (optionally tampered into other
Bell states), runs a measurement plan, and carries the algebraic
relation its outcomes must satisfy. The dense backend enumerates the
exact outcome distribution; the pair-block stabilizer backend
(``Backend.TABLEAU``) is sampled and compared against it with a
chi-square test. Every outcome, exact or sampled, is also checked
against the cycle XOR rule or the generalized chain relation, which is
what grounds the derived values used all over the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bell_algebra import (
    BellType,
    ChainSpec,
    bell_from_code,
    chain_relation_holds,
    xor_rule_holds,
)
from .engine import (
    Backend,
    BellMeasure,
    GateName,
    PlanStep,
    Register,
    ZMeasure,
    derive_seed,
    new_register,
)

# Samples drawn in batches of this many shots, each shot using a fresh
# block of qubits inside one register.
_BATCH_SHOTS = 64

PrepOp = tuple  # ("bell", a, b) or ("gate", GateName, q)


@dataclass(frozen=True)
class CircuitScript:
    name: str
    qubits: int
    prep: tuple[PrepOp, ...]
    plan: tuple[PlanStep, ...]
    relation: Optional[Callable[[tuple], bool]]


def _prep_pair(ops: list[PrepOp], a: int, b: int, code: int) -> None:
    """phi+ on (a, b), then gates mapping it to the Bell state ``code``."""
    ops.append(("bell", a, b))
    if code & 2:
        ops.append(("gate", GateName.X, b))
    if code & 1:
        ops.append(("gate", GateName.Z, a))


def make_cycle(is_codes: Sequence[int], name: str) -> CircuitScript:
    """k pairs Bell-measured in a ring: slot i joins the first qubit of
    pair i with the second qubit of pair i+1 (mod k)."""
    k = len(is_codes)
    ops: list[PrepOp] = []
    for i, code in enumerate(is_codes):
        _prep_pair(ops, 2 * i, 2 * i + 1, code)
    plan = tuple(BellMeasure(2 * i, 2 * ((i + 1) % k) + 1) for i in range(k))
    initials = [bell_from_code(c) for c in is_codes]

    def relation(outcome: tuple) -> bool:
        return xor_rule_holds(initials, list(outcome))

    return CircuitScript(name, 2 * k, tuple(ops), plan, relation)


def make_chain(is_codes: Sequence[int], name: str) -> CircuitScript:
    """Endpoint pairs around j intermediates: the first qubit of the first
    pair and the last qubit of the last pair are Z-measured, then Bell
    measurements run down the line of leftover qubits."""
    k = len(is_codes)
    if k < 2:
        raise ValueError(f"a chain needs at least 2 pairs, got {k}")
    ops: list[PrepOp] = []
    for i, code in enumerate(is_codes):
        _prep_pair(ops, 2 * i, 2 * i + 1, code)
    plan: tuple[PlanStep, ...] = (ZMeasure(0), ZMeasure(2 * k - 1)) + tuple(
        BellMeasure(2 * i + 1, 2 * i + 2) for i in range(k - 1)
    )
    is1 = bell_from_code(is_codes[0])
    is2 = bell_from_code(is_codes[-1])
    mids = tuple(bell_from_code(c) for c in is_codes[1:-1])

    def relation(outcome: tuple) -> bool:
        zmr1, zmr2 = outcome[0], outcome[1]
        return chain_relation_holds(
            ChainSpec(is1, is2, mids, zmr1, zmr2, tuple(outcome[2:]))
        )

    return CircuitScript(name, 2 * k, tuple(ops), plan, relation)


def _gate_on_half(gate: GateName, expected: Optional[BellType]) -> CircuitScript:
    ops: tuple[PrepOp, ...] = (("bell", 0, 1), ("gate", gate, 0))
    relation = None
    if expected is not None:
        relation = lambda outcome: outcome[0] is expected  # noqa: E731
    return CircuitScript(f"half_{gate.value}", 2, ops, (BellMeasure(0, 1),), relation)


def scripted_circuits() -> list[CircuitScript]:
    return [
        CircuitScript("empty", 2, (), (ZMeasure(0), ZMeasure(1)), None),
        make_cycle([0], "original_pair"),
        _gate_on_half(GateName.X, BellType.PSI_PLUS),
        _gate_on_half(GateName.Y, BellType.PSI_MINUS),
        _gate_on_half(GateName.Z, BellType.PHI_MINUS),
        _gate_on_half(GateName.H, None),
        CircuitScript(
            "product_01",
            2,
            (("gate", GateName.X, 1),),
            (BellMeasure(0, 1),),
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


def _apply_prep(reg: Register, prep: Sequence[PrepOp], offset: int) -> None:
    for op in prep:
        if op[0] == "bell":
            reg.prepare_bell_phi_plus(op[1] + offset, op[2] + offset)
        else:
            reg.apply_gate(op[1], op[2] + offset)


def _run_plan(reg: Register, plan: Sequence[PlanStep], offset: int) -> tuple:
    out: list = []
    for step in plan:
        if isinstance(step, ZMeasure):
            out.append(reg.measure_z(step.qubit + offset))
        else:
            out.append(reg.measure_bell(step.a + offset, step.b + offset))
    return tuple(out)


def sample_tableau(script: CircuitScript, samples: int, seed: int) -> list[tuple]:
    """Draw outcome tuples from the pair-block (TABLEAU) backend."""
    outcomes: list[tuple] = []
    remaining = samples
    batch = 0
    while remaining > 0:
        shots = min(_BATCH_SHOTS, remaining)
        reg = new_register(script.qubits * shots, Backend.TABLEAU, derive_seed(seed, batch))
        for shot in range(shots):
            offset = shot * script.qubits
            _apply_prep(reg, script.prep, offset)
            outcomes.append(_run_plan(reg, script.plan, offset))
        remaining -= shots
        batch += 1
    return outcomes


def exact_distribution(script: CircuitScript, seed: int) -> dict[tuple, float]:
    reg = new_register(script.qubits, Backend.DENSE, seed)
    _apply_prep(reg, script.prep, 0)
    return dict(reg.outcome_distribution(script.plan))


@dataclass(frozen=True)
class CircuitReport:
    name: str
    qubits: int
    support_size: int
    samples: int
    chi2: float
    pvalue: float
    outside_support: int
    relation_failures: int
    passed: bool

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status:4s} {self.name:24s} qubits={self.qubits:<3d} "
            f"support={self.support_size:<4d} chi2={self.chi2:9.3f} "
            f"p={self.pvalue:.4f} outside={self.outside_support} "
            f"relation_failures={self.relation_failures}"
        )


@dataclass(frozen=True)
class VerifyReport:
    alpha: float
    samples: int
    circuits: tuple[CircuitReport, ...]
    passed: bool

    def lines(self) -> list[str]:
        out = [c.line() for c in self.circuits]
        out.append(
            f"overall: {'PASS' if self.passed else 'FAIL'} "
            f"({sum(c.passed for c in self.circuits)}/{len(self.circuits)} circuits, "
            f"alpha={self.alpha}, samples={self.samples})"
        )
        return out


def verify_backends(
    max_qubits: int = 12, samples: int = 10000, seed: int = 20240
) -> VerifyReport:
    """Compare pair-block sampling against dense enumeration circuit by
    circuit, and check the swap algebra on every outcome seen."""
    if max_qubits > 24:
        raise ValueError("max_qubits beyond the dense backend cap")
    # Only this command needs scipy; importing it here keeps about a
    # second of start-up off every other command.
    from scipy.stats import chisquare

    alpha = 0.001
    reports = []
    for idx, script in enumerate(scripted_circuits()):
        if script.qubits > max_qubits:
            continue
        circuit_seed = derive_seed(seed, idx)
        exact = exact_distribution(script, circuit_seed)
        relation_failures = 0
        if script.relation is not None:
            relation_failures += sum(
                1 for outcome in exact if not script.relation(outcome)
            )
        drawn = sample_tableau(script, samples, circuit_seed)
        counts: dict[tuple, int] = {}
        outside = 0
        for outcome in drawn:
            if outcome in exact:
                counts[outcome] = counts.get(outcome, 0) + 1
            else:
                outside += 1
            if script.relation is not None and not script.relation(outcome):
                relation_failures += 1
        support = sorted(exact, key=repr)
        if len(support) == 1:
            chi2, pvalue = 0.0, 1.0
        else:
            observed = [counts.get(o, 0) for o in support]
            expected = [exact[o] * (samples - outside) for o in support]
            chi2, pvalue = chisquare(observed, expected)
        passed = outside == 0 and relation_failures == 0 and pvalue >= alpha
        reports.append(
            CircuitReport(
                name=script.name,
                qubits=script.qubits,
                support_size=len(support),
                samples=samples,
                chi2=float(chi2),
                pvalue=float(pvalue),
                outside_support=outside,
                relation_failures=relation_failures,
                passed=passed,
            )
        )
    return VerifyReport(
        alpha=alpha,
        samples=samples,
        circuits=tuple(reports),
        passed=all(r.passed for r in reports),
    )
