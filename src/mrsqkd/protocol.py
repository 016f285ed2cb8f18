"""Three-party protocol state machine and message schedule.

One run: the server prepares n phi+ pairs and sends one wire to each
user; each user Z-measures a uniformly random half of its wire and
returns the rest in a secret random order; the server Bell-measures the
returned wires slot by slot and publishes the results; only then do the
users publish their orders, classify every measurement slot into graph
components (cycles of surviving pairs, or chains ending in two collapsed
qubits), run the consistency checks, and distill a raw key from doubly
measured positions and single-slot chains. Completed runs finish with
Toeplitz privacy amplification under a transcript-carried seed.

Positions, slots and qubits are 0-based throughout.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .bell_algebra import (
    BellType,
    ChainSpec,
    chain_relation_holds,
    infer_remote_bit,
    xor_rule_holds,
)
from .engine import Backend, CapacityError, Register, derive_seed, new_register, philox
from .privacy import PAParams, amplify, seed_length


class Role(Enum):
    ALICE = "ALICE"
    BOB = "BOB"


class ComponentKind(Enum):
    CYCLE = "CYCLE"
    CHAIN = "CHAIN"


class RunStatus(Enum):
    COMPLETED = "COMPLETED"
    ABORTED = "ABORTED"


# --------------------------------------------------------------------------
# Transcript records


@dataclass(frozen=True)
class QuantumSend:
    direction: str
    count: int

    def line(self) -> str:
        return f"QUANTUM_SEND dir={self.direction} count={self.count}"


@dataclass(frozen=True)
class MRAnnounce:
    results: tuple[BellType, ...]

    def line(self) -> str:
        return "MR_ANNOUNCE results=" + ",".join(v.name for v in self.results)


@dataclass(frozen=True)
class OrderAnnounce:
    role: Role
    order: tuple[int, ...]
    measured: tuple[int, ...]

    def line(self) -> str:
        order = ",".join(map(str, self.order))
        measured = ",".join(map(str, self.measured))
        return f"ORDER_ANNOUNCE role={self.role.value} order={order} measured={measured}"


@dataclass(frozen=True)
class Case4Disclose:
    role: Role
    position: int
    bit: int

    def line(self) -> str:
        return (
            f"CASE4_DISCLOSE role={self.role.value} "
            f"position={self.position} bit={self.bit}"
        )


@dataclass(frozen=True)
class AbortRecord:
    stage: str
    component: int

    def line(self) -> str:
        return f"ABORT stage={self.stage} component={self.component}"


@dataclass(frozen=True)
class PASeed:
    ratio: Fraction
    bits: tuple[int, ...]

    def line(self) -> str:
        return f"PA_SEED ratio={self.ratio} bits=" + "".join(map(str, self.bits))


TranscriptRecord = (
    QuantumSend | MRAnnounce | OrderAnnounce | Case4Disclose | AbortRecord | PASeed
)


class Transcript:
    """Append-only record of every classical message in one run.

    The MR announcement always precedes the order announcements; that
    ordering is what the security of the checks rests on, so it is
    enforced at append time.
    """

    def __init__(self) -> None:
        self._records: list[TranscriptRecord] = []

    def _append(self, record: TranscriptRecord) -> None:
        if isinstance(record, OrderAnnounce) and not any(
            isinstance(r, MRAnnounce) for r in self._records
        ):
            raise ValueError("order announcement before MR announcement")
        self._records.append(record)

    @property
    def records(self) -> tuple[TranscriptRecord, ...]:
        return tuple(self._records)

    def render(self) -> str:
        """Line-oriented text form, one record per line."""
        return "\n".join(r.line() for r in self._records) + "\n"


# --------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    seed: int
    backend: Backend = Backend.TABLEAU
    pa_ratio: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if self.n < 2 or self.n % 2:
            raise ValueError(f"n must be even and >= 2, got {self.n}")
        object.__setattr__(self, "pa_ratio", Fraction(self.pa_ratio))
        if not (0 < self.pa_ratio <= 1):
            raise ValueError(f"pa_ratio must be in (0, 1], got {self.pa_ratio}")


@dataclass
class PartyState:
    role: Role
    measured_positions: tuple[int, ...]
    send_order: tuple[int, ...]
    z_results: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Component:
    """One connected piece of the pairing graph.

    Cycles consist purely of surviving pairs; chains run between two
    collapsed qubits that always sit on opposite wires: ``endpoint_a`` is
    the position Alice measured (its collapsed partner travels on Bob's
    wire), ``endpoint_b`` the position Bob measured.
    """

    kind: ComponentKind
    slots: tuple[int, ...]
    endpoint_a: Optional[int] = None
    endpoint_b: Optional[int] = None
    intermediates: tuple[int, ...] = ()

    @property
    def length(self) -> int:
        return len(self.slots)

    @property
    def group(self) -> int:
        if self.kind is ComponentKind.CYCLE:
            return 1 if self.length == 1 else 2
        return 3 if self.length == 1 else 4


@dataclass(frozen=True)
class Classification:
    """Case-1 positions in ascending order, and the components in
    ascending order of their first slot."""

    case1_positions: tuple[int, ...]
    components: tuple[Component, ...]


@dataclass(frozen=True)
class ComponentCheck:
    component: Component
    passed: Optional[bool]  # None for single-slot chains (nothing to check)


@dataclass(frozen=True)
class Step4Result:
    checks: tuple[ComponentCheck, ...]
    disclosures: tuple[Case4Disclose, ...]
    raw_key_alice: tuple[int, ...]
    raw_key_bob: tuple[int, ...]
    abort: Optional[tuple[str, int]]  # (stage, component index)


@dataclass(frozen=True)
class Outcome:
    status: RunStatus
    raw_key_alice: Optional[tuple[int, ...]]
    raw_key_bob: Optional[tuple[int, ...]]
    final_key_alice: Optional[tuple[int, ...]]
    final_key_bob: Optional[tuple[int, ...]]
    abort_stage: Optional[str] = None
    abort_component: Optional[int] = None

    def __post_init__(self) -> None:
        keys = (self.raw_key_alice, self.raw_key_bob)
        if self.status is RunStatus.COMPLETED and (None in keys or len(keys[0]) != len(keys[1])):
            raise ValueError("a completed outcome needs two raw keys of equal length")


@dataclass(frozen=True)
class RunStats:
    """Per-trial outcome record. Every field but the last is a CSV column
    of the harness, in field order."""

    trial: int
    n: int
    strategy: str
    status: RunStatus
    abort_stage: Optional[str]
    abort_component: Optional[ComponentKind]
    raw_key_len: Optional[int]
    final_key_len: Optional[int]
    keys_match: Optional[bool]
    case1_bits: int
    case3_bits: int
    case4_disclosed_bits: int
    cycle_components: int
    chain_components: int
    group1_checks: int
    group1_passed: int
    group2_checks: int
    group2_passed: int
    case4_checks: int
    case4_passed: int
    qubit_total: int
    # (kind, length, passed) per component, for per-length rate studies;
    # not part of the CSV schema.
    component_checks: tuple[tuple[str, int, Optional[bool]], ...] = ()


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    transcript: Transcript
    stats: RunStats
    hooks: object  # the per-run strategy hooks, exposed for inspection


# --------------------------------------------------------------------------
# Protocol steps


def party_step2(rng: np.random.Generator, n: int, role: Role = Role.ALICE) -> PartyState:
    """Choose a uniform n/2 subset to measure and an independent uniform
    order for the retained qubits."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    perm = rng.permutation(n)
    measured = tuple(np.sort(perm[:half]).tolist())
    send_order = tuple(np.sort(perm[half:])[rng.permutation(half)].tolist())
    return PartyState(role=role, measured_positions=measured, send_order=send_order)


def tp_step1(engine: Register, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prepare n phi+ pairs; first qubits form wire A, second qubits wire B."""
    if engine.size < 2 * n:
        raise CapacityError(f"register of {engine.size} qubits cannot hold {n} pairs")
    wire_a = tuple(range(n))
    wire_b = tuple(range(n, 2 * n))
    for i in range(n):
        engine.prepare_bell_phi_plus(wire_a[i], wire_b[i])
    return wire_a, wire_b


def tp_step3_honest(
    engine: Register, q1: Sequence[int], q2: Sequence[int]
) -> tuple[BellType, ...]:
    """Bell-measure slot k of both returned wires, in ascending k."""
    if len(q1) != len(q2):
        raise ValueError(f"wire length mismatch: {len(q1)} vs {len(q2)}")
    return tuple(engine.measure_bell(a, b) for a, b in zip(q1, q2))


def _validate_step2_inputs(
    measured_a: set[int],
    measured_b: set[int],
    order_a: Sequence[int],
    order_b: Sequence[int],
    n: int,
) -> None:
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    for name, measured, order in (
        ("A", measured_a, order_a),
        ("B", measured_b, order_b),
    ):
        if len(measured) != half or not all(0 <= p < n for p in measured):
            raise ValueError(f"measured set {name} is not an n/2 subset of 0..n-1")
        if sorted(order) != sorted(set(range(n)) - measured):
            raise ValueError(f"order {name} is not a permutation of the retained positions")


def classify_components(
    measured_a: Iterable[int],
    measured_b: Iterable[int],
    order_a: Sequence[int],
    order_b: Sequence[int],
    n: int,
) -> Classification:
    """Decompose the server's slot pairing into graph components.

    Edges are the measurement slots (joining the two returned wires) and
    the surviving pairs (joining a position's two wire qubits). Doubly
    measured positions touch no slot and come back as Case-1 records.
    """
    measured_a = set(measured_a)
    measured_b = set(measured_b)
    _validate_step2_inputs(measured_a, measured_b, order_a, order_b, n)
    half = n // 2
    pos1_to_slot = {p: k for k, p in enumerate(order_a)}
    case1 = tuple(sorted(measured_a & measured_b))

    visited = [False] * half
    components: list[Component] = []

    # Chains: walk from every slot whose wire-A member is a collapsed qubit
    # (position measured by Bob) to the opposite collapsed end.
    for k in range(half):
        if visited[k]:
            continue
        p1 = order_a[k]
        if p1 not in measured_b:
            continue
        slots = [k]
        visited[k] = True
        intermediates: list[int] = []
        q = order_b[k]
        while q not in measured_a:
            intermediates.append(q)
            k2 = pos1_to_slot[q]
            if visited[k2]:
                raise ValueError("pairing graph is not degree-limited")
            slots.append(k2)
            visited[k2] = True
            q = order_b[k2]
        components.append(
            Component(
                ComponentKind.CHAIN,
                tuple(slots),
                endpoint_a=q,
                endpoint_b=p1,
                intermediates=tuple(intermediates),
            )
        )

    # Everything left closes into cycles of surviving pairs.
    for k in range(half):
        if visited[k]:
            continue
        start = order_a[k]
        slots = [k]
        visited[k] = True
        q = order_b[k]
        while q != start:
            k2 = pos1_to_slot[q]
            if visited[k2]:
                raise ValueError("pairing graph is not degree-limited")
            slots.append(k2)
            visited[k2] = True
            q = order_b[k2]
        components.append(Component(ComponentKind.CYCLE, tuple(slots)))

    components.sort(key=lambda c: c.slots[0])
    return Classification(case1, tuple(components))


def evaluate_step4(
    classification: Classification,
    mr: Sequence[BellType],
    alice: PartyState,
    bob: PartyState,
) -> Step4Result:
    """Run every component's consistency check and extract the raw keys.

    Case 1 and Case 3 contribute key bits without disclosure (Bob infers
    the Case-3 bit from his own result and the published parity). Case 2
    cycles must satisfy the two-bit XOR rule; Case 4 chains disclose both
    endpoint bits and must satisfy the chain relation. Checks depend only
    on published data plus the disclosed bits, so both users reach
    identical verdicts by construction; the first failing component in
    canonical order sets the abort stage. All checks are still evaluated
    so per-component statistics stay meaningful for attack studies.

    Key order: Case-1 bits by ascending position, then Case-3 bits by
    ascending slot, which is the order of the components.
    """
    phi = BellType.PHI_PLUS
    raw_a = [alice.z_results[p] for p in classification.case1_positions]
    raw_b = [bob.z_results[p] for p in classification.case1_positions]
    checks: list[ComponentCheck] = []
    disclosures: list[Case4Disclose] = []
    abort: Optional[tuple[str, int]] = None
    for idx, comp in enumerate(classification.components):
        passed: Optional[bool] = None
        if comp.kind is ComponentKind.CYCLE:
            passed = xor_rule_holds([phi] * comp.length, [mr[k] for k in comp.slots])
            stage = "CASE2"
        elif comp.endpoint_a is None or comp.endpoint_b is None:
            raise ValueError("every chain needs both endpoints")
        elif comp.length == 1:
            raw_a.append(alice.z_results[comp.endpoint_a])
            own = bob.z_results[comp.endpoint_b]
            raw_b.append(infer_remote_bit(own, phi, phi, (), (mr[comp.slots[0]],)))
        else:
            za = alice.z_results[comp.endpoint_a]
            zb = bob.z_results[comp.endpoint_b]
            disclosures.append(Case4Disclose(Role.ALICE, comp.endpoint_a, za))
            disclosures.append(Case4Disclose(Role.BOB, comp.endpoint_b, zb))
            spec = ChainSpec(is1=phi, is2=phi, intermediates=(phi,) * len(comp.intermediates),
                             zmr1=za, zmr2=zb, mrs=tuple(mr[k] for k in comp.slots))
            passed = chain_relation_holds(spec)
            stage = "CASE4"
        checks.append(ComponentCheck(comp, passed))
        if passed is False and abort is None:
            abort = (stage, idx)

    return Step4Result(
        checks=tuple(checks),
        disclosures=tuple(disclosures),
        raw_key_alice=tuple(raw_a),
        raw_key_bob=tuple(raw_b),
        abort=abort,
    )


# --------------------------------------------------------------------------
# Full run


def run_protocol(config: ProtocolConfig, strategy, trial_id: int = 0) -> RunResult:
    """Execute one full run against the given server strategy.

    The strategy supplies per-run hooks (see the adversary module); the
    schedule itself, the transcript ordering and the evaluation are fixed
    here and identical for honest and adversarial servers.
    """
    n = config.n
    half = n // 2
    engine = new_register(2 * n, config.backend, derive_seed(config.seed, 0))
    alice_rng = philox(derive_seed(config.seed, 1))
    bob_rng = philox(derive_seed(config.seed, 2))
    hooks = strategy.instantiate(philox(derive_seed(config.seed, 3)))
    transcript = Transcript()

    # Step 1: prepare and send out both wires (possibly tampered).
    wire_a, wire_b = hooks.prepare(engine, n)
    transcript._append(QuantumSend("TP->ALICE", n))
    transcript._append(QuantumSend("TP->BOB", n))
    wire_a, wire_b = hooks.on_outbound(engine, (wire_a, wire_b))

    # Step 2: each user measures half and returns the rest reordered.
    alice = party_step2(alice_rng, n, Role.ALICE)
    bob = party_step2(bob_rng, n, Role.BOB)
    for p in alice.measured_positions:
        alice.z_results[p] = engine.measure_z(wire_a[p])
    for p in bob.measured_positions:
        bob.z_results[p] = engine.measure_z(wire_b[p])
    q1 = tuple(wire_a[p] for p in alice.send_order)
    q2 = tuple(wire_b[p] for p in bob.send_order)
    transcript._append(QuantumSend("ALICE->TP", half))
    transcript._append(QuantumSend("BOB->TP", half))

    # Step 3: the announcement commits before any order is revealed.
    mr = tuple(hooks.on_return(engine, q1, q2))
    if len(mr) != half or not all(isinstance(v, BellType) for v in mr):
        raise ValueError("strategy announced a malformed measurement-result list")
    transcript._append(MRAnnounce(mr))

    # Step 4: orders out, classification, checks.
    transcript._append(OrderAnnounce(Role.ALICE, alice.send_order, alice.measured_positions))
    transcript._append(OrderAnnounce(Role.BOB, bob.send_order, bob.measured_positions))
    hooks.on_orders_revealed(
        alice.send_order, alice.measured_positions, bob.send_order, bob.measured_positions
    )
    classification = classify_components(
        alice.measured_positions, bob.measured_positions,
        alice.send_order, bob.send_order, n,
    )
    evaluation = evaluate_step4(classification, mr, alice, bob)
    for disclosure in evaluation.disclosures:
        transcript._append(disclosure)

    if evaluation.abort is not None:
        stage, comp_idx = evaluation.abort
        transcript._append(AbortRecord(stage, comp_idx))
        outcome = Outcome(
            status=RunStatus.ABORTED,
            raw_key_alice=None,
            raw_key_bob=None,
            final_key_alice=None,
            final_key_bob=None,
            abort_stage=stage,
            abort_component=comp_idx,
        )
    else:
        # Step 5: privacy amplification under a shared, published seed.
        raw_a = evaluation.raw_key_alice
        raw_b = evaluation.raw_key_bob
        n_seed = seed_length(len(raw_a), config.pa_ratio)
        seed_bits = tuple(
            int(b) for b in alice_rng.integers(0, 2, size=n_seed, dtype=np.uint8)
        )
        transcript._append(PASeed(config.pa_ratio, seed_bits))
        params = PAParams(config.pa_ratio, seed_bits)
        outcome = Outcome(
            status=RunStatus.COMPLETED,
            raw_key_alice=raw_a,
            raw_key_bob=raw_b,
            final_key_alice=tuple(amplify(raw_a, params)),
            final_key_bob=tuple(amplify(raw_b, params)),
        )

    stats = _build_stats(trial_id, config, strategy, classification, evaluation, outcome)
    return RunResult(outcome, transcript, stats, hooks)


def _build_stats(
    trial_id: int,
    config: ProtocolConfig,
    strategy,
    classification: Classification,
    evaluation: Step4Result,
    outcome: Outcome,
) -> RunStats:
    # Components and passed checks per group (index 1-4).
    count = [0] * 5
    passed = [0] * 5
    for check in evaluation.checks:
        group = check.component.group
        count[group] += 1
        passed[group] += check.passed is True
    completed = outcome.status is RunStatus.COMPLETED
    abort_kind = None
    if outcome.abort_component is not None:
        abort_kind = evaluation.checks[outcome.abort_component].component.kind
    return RunStats(
        trial=trial_id,
        n=config.n,
        strategy=strategy.describe(),
        status=outcome.status,
        abort_stage=outcome.abort_stage,
        abort_component=abort_kind,
        raw_key_len=len(outcome.raw_key_alice) if completed else None,
        final_key_len=len(outcome.final_key_alice) if completed else None,
        keys_match=(outcome.raw_key_alice == outcome.raw_key_bob) if completed else None,
        case1_bits=len(classification.case1_positions),
        case3_bits=count[3],
        case4_disclosed_bits=2 * count[4],
        cycle_components=count[1] + count[2],
        chain_components=count[3] + count[4],
        group1_checks=count[1],
        group1_passed=passed[1],
        group2_checks=count[2],
        group2_passed=passed[2],
        case4_checks=count[4],
        case4_passed=passed[4],
        qubit_total=2 * config.n,
        component_checks=tuple(
            (c.component.kind.value, c.component.length, c.passed)
            for c in evaluation.checks
        ),
    )
