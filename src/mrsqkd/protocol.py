"""Three-party protocol state machine and message schedule.

One run: the server prepares n phi+ pairs and sends one wire to each
user; each user Z-measures a uniformly random half of its wire and
returns the rest in a secret random order; the server Bell-measures the
returned wires slot by slot and publishes the results; only then do the
users publish their orders, classify every measurement slot into graph
components (cycles of surviving pairs, or chains ending in two collapsed
qubits), run the consistency checks, and distill a raw key from doubly
measured positions and single-slot chains. Completed runs finish with
Toeplitz privacy amplification under a transcript-carried seed, which
``Outcome`` applies when its final keys are first read.

Positions, slots and qubits are 0-based throughout. Inside a run the
server's announcement is a string of Bell codes (p << 1) | s, one byte
per slot, and step 4 works on plain rows and ints. The records made from
them, about 130 ``Component`` and ``Case4Disclose`` named tuples at
n=256 and the ``BellType`` members of ``MRAnnounce``, are built when
first read: ``Classification.components``, ``Step4Result.disclosures``
and ``Transcript.records``. A campaign reads none of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import cycle, repeat
from time import perf_counter_ns
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bell_algebra import _BELL_BY_CODE, BellType
# Step 4 evaluates these identities inline, by XOR of the codes; they stay
# importable here, where perfbench's tracer wraps them, as the reference
# the inline checks are tested against.
from .bell_algebra import chain_relation_holds, infer_remote_bit, xor_rule_holds  # noqa: F401
from .engine import (
    Backend,
    Register,
    derive_seed,
    new_register,
    philox,
)
from .privacy import PAParams, amplify, check_input, output_length, seed_length


class Role(Enum):
    ALICE = "ALICE"
    BOB = "BOB"


_ALICE, _BOB = Role.ALICE, Role.BOB


class ComponentKind(Enum):
    CYCLE = "CYCLE"
    CHAIN = "CHAIN"


_CYCLE, _CHAIN = ComponentKind.CYCLE, ComponentKind.CHAIN


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


class Case4Disclose(NamedTuple):
    """One endpoint bit of a multi-slot chain, disclosed for its check."""

    role: Role
    position: int
    bit: int

    def line(self) -> str:
        return f"CASE4_DISCLOSE role={self.role.value} position={self.position} bit={self.bit}"


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
    """Every classical message of one run, in the order of the schedule.

    The MR announcement always precedes the order announcements; that
    ordering is what the security of the checks rests on, and the records
    are built in it. A campaign reads no transcript, so they are built
    from the run's published data when first read.
    """

    def __init__(self, n: int, mr: bytes, alice: PartyState, bob: PartyState,
                 evaluation: Step4Result, outcome: Outcome) -> None:
        self._run = (n, mr, alice, bob, evaluation, outcome)

    @cached_property
    def records(self) -> tuple[TranscriptRecord, ...]:
        n, mr, alice, bob, evaluation, outcome = self._run
        half = n // 2
        if outcome.pa is None:
            last = AbortRecord(outcome.abort_stage, outcome.abort_component)
        else:
            last = PASeed(outcome.pa.ratio, outcome.pa.seed_bits)
        return (
            QuantumSend("TP->ALICE", n), QuantumSend("TP->BOB", n),
            QuantumSend("ALICE->TP", half), QuantumSend("BOB->TP", half),
            MRAnnounce(tuple(map(_BELL_BY_CODE.__getitem__, mr))),
            OrderAnnounce(_ALICE, alice.send_order, alice.measured_positions),
            OrderAnnounce(_BOB, bob.send_order, bob.measured_positions),
            *evaluation.disclosures, last,
        )

    def render(self) -> str:
        """Line-oriented text form, one record per line."""
        return "\n".join(r.line() for r in self.records) + "\n"


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
    measured_positions: tuple[int, ...]
    send_order: tuple[int, ...]
    z_results: dict[int, int] = field(default_factory=dict)


class Component(NamedTuple):
    """One connected piece of the pairing graph.

    Cycles consist purely of surviving pairs; chains run between two
    collapsed qubits that always sit on opposite wires: ``endpoint_a`` is
    the position Alice measured (its collapsed partner travels on Bob's
    wire), ``endpoint_b`` the position Bob measured. A chain of k slots
    strings k - 1 surviving pairs between its endpoints: the wire-A
    qubits of every slot after the first.
    """

    kind: ComponentKind
    slots: tuple[int, ...]
    endpoint_a: Optional[int] = None
    endpoint_b: Optional[int] = None

    @property
    def length(self) -> int:
        return len(self.slots)

    @property
    def group(self) -> int:
        """1/2: cycle of one/more slots; 3/4: chain of one/more slots."""
        return (2 if self.kind is _CYCLE else 4) - (len(self.slots) == 1)


@dataclass(frozen=True)
class Classification:
    """Case-1 positions in ascending order, and the components in
    ascending order of their first slot, each a plain row
    (kind, slots, endpoint_a, endpoint_b) that ``components`` reads as a
    ``Component``."""

    case1_positions: tuple[int, ...]
    rows: tuple[tuple, ...]

    @cached_property
    def components(self) -> tuple[Component, ...]:
        return tuple(map(Component._make, self.rows))


@dataclass(frozen=True)
class Step4Result:
    # Per component, in the classification's order: whether its check
    # passed, or None for a single-slot chain (nothing to check).
    verdicts: tuple[Optional[bool], ...]
    # Per multi-slot chain: Alice's endpoint and its bit, then Bob's.
    disclosed: tuple[int, ...]
    raw_key_alice: tuple[int, ...]
    raw_key_bob: tuple[int, ...]
    abort: Optional[tuple[str, int]]  # (stage, component index)
    # Components (checks) and passed checks per group, index 1-4.
    checks: tuple[int, ...]
    passed: tuple[int, ...]

    @cached_property
    def disclosures(self) -> tuple[Case4Disclose, ...]:
        d = self.disclosed  # positions at even indexes, bits at odd ones
        return tuple(map(Case4Disclose, cycle((_ALICE, _BOB)), d[::2], d[1::2]))


@dataclass(frozen=True)
class Outcome:
    """How a run ended. A completed run keeps its two raw keys and its
    privacy amplification parameters ``pa``. Its final keys are computed
    on first read, since a campaign reads only their length; the checks
    ``amplify`` makes on its inputs run at construction. An aborted run
    reads None for every key."""

    status: RunStatus
    raw_key_alice: Optional[tuple[int, ...]]
    raw_key_bob: Optional[tuple[int, ...]]
    pa: Optional[PAParams] = None
    abort_stage: Optional[str] = None
    abort_component: Optional[int] = None

    def __post_init__(self) -> None:
        if self.status is not RunStatus.COMPLETED:
            return
        keys = (self.raw_key_alice, self.raw_key_bob)
        if None in keys or len(keys[0]) != len(keys[1]):
            raise ValueError("a completed outcome needs two raw keys of equal length")
        if self.pa is None:
            raise ValueError("a completed outcome needs its privacy amplification parameters")
        for key in keys:
            check_input(key, self.pa)

    @cached_property
    def final_key_alice(self) -> Optional[tuple[int, ...]]:
        return None if self.pa is None else tuple(amplify(self.raw_key_alice, self.pa))

    @cached_property
    def final_key_bob(self) -> Optional[tuple[int, ...]]:
        return None if self.pa is None else tuple(amplify(self.raw_key_bob, self.pa))


@dataclass(frozen=True)
class RunStats:
    """Per-trial outcome record: the harness's CSV row, one column per
    field in field order."""

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


@dataclass(frozen=True)
class RunResult:
    outcome: Outcome
    transcript: Transcript
    stats: RunStats
    classification: Classification
    evaluation: Step4Result  # per-component verdicts, in the classification's order
    hooks: object  # the per-run strategy hooks, exposed for inspection
    stage_ns: tuple[int, ...] = field(compare=False)  # perf_counter_ns() bounding STAGES


# --------------------------------------------------------------------------
# Protocol steps


def party_step2(rng: np.random.Generator, n: int) -> PartyState:
    """Choose a uniform n/2 subset to measure and an independent uniform
    order for the retained qubits."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    perm = rng.permutation(n)
    measured = tuple(np.sort(perm[:half]).tolist())
    send_order = tuple(np.sort(perm[half:])[rng.permutation(half)].tolist())
    return PartyState(measured_positions=measured, send_order=send_order)


def tp_step1(engine: Register, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Prepare n phi+ pairs; first qubits form wire A, second qubits wire B.
    A register under 2n qubits is refused by ``Register.prepare_pairs``,
    with the ValueError that names the first pair it cannot hold."""
    wire_a, wire_b = range(n), range(n, 2 * n)
    engine.prepare_pairs(wire_a, wire_b)
    return tuple(wire_a), tuple(wire_b)


def tp_step3_honest(engine: Register, q1: Sequence[int], q2: Sequence[int]) -> tuple[int, ...]:
    """Bell-measure slot k of both returned wires, in ascending k: the
    Bell codes (ValueError if the wires differ in length)."""
    return tuple(engine.measure_bell_many(q1, q2))


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
    if n < 2 or n % 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    half = n // 2
    positions = set(range(n))
    for name, measured, order in (("A", measured_a, order_a), ("B", measured_b, order_b)):
        # n/2 measured and n/2 ordered positions that together cover 0..n-1:
        # an n/2 subset and a permutation of the rest.
        if len(measured) != half or len(order) != half or measured.union(order) != positions:
            if len(measured) != half or not measured <= positions:
                raise ValueError(f"measured set {name} is not an n/2 subset of 0..n-1")
            raise ValueError(f"order {name} is not a permutation of the retained positions")
    case1 = tuple(sorted(measured_a & measured_b))
    # The slot after slot k: the one whose wire-A qubit shares a pair with
    # slot k's wire-B qubit, or -1 if Alice measured that pair's qubit.
    # The orders are permutations, so no two slots share a successor.
    slot_of = dict(zip(order_a, range(half)))
    succ = list(map(slot_of.get, order_b, repeat(-1)))
    # The row of the component whose first slot is k; False for a later slot.
    first: list = [None] * half

    # Chains: walk from every slot whose wire-A member is a collapsed qubit
    # (position measured by Bob) to the opposite collapsed end.
    for p1 in measured_b.intersection(order_a):
        k = k2 = slot_of[p1]
        slots = [k]
        while (k2 := succ[k2]) >= 0:
            slots.append(k2)
            first[k2] = False
        first[k] = (_CHAIN, tuple(slots), order_b[slots[-1]], p1)

    # Everything left closes into cycles of surviving pairs, each met
    # first at its lowest slot.
    while None in first:
        k = k2 = first.index(None)
        slots = [k]
        while (k2 := succ[k2]) != k:
            slots.append(k2)
            first[k2] = False
        first[k] = (_CYCLE, tuple(slots), None, None)

    # A tuple of a filter is built by resizing, which left tuples piling up
    # in CPython's per-size free lists (3 MB over a parity-n64 benchmark run).
    return Classification(case1, tuple([row for row in first if row]))


def evaluate_step4(
    classification: Classification,
    mr: Sequence[int],
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

    Every pair starts in phi+, code 0, so the identities of
    ``bell_algebra`` reduce to the XOR of a component's announced codes
    ``mr`` (ints or ``BellType`` members): a cycle passes when it is 0,
    and a chain's far endpoint bit is the near one XOR its parity bit.
    One pass records each verdict, Case-3 bit and disclosure, the first
    abort, and the checks and passes per group.

    Key order: Case-1 bits by ascending position, then Case-3 bits by
    ascending slot, which is the order of the components.
    """
    za_of, zb_of = alice.z_results, bob.z_results
    raw_a = [za_of[p] for p in classification.case1_positions]
    raw_b = [zb_of[p] for p in classification.case1_positions]
    verdicts: list[Optional[bool]] = []
    disclosed: list[int] = []
    checks = [0] * 5
    passed = [0] * 5
    abort: Optional[tuple[str, int]] = None
    for kind, slots, end_a, end_b in classification.rows:
        code = 0  # the XOR of the component's Bell codes
        for k in slots:
            code ^= mr[k]
        if kind is _CYCLE:  # XOR rule
            group, ok = (1 if len(slots) == 1 else 2), code == 0
        elif end_a is None or end_b is None:
            raise ValueError("every chain needs both endpoints")
        elif len(slots) == 1:  # Case 3: Bob infers Alice's bit
            raw_a.append(za_of[end_a])
            raw_b.append(zb_of[end_b] ^ (code >> 1))
            group, ok = 3, None
        else:  # Case 4: chain relation on the disclosed endpoint bits
            za, zb = za_of[end_a], zb_of[end_b]
            disclosed += (end_a, za, end_b, zb)
            group, ok = 4, zb == za ^ (code >> 1)
        checks[group] += 1
        if ok:
            passed[group] += 1
        elif ok is False and abort is None:
            abort = ("CASE2" if kind is _CYCLE else "CASE4", len(verdicts))
        verdicts.append(ok)

    return Step4Result(
        verdicts=tuple(verdicts),
        disclosed=tuple(disclosed),
        raw_key_alice=tuple(raw_a),
        raw_key_bob=tuple(raw_b),
        abort=abort,
        checks=tuple(checks),
        passed=tuple(passed),
    )


# --------------------------------------------------------------------------
# Full run

STAGES = ("setup", "prep", "choices", "z", "bell", "classify", "evaluate", "pa", "stats")


def run_protocol(config: ProtocolConfig, strategy, trial_id: int = 0) -> RunResult:
    """Execute one full run against the given server strategy.

    The strategy supplies per-run hooks (see the adversary module); the
    schedule itself and the evaluation are fixed here, and the transcript
    ordering in ``Transcript``, identical for honest and adversarial servers.
    """
    marks = [perf_counter_ns()]
    n = config.n
    strategy.check_fits(n)
    engine = new_register(2 * n, config.backend, derive_seed(config.seed, 0))
    alice_rng = philox(derive_seed(config.seed, 1))
    bob_rng = philox(derive_seed(config.seed, 2))
    hooks = strategy.instantiate(philox(derive_seed(config.seed, 3)))
    marks.append(perf_counter_ns())

    # Step 1: prepare and send out both wires (possibly tampered).
    wire_a, wire_b = hooks.prepare(engine, n)
    wire_a, wire_b = hooks.on_outbound(engine, (wire_a, wire_b))
    marks.append(perf_counter_ns())

    # Step 2: each user measures half and returns the rest reordered.
    alice = party_step2(alice_rng, n)
    bob = party_step2(bob_rng, n)
    marks.append(perf_counter_ns())
    for party, wire in ((alice, wire_a), (bob, wire_b)):
        positions = party.measured_positions
        qubits = tuple(map(wire.__getitem__, positions))
        party.z_results.update(zip(positions, engine.measure_z_many(qubits)))
    q1 = tuple(map(wire_a.__getitem__, alice.send_order))
    q2 = tuple(map(wire_b.__getitem__, bob.send_order))
    marks.append(perf_counter_ns())

    # Step 3: the announcement commits before any order is revealed.
    mr = _announced_codes(hooks.on_return(engine, q1, q2), len(q1))
    marks.append(perf_counter_ns())

    # Step 4: orders out, classification, checks.
    classification = classify_components(
        alice.measured_positions, bob.measured_positions,
        alice.send_order, bob.send_order, n,
    )
    marks.append(perf_counter_ns())
    evaluation = evaluate_step4(classification, mr, alice, bob)
    marks.append(perf_counter_ns())

    if evaluation.abort is not None:
        stage, comp_idx = evaluation.abort
        outcome = Outcome(RunStatus.ABORTED, None, None,
                          abort_stage=stage, abort_component=comp_idx)
    else:
        # Step 5: privacy amplification under a shared, published seed;
        # the outcome hashes the raw keys when its final keys are read.
        raw_a = evaluation.raw_key_alice
        raw_b = evaluation.raw_key_bob
        n_seed = seed_length(len(raw_a), config.pa_ratio)
        seed_bits = tuple(alice_rng.integers(0, 2, size=n_seed, dtype=np.uint8).tolist())
        outcome = Outcome(RunStatus.COMPLETED, raw_a, raw_b, PAParams(config.pa_ratio, seed_bits))
    transcript = Transcript(n, mr, alice, bob, evaluation, outcome)
    marks.append(perf_counter_ns())

    stats = _build_stats(trial_id, config, strategy, classification, evaluation, outcome)
    marks.append(perf_counter_ns())
    return RunResult(outcome, transcript, stats, classification, evaluation, hooks, tuple(marks))


def _announced_codes(results: Iterable[int], slots: int) -> bytes:
    """The server's announcement as Bell codes, one byte each: ValueError
    unless it is one int in 0..3 per slot (each ``BellType`` member is one)."""
    try:
        codes = bytes(tuple(results))
    except (TypeError, ValueError):  # not a sequence of ints in 0..255
        codes = b"?"
    if len(codes) != slots or codes.translate(None, b"\x00\x01\x02\x03"):
        raise ValueError("strategy announced a malformed measurement-result list")
    return codes


def _build_stats(
    trial_id: int,
    config: ProtocolConfig,
    strategy,
    classification: Classification,
    evaluation: Step4Result,
    outcome: Outcome,
) -> RunStats:
    count, passed = evaluation.checks, evaluation.passed
    completed = outcome.status is RunStatus.COMPLETED
    raw_len = len(outcome.raw_key_alice) if completed else None
    abort_kind = None if completed else classification.rows[outcome.abort_component][0]
    return RunStats(
        trial=trial_id,
        n=config.n,
        strategy=strategy.describe(),
        status=outcome.status,
        abort_stage=outcome.abort_stage,
        abort_component=abort_kind,
        raw_key_len=raw_len,
        final_key_len=output_length(raw_len, config.pa_ratio) if completed else None,
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
    )
