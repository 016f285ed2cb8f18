"""Pluggable server behaviors: the honest third party, the two analyzed
measure-and-fake attacks, and the gate modification attack.

A strategy is an immutable description; instantiating it yields per-run
hooks whose state never leaks across runs. The hook order mirrors the
protocol schedule: prepare, on_outbound (before the wires leave the
server), and on_return (must commit the announced results before any
order is revealed), as one Bell code (p << 1) | s per slot.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .engine import GateName, Register
from .protocol import tp_step1, tp_step3_honest

Wires = tuple[tuple[int, ...], tuple[int, ...]]


class StrategyKind(Enum):
    HONEST = "honest"
    NAIVE_MEASURE = "naive-measure"
    PARITY_AWARE_MEASURE = "parity-measure"
    MODIFICATION = "modify"


class TpHooks:
    """Honest behavior; attack hooks override the steps they corrupt."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def prepare(self, engine: Register, n: int) -> Wires:
        return tp_step1(engine, n)

    def on_outbound(self, engine: Register, wires: Wires) -> Wires:
        return wires

    def on_return(self, engine: Register, q1: Sequence[int], q2: Sequence[int]) -> Sequence[int]:
        return tp_step3_honest(engine, q1, q2)


class _MeasureHooks(TpHooks):
    """Shared machinery of the measure-and-fake attacks: Z-measure every
    returned qubit and record the bits slot by slot."""

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__(rng)
        self.z_q1: tuple[int, ...] = ()
        self.z_q2: tuple[int, ...] = ()

    def _measure_all(
        self, engine: Register, q1: Sequence[int], q2: Sequence[int]
    ) -> None:
        self.z_q1 = tuple(engine.measure_z_many(q1))
        self.z_q2 = tuple(engine.measure_z_many(q2))


class NaiveMeasureHooks(_MeasureHooks):
    """Z-measure everything and announce uniformly random Bell results."""

    def on_return(self, engine, q1, q2):
        self._measure_all(engine, q1, q2)
        return self.rng.integers(0, 4, size=len(q1)).tolist()


class ParityAwareMeasureHooks(_MeasureHooks):
    """Z-measure everything and announce results whose parity bit is the
    true XOR of the two measured bits, with a random sign bit. It passes
    every chain check and fails a cycle when the cycle's random signs XOR
    to 1. It is not the strongest policy after Z-measuring: announcing
    sign 0 on every slot passes every cycle too, so such a server
    passes every check."""

    def on_return(self, engine, q1, q2):
        self._measure_all(engine, q1, q2)
        signs = self.rng.integers(0, 2, size=len(q1)).tolist()
        return [((b1 ^ b2) << 1) | s for b1, b2, s in zip(self.z_q1, self.z_q2, signs)]


class ModificationHooks(TpHooks):
    """Apply one gate to m outbound wire-A qubits, undo it on the ones that
    come back, then measure honestly. Qubits the user measured in between
    keep a net single application."""

    def __init__(self, rng: np.random.Generator, gate: GateName, m: int) -> None:
        super().__init__(rng)
        self.gate = gate
        self.m = m
        self.attacked: frozenset[int] = frozenset()

    def on_outbound(self, engine, wires):
        wire_a, _ = wires
        picks = self.rng.choice(len(wire_a), size=self.m, replace=False)
        self.attacked = frozenset(wire_a[i] for i in picks)
        for q in sorted(self.attacked):
            engine.apply_gate(self.gate, q)
        return wires

    def on_return(self, engine, q1, q2):
        for q in q1:
            if q in self.attacked:
                engine.apply_gate(self.gate, q)
        return tp_step3_honest(engine, q1, q2)


@dataclass(frozen=True)
class TpStrategy:
    """Immutable strategy description selected by name plus parameters."""

    kind: StrategyKind
    gate: Optional[GateName] = None
    m: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.MODIFICATION:
            if self.gate is None or self.m is None:
                raise ValueError("modification strategy needs a gate and m")
            if self.m < 0:
                raise ValueError(f"m must be >= 0, got {self.m}")
        elif self.gate is not None or self.m is not None:
            raise ValueError(f"{self.kind.value} strategy carries no parameters")

    def check_fits(self, n: int) -> None:
        """ValueError if the strategy attacks more qubits than a wire of n holds."""
        if self.kind is StrategyKind.MODIFICATION and self.m > n:
            raise ValueError(f"cannot attack {self.m} of {n} qubits")

    def instantiate(self, rng: np.random.Generator) -> TpHooks:
        if self.kind is StrategyKind.MODIFICATION:
            return ModificationHooks(rng, self.gate, self.m)
        return _HOOKS[self.kind](rng)

    def describe(self) -> str:
        if self.kind is StrategyKind.MODIFICATION:
            return f"modify:gate={self.gate.value},m={self.m}"
        return self.kind.value


_HOOKS: dict[StrategyKind, type[TpHooks]] = {
    StrategyKind.HONEST: TpHooks,
    StrategyKind.NAIVE_MEASURE: NaiveMeasureHooks,
    StrategyKind.PARITY_AWARE_MEASURE: ParityAwareMeasureHooks,
}


def honest() -> TpStrategy:
    return TpStrategy(StrategyKind.HONEST)


def naive_measure() -> TpStrategy:
    return TpStrategy(StrategyKind.NAIVE_MEASURE)


def parity_aware_measure() -> TpStrategy:
    return TpStrategy(StrategyKind.PARITY_AWARE_MEASURE)


def modification(gate: GateName, m: int) -> TpStrategy:
    return TpStrategy(StrategyKind.MODIFICATION, gate=gate, m=m)
