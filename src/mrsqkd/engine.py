"""Quantum sampling engine with two interchangeable backends.

DENSE keeps the full statevector and doubles as the exact oracle: its
``outcome_distribution`` enumerates measurement outcomes with exact
probabilities. TABLEAU, the pair-block stabilizer state of
``pairblock``, runs the Monte Carlo campaigns. Both expose the same
operation set: phi+ pair preparation on fresh qubits, the single-qubit
gates X, Y (as i*sigma_y), Z, H, Z-basis measurement, and Bell
measurement.

Bell measurement convention (fixed identically for both backends):
CNOT with control a and target b, then H on a; Z-measuring a gives the
sign bit s and Z-measuring b the parity bit p, and (p, s) indexes the
Bell types as (0,0) phi+, (0,1) phi-, (1,0) psi+, (1,1) psi-. The
measured pair is left collapsed onto the reported Bell state.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

import numpy as np

from .bell_algebra import BellType
from .dense import DENSE_QUBIT_CAP, DenseState
from .pairblock import PairBlockState


_BELL_BY_CODE = tuple(BellType)  # index = two-bit code, (p << 1) | s


class Backend(Enum):
    DENSE = "dense"
    TABLEAU = "tableau"


class GateName(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"


class CapacityError(Exception):
    """A register cannot hold the requested number of qubits."""


class UnsupportedOperationError(RuntimeError):
    """The operation is not available on this backend."""


@dataclass(frozen=True)
class ZMeasure:
    qubit: int


@dataclass(frozen=True)
class BellMeasure:
    a: int
    b: int


PlanStep = Union[ZMeasure, BellMeasure]
PlanOutcome = tuple  # mixed tuple of 0/1 bits and BellType values


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based seed derivation: stream ``index`` of ``master_seed``.

    Independent of evaluation order, so parallel consumers can derive
    their own streams without coordination.
    """
    bg = np.random.Philox(key=master_seed & (2**64 - 1), counter=[0, 0, 0, index])
    return int(np.random.Generator(bg).integers(0, 2**63, dtype=np.int64))


def philox(seed: int) -> np.random.Generator:
    """Philox generator keyed by the low 64 bits of ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed & (2**64 - 1)))


class Register:
    """A register of qubits on one backend. Single-threaded; independent
    registers can be used concurrently."""

    def __init__(self, size: int, backend: Backend, seed: int) -> None:
        if size < 1:
            raise ValueError(f"register size must be >= 1, got {size}")
        if backend is Backend.DENSE and size > DENSE_QUBIT_CAP:
            raise CapacityError(
                f"dense backend holds at most {DENSE_QUBIT_CAP} qubits, got {size}"
            )
        self.size = size
        self.backend = backend
        self.seed = seed
        state = DenseState if backend is Backend.DENSE else PairBlockState
        self._state = state(size, philox(seed))

    # -- validation ------------------------------------------------------

    def _check_qubit(self, q: int) -> None:
        if not (0 <= q < self.size):
            raise ValueError(f"qubit {q} out of range for size-{self.size} register")

    def _check_pair(self, a: int, b: int) -> None:
        if not (0 <= a < self.size and 0 <= b < self.size and a != b):
            raise ValueError(
                f"qubits ({a}, {b}) are not two distinct qubits of a size-{self.size} register"
            )

    # -- operations ------------------------------------------------------

    def prepare_bell_phi_plus(self, a: int, b: int) -> None:
        """Entangle qubits (a, b) into phi+. Both must be fresh |0> qubits,
        untouched since the register was made (ValueError otherwise)."""
        self._check_pair(a, b)
        self._state.prepare_bell(a, b)

    def apply_gate(self, gate: GateName, q: int) -> None:
        self._check_qubit(q)
        getattr(self._state, f"apply_{gate.value}")(q)

    def measure_z(self, q: int) -> int:
        self._check_qubit(q)
        return self._state.measure_z(q)

    def measure_bell(self, a: int, b: int) -> BellType:
        self._check_pair(a, b)
        return _BELL_BY_CODE[self._state.measure_bell(a, b)]

    # -- exact oracle ------------------------------------------------------

    def outcome_distribution(self, plan: Sequence[PlanStep]) -> Mapping[PlanOutcome, float]:
        """Exact outcome probabilities of running ``plan`` from the current
        state, computed on a copy (the live register is not collapsed).
        DENSE backend only."""
        if not isinstance(self._state, DenseState):
            raise UnsupportedOperationError(
                "outcome_distribution needs exact amplitudes (dense backend only)"
            )
        for step in plan:
            if isinstance(step, ZMeasure):
                self._check_qubit(step.qubit)
            else:
                self._check_pair(step.a, step.b)

        dist: dict[PlanOutcome, float] = {}

        def walk(state: DenseState, idx: int, prefix: PlanOutcome, prob: float) -> None:
            if idx == len(plan):
                dist[prefix] = dist.get(prefix, 0.0) + prob
                return
            step = plan[idx]
            if isinstance(step, ZMeasure):
                p1 = state.prob_one(step.qubit)
                for outcome, p in ((0, 1.0 - p1), (1, p1)):
                    if p > 1e-12:
                        branch = state.copy()
                        branch.project(step.qubit, outcome)
                        walk(branch, idx + 1, prefix + (outcome,), prob * p)
            else:
                for s, pb, p, branch in state.bell_branches(step.a, step.b):
                    walk(branch, idx + 1, prefix + (_BELL_BY_CODE[(pb << 1) | s],), prob * p)

        walk(self._state.copy(), 0, (), 1.0)
        total = sum(dist.values())
        if abs(total - 1.0) >= 1e-9:
            raise RuntimeError(f"outcome probabilities sum to {total}")
        return dist


def new_register(size: int, backend: Backend, seed: int) -> Register:
    """Fresh register with every qubit in |0>, deterministic for a seed."""
    return Register(size, backend, seed)
