"""Quantum sampling engine with two interchangeable backends.

DENSE stores its statevector as a product of factors, one per group of
qubits that two-qubit operations have joined (a fresh or Z-measured
qubit is one bit), and doubles as the exact oracle: its
``outcome_distribution`` enumerates measurement outcomes with exact
probabilities, by one breadth-first walk over a stack of branches that
joins the factors the plan reaches and traces each step's qubits out of
the stack once no later step touches them (see ``dense``). TABLEAU, the
pair-block stabilizer state of ``pairblock``, runs the Monte Carlo
campaigns. Both expose the same
operation set: phi+ pair preparation on fresh qubits, the single-qubit
gates X, Y (as i*sigma_y), Z, H, Z-basis measurement, and Bell
measurement.

Bell measurement convention (fixed identically for both backends):
measuring (a, b) projects the pair onto the Bell state
(|0,p> + (-1)^s |1,1-p>)/sqrt(2) of sign bit s and parity bit p. The
sign bit is drawn first and the parity bit given it. The outcome is the
code (p << 1) | s, which is the ``BellType`` member itself: 0 phi+,
1 phi-, 2 psi+, 3 psi-. The measured pair is left collapsed onto the
reported Bell state.

Every generator is a Philox keyed by the low 64 bits of a seed. Its key
goes in as a ``_PhiloxKey`` seed sequence, so building one reads no OS
entropy.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bell_algebra import _BELL_BY_CODE, BellType
from .dense import DENSE_QUBIT_CAP, DenseState
from .pairblock import PairBlockState


class Backend(Enum):
    DENSE = "dense"
    TABLEAU = "tableau"


class GateName(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"


# The state's method for each gate, looked up on the state of the call.
_APPLY = {g: attrgetter("apply_" + g.value) for g in GateName}
_PAIR_ERROR = "qubits ({}, {}) are not two distinct qubits of a size-{} register"


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


class _PhiloxKey(ISeedSequence):
    """A seed's Philox key as a seed sequence: ``Philox(key=...)`` gives
    the same stream but also builds a ``SeedSequence`` from OS entropy."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """Key words [low 64 bits of the seed, 0], the only request Philox makes."""
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {dtype}")
        return np.array([self.seed & (2**64 - 1), 0], dtype=np.uint64)


def derive_seed(master_seed: int, index: int) -> int:
    """Counter-based seed derivation: stream ``index`` of ``master_seed``.

    Independent of evaluation order, so parallel consumers can derive
    their own streams without coordination.
    """
    bg = np.random.Philox(_PhiloxKey(master_seed), counter=[0, 0, 0, index])
    return int(np.random.Generator(bg).integers(0, 2**63, dtype=np.int64))


def philox(seed: int) -> np.random.Generator:
    """Philox generator keyed by the low 64 bits of ``seed``: the stream
    of ``Philox(key=seed & (2**64 - 1))``, built without OS entropy."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed)))


def check_capacity(size: int, backend: Backend) -> None:
    """CapacityError if ``backend`` cannot hold ``size`` qubits."""
    if backend is Backend.DENSE and size > DENSE_QUBIT_CAP:
        raise CapacityError(f"dense backend holds at most {DENSE_QUBIT_CAP} qubits, got {size}")


class Register:
    """A register of qubits on one backend. Single-threaded; independent
    registers can be used concurrently."""

    def __init__(self, size: int, backend: Backend, seed: int) -> None:
        if size < 1:
            raise ValueError(f"register size must be >= 1, got {size}")
        check_capacity(size, backend)
        self.size = size
        state = DenseState if backend is Backend.DENSE else PairBlockState
        self._state = state(size, philox(seed))

    # -- operations ------------------------------------------------------
    # Each op checks its qubits inline (ValueError if out of range) and
    # reads ``self._state`` afresh, which ``verify`` swaps for a replay.

    def prepare_bell_phi_plus(self, a: int, b: int) -> None:
        """Entangle qubits (a, b) into phi+. Both must be fresh |0> qubits,
        untouched since the register was made (ValueError otherwise)."""
        if not (0 <= a < self.size and 0 <= b < self.size and a != b):
            raise ValueError(_PAIR_ERROR.format(a, b, self.size))
        self._state.prepare_bell(a, b)

    def apply_gate(self, gate: GateName, q: int) -> None:
        if not 0 <= q < self.size:
            raise ValueError(f"qubit {q} out of range for size-{self.size} register")
        _APPLY[gate](self._state)(q)

    def measure_z(self, q: int) -> int:
        if not 0 <= q < self.size:
            raise ValueError(f"qubit {q} out of range for size-{self.size} register")
        return self._state.measure_z(q)

    def measure_bell(self, a: int, b: int) -> BellType:
        if not (0 <= a < self.size and 0 <= b < self.size and a != b):
            raise ValueError(_PAIR_ERROR.format(a, b, self.size))
        return _BELL_BY_CODE[self._state.measure_bell(a, b)]

    # -- exact oracle ------------------------------------------------------

    def outcome_distribution(self, plan: Sequence[PlanStep]) -> dict[PlanOutcome, float]:
        """Exact outcome probabilities of running ``plan`` from the current
        state, keyed in depth-first order; the live register is not
        collapsed. DENSE backend only."""
        if not isinstance(self._state, DenseState):
            raise UnsupportedOperationError(
                "outcome_distribution needs exact amplitudes (dense backend only)"
            )
        steps = [(s.qubit,) if isinstance(s, ZMeasure) else (s.a, s.b) for s in plan]
        for qubits in steps:
            if not all(0 <= q < self.size for q in qubits) or len(set(qubits)) < len(qubits):
                raise ValueError(f"plan step {qubits}: not distinct qubits of 0..{self.size - 1}")
        probs, codes = self._state.outcome_codes(steps)
        # One column of values per step: the Z bit as it is, a Bell code as its type.
        columns = [
            col if len(qubits) == 1 else list(map(_BELL_BY_CODE.__getitem__, col))
            for qubits, col in zip(steps, zip(*codes))
        ]
        dist = dict(zip(zip(*columns) if steps else [()], probs))
        total = sum(dist.values())
        if abs(total - 1.0) >= 1e-9:
            raise RuntimeError(f"outcome probabilities sum to {total}")
        return dist


def new_register(size: int, backend: Backend, seed: int) -> Register:
    """Fresh register with every qubit in |0>, deterministic for a seed."""
    return Register(size, backend, seed)
