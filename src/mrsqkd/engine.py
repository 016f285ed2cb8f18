"""Quantum sampling engine with two interchangeable backends.

DENSE stores its statevector as a product of factors of at most two
qubits (a fresh or Z-measured qubit is one bit): a Z or Bell measurement
projects onto its outcome's basis state, and the measured qubits leave
their factor, a Z qubit as a bit and a Bell pair as a factor of its own.
So a DENSE register of any size holds O(n) amplitudes.
It doubles as the exact oracle: its ``outcome_distribution`` gives a
measurement plan's outcomes with exact probabilities. A plan is a
sequence of steps, each a tuple of qubits: (q,) measures Z and (a, b)
Bell. It joins the factors the plan reaches into one amplitude tensor
and changes basis on each step's qubits, with the tensor shapes and the
outcome keys compiled once per plan shape (see ``dense``). That tensor
is the one place memory grows exponentially, so it alone is bounded: a
plan that reaches more than ``dense.DENSE_QUBIT_CAP`` qubits raises
``CapacityError`` before any is joined.
TABLEAU, the pair-block stabilizer state of ``pairblock``, runs the
Monte Carlo campaigns. Both expose the same operation set: phi+ pair
preparation on fresh qubits, the single-qubit gates X, Y (as i*sigma_y),
Z, H, Z-basis measurement, and Bell measurement. Each gate is one row of
``dense._GATES``, named by its ``GateName`` value, and each state applies
every gate by one method, ``apply_gate(name, q)``.

The protocol drives the register a whole wire at a time:
``prepare_pairs(wire_a, wire_b)``, ``measure_z_many(qubits)`` and
``measure_bell_many(q1, q2)`` equal the loop of ``prepare_bell_phi_plus``,
``measure_z`` and ``measure_bell`` over the wire, with the same random
draws, but check the qubits once per call and then call the state's op
for each qubit or pair (pair preparation on the state as a whole).
``measure_bell_many`` returns the Bell codes as ints, where
``measure_bell`` returns ``BellType`` members.

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

from enum import Enum
from operator import eq
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bell_algebra import _BELL_BY_CODE, BellType
from .dense import CapacityError, DenseState  # noqa: F401  CapacityError: re-exported
from .pairblock import PairBlockState


class Backend(Enum):
    DENSE = "dense"
    TABLEAU = "tableau"


class GateName(Enum):
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"


_PAIR_ERROR = "qubits ({}, {}) are not two distinct qubits of a size-{} register"


class UnsupportedOperationError(RuntimeError):
    """The operation is not available on this backend."""


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
    # What Generator(bg).integers(0, 2**63) draws: the top 63 bits of the
    # first word, as a range of a power of two is a shift.
    return int(bg.random_raw()) >> 1


def philox(seed: int) -> np.random.Generator:
    """Philox generator keyed by the low 64 bits of ``seed``: the stream
    of ``Philox(key=seed & (2**64 - 1))``, built without OS entropy."""
    return np.random.Generator(np.random.Philox(_PhiloxKey(seed)))


def _span(qubits: Sequence[int]) -> tuple[int, int]:
    """The lowest and the highest qubit of a non-empty wire; a range's
    without a pass over it."""
    ends = (qubits[0], qubits[-1]) if type(qubits) is range else qubits
    return min(ends), max(ends)


class Register:
    """A register of qubits on one backend. Single-threaded; independent
    registers can be used concurrently."""

    def __init__(self, size: int, backend: Backend, seed: int) -> None:
        if size < 1:
            raise ValueError(f"register size must be >= 1, got {size}")
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
        # The member's plain value, the state's gate name: a call hashes no enum.
        self._state.apply_gate(gate._value_, q)

    def measure_z(self, q: int) -> int:
        if not 0 <= q < self.size:
            raise ValueError(f"qubit {q} out of range for size-{self.size} register")
        return self._state.measure_z(q)

    def measure_bell(self, a: int, b: int) -> BellType:
        if not (0 <= a < self.size and 0 <= b < self.size and a != b):
            raise ValueError(_PAIR_ERROR.format(a, b, self.size))
        return _BELL_BY_CODE[self._state.measure_bell(a, b)]

    # -- whole-wire operations ---------------------------------------------
    # Each equals its single op mapped over the wire, in order, with the
    # same random draws, but checks its qubits once, before any state
    # changes (ValueError), and then calls the state's op for each qubit or
    # pair. Where the single op has been replaced on the class (a subclass,
    # or a wrapper that counts calls), it calls that op instead.

    def prepare_pairs(self, wire_a: Sequence[int], wire_b: Sequence[int]) -> None:
        """phi+ on each pair (wire_a[i], wire_b[i]): every qubit fresh and
        in one pair only (ValueError otherwise, with no pair made)."""
        self._check_pairs(wire_a, wire_b)
        if type(self).prepare_bell_phi_plus is _PREPARE:
            self._state.prepare_pairs(wire_a, wire_b)
        else:
            for a, b in zip(wire_a, wire_b):
                self.prepare_bell_phi_plus(a, b)

    def measure_z_many(self, qubits: Sequence[int]) -> list[int]:
        """The Z outcome of each qubit, measured in turn."""
        lo, hi = _span(qubits) if qubits else (0, 0)
        if lo < 0 or hi >= self.size:
            bad = next(q for q in qubits if not 0 <= q < self.size)
            raise ValueError(f"qubit {bad} out of range for size-{self.size} register")
        measure = self._state.measure_z if type(self).measure_z is _MEASURE_Z else self.measure_z
        return [measure(q) for q in qubits]

    def measure_bell_many(self, q1: Sequence[int], q2: Sequence[int]) -> list[int]:
        """The Bell code (p << 1) | s of each pair (q1[i], q2[i]), measured in turn."""
        self._check_pairs(q1, q2)
        replaced = type(self).measure_bell is not _MEASURE_BELL
        measure = self.measure_bell if replaced else self._state.measure_bell
        return [measure(a, b) for a, b in zip(q1, q2)]

    def _check_pairs(self, q1: Sequence[int], q2: Sequence[int]) -> None:
        """ValueError unless the wires have one length and (q1[i], q2[i])
        are two distinct qubits of the register for every i."""
        if len(q1) != len(q2):
            raise ValueError(f"wire length mismatch: {len(q1)} vs {len(q2)}")
        if not q1:
            return
        size = self.size
        (lo1, hi1), (lo2, hi2) = _span(q1), _span(q2)
        # Wires whose spans do not overlap cannot pair a qubit with itself.
        if (lo1 < 0 or lo2 < 0 or hi1 >= size or hi2 >= size
                or (lo1 <= hi2 and lo2 <= hi1 and any(map(eq, q1, q2)))):
            a, b = next((a, b) for a, b in zip(q1, q2)
                        if not (0 <= a < size and 0 <= b < size and a != b))
            raise ValueError(_PAIR_ERROR.format(a, b, size))

    # -- exact oracle ------------------------------------------------------

    def outcome_distribution(self, plan: Sequence[tuple[int, ...]]) -> dict[tuple, float]:
        """Exact outcome probabilities of running ``plan`` from the current
        state, keyed in depth-first order; the live register is not
        collapsed. Each step is a tuple of qubits, (q,) for Z and (a, b)
        for Bell: ValueError unless it holds 1 or 2 distinct qubits of the
        register, CapacityError if the plan reaches more than
        ``dense.DENSE_QUBIT_CAP`` qubits. DENSE backend only."""
        if not isinstance(self._state, DenseState):
            raise UnsupportedOperationError(
                "outcome_distribution needs exact amplitudes (dense backend only)"
            )
        dist = self._state.outcome_law(tuple(plan))
        total = sum(dist.values())
        if abs(total - 1.0) >= 1e-9:
            raise RuntimeError(f"outcome probabilities sum to {total}")
        return dist


# The register's own single ops, against which the whole-wire ops check
# for a replacement.
_PREPARE, _MEASURE_Z, _MEASURE_BELL = (
    Register.prepare_bell_phi_plus, Register.measure_z, Register.measure_bell)


def new_register(size: int, backend: Backend, seed: int) -> Register:
    """Fresh register with every qubit in |0>, deterministic for a seed."""
    return Register(size, backend, seed)
