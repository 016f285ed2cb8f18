"""Pair-block stabilizer backend: the sampling engine of the campaigns.

Under phi+ preparation on fresh |0> qubits, the gates X, Y, Z and H, and
Z and Bell measurements, every state is a product of blocks of at most
two qubits: a gate acts inside a block, a Z measurement splits a pair,
and a Bell measurement of a and b pairs them and joins their former
partners, if any, into one block (a lone partner stays single). So each
qubit holds its partner (-1 if none) and the id of its block's state
seen from itself (bit 0; the partner is bit 1), and every operation is a
table lookup, in tables built at import (``_Tables``). A gate entry is
the gate's signs of ``dense._GATES`` times the block's rows by the
qubit's bit, then its scale. A Z or Bell outcome c leaves the
measured qubits in basis state c (|j>, or Bell state c of
``dense._BASES``) and the rest in row c of the basis times the block
amplitudes, as rows indexed by the measured bits: a Z outcome leaves the
partner in its row of the block, and a Bell outcome (entanglement
swapping) the former partners in the overlap of the Bell state with the
product of their blocks. So the block form holds by construction. States
are identified up to global phase.

Random bits follow a fixed order, so a seed fixes every outcome: one bit
per random outcome and none for a deterministic one, popped from the end
of a batch of 512, and a Bell measurement draws its X(x)X sign bit before
its Z(x)Z parity bit. Bit 0 is the +1 eigenvalue. The operations pop the
batch inline and call ``_rand_bit`` only to refill it, so a subclass that
overrides ``_rand_bit`` and leaves the batch empty sees every bit drawn:
``verify`` replays every bit string under this contract and compares the
law with the dense oracle.
"""
from __future__ import annotations

import threading
from typing import Sequence

import numpy as np

from .dense import _BASES, _GATES

FRESH = 0  # |0>, untouched since the register was made

_TOL = 1e-9


def _det(p_one: float) -> int:
    """The outcome a probability of one fixes, or -1 for a fair coin."""
    if abs(p_one - 0.5) < _TOL:
        return -1
    if min(p_one, 1.0 - p_one) > _TOL:
        raise RuntimeError(f"stabilizer outcome with probability {p_one}")
    return round(p_one)


def _rows(amps: np.ndarray) -> np.ndarray:
    """A block's amplitudes as rows indexed by its own bit, over its
    partner's bit (one column for a single qubit)."""
    return amps.reshape(-1, 2).T


def _phase_key(amps: np.ndarray) -> tuple:
    """Rounded amplitudes with the global phase removed. Stabilizer
    amplitudes have magnitude 0, 1/2, 1/sqrt(2) or 1, so the first one
    above 0.1 is a stable reference."""
    ref = amps[int(np.argmax(np.abs(amps) > 0.1))]
    return tuple(np.round(amps * (abs(ref) / ref), 6).tolist())


# Basis rows by outcome code: |j> for Z, Bell state (p << 1) | s, a major
# (each is its own transpose up to sign, so also the pair seen from a).
_BASIS = {size: basis[np.argsort(codes)] for size, (basis, codes) in _BASES.items()}


class _Tables:
    """Block states by id and their transition tables. The constructor
    takes the closure of FRESH and phi+ in one worklist, each state's
    gate entries, swap and Z entry, until no new state appears: 13
    states, so ids are fixed at import. Bell entries (177 possible,
    within those states) fill on first use under a lock, as filling them
    all would add about 20 ms to every command's start and a trial reads
    a few. Every entry comes from the block amplitudes alone, with no
    dense-oracle state: a gate's rows of ``_GATES``, and for Z and Bell
    the basis rows of ``_outcomes``."""

    def __init__(self) -> None:
        # FRESH stays out of ``_ids``: a measured |0> gets an id of its own.
        self.vecs: list[np.ndarray] = [np.array([1.0, 0.0], dtype=np.complex128)]
        self._ids: dict[tuple, int] = {}
        # gate -> [id -> id after the gate acts on bit 0]
        self.gate: dict[str, list[int]] = {g: [] for g in _GATES}
        self.swap: list[int] = []  # id -> the same block seen from bit 1
        self.z: list[tuple] = []  # id -> Z entry
        self.bell: dict[tuple[int, int], tuple] = {}
        self._lock = threading.Lock()
        self.phi_plus = self.intern(_BASIS[2][0])
        for sid, amps in enumerate(self.vecs):  # grows as new states are interned
            rows = _rows(amps)
            for g, (signs, scale) in _GATES.items():
                # Elementwise, as in ``_outcomes``: signs @ rows, then the scale.
                gated = (signs[:, :, None] * rows).sum(axis=1) * scale
                self.gate[g].append(self.intern(gated.T.ravel()))
            self.swap.append(self.intern(amps.reshape(2, 2).T.ravel()) if amps.size == 4 else sid)
            # Z entry: (fixed outcome or -1, per outcome (own id, partner id or -1)).
            probs, results = self._outcomes(1, rows)
            self.z.append((_det(probs[1]), results))

    def intern(self, amps: np.ndarray) -> int:
        key = _phase_key(amps)
        if key not in self._ids:
            self._ids[key] = len(self.vecs)
            self.vecs.append(amps)
        return self._ids[key]

    def _outcomes(self, size: int, amps: np.ndarray) -> tuple[list[float], list]:
        """Per outcome code of measuring ``size`` qubits of ``amps`` (rows
        indexed by their bits, over the rest's bits): its probability and,
        if it can occur, (the measured block's id, the rest's or -1)."""
        probs, results = [], []
        # Row k is sum_i basis[k, i] * amps[i], elementwise: a first BLAS
        # call (``@``, ``vdot``) would cost every process about 0.5 MB.
        for basis, row in zip(_BASIS[size], (_BASIS[size][:, :, None] * amps).sum(axis=1)):
            prob = float((abs(row) ** 2).sum())
            probs.append(prob)
            if prob > _TOL:
                rest = self.intern(row / np.sqrt(prob)) if row.size > 1 else -1
                results.append((self.intern(basis), rest))
            else:
                results.append(None)
        return probs, results

    def bell_entry(self, sa: int, sb: int) -> tuple:
        """Bell measurement of a qubit in block state ``sa`` with its
        partner (``sb`` = -1) or with a qubit in block state ``sb``:
        (fixed sign bit or -1, per sign bit the fixed parity bit or -1,
        per code (p << 1) | s the ids of the measured pair and of the
        leftover partners' block, or -1)."""
        with self._lock:
            rows = _rows(self.vecs[sa])
            if sb < 0:
                amps = rows.reshape(4, 1)  # rows (a, b), a major
            else:
                # Rows (a, b), a major, over the partners' bits, a's
                # partner lowest: the leftover block as seen from it.
                amps = np.einsum("ip,jq->ijqp", rows, _rows(self.vecs[sb])).reshape(4, -1)
            joint, results = self._outcomes(2, amps)
            sign = [joint[s] + joint[2 | s] for s in (0, 1)]
            parity = [_det(joint[2 | s] / sign[s]) if sign[s] else -1 for s in (0, 1)]
            entry = self.bell[sa, sb] = (_det(sign[1]), parity, results)
        return entry


_TABLES = _Tables()
_GATE, _SWAP, _Z, _BELL = _TABLES.gate, _TABLES.swap, _TABLES.z, _TABLES.bell


class PairBlockState:
    """Stabilizer state of n qubits held as blocks of at most two."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self._rng = rng
        self._bits: list[int] = []
        self._partner = [-1] * n
        self._sid = [FRESH] * n

    def _rand_bit(self) -> int:
        """The next bit of the batch, refilled in place when empty, so an
        operation may hold the batch across this call. A batch is the bits
        ``integers(0, 2, size=512, dtype=np.uint8)`` draws, as this stream
        draws nothing else: the top bit of each byte of 64 raw words."""
        bits = self._bits
        if not bits:
            raw = self._rng.bit_generator.random_raw(64).astype("<u8", copy=False)
            bits += (raw.view(np.uint8) >> 7).tolist()
        return bits.pop()

    def apply_gate(self, gate: str, q: int) -> None:
        """Apply gate ``gate`` of ``dense._GATES`` to qubit q."""
        new = self._sid[q] = _GATE[gate][self._sid[q]]
        if self._partner[q] >= 0:
            self._sid[self._partner[q]] = _SWAP[new]

    def prepare_bell(self, a: int, b: int) -> None:
        """phi+ on (a, b), both fresh (ValueError otherwise); that they
        are two distinct qubits of the register is the ``Register``'s check."""
        sid = self._sid
        if sid[a] != FRESH or sid[b] != FRESH:
            raise ValueError(f"Bell pair ({a}, {b}) needs two fresh |0> qubits")
        self._partner[a], self._partner[b] = b, a
        sid[a] = sid[b] = _TABLES.phi_plus

    def measure_z(self, q: int) -> int:
        sid, partner, bits = self._sid, self._partner, self._bits
        outcome, results = _Z[sid[q]]
        if outcome < 0:
            outcome = bits.pop() if bits else self._rand_bit()
        sid[q], other = results[outcome]
        p = partner[q]
        if p >= 0:
            partner[q] = partner[p] = -1
            sid[p] = other
        return outcome

    def measure_bell(self, a: int, b: int) -> int:
        """Bell-measure (a, b) and return the code (p << 1) | s."""
        sid, partner, bits = self._sid, self._partner, self._bits
        pa, pb = partner[a], partner[b]
        key = (sid[a], -1 if pa == b else sid[b])
        s, parity, results = _BELL.get(key) or _TABLES.bell_entry(*key)
        if s < 0:
            s = bits.pop() if bits else self._rand_bit()
        p = parity[s]
        if p < 0:
            p = bits.pop() if bits else self._rand_bit()
        code = (p << 1) | s
        ab, rest = results[code]
        sid[a], sid[b] = ab, _SWAP[ab]
        if pa != b:
            partner[a], partner[b] = b, a
            if pa >= 0 and pb >= 0:
                partner[pa], partner[pb] = pb, pa
                sid[pa], sid[pb] = rest, _SWAP[rest]
            elif pa >= 0 or pb >= 0:
                lone = pa if pa >= 0 else pb
                partner[lone] = -1
                sid[lone] = rest
        return code

    def prepare_pairs(self, wire_a: Sequence[int], wire_b: Sequence[int]) -> None:
        """phi+ on each pair (wire_a[i], wire_b[i]). Every qubit must be
        fresh and in no other pair; otherwise ValueError, with no qubit
        changed. That each pair is two distinct qubits of the register is
        the ``Register``'s check, made before this call."""
        sid, partner = self._sid, self._partner
        if (type(wire_a) is range is type(wire_b) and wire_a.step == wire_b.step > 0
                and len(wire_a) == len(wire_b) > 0
                and ((wire_a.start - wire_b.start) % wire_a.step
                     or wire_a[-1] < wire_b.start or wire_b[-1] < wire_a.start)):
            # Two ranges of one step that share no qubit (their starts differ
            # modulo the step, or their spans are apart): one slice per list.
            a, b = (slice(wire.start, wire.stop, wire.step) for wire in (wire_a, wire_b))
            if sid[a].count(FRESH) == len(wire_a) == sid[b].count(FRESH):
                sid[a] = sid[b] = [_TABLES.phi_plus] * len(wire_a)
                partner[a], partner[b] = wire_b, wire_a
                return
        prepare, made = self.prepare_bell, 0
        try:
            for a, b in zip(wire_a, wire_b):
                prepare(a, b)
                made += 1
        except ValueError:
            for q in (*wire_a[:made], *wire_b[:made]):  # fresh before this call
                sid[q], partner[q] = FRESH, -1
            raise
