"""Pair-block stabilizer backend: the sampling engine of the campaigns.

Under phi+ preparation on fresh |0> qubits, the gates X, Y, Z and H, and
Z and Bell measurements, every state is a product of blocks of at most
two qubits: a gate acts inside a block, a Z measurement splits a pair,
and a Bell measurement of a and b pairs them and joins their former
partners, if any, into one block (a lone partner stays single). So each
qubit holds its partner (-1 if none) and the id of its block's state
seen from itself (bit 0; the partner is bit 1), and every operation is a
table lookup. Each entry is computed once, when first needed, by running
the operation on a DenseState of at most four qubits and reading the
blocks back out of the amplitudes; a result that is not such a product
raises. States are identified up to global phase.

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
from functools import partialmethod
from typing import Optional, Sequence

import numpy as np

from .dense import DenseState

FRESH = 0  # |0>, untouched since the register was made
_OWN_QUBITS = {2: (0,), 4: (0, 1)}  # a block alone: amplitude count -> qubits

_TOL = 1e-9


def _det(p_one: float) -> int:
    """The outcome a probability of one fixes, or -1 for a fair coin."""
    if abs(p_one - 0.5) < _TOL:
        return -1
    if min(p_one, 1.0 - p_one) > _TOL:
        raise RuntimeError(f"stabilizer outcome with probability {p_one}")
    return round(p_one)


def _product(blocks: list[tuple[np.ndarray, tuple[int, ...]]]) -> np.ndarray:
    """Amplitudes of the product of ``blocks``, each (amplitudes, qubits it covers)."""
    idx = np.arange(1 << sum(len(qubits) for _, qubits in blocks))
    amps = np.ones(idx.size, dtype=np.complex128)
    for vec, qubits in blocks:
        amps *= vec[sum(((idx >> q) & 1) << k for k, q in enumerate(qubits))]
    return amps


def _state(blocks: list[tuple[np.ndarray, tuple[int, ...]]]) -> DenseState:
    """Product state of ``blocks``, each (amplitudes, qubits it covers)."""
    state = DenseState(sum(len(qubits) for _, qubits in blocks), None)
    state.amps = _product(blocks)
    return state


def _block(amps: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Amplitudes of ``qubits``, a factor of the product state ``amps``:
    its slice through the largest amplitude, normalized."""
    base = int(np.argmax(np.abs(amps))) & ~sum(1 << q for q in qubits)
    out = np.array([
        amps[base | sum(((j >> k) & 1) << q for k, q in enumerate(qubits))]
        for j in range(1 << len(qubits))
    ])
    return out / np.linalg.norm(out)


def _phase_key(amps: np.ndarray) -> tuple:
    """Rounded amplitudes with the global phase removed. Stabilizer
    amplitudes have magnitude 0, 1/2, 1/sqrt(2) or 1, so the first one
    above 0.1 is a stable reference."""
    ref = amps[int(np.argmax(np.abs(amps) > 0.1))]
    return tuple(np.round(amps * (abs(ref) / ref), 6).tolist())


class _Tables:
    """Block states by id and their transition tables, filled on demand
    under a lock. Ids follow discovery order, which may differ between
    processes; outcomes do not, as each entry depends only on the states."""

    def __init__(self) -> None:
        self.vecs: list[np.ndarray] = [np.array([1.0, 0.0], dtype=np.complex128)]
        self._ids: dict[tuple, int] = {}
        # gate -> [id -> id after the gate acts on bit 0]
        self.gate: dict[str, list[int]] = {g: [-1] for g in "xyzh"}
        self.swap: list[int] = [FRESH]  # id -> the same block seen from bit 1
        self.z: list[Optional[tuple]] = [None]  # id -> Z entry, None until needed
        self.bell: dict[tuple[int, int], tuple] = {}
        self._lock = threading.Lock()
        self._fill(FRESH)
        pair = DenseState(2, None)
        pair.prepare_bell(0, 1)
        self.phi_plus = self.intern(pair.amps)

    def intern(self, amps: np.ndarray) -> int:
        key = _phase_key(amps)
        if key not in self._ids:
            sid = self._ids[key] = len(self.vecs)
            self.vecs.append(amps)
            for table in self.gate.values():
                table.append(-1)
            self.swap.append(sid)
            self.z.append(None)
            self._fill(sid)
        return self._ids[key]

    def _fill(self, sid: int) -> None:
        amps = self.vecs[sid]
        for g, table in self.gate.items():
            state = _state([(amps, _OWN_QUBITS[amps.size])])
            getattr(state, f"apply_{g}")(0)
            table[sid] = self.intern(state.amps)
        if amps.size == 4:
            self.swap[sid] = self.intern(amps.reshape(2, 2).T.ravel())

    def _split(self, state: DenseState, blocks: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
        """Ids of the one or two ``blocks`` whose product is ``state``,
        padded with -1."""
        amps = state.amps
        vecs = [_block(amps, qubits) for qubits in blocks]
        if abs(abs(np.vdot(_product(list(zip(vecs, blocks))), amps)) - 1.0) > _TOL:
            raise RuntimeError("operation left the pair-block form")
        ids = [self.intern(v) for v in vecs] + [-1]
        return ids[0], ids[1]

    def z_entry(self, sid: int) -> tuple:
        """(fixed outcome or -1, per outcome (own id, partner id or -1))."""
        with self._lock:
            state = _state([(self.vecs[sid], _OWN_QUBITS[self.vecs[sid].size])])
            blocks = ((0,), (1,))[: state.n]
            branches = [state.copy(), state.copy()]
            results = [self._split(br, blocks) if br.project(0, outcome) > _TOL else None
                       for outcome, br in enumerate(branches)]
            entry = self.z[sid] = (_det(state.prob_one(0)), results)
        return entry

    def bell_entry(self, sa: int, sb: int) -> tuple:
        """Bell measurement of a qubit in block state ``sa`` with its
        partner (``sb`` = -1) or with a qubit in block state ``sb``:
        (fixed sign bit or -1, per sign bit the fixed parity bit or -1,
        per code (p << 1) | s the ids of the measured pair and of the
        leftover partners' block, or -1)."""
        with self._lock:
            parts, rest = [(self.vecs[sa], (0, 1))], ()
            if sb >= 0:
                # Dense layout: a=0, b=1, then a's partner, then b's partner.
                parts = []
                for q, vec in ((0, self.vecs[sa]), (1, self.vecs[sb])):
                    if vec.size == 4:
                        rest += (2 + len(rest),)
                    parts.append((vec, (q, rest[-1]) if vec.size == 4 else (q,)))
            blocks = ((0, 1), rest) if rest else ((0, 1),)
            joint, results = [0.0] * 4, [None] * 4
            for code, prob, branch in _state(parts).bell_branches(0, 1):
                joint[code] = prob
                results[code] = self._split(branch, blocks)
            sign = [joint[s] + joint[2 | s] for s in (0, 1)]
            parity = [_det(joint[2 | s] / sign[s]) if sign[s] else -1 for s in (0, 1)]
            entry = self.bell[sa, sb] = (_det(sign[1]), parity, results)
        return entry


_TABLES = _Tables()
_SWAP, _Z, _BELL = _TABLES.swap, _TABLES.z, _TABLES.bell


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
        operation may hold the batch across this call."""
        bits = self._bits
        if not bits:
            bits += self._rng.integers(0, 2, size=512, dtype=np.uint8).tolist()
        return bits.pop()

    def _gate(self, table: list[int], q: int) -> None:
        new = self._sid[q] = table[self._sid[q]]
        if self._partner[q] >= 0:
            self._sid[self._partner[q]] = _SWAP[new]

    apply_x = partialmethod(_gate, _TABLES.gate["x"])
    apply_y = partialmethod(_gate, _TABLES.gate["y"])
    apply_z = partialmethod(_gate, _TABLES.gate["z"])
    apply_h = partialmethod(_gate, _TABLES.gate["h"])

    def prepare_bell(self, a: int, b: int) -> None:
        """phi+ on (a, b), both fresh (ValueError otherwise)."""
        sid = self._sid
        if sid[a] != FRESH or sid[b] != FRESH:
            raise ValueError(f"Bell pair ({a}, {b}) needs two fresh |0> qubits")
        self._partner[a], self._partner[b] = b, a
        sid[a] = sid[b] = _TABLES.phi_plus

    def measure_z(self, q: int) -> int:
        sid, partner, bits = self._sid, self._partner, self._bits
        outcome, results = _Z[sid[q]] or _TABLES.z_entry(sid[q])
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
        fresh and in one pair only; otherwise ValueError, with no qubit
        changed."""
        sid, partner = self._sid, self._partner
        if (type(wire_a) is range is type(wire_b) and wire_a.step == wire_b.step == 1
                and len(wire_a) == len(wire_b)
                and (wire_a.stop <= wire_b.start or wire_b.stop <= wire_a.start)):
            # Two disjoint runs of consecutive qubits: one slice per list.
            a, b = slice(wire_a.start, wire_a.stop), slice(wire_b.start, wire_b.stop)
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
