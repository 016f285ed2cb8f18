"""Dense statevector backend: the exact, small-register ground truth.

The state is a product of factors, each the amplitudes over the qubits
that two-qubit operations have joined (qubit ``qubits[i]`` at bit i of
its index), times one global phase. A qubit in no factor is one bit of
an int, its Z state: 0 when fresh, the outcome once Z-measured. ``amps``
reads the full 2^n vector, qubit q at bit q of the index.

- ``prepare_bell`` makes a new factor, phi+ over its two qubits.
- ``measure_bell`` and ``bell_branches`` merge the factors of their two
  qubits by outer product; a gate or either of them gives a qubit in no
  factor a factor of its own, in its Z state.
- ``measure_z`` keeps the outcome's half of the qubit's factor and drops
  the qubit; a factor left with no qubits folds into the global phase.

Factors are never split by reading amplitudes, so a protocol run costs
its largest component, not 2^(2n). Besides the register's operation
set, the state gives exact branch enumeration, which every brute-force
oracle check runs on and from which the pair-block backend builds its
tables.

A Bell outcome of the pair (a, b) is the Bell state
(|0,p> + (-1)^s |1,1-p>)/sqrt(2), with code (p << 1) | s: ``measure_bell``
samples it by projection, in place, and ``prepare_bell`` writes phi+.

Enumeration (``outcome_codes``) walks a measurement plan breadth first
over a stack of branches, joining at each step, by outer product, the
factor of a measured qubit that the stack does not hold yet (the
register's factors stay as they are): one row of a (B, 2^w) array per
branch, with path probabilities and outcome codes in parallel arrays,
so a plan step is a fixed number of numpy calls on the whole stack. A
step takes the amplitudes of each outcome directly, by the overlap of
every row with the outcome's basis state on the measured qubits: |0>
and |1> for Z, the Bell state for Bell. Children follow their parent in
outcome order, the depth-first order of a recursive walk, and branches
at probability <= 1e-12 are dropped. A measured qubit is left in a
known product state with the rest, so a step whose qubits no later step
touches traces them out of the stack; any other step keeps the
full-width post-measurement state.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

DENSE_QUBIT_CAP = 24

_SQRT1_2 = 1.0 / np.sqrt(2.0)
_MIN_PROB = 1e-12

# Basis states of a measurement, one row per outcome over the measured
# bits, first bit major, with the outcome codes: Z outcome j is |j>;
# Bell outcome 2s + p is sign bit s and parity bit p, code (p << 1) | s.
# ``_BELL_SIGNS`` holds the Bell rows unscaled, as +-1 and 0.
_Z_BASIS = (np.eye(2), np.array([0, 1]))
_BELL_SIGNS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex)
_BELL_BASIS = (_BELL_SIGNS * _SQRT1_2, np.array([0, 2, 1, 3]))


def _bits_first(stack: np.ndarray, bits: Sequence[int]) -> np.ndarray:
    """View of ``stack`` (rows of 2^w amplitudes) as a (rows, 2, ..., 2)
    tensor with index bits ``bits`` on axes 1, 2, ..."""
    w = stack.shape[1].bit_length() - 1
    front = [w - b for b in bits]  # axis 1 holds index bit w - 1
    order = [0, *front, *(ax for ax in range(1, w + 1) if ax not in front)]
    return stack.reshape((len(stack),) + (2,) * w).transpose(order)


def _measure(
    stack: np.ndarray, bits: tuple[int, ...], trace: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Z-measure index bit ``bits[0]``, or Bell-measure bits (a, b), in
    every row of ``stack`` (normalized statevectors). Returns each kept
    child's parent row, outcome code, probability given its parent and
    normalized state, with the measured bits removed if ``trace``."""
    basis, codes = _Z_BASIS if len(bits) == 1 else _BELL_BASIS
    outcomes = len(codes)
    front = _bits_first(stack, bits).reshape(len(stack), outcomes, -1)
    parts = (basis @ front).reshape(len(stack) * outcomes, -1)
    probs = (parts.real**2 + parts.imag**2).sum(axis=1)
    kept = (probs > _MIN_PROB).nonzero()[0]
    outcome = kept % outcomes
    children = parts[kept] / np.sqrt(probs[kept])[:, None]
    if not trace:
        # Full width again: the measured bits in the outcome's basis state.
        full = np.empty((len(kept), stack.shape[1]), dtype=stack.dtype)
        view = _bits_first(full, bits)
        view[...] = (basis[outcome][:, :, None] * children[:, None, :]).reshape(view.shape)
        children = full
    return kept // outcomes, codes[outcome], probs[kept], children


def _norm2(half: np.ndarray) -> float:
    """Squared norm of a half of the state. ``np.vdot(half, half)`` would
    flatten each argument, copying the half twice; flattening it once as
    vdot does (a view where one exists) keeps the sum's rounding."""
    flat = half.reshape(-1)
    return float(np.vdot(flat, flat).real)


class _Factor:
    """Amplitudes over ``qubits``, qubit ``qubits[i]`` at bit i of an index."""

    __slots__ = ("psi", "qubits")

    def __init__(self, psi: np.ndarray, qubits: list[int]) -> None:
        self.psi = psi
        self.qubits = qubits


class DenseState:
    """Pure state of up to DENSE_QUBIT_CAP qubits: a product of factors,
    a Z basis state for each qubit in none, and a global phase."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self.rng = rng
        self._of: dict[int, _Factor] = {}  # qubit -> the factor that holds it
        self._phase = 1.0 + 0.0j  # product of the factors left with no qubits
        self._known = 0  # bit q: the Z state of qubit q while q is in no factor
        self._touched = 0  # bit q set once any operation has acted on qubit q

    @property
    def amps(self) -> np.ndarray:
        """The full 2^n statevector, qubit q at bit q of the index; read
        only, as it is built on each read. Assigning one puts every
        qubit in one factor and marks it touched."""
        factors = list(dict.fromkeys(self._of.values()))  # each factor once
        if [f.qubits for f in factors] == [list(range(self.n))]:  # one factor, in qubit order
            full = factors[0].psi * self._phase
        else:
            vals = np.array([self._phase])
            pos = np.array([self._known])  # index of each amplitude in the full vector
            for f in factors:
                offsets = np.zeros(1, dtype=np.int64)
                for q in f.qubits:
                    offsets = np.concatenate((offsets, offsets | (1 << q)))
                vals = np.outer(f.psi, vals).reshape(-1)
                pos = (offsets[:, None] | pos[None, :]).reshape(-1)
            full = np.zeros(1 << self.n, dtype=np.complex128)
            full[pos] = vals
        full.flags.writeable = False
        return full

    @amps.setter
    def amps(self, amps: np.ndarray) -> None:
        f = _Factor(np.array(amps, dtype=np.complex128).reshape(-1), list(range(self.n)))
        self._of = dict.fromkeys(f.qubits, f)
        self._phase = 1.0 + 0.0j
        self._known = 0
        self._touched = (1 << self.n) - 1

    def _factor(self, q: int) -> _Factor:
        """The factor of qubit q. A qubit in none first gets a factor of
        its own, its Z state."""
        f = self._of.get(q)
        if f is None:
            psi = _Z_BASIS[0][(self._known >> q) & 1].astype(np.complex128)
            self._known &= ~(1 << q)
            f = self._of[q] = _Factor(psi, [q])
        return f

    def _merged(self, a: int, b: int) -> _Factor:
        """The one factor of qubits a and b: b's joins a's on new top bits."""
        fa, fb = self._factor(a), self._factor(b)
        if fa is not fb:
            fa.psi = np.outer(fb.psi, fa.psi).reshape(-1)
            fa.qubits += fb.qubits
            for q in fb.qubits:
                self._of[q] = fa
        return fa

    # -- gates ---------------------------------------------------------

    def _halves(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        # Every gate on q and every measurement of q in a factor passes
        # here: q is no longer fresh.
        self._touched |= 1 << q
        # View q's factor as (high, qubit q, low); low block size 2^bit.
        f = self._factor(q)
        v = f.psi.reshape(-1, 2, 1 << f.qubits.index(q))
        return v[:, 0, :], v[:, 1, :]

    # The two halves interleave in memory, so assigning one to the other
    # copies the source first; a ufunc with ``out=`` checks that they do
    # not overlap and copies nothing. Each gate makes at most one
    # half-sized temporary.

    def apply_x(self, q: int) -> None:
        a0, a1 = self._halves(q)
        tmp = a0.copy()
        np.positive(a1, out=a0)
        a1[...] = tmp

    def apply_y(self, q: int) -> None:
        # i*sigma_y = [[0, 1], [-1, 0]]; real, global phase of sigma_y dropped.
        a0, a1 = self._halves(q)
        tmp = a0.copy()
        np.positive(a1, out=a0)
        np.negative(tmp, out=a1)

    def apply_z(self, q: int) -> None:
        _, a1 = self._halves(q)
        a1 *= -1.0

    def apply_h(self, q: int) -> None:
        a0, a1 = self._halves(q)
        d = a0 - a1
        a0 += a1
        a0 *= _SQRT1_2
        d *= _SQRT1_2
        a1[...] = d

    def prepare_bell(self, a: int, b: int) -> None:
        """phi+ on two fresh qubits, as a new factor of 4 amplitudes."""
        if (self._touched >> a) & 1 or (self._touched >> b) & 1:
            raise ValueError(f"Bell pair ({a}, {b}) needs two fresh |0> qubits")
        self._touched |= (1 << a) | (1 << b)
        psi = np.zeros(4, dtype=np.complex128)
        psi[0] = psi[3] = _SQRT1_2
        self._of[a] = self._of[b] = _Factor(psi, [a, b])

    def prepare_pairs(self, wire_a: Sequence[int], wire_b: Sequence[int]) -> None:
        """phi+ on each pair (wire_a[i], wire_b[i]). Every qubit must be
        fresh and in one pair only; otherwise ValueError, with no qubit
        changed."""
        seen = self._touched
        for a, b in zip(wire_a, wire_b):
            if (seen >> a) & 1 or (seen >> b) & 1:
                raise ValueError(f"Bell pair ({a}, {b}) needs two fresh |0> qubits")
            seen |= (1 << a) | (1 << b)
        for a, b in zip(wire_a, wire_b):
            self.prepare_bell(a, b)

    # -- measurement ---------------------------------------------------

    def prob_one(self, q: int) -> float:
        if q not in self._of:
            return float((self._known >> q) & 1)
        return _norm2(self._halves(q)[1])

    def project(self, q: int, outcome: int, p: float | None = None) -> float:
        """Project qubit q onto |outcome> and renormalize; returns the
        branch probability ``p``, computed unless given (state left
        untouched if it is ~ 0). Only the kept half is rescaled, and q
        leaves its factor with the outcome as its Z state."""
        self._touched |= 1 << q
        f = self._of.get(q)
        if f is None:
            return float((self._known >> q) & 1 == outcome)
        keep = self._halves(q)[outcome]
        if p is None:
            p = _norm2(keep)
        if p > _MIN_PROB:
            f.psi = (keep / np.sqrt(p)).reshape(-1)
            f.qubits.remove(q)
            del self._of[q]
            self._known |= outcome << q
            if not f.qubits:
                self._phase *= complex(f.psi[0])
        return p

    def measure_z(self, q: int) -> int:
        """One norm for the draw, a second only for outcome 0. A qubit in
        no factor still takes its draw, which cannot change it."""
        p1 = self.prob_one(q)
        outcome = 1 if self.rng.random() < p1 else 0
        self.project(q, outcome, p1 if outcome else None)
        return outcome

    def measure_bell(self, a: int, b: int) -> int:
        """Bell-measure (a, b) by projection and return the code (p << 1) | s.
        One draw gives the sign bit s, a second the parity bit p given s;
        the pair is left, in place, on the reported Bell state."""
        self._touched |= (1 << a) | (1 << b)
        f = self._merged(a, b)
        pair = _bits_first(f.psi[None], (f.qubits.index(a), f.qubits.index(b)))[0]
        # Row 2s + p: the overlap with Bell state (s, p), each entry
        # (pair[0, p] + (-1)^s pair[1, 1-p]) / sqrt(2).
        rows = _BELL_SIGNS @ pair.reshape(4, -1)
        rows *= _SQRT1_2
        joint = (rows.real**2 + rows.imag**2).sum(axis=1).tolist()
        sign = joint[2] + joint[3]
        s = int(self.rng.random() < sign / (sign + (joint[0] + joint[1])))
        p = int(self.rng.random() < joint[2 * s + 1] / (joint[2 * s] + joint[2 * s + 1]))
        k = 2 * s + p
        rest = rows[k] * (_SQRT1_2 / np.sqrt(joint[k]))
        pair[...] = (_BELL_SIGNS[k][:, None] * rest).reshape(pair.shape)
        return (p << 1) | s

    def bell_branches(self, a: int, b: int) -> Iterator[tuple[int, float, "DenseState"]]:
        """(code (p << 1) | s, probability, collapsed copy) for every Bell
        outcome of (a, b) that can occur; this state is left as it is."""
        f = self._merged(a, b)
        bits = f.qubits.index(a), f.qubits.index(b)
        _, codes, probs, children = _measure(f.psi[None], bits, trace=False)
        for code, prob, psi in zip(codes.tolist(), probs.tolist(), children):
            branch = self._with(f, psi)
            branch._touched |= (1 << a) | (1 << b)
            yield code, prob, branch

    # -- exact enumeration ---------------------------------------------

    def outcome_codes(self, steps: Sequence[tuple[int, ...]]) -> tuple[list[float], list[list[int]]]:
        """Every outcome of measuring ``steps`` in turn, each (q,) for a Z
        measurement or (a, b) for a Bell measurement: the outcome
        probabilities and, per outcome, one code per step (the Z bit, or
        the Bell code (p << 1) | s), in depth-first order with outcome 0
        (Z) or sign bit, then parity bit (Bell) first. This state is left
        as it is."""
        held: list[int] = []  # qubit at each index bit of the stack
        stack = np.ones((1, 1), dtype=np.complex128)
        probs = np.ones(1)
        codes = np.zeros((1, len(steps)), dtype=np.int64)
        for i, qubits in enumerate(steps):
            for q in qubits:
                if q not in held:
                    f = self._of.get(q) or _Factor(_Z_BASIS[0][(self._known >> q) & 1], [q])
                    stack = (f.psi[None, :, None] * stack[:, None, :]).reshape(len(stack), -1)
                    held += f.qubits
            trace = not any(q in later for later in steps[i + 1:] for q in qubits)
            parent, code, cond, stack = _measure(stack, tuple(map(held.index, qubits)), trace)
            probs = probs[parent] * cond
            codes = codes[parent]
            codes[:, i] = code
            if trace:
                held = [q for q in held if q not in qubits]
        return probs.tolist(), codes.tolist()

    def _with(self, factor: _Factor | None = None, psi: np.ndarray | None = None) -> "DenseState":
        """A copy of this state; ``psi`` replaces the amplitudes of ``factor``."""
        c = DenseState.__new__(DenseState)
        c.n = self.n
        c.rng = self.rng
        c._phase = self._phase
        c._known = self._known
        c._touched = self._touched
        copies = {f: _Factor(psi if f is factor else f.psi.copy(), list(f.qubits))
                  for f in dict.fromkeys(self._of.values())}
        c._of = {q: copies[f] for q, f in self._of.items()}
        return c

    def copy(self) -> "DenseState":
        return self._with()
