"""Dense statevector backend: the exact, small-register ground truth.

The state is a product of factors, each the amplitudes over a few qubits
(qubit ``qubits[i]`` at bit i of its index), times one global phase. A
qubit in no factor is one bit of an int, its Z state: 0 when fresh, the
outcome once Z-measured.

- ``prepare_bell`` makes a new factor, phi+ (Bell row 0) over its two
  qubits. A gate or measurement first gives a qubit in no factor a
  factor of its own, in its Z state.
- ``apply_gate`` follows one rule for X, Y, Z and H, the rows of
  ``_GATES``, which the pair-block tables follow too: the factor is one
  row per value of the qubit's bit, and the gate's 2x2 signs times those
  rows, then its scale, are the new rows.
- ``measure_z`` and ``measure_bell`` follow one rule, ``_measure``, which
  the pair-block tables follow too. A Bell pair's two factors are merged
  by outer product. The factor, its measured qubits first, is one row per
  value of their bits over the rest; times the basis of ``_BASES`` (the
  identity for Z, the Bell rows for Bell) row k is outcome k's overlap,
  and its squared norm the outcome's probability. The outcome is drawn
  bit by bit, highest first: one draw for Z, the sign bit and then the
  parity bit for Bell. The measured qubits leave the factor in the
  outcome's basis state, a Z qubit as a known bit and a Bell pair as a
  factor of its own; the rest keeps row k, normalized, and a factor left
  with no qubits folds into the phase.

That split is the projection onto the outcome's basis state, written as
a product: it follows from the outcome drawn, as the Z bit always has,
never from reading amplitudes for a product form, so the oracle stays
independent of the pair-block backend it checks. It also bounds every
factor of every state this module builds at 2 qubits after each
operation: a preparation makes 2, a gate acts inside one factor, a Bell
measurement merges at most 2 + 2 and leaves 2 and at most 2, and a Z
measurement only removes. No operation makes a wider factor, as no
state this physics reaches needs one.

Two names have no caller in a run. ``copy`` is a span of the
``perfbench`` tracer (``dense.copy``). ``_measure``'s given outcome k
collapses a state onto a chosen outcome: the tests list every branch of
a measurement by it, on copies, and an oracle that follows a run's drawn
outcomes in lockstep can use it. A given k that cannot occur returns
before the split, so the state it leaves is a branch to discard.

Enumeration (``outcome_law``) computes a plan's law directly. A plan
is a tuple of steps, each a tuple of qubits: (q,) measures Z and (a, b)
Bell, the basis ``_BASES[len(step)]``. It joins the factors the plan
reaches, by outer product, into one row of 2^w amplitudes (the
register's factors stay as they are). Each step
changes basis on its qubits' bits, the identity for Z and the four Bell
rows for Bell, and moves them into the row index as one outcome digit,
so a row is one outcome string and its squared norm the string's
probability. A qubit that a later step measures again gets its bit back,
in the outcome's basis state; the others are summed out at the end.
Outcomes above 1e-12 are kept in step order, outcome 0 (Z) or sign bit,
then parity bit (Bell) first: the order of a depth-first walk.

- Support: every operation is Clifford, so a step's conditional
  probability is 0, 1/4, 1/2 or 1, and an outcome of a plan that
  measures fewer than 40 qubit slots (a Bell step counts two) has joint
  probability 0 or at least 2^-39. So the joint cut keeps what a walk
  that drops a branch at conditional probability <= 1e-12 keeps. Every
  plan within the join bound that measures each qubit once qualifies.
- Memory: such a plan holds at most the joined 2^w amplitudes. Each
  step whose qubits are measured again multiplies them by 2 or 4. The
  row is the only place memory grows with the qubits held, so it alone
  is bounded: w is counted from the factors' widths before the first
  outer product, and a plan whose w exceeds DENSE_QUBIT_CAP = 24 raises
  ``CapacityError`` there. A register of any size runs, as its factors
  hold at most 2 qubits each.

All of it but the amplitudes depends only on the joined layout (the
qubit at each bit of the row) and the steps, so ``_schedule`` compiles
it once per (layout, steps): each step's tensor shape, the axis order
that brings its qubits first, its basis, and whether a later step
measures its qubits again. The key of an outcome, one value per step
(the Z bit, or the Bell outcome as its ``BellType``), comes from tables
shared by step sizes, not by layout: consecutive steps go in groups of
at most _KEY_ROWS = 256 outcomes, and ``_key_table`` lists the keys of
each group by its digit. A law then costs the join, one reshape,
transpose and product per step, the squared norms, one ``nonzero`` and
a dict of cached keys (one per group, joined, for a plan of more groups).

- Cache memory: both caches are LRUs of fixed size. A key table holds at
  most 256 tuples of at most 8 shared values, under 30 KB, and at most
  _KEY_TABLES = 16 are kept: under 0.5 MB. A schedule holds a few small
  tuples per step, about 1 KB, and at most _SCHEDULES = 64 are kept. The
  512 four-pair cycles and chains use 2 schedules and 2 tables.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bell_algebra import _BELL_BY_CODE

# The most qubits ``outcome_law`` joins into one row of amplitudes.
DENSE_QUBIT_CAP = 24


class CapacityError(Exception):
    """A plan's law would join more qubits than DENSE_QUBIT_CAP."""


_SQRT1_2 = 1.0 / np.sqrt(2.0)
_MIN_PROB = 1e-12

# Measurement bases by qubit count: one row per outcome over the measured
# bits, first bit major, and the outcome codes. Z outcome j is |j>; Bell
# outcome 2s + p is sign bit s and parity bit p, code (p << 1) | s.
# ``_BELL_SIGNS`` holds the Bell rows unscaled, as +-1 and 0.
_BELL_SIGNS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1, -1, 0]], dtype=complex)
_BASES = {1: (np.eye(2), np.array([0, 1])), 2: (_BELL_SIGNS * _SQRT1_2, np.array([0, 2, 1, 3]))}
# Gates by name: a 2x2 matrix of signs, row j giving the new amplitude
# of bit value j, and a scale applied after the sum. Y is i*sigma_y, real.
# H's 1/sqrt(2) scales the sum (a0 +- a1), not each term.
_GATES = {
    "x": (np.array([[0, 1], [1, 0]], dtype=complex), 1.0),
    "y": (np.array([[0, 1], [-1, 0]], dtype=complex), 1.0),
    "z": (np.array([[1, 0], [0, -1]], dtype=complex), 1.0),
    "h": (np.array([[1, 1], [1, -1]], dtype=complex), _SQRT1_2),
}
# A step's outcome values in digit order: the Z bit, or the Bell outcome as its BellType.
_VALUES = {size: tuple(_BELL_BY_CODE[c] if size == 2 else int(c) for c in codes)
           for size, (_, codes) in _BASES.items()}

_PLAN_ERROR = "plan step {}: not 1 or 2 distinct qubits of 0..{}"
# Bounds of the compiled enumeration's caches (see the module docstring).
_SCHEDULES = 64
_KEY_TABLES = 16
_KEY_ROWS = 256


def _front_order(w: int, bits: Sequence[int]) -> tuple[int, ...]:
    """Axis order that moves index bits ``bits`` of a (rows, 2, ..., 2)
    tensor of w bits onto axes 1, 2, ..., the others after them in order."""
    front = [w - b for b in bits]  # axis 1 holds index bit w - 1
    return (0, *front, *(ax for ax in range(1, w + 1) if ax not in front))


def _draw(rng: np.random.Generator, joint: list[float]) -> int:
    """The index of an outcome of probabilities ``joint``, drawn bit by
    bit, highest first: each draw sets the bit with the share of the
    upper half in the indices left."""
    k, half = 0, len(joint)
    while half > 1:
        half //= 2
        upper = sum(joint[k + half:k + 2 * half])
        k += half * (rng.random() < upper / (upper + sum(joint[k:k + half])))
    return k


@lru_cache(maxsize=_SCHEDULES)
def _schedule(n: int, layout: tuple[int, ...],
              steps: tuple[tuple[int, ...], ...]) -> tuple[tuple, tuple]:
    """What ``outcome_law`` does, in a register of n qubits, to the row
    joined in ``layout`` (the qubit at each index bit) for ``steps``. Per
    step: the tensor shape, the axis order that brings its qubits first,
    the (rows, outcomes, rest) shape, the Bell basis (None for Z), the
    outcomes' basis states on new axes if a later step measures its
    qubits again (else None), and the shape of the result. Then the step
    sizes of each key group of ``_keys``."""
    held = list(layout)
    rows = group_rows = 1
    schedule = []
    groups: list[tuple[int, ...]] = [()]  # consecutive steps, <= _KEY_ROWS outcomes each
    for i, qubits in enumerate(steps):
        if len(qubits) not in _BASES or len(set(qubits)) < len(qubits):
            raise ValueError(_PLAN_ERROR.format(qubits, n - 1))
        basis, codes = _BASES[len(qubits)]
        w, k = len(held), len(codes)
        order = _front_order(w, [held.index(q) for q in qubits])
        held = [q for q in held if q not in qubits]
        again = None
        if any(q in later for later in steps[i + 1:] for q in qubits):
            # The outcome's basis state, on new top bits, first qubit highest.
            again = basis[:, :, None]
            held += reversed(qubits)
        schedule.append(((rows,) + (2,) * w, order, (rows, k, 1 << (w - len(qubits))),
                         basis if len(qubits) == 2 else None, again, (rows * k, 1 << len(held))))
        rows *= k
        if group_rows * k > _KEY_ROWS:
            groups.append(())
            group_rows = 1
        groups[-1] += (len(qubits),)
        group_rows *= k
    return tuple(schedule), tuple(groups)


@lru_cache(maxsize=_KEY_TABLES)
def _key_table(sizes: tuple[int, ...]) -> np.ndarray:
    """The key of every outcome of steps of ``sizes`` qubits, by digit:
    a read-only object array of tuples, shared by every law that uses it."""
    table = np.fromiter(itertools.product(*(_VALUES[size] for size in sizes)), dtype=object)
    table.flags.writeable = False
    return table


def _keys(groups: Sequence[tuple[int, ...]], rows: np.ndarray) -> np.ndarray:
    """The outcome key of each row index in ``rows``, one tuple from each
    group's table, joined; the last group's steps are the fastest digits."""
    *high, low = groups
    table = _key_table(low)
    if not high:
        return table[rows]
    rest, digit = np.divmod(rows, len(table))
    return _keys(high, rest) + table[digit]  # tuple + tuple, element by element


class _Factor:
    """Amplitudes over ``qubits``, qubit ``qubits[i]`` at bit i of an index."""

    __slots__ = ("psi", "qubits")

    def __init__(self, psi: np.ndarray, qubits: list[int]) -> None:
        self.psi = psi
        self.qubits = qubits


class DenseState:
    """Pure state of n qubits: a product of factors, a Z basis state for
    each qubit in none, and a global phase."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self.rng = rng
        self._of: dict[int, _Factor] = {}  # qubit -> the factor that holds it
        self._phase = 1.0 + 0.0j  # product of the factors left with no qubits
        self._known = 0  # bit q: the Z state of qubit q while q is in no factor
        self._touched = 0  # bit q set once any operation has acted on qubit q

    def _factor(self, q: int) -> _Factor:
        """The factor of qubit q, for a gate or measurement on q, which is
        then no longer fresh. A qubit in none first gets a factor of its
        own, its Z state."""
        self._touched |= 1 << q
        f = self._of.get(q)
        if f is None:
            psi = _BASES[1][0][(self._known >> q) & 1].astype(np.complex128)
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

    def apply_gate(self, gate: str, q: int) -> None:
        """Apply gate ``gate`` of ``_GATES`` to qubit q: its signs times
        q's rows of the factor, one per value of q's bit, then its scale."""
        signs, scale = _GATES[gate]
        f = self._factor(q)
        # ``dot`` gives (2, high, low), back to (high, 2, low) by a swap of
        # axes. On a factor of 4 amplitudes it takes about 1.8 us where
        # ``signs @ rows`` takes up to 2.9 us (numpy 2.4, 2-core x86 VM).
        rows = signs.dot(f.psi.reshape(-1, 2, 1 << f.qubits.index(q))).swapaxes(0, 1)
        if scale != 1.0:  # H only; X, Y and Z are their signs
            rows *= scale
        f.psi = rows.reshape(-1)

    def prepare_bell(self, a: int, b: int) -> None:
        """phi+ on two fresh qubits, as a new factor of 4 amplitudes."""
        if (self._touched >> a) & 1 or (self._touched >> b) & 1:
            raise ValueError(f"Bell pair ({a}, {b}) needs two fresh |0> qubits")
        self._touched |= (1 << a) | (1 << b)
        self._of[a] = self._of[b] = _Factor(_BASES[2][0][0].copy(), [a, b])

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

    def _measure(self, qubits: tuple[int, ...], k: int | None = None) -> tuple[int, float]:
        """Measure ``qubits``, Z for one qubit and Bell for a pair: the
        outcome's row k of ``_BASES`` (drawn unless given) and its
        probability. The measured qubits leave their factor in basis
        state k, a Z qubit as a known bit and a Bell pair as a factor of
        its own, and the rest keeps row k's overlap, normalized. A given
        k that cannot occur leaves the state's amplitudes as they are."""
        basis = _BASES[len(qubits)][0]
        if len(qubits) == 1:
            f = self._factor(qubits[0])
            # The basis is the identity: rows are a view, (outcome, high bits, low bits).
            rows = f.psi.reshape(-1, 2, 1 << f.qubits.index(qubits[0])).swapaxes(0, 1)
        else:
            f = self._merged(*qubits)
            w = len(f.qubits)
            order = _front_order(w, [f.qubits.index(q) for q in qubits])
            rows = basis @ f.psi.reshape((1,) + (2,) * w).transpose(order).reshape(4, -1)
        # Squared norms of the rows. Their last axis is contiguous, so they
        # view as floats; a run's rows hold at most 8 floats, which Python
        # sums faster than a numpy reduction would.
        parts = rows.view(np.float64)
        joint = [sum(row) for row in (parts * parts).reshape(len(basis), -1).tolist()]
        if k is None:
            k = _draw(self.rng, joint)
        elif joint[k] <= _MIN_PROB:
            return k, joint[k]
        rest = (rows[k] / math.sqrt(joint[k])).reshape(-1)
        kept = [q for q in f.qubits if q not in qubits]
        if kept:
            f.psi, f.qubits = rest, kept
        else:
            self._phase *= complex(rest[0])
        if len(qubits) == 1:
            del self._of[qubits[0]]
            self._known |= k << qubits[0]
        else:
            a, b = qubits
            self._of[a] = self._of[b] = _Factor(basis[k].copy(), [b, a])
        return k, joint[k]

    def measure_z(self, q: int) -> int:
        """One draw, also for a qubit in no factor: its Z state, which the
        draw cannot change, has probability exactly 1."""
        return self._measure((q,))[0]

    def measure_bell(self, a: int, b: int) -> int:
        """Bell-measure (a, b) and return the code (p << 1) | s: one draw
        gives the sign bit s, a second the parity bit p given s."""
        return int(_BASES[2][1][self._measure((a, b))[0]])

    # -- exact enumeration ---------------------------------------------

    def outcome_law(self, steps: tuple[tuple[int, ...], ...]) -> dict[tuple, float]:
        """Every outcome of measuring ``steps`` in turn, each (q,) for Z or
        (a, b) for Bell, with its probability: keyed by one value per step
        (the Z bit, or the Bell outcome as its ``BellType``), in the order
        of the module docstring. ValueError unless each step holds 1 or 2
        distinct qubits of the register; CapacityError if the factors the
        plan reaches hold more than DENSE_QUBIT_CAP qubits, before any is
        joined. This state is left as it is."""
        held: list[int] = []  # qubit at each index bit of the joined row
        reached: list[np.ndarray] = []  # the amplitudes of each factor the plan reaches
        for qubits in steps:
            for q in qubits:
                if q not in held:
                    if not 0 <= q < self.n:
                        raise ValueError(_PLAN_ERROR.format(qubits, self.n - 1))
                    f = self._of.get(q) or _Factor(_BASES[1][0][(self._known >> q) & 1], [q])
                    reached.append(f.psi)
                    held += f.qubits
        if len(held) > DENSE_QUBIT_CAP:
            raise CapacityError(f"a plan's law joins at most {DENSE_QUBIT_CAP} qubits, "
                                f"this one {len(held)}")
        schedule, groups = _schedule(self.n, tuple(held), steps)
        amps = np.ones((1, 1), dtype=np.complex128)  # one row per outcome string
        for psi in reached:
            amps = (psi[:, None] * amps).reshape(1, -1)
        for shape, order, split, basis, again, joined in schedule:
            parts = amps.reshape(shape).transpose(order).reshape(split)
            if basis is not None:
                parts = basis @ parts
            if again is not None:
                parts = parts[:, :, None, :] * again
            amps = parts.reshape(joined)
        probs = (amps.real**2 + amps.imag**2).sum(axis=1)
        kept = (probs > _MIN_PROB).nonzero()[0]
        return dict(zip(_keys(groups, kept).tolist(), probs[kept].tolist()))

    def copy(self) -> "DenseState":
        c = DenseState.__new__(DenseState)
        c.n = self.n
        c.rng = self.rng
        c._phase = self._phase
        c._known = self._known
        c._touched = self._touched
        copies = {f: _Factor(f.psi.copy(), list(f.qubits)) for f in dict.fromkeys(self._of.values())}
        c._of = {q: copies[f] for q, f in self._of.items()}
        return c
