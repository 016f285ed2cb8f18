"""Dense statevector backend: the exact, small-register ground truth.

Keeps all 2^n complex amplitudes (qubit q maps to bit q of the index,
least significant first) and supports the register's operation set plus
exact branch enumeration, which every brute-force oracle check runs on
and from which the pair-block backend builds its tables.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

DENSE_QUBIT_CAP = 24

_SQRT1_2 = 1.0 / np.sqrt(2.0)

_cnot_cache: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}


def _cnot_indices(n: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    key = (n, control, target)
    cached = _cnot_cache.get(key)
    if cached is None:
        idx = np.arange(1 << n)
        src = idx[((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)]
        cached = _cnot_cache[key] = (src, src | (1 << target))
    return cached


class DenseState:
    """Pure statevector of up to DENSE_QUBIT_CAP qubits."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self.rng = rng
        self.amps = np.zeros(1 << n, dtype=np.complex128)
        self.amps[0] = 1.0
        self._touched = 0  # bit q set once any operation has acted on qubit q

    # -- gates ---------------------------------------------------------

    def _halves(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        # Every gate and measurement on q passes here: q is no longer fresh.
        self._touched |= 1 << q
        # View amplitudes as (high, qubit q, low); low block size 2^q.
        v = self.amps.reshape(-1, 2, 1 << q)
        return v[:, 0, :], v[:, 1, :]

    def apply_x(self, q: int) -> None:
        a0, a1 = self._halves(q)
        tmp = a0.copy()
        a0[:] = a1
        a1[:] = tmp

    def apply_y(self, q: int) -> None:
        # i*sigma_y = [[0, 1], [-1, 0]]; real, global phase of sigma_y dropped.
        a0, a1 = self._halves(q)
        tmp = a0.copy()
        a0[:] = a1
        a1[:] = -tmp

    def apply_z(self, q: int) -> None:
        _, a1 = self._halves(q)
        a1 *= -1.0

    def apply_h(self, q: int) -> None:
        a0, a1 = self._halves(q)
        s, d = (a0 + a1) * _SQRT1_2, (a0 - a1) * _SQRT1_2
        a0[:] = s
        a1[:] = d

    def apply_cnot(self, control: int, target: int) -> None:
        src, dst = _cnot_indices(self.n, control, target)
        self.amps[src], self.amps[dst] = self.amps[dst].copy(), self.amps[src].copy()

    def prepare_bell(self, a: int, b: int) -> None:
        """phi+ on two fresh qubits: H on a, then CNOT from a to b."""
        if (self._touched >> a) & 1 or (self._touched >> b) & 1:
            raise ValueError(f"Bell pair ({a}, {b}) needs two fresh |0> qubits")
        self._touched |= 1 << b
        self.apply_h(a)
        self.apply_cnot(a, b)

    # -- measurement ---------------------------------------------------

    def prob_one(self, q: int) -> float:
        a0, a1 = self._halves(q)
        return float(np.vdot(a1, a1).real)

    def project(self, q: int, outcome: int) -> float:
        """Project qubit q onto |outcome> and renormalize; returns the
        branch probability (state left untouched if probability ~ 0)."""
        a0, a1 = self._halves(q)
        keep, kill = (a1, a0) if outcome else (a0, a1)
        p = float(np.vdot(keep, keep).real)
        if p > 1e-12:
            kill[:] = 0.0
            self.amps /= np.sqrt(p)
        return p

    def measure_z(self, q: int) -> int:
        p1 = self.prob_one(q)
        outcome = 1 if self.rng.random() < p1 else 0
        self.project(q, outcome)
        return outcome

    def measure_bell(self, a: int, b: int) -> int:
        """Bell-measure (a, b) by the engine's gate decomposition and
        return the two-bit code (p << 1) | s."""
        self.apply_cnot(a, b)
        self.apply_h(a)
        s = self.measure_z(a)
        p = self.measure_z(b)
        self.apply_h(a)
        self.apply_cnot(a, b)
        return (p << 1) | s

    def bell_branches(self, a: int, b: int) -> Iterator[tuple[int, int, float, "DenseState"]]:
        """(s, p, probability, collapsed copy) for every Bell outcome of
        (a, b) that can occur; this state is left as it is."""
        work = self.copy()
        work.apply_cnot(a, b)
        work.apply_h(a)
        joint = work.pair_probs(a, b)
        for s in (0, 1):
            for p in (0, 1):
                prob = float(joint[s][p])
                if prob <= 1e-12:
                    continue
                branch = work.copy()
                branch.project_pair(a, b, s, p, prob)
                branch.apply_h(a)
                branch.apply_cnot(a, b)
                yield s, p, prob, branch

    def pair_probs(self, a: int, b: int) -> np.ndarray:
        """Joint Z-outcome probabilities of qubits (a, b), shape (2, 2)
        indexed [value_a][value_b]."""
        n = self.n
        p = (self.amps.real**2 + self.amps.imag**2).reshape([2] * n)
        axes = tuple(ax for ax in range(n) if ax not in (n - 1 - a, n - 1 - b))
        p = p.sum(axis=axes)
        return p if a > b else p.T

    def project_pair(self, a: int, b: int, va: int, vb: int, prob: float) -> None:
        """Collapse qubits (a, b) onto |va vb> given the sector probability."""
        n = self.n
        v = self.amps.reshape([2] * n)
        idx: list = [slice(None)] * n
        idx[n - 1 - a] = 1 - va
        v[tuple(idx)] = 0.0
        idx = [slice(None)] * n
        idx[n - 1 - b] = 1 - vb
        v[tuple(idx)] = 0.0
        self.amps /= np.sqrt(prob)

    def copy(self) -> "DenseState":
        c = DenseState.__new__(DenseState)
        c.n = self.n
        c.rng = self.rng
        c.amps = self.amps.copy()
        c._touched = self._touched
        return c
