"""Classical algebra of Bell-state codes and entanglement-swapping identities.

Every function here is pure bit arithmetic on two-bit codes (p << 1) | s,
which ``BellType`` members are: sign bit s low, parity bit p high (1 for
psi-type, 0 for phi-type). The identities take members and plain codes
alike, passed as plain arguments. Cycles of swapped pairs preserve the
XOR of two-bit codes, and chains terminated by Z-collapsed qubits relate
the two Z results through the XOR of all parity bits along the chain: the
high bit of one XOR, written once, in ``infer_remote_bit``.
"""
from __future__ import annotations

from enum import Enum, IntEnum
from typing import Sequence


class BellType(IntEnum):
    """The four Bell states. Each member is its two-bit code."""

    PHI_PLUS = 0b00
    PHI_MINUS = 0b01
    PSI_PLUS = 0b10
    PSI_MINUS = 0b11

    __str__ = Enum.__str__  # "BellType.PSI_PLUS", not the int's "2"


_BELL_BY_CODE = tuple(BellType)  # index = two-bit code; faster than BellType(code)


def parity(v: int) -> int:
    """One-bit code: 1 for psi-type, 0 for phi-type (the high bit of the two-bit code)."""
    return v >> 1


def _check_bit(b: int, name: str) -> None:
    """ValueError unless b is 0 or 1. The chain identities, which run once
    per outcome, test ``b != 0 and b != 1`` inline and call this only to
    raise."""
    if b not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {b!r}")


def xor_rule_holds(initials: Sequence[int], results: Sequence[int]) -> bool:
    """Swapping rule for a cycle of Bell pairs: XOR of result codes equals
    XOR of initial-state codes. With a single pair this reduces to
    result == initial.
    """
    if not initials or not results:
        raise ValueError("initials and results must be nonempty")
    if len(initials) != len(results):
        raise ValueError(
            f"length mismatch: {len(initials)} initials vs {len(results)} results"
        )
    acc = 0
    for c in initials:
        acc ^= c
    for c in results:
        acc ^= c
    return acc == 0


def collapse_partner(is_: int, measured: int) -> int:
    """Z value of the surviving qubit after one qubit of the pair is Z-measured.

    phi-type pairs are Z-correlated, psi-type anti-correlated; the sign bit
    never shows up in Z statistics.
    """
    _check_bit(measured, "measured")
    return measured ^ parity(is_)


def bm_parity(z1: int, z2: int) -> int:
    """Parity code of any Bell measurement on the product state |z1 z2>.

    Equal bits give a phi-type result, unequal bits a psi-type result; the
    sign bit is uniformly random and not determined by (z1, z2).
    """
    _check_bit(z1, "z1")
    _check_bit(z2, "z2")
    return z1 ^ z2


def infer_remote_bit(
    own_zmr: int,
    is_own: int,
    is_remote: int,
    intermediates: Sequence[int],
    mrs: Sequence[int],
) -> int:
    """Compute the far endpoint's Z result from one's own Z result and the
    published Bell measurement results of the chain in between.

    The relation is remote == own_zmr ^ parity(is_own) ^ parity(is_remote)
    ^ XOR of intermediate parities ^ XOR of result parities. When every
    initial state is phi+ the initial-state terms vanish, which is the
    only case an honest protocol run ever produces; the general form also
    covers adversarially prepared pairs.
    """
    if own_zmr != 0 and own_zmr != 1:
        _check_bit(own_zmr, "own_zmr")
    if len(mrs) != len(intermediates) + 1:
        raise ValueError(
            f"need len(mrs) == len(intermediates) + 1, got {len(mrs)} vs {len(intermediates)}"
        )
    acc = is_own ^ is_remote
    for c in intermediates:
        acc ^= c
    for c in mrs:
        acc ^= c
    return own_zmr ^ (acc >> 1)


def chain_relation_holds(
    is1: int,
    is2: int,
    intermediates: Sequence[int],
    zmr1: int,
    zmr2: int,
    mrs: Sequence[int],
) -> bool:
    """Whether a chain's endpoint Z results are consistent with its Bell
    measurement results.

    A chain is a line of Bell measurements between two Z-collapsed
    endpoint qubits. ``is1``/``is2`` are the endpoint pairs' initial
    states, ``intermediates`` the initial states of the pairs strung
    between them, ``zmr1``/``zmr2`` the endpoint Z results, and ``mrs``
    the Bell measurement results along the chain (one more than there
    are intermediate pairs). The relation is the one ``infer_remote_bit``
    solves for the far end.
    """
    if zmr1 != 0 and zmr1 != 1:
        _check_bit(zmr1, "zmr1")
    if zmr2 != 0 and zmr2 != 1:
        _check_bit(zmr2, "zmr2")
    return zmr2 == infer_remote_bit(zmr1, is1, is2, intermediates, mrs)
