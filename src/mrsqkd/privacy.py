"""Privacy amplification by Toeplitz universal hashing over GF(2).

The hash is a binary Toeplitz matrix applied to the raw key. A matrix
with ``out`` rows and ``inp`` columns is defined by ``inp + out - 1``
seed bits laid out along its diagonals: T[i][j] = seed[inp - 1 + i - j],
so seed index inp-1 is the top-left entry, lower indexes run right along
the first row and higher indexes run down the first column.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bytes(bits: Sequence[int], what: str) -> bytes:
    """``bits`` as bytes 0 and 1; ValueError unless every bit is 0 or 1."""
    try:  # bytes() of a numpy array would read its raw buffer, so list it
        raw = bytes(bits if isinstance(bits, (list, tuple)) else list(bits))
    except (TypeError, ValueError):  # an item that is no int in 0..255
        raw = b"?"
    if raw.translate(None, b"\x00\x01"):
        raise ValueError(f"{what} must be 0/1")
    return raw


def _pack(raw: bytes) -> int:
    """Bytes 0 and 1 as a binary number, raw[0] the most significant."""
    return int(b"0" + raw.translate(_DIGITS), 2)


@dataclass(frozen=True)
class PAParams:
    """Compression ratio plus the Toeplitz seed bits for one application."""

    ratio: Fraction
    seed_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ratio", Fraction(self.ratio))
        object.__setattr__(self, "seed_bits", tuple(self.seed_bits))
        if not (0 < self.ratio <= 1):
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio}")
        _bytes(self.seed_bits, "seed bits")


def output_length(input_len: int, ratio: Fraction) -> int:
    """floor(input_len * ratio), for a length ``input_len`` >= 0."""
    ratio = Fraction(ratio)
    return input_len * ratio.numerator // ratio.denominator


def seed_length(input_len: int, ratio: Fraction) -> int:
    """Number of seed bits needed for a raw key of ``input_len`` bits."""
    if input_len == 0:
        return 0
    return input_len + output_length(input_len, ratio) - 1


def check_input(raw: Sequence[int], params: PAParams) -> bytes:
    """The raw key as bytes 0 and 1, after the checks ``amplify`` makes:
    ValueError unless ``params`` has the seed length this key needs and
    every raw bit is 0 or 1."""
    inp = len(raw)
    if len(params.seed_bits) != seed_length(inp, params.ratio):
        raise ValueError(
            f"seed has {len(params.seed_bits)} bits, "
            f"need {seed_length(inp, params.ratio)} for input length {inp}"
        )
    return _bytes(raw, "raw key bits")


def amplify(raw: Sequence[int], params: PAParams) -> list[int]:
    """Compress a raw key: output[i] = XOR over j of T[i][j] * raw[j]."""
    raw_rev = _pack(check_input(raw, params))
    # Row i of T reads seed bits inp-1+i down to i: with seed_bits[k] at
    # bit k, shifting the packed seed right by i lines them up with the
    # packed key, raw[0] highest, so each row is one AND and a popcount.
    # ``PAParams`` has checked that every seed bit is 0 or 1.
    seed_int = _pack(bytes(params.seed_bits[::-1]))
    out = output_length(len(raw), params.ratio)
    return [((seed_int >> i) & raw_rev).bit_count() & 1 for i in range(out)]
