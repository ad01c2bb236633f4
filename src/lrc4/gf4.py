"""Arithmetic in the four-element field GF(4) = {0, 1, w, w^2}.

Elements are plain ints 0..3 under the 2-bit encoding

    0 -> 00,  1 -> 01,  w -> 10,  w^2 -> 11,

so addition is XOR (characteristic 2) and multiplication follows from
w^2 = w + 1, w^3 = 1.  Multiplication and inversion are 4-entry lookup
tables; everything is branch-free and exhaustively testable.

Textual symbols are ``0 1 w W`` with capital W standing for w^2.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

ZERO = 0
ONE = 1
W = 2
W2 = 3

ELEMENTS = (ZERO, ONE, W, W2)
NONZERO = (ONE, W, W2)

# MUL[a][b] = a*b.  Row/column 0 absorb; the nonzero part is the cyclic
# group of order 3 generated by w.
MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)

# INV[a] = a^-1 for a != 0 (w and w^2 are mutually inverse since w^3 = 1).
INV = (0, 1, 3, 2)

SYMBOLS = ("0", "1", "w", "W")
_SYMBOL_TO_ELEMENT = {"0": 0, "1": 1, "w": 2, "W": 3}

# numpy mirror of MUL for vectorized table lookups on uint8 arrays.
MUL_NP = np.array(MUL, dtype=np.uint8)

_BOOLS = frozenset((bool, np.bool_))
# each element under every value equal to it, which hashes as it does
_ELEMENT_OF = {e: e for e in ELEMENTS}


def _integers(values: Iterable[int], what: str) -> list[int]:
    """The values as ints, by the package's one integer rule: a value
    equal to its int() that is no bool, Python's or numpy's (2.0 and
    numpy ints pass; 1.5, "2" and True raise ValueError)."""
    values = list(values)
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values or not _BOOLS.isdisjoint(map(type, values)):
        raise ValueError(f"{what} must be integers, got {values}")
    return ints


def _elements(values: Iterable, what: str, erasures: bool = False) -> list:
    """The values as field elements, by :func:`_integers`'s rule in the range
    0..3: a value equal to one of the ints 0..3 that is no bool (2.0 and
    numpy ints pass; 7, 1.5 and True raise ValueError), or, with
    ``erasures``, None."""
    values = list(values)
    table = {None: None, **_ELEMENT_OF} if erasures else _ELEMENT_OF
    try:
        if _BOOLS.isdisjoint(map(type, values)):
            return list(map(table.__getitem__, values))
    except (KeyError, TypeError):  # no element, or unhashable
        pass
    bad = [v for v in values if type(v) in _BOOLS or v not in tuple(table)]
    raise ValueError(f"{what} must be integers 0..3; {bad} are not GF(4) elements")


def add(a: int, b: int) -> int:
    """Field addition (XOR of the 2-bit codes)."""
    return a ^ b


def mul(a: int, b: int) -> int:
    """Field multiplication via the 4x4 lookup table."""
    return MUL[a][b]


def inv(a: int) -> int:
    """Multiplicative inverse; raises ZeroDivisionError on 0."""
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(4)")
    return INV[a]


def to_symbol(a: int) -> str:
    """Render an element as one of ``0 1 w W``."""
    return SYMBOLS[a]


def from_symbol(s: str) -> int:
    """Parse one of ``0 1 w W`` (also accepts ``w2``/``w^2`` for w^2)."""
    if s in _SYMBOL_TO_ELEMENT:
        return _SYMBOL_TO_ELEMENT[s]
    if s in ("w2", "w^2", "W2"):
        return W2
    raise ValueError(f"not a GF(4) symbol: {s!r}")
