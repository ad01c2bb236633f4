"""Bit-packed GF(4) vectors for the hot combinatorial loops.

A length-L vector is a pair of ints (hi, lo): bit i of hi/lo holds the
high/low bit of coordinate i.  Addition is coordinate-wise XOR of both
words; scalar multiplication permutes the two bit planes:

    w  * (hi, lo) = (hi ^ lo, hi)
    w2 * (hi, lo) = (lo, hi ^ lo)

Column-subset rank scans spend all their time in ``reduce``; keeping the
vectors as two machine ints makes each elimination step O(1) regardless
of L (up to word growth), which is what makes exhaustive d-1 column scans
and locality searches feasible in pure Python.
"""

from __future__ import annotations

from .gf4 import INV
from .mat4 import Mat4

Vec = tuple[int, int]

ZERO: Vec = (0, 0)


def scalar_mul(lam: int, v: Vec) -> Vec:
    hi, lo = v
    if lam == 1:
        return v
    if lam == 2:
        return hi ^ lo, hi
    if lam == 3:
        return lo, hi ^ lo
    return 0, 0


def coeff_at(v: Vec, pos: int) -> int:
    return (((v[0] >> pos) & 1) << 1) | ((v[1] >> pos) & 1)


def lead(v: Vec) -> int:
    """Position of the top nonzero coordinate (-1 for the zero vector)."""
    return (v[0] | v[1]).bit_length() - 1


def pack_columns(m: Mat4) -> list[Vec]:
    """Each column as a packed vector over the row index."""
    out = []
    a = m.array
    for c in range(m.cols):
        hi = lo = 0
        col = a[:, c]
        for r in range(m.rows):
            e = int(col[r])
            hi |= (e >> 1) << r
            lo |= (e & 1) << r
        out.append((hi, lo))
    return out


def pack_rows(m: Mat4) -> list[Vec]:
    return pack_columns(m.transpose())


def multiples(v: Vec) -> tuple[Vec, Vec, Vec, Vec]:
    """(0, v, w*v, w2*v) indexed by the scalar."""
    hi, lo = v
    return (0, 0), v, (hi ^ lo, hi), (lo, hi ^ lo)


class Eliminator:
    """Incremental echelon basis with pushes undoable in LIFO order.

    Basis vectors keep distinct leading positions, sorted descending, so
    reducing a vector is one top-down elimination pass.  ``push`` returns
    True when the vector extended the rank (and records how to undo it),
    which is exactly the dependency signal the subset scans need.
    """

    def __init__(self) -> None:
        self._basis: list[tuple[int, tuple[Vec, Vec, Vec, Vec]]] = []
        self._trail: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._basis)

    def reduce(self, v: Vec) -> Vec:
        for pos, mults in self._basis:
            e = coeff_at(v, pos)
            if e:
                m = mults[e]
                v = (v[0] ^ m[0], v[1] ^ m[1])
        return v

    def push(self, v: Vec) -> bool:
        v = self.reduce(v)
        if v == (0, 0):
            self._trail.append(-1)
            return False
        pos = lead(v)
        e = coeff_at(v, pos)
        if e != 1:
            v = scalar_mul(INV[e], v)  # lead coefficient 1 so mults[e] cancels
        entry = (pos, multiples(v))
        basis = self._basis
        at = len(basis)
        while at > 0 and basis[at - 1][0] < pos:
            at -= 1
        basis.insert(at, entry)
        self._trail.append(at)
        return True

    def pop(self) -> None:
        at = self._trail.pop()
        if at >= 0:
            del self._basis[at]


def rank_of(vectors: list[Vec]) -> int:
    e = Eliminator()
    for v in vectors:
        e.push(v)
    return e.rank
