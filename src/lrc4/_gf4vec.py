"""Bit-packed GF(4) vectors for the hot combinatorial loops.

A length-L vector is a pair of ints (hi, lo): bit i of hi/lo holds the
high/low bit of coordinate i.  Addition is coordinate-wise XOR of both
words; scalar multiplication permutes the two bit planes:

    w  * (hi, lo) = (hi ^ lo, hi)
    w2 * (hi, lo) = (lo, hi ^ lo)

Column-subset rank scans spend nearly all their time in
``Eliminator.push``.  It keeps each basis vector with its lead bit and
its three nonzero multiples, so one elimination step is a bit test and
two XORs on machine ints regardless of L (up to word growth), which is
what makes exhaustive d-1 column scans feasible in pure Python.  The
locality search instead keeps a node's later columns reduced modulo the
columns it picked: ``reduce_by`` adds one pivot to such a list with the
same bit test and two XORs per vector, so a column's rank test is a
zero test.
"""

from __future__ import annotations

from .mat4 import Mat4

Vec = tuple[int, int]


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


class Eliminator:
    """Incremental echelon basis with pushes undoable in LIFO order.

    Basis vectors are kept in push order.  Each was reduced by all
    earlier ones before it was appended, so it is zero at their leading
    positions, and reducing a vector in push order clears every leading
    position in turn.  A vector's lead is its lowest nonzero coordinate,
    scaled to 1, and its entry is ``(bit, h1, l1, h2, l2, h3, l3)``: the
    one-hot mask of the lead and the multiples 1, w, w2 of the vector,
    so the coefficient read at ``bit`` picks the multiple that cancels
    it.  ``push`` returns True when the vector extended the rank, which
    is exactly the dependency signal the subset scans need.
    """

    def __init__(self) -> None:
        self._basis: list[tuple[int, int, int, int, int, int, int]] = []
        self._trail: list[bool] = []

    @property
    def rank(self) -> int:
        return len(self._basis)

    def push(self, v: Vec) -> bool:
        hi, lo = v
        for bit, h1, l1, h2, l2, h3, l3 in self._basis:
            if hi & bit:
                if lo & bit:
                    hi ^= h3
                    lo ^= l3
                else:
                    hi ^= h2
                    lo ^= l2
            elif lo & bit:
                hi ^= h1
                lo ^= l1
        x = hi | lo
        if not x:
            self._trail.append(False)
            return False
        bit = x & -x
        if hi & bit:  # lead coefficient w or w2: multiply by its inverse
            hi, lo = (hi ^ lo, hi) if lo & bit else (lo, hi ^ lo)
        m = hi ^ lo
        self._basis.append((bit, hi, lo, m, hi, lo, m))
        self._trail.append(True)
        return True

    def pop(self) -> None:
        if self._trail.pop():
            self._basis.pop()


def reduce_by(v: Vec, tagged: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Clear the lead coordinate of the nonzero vector v from tagged vectors.

    Each item is ``(tag, hi, lo)``; the result keeps tags and order.  v
    is scaled so its lead (lowest nonzero coordinate) is 1, and each
    vector gets the multiple of v that cancels its coefficient there, as
    in ``Eliminator.push``.  When v was itself reduced by earlier pivots
    and the vectors were reduced by the same pivots, a vector reduces to
    zero exactly when it lies in the span of the pivots and v.
    """
    hi, lo = v
    x = hi | lo
    bit = x & -x
    if hi & bit:
        hi, lo = (hi ^ lo, hi) if lo & bit else (lo, hi ^ lo)
    m = hi ^ lo
    out = []
    for t, h, l in tagged:
        if h & bit:
            if l & bit:  # coefficient w2
                h ^= lo
                l ^= m
            else:  # coefficient w
                h ^= m
                l ^= hi
        elif l & bit:
            h ^= hi
            l ^= lo
        out.append((t, h, l))
    return out


def rank_of(vectors: list[Vec]) -> int:
    e = Eliminator()
    for v in vectors:
        e.push(v)
    return e.rank
