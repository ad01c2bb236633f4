"""Bit-packed GF(4) vectors for the hot combinatorial loops.

A length-L vector is a pair of ints (hi, lo): bit i of hi/lo holds the
high/low bit of coordinate i.  Addition is coordinate-wise XOR of both
words; scalar multiplication permutes the two bit planes:

    w  * (hi, lo) = (hi ^ lo, hi)
    w2 * (hi, lo) = (lo, hi ^ lo)

Column-subset rank scans spend nearly all their time in
``Eliminator``.  It keeps each basis vector with its lead bit and its
three nonzero multiples, so one elimination step is a bit test and two
XORs on machine ints regardless of L (up to word growth).  The column
scan keeps a node's later columns reduced modulo the columns it picked:
after a pick raises the rank, ``Eliminator.reduce`` takes that one step
per later column, so each push meets a reduced column and, by the OR of
the leads it keeps, skips its loop over the basis.  That is what makes
exhaustive d-1 column scans feasible in pure Python.  The locality
search keeps such lists on one ``Eliminator`` too, so a column's rank
test is a zero test.  It packs a tag above each column's k residual
bits, and pushes each pivot with its own tag bit set, so the same XORs
carry the pivot combination each residual absorbed.  ``points`` and
``reduce_planes`` are ``point`` and that reduction step over numpy
arrays of packed vectors, for the search's table of the point keys of
every column modulo every pivot pair.  The third user of that step
is ``echelon``, the exact reduced row-echelon kernel behind
``Mat4.rref``, ``rank``, ``row_basis`` and ``right_kernel``, the
local repair solve and the restructuring's local dual bases; ``kernel``
reads a right-kernel basis off its output, for ``Mat4.right_kernel``,
the structure checks' H' on packed rows and, for the blockwise
distance's splice tables, each group's local kernel with its words'
global syndromes (the kernel of [[L_b, 0], [G_b, I]]).  ``pack`` and ``unpack``
move whole arrays in and out of the packed form with C-level byte
translation, never a loop over entries.
``pack_word`` packs a received word with erasures for local repair.
``span``, the coordinate codec ``mask``/``coordinates`` and ``dots``
complete the format's rules, which no other module spells out.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

Vec = tuple[int, int]

# entry byte -> ASCII digit of its high / low bit, for int(..., 2), and of
# whether it is an erasure; an erasure is byte 4, whose planes are 0
_ERASURE = 4
_HI_DIGIT = bytes.maketrans(bytes(range(5)), b"00110")
_LO_DIGIT = bytes.maketrans(bytes(range(5)), b"01010")
_ERASED_DIGIT = bytes.maketrans(bytes(range(5)), b"00001")
# ASCII bit digit -> its value as a high bit, for ``unpack``
_BIT_BYTE = bytes.maketrans(b"01", b"\x00\x02")


def pack(a: np.ndarray) -> list[Vec]:
    """Each row of a 2-d uint8 array with entries 0..3 as a packed vector.

    The array's bytes are reversed, so every row reads last entry first,
    and translated to one ASCII bit string per plane: ``int(..., 2)`` of
    a row's slice puts entry i at bit i.  No Python loop touches an
    entry.
    """
    m, n = a.shape
    if not n:
        return [(0, 0)] * m
    raw = a.tobytes()[::-1]
    hi = raw.translate(_HI_DIGIT)
    lo = raw.translate(_LO_DIGIT)
    return [(int(hi[i : i + n], 2), int(lo[i : i + n], 2)) for i in range(m * n - n, -1, -n)]


def pack_word(word: list) -> tuple[int, int, int]:
    """A received word of entries 0..3 and None (an erasure) as its
    packed planes, 0 at its erasures, and the mask of its erasures; the
    word's bytes, last entry first, translated as ``pack`` does."""
    raw = bytes([_ERASURE if x is None else x for x in reversed(word)])
    return (int(raw.translate(_HI_DIGIT), 2), int(raw.translate(_LO_DIGIT), 2),
            int(raw.translate(_ERASED_DIGIT), 2))


def unpack(vectors: list[Vec], n: int) -> np.ndarray:
    """The inverse of ``pack``: a read-only (len(vectors), n) uint8 array.

    The high planes, then the low planes, are written as ASCII bits,
    most significant first, and translated to bytes 0/2; as little-endian
    ints, halving the low part turns its 2s into 1s and an OR merges the
    planes.  Written out big-endian, the vectors come out in reverse
    order, so they are taken in reverse.
    """
    k = len(vectors)
    kn = k * n
    if not kn:
        return np.zeros((k, n), dtype=np.uint8)
    fmt = f"0{n}b"
    rev = vectors[::-1]
    raw = "".join([format(h, fmt) for h, _ in rev] + [format(l, fmt) for _, l in rev])
    raw = raw.encode().translate(_BIT_BYTE)
    x = int.from_bytes(raw[:kn], "little") | int.from_bytes(raw[kn:], "little") >> 1
    return np.ndarray((k, n), np.uint8, x.to_bytes(kn, "big"))


def pack_columns(m) -> list[Vec]:
    """Each column of a Mat4 as a packed vector over the row index."""
    return pack(m.array.T)


def pack_rows(m) -> list[Vec]:
    return pack(m.array)


def echelon(rows: list[Vec]) -> list[int]:
    """Reduce packed rows in place to reduced row-echelon form.

    Returns the pivot columns, strictly increasing; rows ``0..rank-1``
    then hold the pivot rows, each 1 at its pivot and 0 at the others,
    and the rest are zero.  The pivot rule is the dense one: the
    leftmost column that is nonzero in a row not yet used, and the first
    such row.  Each row op is the bit test and two XORs of
    ``Eliminator.push``.
    """
    pivots = []
    m = len(rows)
    for p in range(m):
        x = 0
        for h, l in rows[p:]:
            x |= h | l
        if not x:
            break
        bit = x & -x
        i = p
        while not (rows[i][0] | rows[i][1]) & bit:
            i += 1
        hi, lo = rows[i]
        rows[i] = rows[p]
        if hi & bit:  # lead w or w2: scale by its inverse
            hi, lo = (hi ^ lo, hi) if lo & bit else (lo, hi ^ lo)
        rows[p] = (hi, lo)
        mix = hi ^ lo
        for j in range(m):
            h, l = rows[j]
            if j == p or not (h | l) & bit:
                continue
            if h & bit:
                rows[j] = (h ^ lo, l ^ mix) if l & bit else (h ^ mix, l ^ hi)
            else:
                rows[j] = (h ^ hi, l ^ lo)
        pivots.append(bit.bit_length() - 1)
    return pivots


def span(basis: list[Vec]) -> list[Vec]:
    """The 4^k words of the span of k independent packed vectors in
    :meth:`Mat4.span_words` order, the zero word first: word j is
    sum_i s_i * basis[i], where s_i is the i-th base-4 digit of j,
    basis[0]'s the most significant, read as 0, 1, w, w2."""
    words = [(0, 0)]
    for h, l in reversed(basis):  # add the multiples 1, w, w2 of each vector
        m = h ^ l
        words += [(a ^ x, b ^ y) for x, y in ((h, l), (m, h), (l, m)) for a, b in words]
    return words


def mask(coords: Iterable[int]) -> int:
    """The bit mask of distinct 1-based coordinates: coordinate c is bit c - 1."""
    return sum(1 << c - 1 for c in coords)


def coordinates(bits: int) -> list[int]:
    """The 1-based coordinates of a mask's set bits, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return out


def dots(rows: Iterable[Vec], word: Vec) -> list[int]:
    """The inner product of each packed row with the packed word, as a
    field element 0..3.  With x = x1 w + x0 and w^2 = w + 1, sum_i a_i b_i
    has w-part parity((A1 & (B1 ^ B0)) ^ (A0 & B1)) and 1-part
    parity((A1 & B1) ^ (A0 & B0)) over the bit planes."""
    wh, wl = word
    t = wh ^ wl
    out = []
    for ah, al in rows:  # a loop: on a group's few rows a comprehension costs more
        out.append((((ah & t) ^ (al & wh)).bit_count() & 1) << 1
                   | ((ah & wh) ^ (al & wl)).bit_count() & 1)
    return out


def kernel(rows: list[Vec], cols: int) -> list[Vec]:
    """Basis of the right kernel of packed rows over the columns in the
    bit mask ``cols``, outside which the rows must vanish.

    The rows are reduced in place by ``echelon``, so the rank is
    ``cols.bit_count()`` minus the basis size.  The vector for free
    column f (a column of ``cols`` that is no pivot) is 1 at f and, at
    each pivot, that pivot row's entry at f (char 2: no negation).
    """
    pivots = echelon(rows)
    free = cols
    for p in pivots:
        free ^= 1 << p
    basis = []
    while free:
        bit = free & -free
        free ^= bit
        hi, lo = 0, bit
        for p, (h, l) in zip(pivots, rows):
            if h & bit:
                hi |= 1 << p
            if l & bit:
                lo |= 1 << p
        basis.append((hi, lo))
    return basis


class Eliminator:
    """Incremental echelon basis with pushes undoable in LIFO order.

    Basis vectors are kept in push order.  Each was reduced by all
    earlier ones before it was appended, so it is zero at their leading
    positions, and reducing a vector in push order clears every leading
    position in turn.  A vector's lead is its lowest nonzero coordinate,
    scaled to 1, and its entry is ``(bit, h1, l1, h2, l2, h3, l3)``: the
    one-hot mask of the lead and the multiples 1, w, w2 of the vector,
    so the coefficient read at ``bit`` picks the multiple that cancels
    it.  ``_leads`` is the OR of the entries' lead bits: a vector zero
    at all of them is already reduced, and ``push`` skips the loop over
    the basis.  ``push`` returns True when the vector extended the rank,
    which is exactly the dependency signal the subset scans need.
    ``reduce`` clears the newest lead from a list of vectors, so vectors
    reduced once per push reach their own ``push`` with nothing left to
    reduce.  The constructor pushes ``vectors`` in order.
    """

    def __init__(self, vectors: Iterable[Vec] = ()) -> None:
        self._basis: list[tuple[int, int, int, int, int, int, int]] = []
        self._trail: list[bool] = []
        self._leads = 0
        for v in vectors:
            self.push(v)

    @property
    def rank(self) -> int:
        return len(self._basis)

    def push(self, v: Vec) -> bool:
        hi, lo = v
        if (hi | lo) & self._leads:
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
        self._leads |= bit
        self._trail.append(True)
        return True

    def pop(self) -> None:
        if self._trail.pop():
            self._leads ^= self._basis.pop()[0]

    def reduce(self, vectors: list[Vec]) -> list[Vec]:
        """The vectors less the multiples of the newest basis vector that
        clear its lead, one bit test and two XORs each.  Vectors reduced
        by every earlier basis vector come out reduced by the whole
        basis, so pushing one skips the loop."""
        bit, h1, l1, h2, l2, h3, l3 = self._basis[-1]
        out = []
        for v in vectors:
            hi, lo = v
            if hi & bit:
                out.append((hi ^ h3, lo ^ l3) if lo & bit else (hi ^ h2, lo ^ l2))
            elif lo & bit:
                out.append((hi ^ h1, lo ^ l1))
            else:
                out.append(v)
        return out


def point(hi: int, lo: int) -> Vec:
    """The nonzero packed vector scaled so its lowest nonzero entry is 1."""
    x = hi | lo
    bit = x & -x
    if hi & bit:  # lead w or w2: multiply by its inverse
        return (hi ^ lo, hi) if lo & bit else (lo, hi ^ lo)
    return hi, lo


def points(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``point`` over arrays of packed vectors, unsigned ints; zero
    vectors stay zero.  Products with boolean masks pick the multiple,
    since a masked select would branch on every entry."""
    x = hi | lo
    bit = x & -x
    up = (hi & bit) != 0  # lead w or w2
    w2 = up & ((lo & bit) != 0)  # lead w2: times w; lead w: times w2
    w = up ^ w2
    mix = hi ^ lo
    return hi ^ w2 * lo ^ w * mix, lo ^ w2 * mix ^ w * hi


def reduce_planes(
    ph: np.ndarray, pl: np.ndarray, hi: np.ndarray, lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``Eliminator.reduce`` over arrays of unsigned ints: each vector
    (hi, lo) less the multiple of its pivot (ph, pl), broadcast against
    it, that clears the pivot's lead coordinate, the pivot scaled by
    ``points`` first.  A zero pivot leaves its vectors as they are."""
    ph, pl = points(ph, pl)
    x = ph | pl
    bit = x & -x
    ch = (hi & bit) != 0  # the coefficient there is ch * w + cl
    cl = (lo & bit) != 0
    mix = ph ^ pl  # w * (ph, pl) = (mix, ph)
    return hi ^ ch * mix ^ cl * ph, lo ^ ch * ph ^ cl * pl

