"""Projective geometry PG(m-1, GF(4)).

Points are 1-dimensional subspaces of GF(4)^m, represented canonically
by the unique basis vector whose first nonzero coordinate is 1; that
makes point identity an exact tuple comparison.  Lines (2-dimensional
subspaces) carry exactly 5 points each over GF(4).

Subspaces of any dimension are represented by their reduced row-echelon
basis matrices, which are canonical, so subspace enumeration is a walk
over pivot-column patterns and free entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator

import numpy as np

from . import gf4
from .code import _ENUM_CHUNK_K
from .mat4 import Mat4


@dataclass(frozen=True, order=True)
class PgPoint:
    """Canonical projective point: first nonzero coordinate scaled to 1."""

    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(gf4._elements(self.coords, "point coordinates")))
        if not any(self.coords):
            raise ValueError("the zero vector is not a projective point")
        lead = next(x for x in self.coords if x)
        if lead != 1:
            raise ValueError(f"not normalized: leading coordinate {gf4.to_symbol(lead)}")

    def __str__(self) -> str:
        return "(" + " ".join(gf4.to_symbol(x) for x in self.coords) + ")"


def normalize(vec: Iterable[int]) -> PgPoint:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    v = tuple(gf4._elements(vec, "point coordinates"))
    lead = next((x for x in v if x), 0)
    if lead == 0:
        raise ValueError("cannot normalize the zero vector")
    s = gf4.inv(lead)
    return PgPoint(tuple(gf4.mul(s, x) for x in v))


def enumerate_points(m: int) -> list[PgPoint]:
    """All (4^m - 1)/3 canonical points of PG(m-1, GF(4)), lexicographic."""
    (m,) = gf4._integers([m], "m")
    if m < 1:
        raise ValueError("need m >= 1")
    pts = []
    for v in product(gf4.ELEMENTS, repeat=m):
        lead = next((x for x in v if x), 0)
        if lead == 1:
            pts.append(PgPoint(v))
    return pts


def count_subspaces(m: int, i: int) -> int:
    """Gaussian binomial [m choose i]_4: i-dimensional subspaces of GF(4)^m."""
    m, i = gf4._integers((m, i), "m and i")
    if not 0 <= i <= m:
        raise ValueError(f"need 0 <= i <= m, got i={i}, m={m}")
    num = den = 1
    for j in range(i):
        num *= 4 ** (m - j) - 1
        den *= 4 ** (i - j) - 1
    assert num % den == 0
    return num // den


def count_subspaces_containing(m: int, i: int, j: int) -> int:
    """i-dimensional subspaces of GF(4)^m containing a fixed j-dimensional one.

    Equals the number of (i-j)-dimensional subspaces of GF(4)^(m-j).
    """
    m, i, j = gf4._integers((m, i, j), "m, i and j")
    if not 0 <= j <= i <= m:
        raise ValueError(f"need 0 <= j <= i <= m, got m={m}, i={i}, j={j}")
    return count_subspaces(m - j, i - j)


def subspace_blocks(m: int, i: int) -> Iterator[np.ndarray]:
    """All i-dimensional subspaces of GF(4)^m as stacks of canonical rref bases.

    Each block is a fresh (count, i, m) uint8 array.  For each set of
    pivot columns, the entries right of each pivot and off the pivot
    columns (the free cells, row by row) run over ``gf4.ELEMENTS`` in
    ``itertools.product`` order, the first cell the most significant, as
    row 0 is in :meth:`Mat4.span_words`.  A block's span table,
    :func:`lrc4.mat4.span_stack`, holds at most 4^10 words, the
    ``span_chunks`` rule: the trailing free cells vary within a block,
    the leading ones from block to block.
    """
    m, i = gf4._integers((m, i), "m and i")
    if not 0 <= i <= m:
        raise ValueError(f"need 0 <= i <= m, got i={i}, m={m}")
    digits = np.array(gf4.ELEMENTS, dtype=np.uint8)
    for pivots in combinations(range(m), i):
        free_cells = [
            (r, c)
            for r in range(i)
            for c in range(pivots[r] + 1, m)
            if c not in pivots
        ]
        inner = min(len(free_cells), max(_ENUM_CHUNK_K - i, 0))
        outer = free_cells[:len(free_cells) - inner]
        base = np.zeros((4,) * inner + (i, m), dtype=np.uint8)
        for r, p in enumerate(pivots):
            base[..., r, p] = 1
        for axis, (r, c) in enumerate(free_cells[len(outer):]):
            base[..., r, c] = digits.reshape([-1 if a == axis else 1 for a in range(inner)])
        base = base.reshape(4 ** inner, i, m)
        for values in product(gf4.ELEMENTS, repeat=len(outer)):
            block = base.copy()
            for (r, c), v in zip(outer, values):
                block[:, r, c] = v
            yield block


def enumerate_subspaces(m: int, i: int) -> Iterator[Mat4]:
    """All i-dimensional subspaces of GF(4)^m as canonical rref basis
    matrices, one per subspace, in :func:`subspace_blocks` order."""
    for block in subspace_blocks(m, i):
        yield from map(Mat4, block)


def subspace_points(basis: Mat4) -> set[PgPoint]:
    """The projective points contained in the row space of ``basis``."""
    return {normalize(vec) for vec in basis.row_basis().span_words()[1:]}


def intersect_subspaces(a: Mat4, b: Mat4) -> Mat4:
    """Basis of the intersection of two row spaces over GF(4).

    Computed from the kernel of the stacked bases: a combination of rows
    of ``a`` equal to a combination of rows of ``b``.
    """
    if a.cols != b.cols:
        raise ValueError("subspaces of different ambient spaces")
    if a.rows == 0 or b.rows == 0:
        return Mat4.zeros(0, a.cols)
    stacked = Mat4(np.vstack([a.array, b.array]))
    ker = stacked.transpose().right_kernel()  # rows: (x | y) with x a + y b = 0
    if ker.rows == 0:
        return Mat4.zeros(0, a.cols)
    xs = ker.take_columns(range(a.rows))
    return (xs @ a).row_basis()
