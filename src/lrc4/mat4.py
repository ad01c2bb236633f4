"""Exact linear algebra over GF(4).

A :class:`Mat4` wraps a read-only numpy uint8 array with entries in
{0,1,2,3} (see :mod:`lrc4.gf4` for the element encoding).  Sizes in this
problem domain stay around 120 columns.  Products, row-space enumeration,
Kronecker products and stacking work on the array; the reductions
(reduced row-echelon form, rank, row basis, right kernel) pack the rows
into bit planes and run the one elimination kernel,
:func:`lrc4._gf4vec.echelon`, unpacking only the rows they return.

Empty matrices (0 x n or m x 0) are legal and concatenate away cleanly,
which lets block constructions degenerate at their minimal parameters.

The constructor checks every entry.  The operations on matrices already
built (arithmetic, reductions, stacking, Kronecker products, selections)
keep entries in 0..3, so they wrap their result unchecked; of their
arguments they check only the sizes and indices.
"""

from __future__ import annotations

import reprlib
from typing import Iterable, Sequence

import numpy as np

from . import gf4
from ._gf4vec import echelon, kernel, pack, unpack


class ShapeError(ValueError):
    """Raised when block shapes or operand shapes are inconsistent."""


class Mat4:
    """Immutable dense matrix over GF(4), row-major."""

    __slots__ = ("_a",)

    def __init__(self, entries: Sequence[Sequence[int]] | np.ndarray):
        # an int array is range-checked whole, other entries by the element rule
        ints = isinstance(entries, np.ndarray) and entries.dtype.kind in "iu"
        a = np.array(entries, dtype=None if ints else object)
        if a.shape == (0,):  # no rows: 0 x 0
            a = a.reshape(0, 0)
        if a.ndim != 2:
            raise ShapeError(f"matrix data must be rows of equal length, "
                             f"got {reprlib.repr(entries)}")
        if not ints:
            entries = gf4._elements(a.ravel().tolist(), "matrix entries")
            a = np.array(entries, dtype=np.uint8).reshape(a.shape)
        # checked before the cast, which would wrap -1 and 256
        elif a.size and (a.max() > 3 or a.min() < 0):
            bad = np.unique(a[(a < 0) | (a > 3)]).tolist()
            raise ValueError(f"matrix entries must be integers 0..3; {bad} are not GF(4) elements")
        a = a.astype(np.uint8, copy=False)
        a.setflags(write=False)
        self._a = a

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Mat4":
        """A Mat4 over a 2-d uint8 array of entries 0..3, neither copied nor checked."""
        m = cls.__new__(cls)
        a.setflags(write=False)
        m._a = a
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat4":
        return cls._wrap(np.zeros(_sizes(rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "Mat4":
        return cls._wrap(np.eye(*_sizes(n), dtype=np.uint8))

    @classmethod
    def from_string(cls, text: str) -> "Mat4":
        """Parse rows of space-separated ``0 1 w W`` symbols.

        Rows are separated by ``/``, ``;`` or newlines, e.g.
        ``Mat4.from_string("1 0 1 1 1 / 0 1 1 w W")``.
        """
        rows = []
        for line in text.replace(";", "/").replace("\n", "/").split("/"):
            syms = line.split()
            if syms:
                rows.append([gf4.from_symbol(s) for s in syms])
        if not rows:
            raise ValueError("no rows in matrix literal")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise ShapeError(f"ragged rows in matrix literal: widths {sorted(widths)}")
        return cls(rows)

    # -- basics --------------------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """The underlying (read-only) uint8 array."""
        return self._a

    def __getitem__(self, idx):
        return self._a[idx]

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._a[i].tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat4) and self._a.shape == other._a.shape and bool(
            np.array_equal(self._a, other._a)
        )

    def __hash__(self):
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"Mat4({self.rows}x{self.cols})"

    def to_text(self) -> str:
        """Rows of space-separated symbols, one line per row."""
        return "\n".join(" ".join(gf4.to_symbol(int(x)) for x in row) for row in self._a)

    def is_zero(self) -> bool:
        return not self._a.any()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "Mat4") -> "Mat4":
        if self.shape != other.shape:
            raise ShapeError(f"add: {self.shape} vs {other.shape}")
        return Mat4._wrap(self._a ^ other._a)

    def __matmul__(self, other: "Mat4") -> "Mat4":
        if self.cols != other.rows:
            raise ShapeError(f"matmul: {self.shape} @ {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat4.zeros(self.rows, other.cols)
        prod = gf4.MUL_NP[self._a[:, :, None], other._a[None, :, :]]
        # XOR sums of table products are entries 0..3 already
        return Mat4._wrap(np.bitwise_xor.reduce(prod, axis=1))

    def transpose(self) -> "Mat4":
        return Mat4._wrap(self._a.T.copy())

    def span_words(self) -> np.ndarray:
        """Every GF(4)-combination of the rows, as a (4^rows, cols) uint8 array.

        Word j is sum_i s_i * row_i, where the scalars s run over
        ``gf4.ELEMENTS`` in ``itertools.product`` order: the first row is the
        most significant base-4 digit and word 0 is zero.  Words repeat
        when the rows are dependent.  The one-basis case of :func:`span_stack`.
        """
        return span_stack(self._a[None]).reshape(4 ** self.rows, self.cols)

    # -- reduction -----------------------------------------------------

    def rref(self) -> tuple["Mat4", tuple[int, ...]]:
        """Reduced row-echelon form and its (strictly increasing) pivot columns.

        Pivot selection is leftmost column, first nonzero row: exact
        arithmetic needs no pivoting strategy and this keeps the output
        deterministic.
        """
        rows = pack(self._a)
        pivots = echelon(rows)
        return Mat4._wrap(unpack(rows, self.cols)), tuple(pivots)

    def rank(self) -> int:
        return len(echelon(pack(self._a)))

    def row_basis(self) -> "Mat4":
        """Nonzero rows of the rref: a canonical basis of the row space."""
        rows = pack(self._a)
        rank = len(echelon(rows))
        return Mat4._wrap(unpack(rows[:rank], self.cols))

    def right_kernel(self) -> "Mat4":
        """Basis of {x : self @ x^T = 0}, one kernel vector per row.

        Returns a (cols - rank) x cols matrix; empty when the matrix has
        full column rank.  The vector for free column f is 1 at f and,
        at each pivot, that pivot row's entry at f, as
        :func:`~lrc4._gf4vec.kernel` reads it off the rref.
        """
        n = self.cols
        return Mat4._wrap(unpack(kernel(pack(self._a), (1 << n) - 1), n))

    # -- structure -----------------------------------------------------

    def kron(self, other: "Mat4") -> "Mat4":
        """Kronecker product, standard block layout."""
        ar, ac = self.shape
        br, bc = other.shape
        if ar * br == 0 or ac * bc == 0:
            return Mat4.zeros(ar * br, ac * bc)
        left = self._a.repeat(br, axis=0).repeat(bc, axis=1)
        right = np.tile(other._a, (ar, ac))
        return Mat4._wrap(gf4.MUL_NP[left, right])

    def take_columns(self, cols: Iterable[int]) -> "Mat4":
        return Mat4._wrap(self._a.take(_indices(cols, self.cols, "column"), axis=1))

    def delete_columns(self, cols: Iterable[int]) -> "Mat4":
        drop = set(_indices(cols, self.cols, "column"))
        return Mat4._wrap(self._a.take([c for c in range(self.cols) if c not in drop], axis=1))

    def take_rows(self, rows: Iterable[int]) -> "Mat4":
        return Mat4._wrap(self._a.take(_indices(rows, self.rows, "row"), axis=0))

    def delete_rows(self, rows: Iterable[int]) -> "Mat4":
        drop = set(_indices(rows, self.rows, "row"))
        return Mat4._wrap(self._a.take([r for r in range(self.rows) if r not in drop], axis=0))


def _sizes(*sizes: int) -> list[int]:
    """The sizes as ints by :func:`gf4._integers`; ShapeError when one is negative."""
    sizes = gf4._integers(sizes, "matrix sizes")
    if min(sizes) < 0:
        raise ShapeError(f"matrix sizes must be non-negative, got {sizes}")
    return sizes


def _indices(values: Iterable[int], bound: int, what: str) -> list[int]:
    """The values as ints by :func:`gf4._integers`; ShapeError unless each is
    in 0..bound-1 (a negative index does not count from the end)."""
    ints = gf4._integers(values, f"{what} indices")
    if ints and (min(ints) < 0 or max(ints) >= bound):
        raise ShapeError(f"{what} indices must satisfy 0 <= i < {bound}, got {ints}")
    return ints


def span_stack(bases: np.ndarray) -> np.ndarray:
    """The spans of a stack of bases, as a (4^i, N, m) uint8 table.

    ``bases`` is an (N, i, m) array of entries 0..3; ``table[:, b]`` lists
    the words of basis b in :meth:`Mat4.span_words` order.
    """
    count, rows, m = bases.shape
    multiples = gf4.MUL_NP[:, bases][:, None]  # (4, 1, N, i, m)
    table = np.zeros((1, count, m), dtype=np.uint8)
    # last row first, each new row's scalar as the leading axis: the
    # big table is then copied in four contiguous blocks per row
    for r in range(rows - 1, -1, -1):
        table = (multiples[..., r, :] ^ table).reshape(4 * len(table), count, m)
    return table


def hstack(blocks: Sequence[Mat4]) -> Mat4:
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("hstack of no blocks")
    heights = {b.rows for b in blocks}
    if len(heights) != 1:
        raise ShapeError(f"hstack: differing row counts {sorted(heights)}")
    return Mat4._wrap(np.hstack([b.array for b in blocks]))


def vstack(blocks: Sequence[Mat4]) -> Mat4:
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("vstack of no blocks")
    widths = {b.cols for b in blocks}
    if len(widths) != 1:
        raise ShapeError(f"vstack: differing column counts {sorted(widths)}")
    return Mat4._wrap(np.vstack([b.array for b in blocks]))
