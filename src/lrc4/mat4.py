"""Dense linear algebra over GF(4).

A :class:`Mat4` wraps a read-only numpy uint8 array with entries in
{0,1,2,3} (see :mod:`lrc4.gf4` for the element encoding).  Sizes in this
problem domain stay around 120 columns, so everything is dense and exact:
reduced row-echelon form, rank, right kernels, row-space enumeration,
Kronecker products and block assembly.

Empty matrices (0 x n or m x 0) are legal and concatenate away cleanly,
which lets block constructions degenerate at their minimal parameters.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from . import gf4


class ShapeError(ValueError):
    """Raised when block shapes or operand shapes are inconsistent."""


def _scalar_row(lam: int, row: np.ndarray) -> np.ndarray:
    return gf4.MUL_NP[lam, row]


class Mat4:
    """Immutable dense matrix over GF(4), row-major."""

    __slots__ = ("_a",)

    def __init__(self, entries: Sequence[Sequence[int]] | np.ndarray, cols: int | None = None):
        try:
            a = np.array(entries, dtype=np.uint8)
        except OverflowError:
            raise ValueError("entries must be GF(4) elements 0..3") from None
        if a.ndim == 1:
            # Allow an empty row list only when the column count is given.
            a = a.reshape(0, cols if cols is not None else 0)
        if a.ndim != 2:
            raise ShapeError(f"matrix data must be 2-dimensional, got shape {a.shape}")
        if a.size and a.max() > 3:
            raise ValueError("entries must be GF(4) elements 0..3")
        a.setflags(write=False)
        self._a = a

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat4":
        return cls(np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, n: int) -> "Mat4":
        return cls(np.eye(n, dtype=np.uint8))

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
        return tuple(int(x) for x in self._a[i])

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
        return Mat4(self._a ^ other._a)

    def __matmul__(self, other: "Mat4") -> "Mat4":
        if self.cols != other.rows:
            raise ShapeError(f"matmul: {self.shape} @ {other.shape}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return Mat4.zeros(self.rows, other.cols)
        prod = gf4.MUL_NP[self._a[:, :, None], other._a[None, :, :]]
        return Mat4(np.bitwise_xor.reduce(prod, axis=1))

    def transpose(self) -> "Mat4":
        return Mat4(self._a.T.copy())

    def span_words(self) -> np.ndarray:
        """Every GF(4)-combination of the rows, as a (4^rows, cols) uint8 array.

        Word j is sum_i s_i * row_i, where the scalars s run over
        ``gf4.ELEMENTS`` in ``itertools.product`` order: the first row is the
        most significant base-4 digit and word 0 is zero.  Words repeat
        when the rows are dependent.
        """
        n = self.cols
        table = np.zeros((1, n), dtype=np.uint8)
        # last row first, each new row's scalar as the leading axis: the
        # big table is then copied in four contiguous blocks per row
        for row in self._a[::-1]:
            table = (gf4.MUL_NP[:, row][:, None] ^ table).reshape(4 * len(table), n)
        return table

    # -- reduction -----------------------------------------------------

    def rref(self) -> tuple["Mat4", tuple[int, ...]]:
        """Reduced row-echelon form and its (strictly increasing) pivot columns.

        Pivot selection is leftmost column, first nonzero row: exact
        arithmetic needs no pivoting strategy and this keeps the output
        deterministic.
        """
        a = self._a.copy()
        m, n = a.shape
        pivots: list[int] = []
        prow = 0
        for col in range(n):
            if prow >= m:
                break
            nz = np.nonzero(a[prow:, col])[0]
            if nz.size == 0:
                continue
            pick = prow + int(nz[0])
            if pick != prow:
                a[[prow, pick]] = a[[pick, prow]]
            p = int(a[prow, col])
            if p != 1:
                a[prow] = _scalar_row(gf4.inv(p), a[prow])
            for r in range(m):
                if r != prow and a[r, col]:
                    a[r] ^= _scalar_row(int(a[r, col]), a[prow])
            pivots.append(col)
            prow += 1
        return Mat4(a), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_basis(self) -> "Mat4":
        """Nonzero rows of the rref: a canonical basis of the row space."""
        r, pivots = self.rref()
        return Mat4(r._a[: len(pivots)].copy(), cols=self.cols)

    def right_kernel(self) -> "Mat4":
        """Basis of {x : self @ x^T = 0}, one kernel vector per row.

        Returns a (cols - rank) x cols matrix; empty when the matrix has
        full column rank.
        """
        r, pivots = self.rref()
        n = self.cols
        free = [c for c in range(n) if c not in set(pivots)]
        basis = np.zeros((len(free), n), dtype=np.uint8)
        for bi, f in enumerate(free):
            basis[bi, f] = 1
            for ri, p in enumerate(pivots):
                # char 2: the negation of r[ri, f] is itself
                basis[bi, p] = r._a[ri, f]
        return Mat4(basis, cols=n)

    # -- structure -----------------------------------------------------

    def kron(self, other: "Mat4") -> "Mat4":
        """Kronecker product, standard block layout."""
        ar, ac = self.shape
        br, bc = other.shape
        if ar * br == 0 or ac * bc == 0:
            return Mat4.zeros(ar * br, ac * bc)
        left = self._a.repeat(br, axis=0).repeat(bc, axis=1)
        right = np.tile(other._a, (ar, ac))
        return Mat4(gf4.MUL_NP[left, right])

    def take_columns(self, cols: Sequence[int]) -> "Mat4":
        return Mat4(self._a[:, list(cols)].copy(), cols=len(cols))

    def delete_columns(self, cols: Iterable[int]) -> "Mat4":
        drop = set(cols)
        keep = [c for c in range(self.cols) if c not in drop]
        return self.take_columns(keep)

    def take_rows(self, rows: Sequence[int]) -> "Mat4":
        sel = self._a[list(rows), :].copy()
        return Mat4(sel.reshape(len(rows), self.cols), cols=self.cols)

    def delete_rows(self, rows: Iterable[int]) -> "Mat4":
        drop = set(rows)
        keep = [r for r in range(self.rows) if r not in drop]
        return self.take_rows(keep)

    def column_support(self, rows: Iterable[int] | None = None) -> frozenset[int]:
        """0-based indices of columns that are nonzero in the given rows."""
        a = self._a if rows is None else self._a[list(rows), :]
        if a.size == 0:
            return frozenset()
        return frozenset(int(c) for c in np.nonzero(a.any(axis=0))[0])


def hstack(blocks: Sequence[Mat4]) -> Mat4:
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("hstack of no blocks")
    heights = {b.rows for b in blocks}
    if len(heights) != 1:
        raise ShapeError(f"hstack: differing row counts {sorted(heights)}")
    rows = blocks[0].rows
    cols = sum(b.cols for b in blocks)
    return Mat4(np.hstack([b.array for b in blocks]).reshape(rows, cols), cols=cols)


def vstack(blocks: Sequence[Mat4]) -> Mat4:
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("vstack of no blocks")
    widths = {b.cols for b in blocks}
    if len(widths) != 1:
        raise ShapeError(f"vstack: differing column counts {sorted(widths)}")
    cols = blocks[0].cols
    rows = sum(b.rows for b in blocks)
    return Mat4(np.vstack([b.array.reshape(b.rows, cols) for b in blocks]), cols=cols)


def assemble_blocks(layout: Sequence[Sequence[Mat4]]) -> Mat4:
    """Concatenate a grid of blocks into one matrix.

    Within a grid row all blocks must agree on row count; the assembled
    rows must agree on total width.  Zero-sized blocks are fine (they are
    how constructions degenerate at minimal parameters).
    """
    if not layout or not all(row for row in layout):
        raise ShapeError("assemble_blocks: empty layout")
    strips = [hstack(row) for row in layout]
    return vstack(strips)


def kron(a: Mat4, b: Mat4) -> Mat4:
    return a.kron(b)
