"""Linear-code semantics over GF(4).

A :class:`LinearCode` holds a generator and a parity-check matrix;
built from one, it computes the other once, as its right-kernel basis
(``G H^T = 0``).  On top of that sit minimum distance, weight
distribution, puncturing, and the MDS feasibility and weight-distribution
formulas specialised to q = 4.

Minimum distance is computed by two exact routes, chosen by cost:

* a scan of parity-check column subsets of growing size t: d is the
  smallest t with t linearly dependent columns.  Level t costs C(n, t)
  subset checks;
* codeword enumeration (4^k words, vectorised in chunks, guarded at
  k <= 14).

The scan runs level by level while the next level is estimated cheaper
than enumerating every codeword, then hands over to enumeration.  The
scan is budgeted (``DEFAULT_SCAN_BUDGET`` = 10^8 subset checks unless a
caller passes its own budget).  A level that would exceed the budget
also hands over to enumeration when k <= 14; past that guard it
raises :class:`~lrc4.errors.ScanBudgetExceeded` carrying the proven lower
bound instead of silently degrading.

Coordinate sets are 1-based in every public signature (so {1..n} like
the literature); internal numpy indexing is 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Iterable, Iterator

import numpy as np

from ._gf4vec import Eliminator, pack_columns
from .errors import (
    EmptyCodeError,
    RankError,
    ResourceError,
    ScanBudgetExceeded,
    UndefinedDistanceError,
)
from .gf4 import _integers
from .mat4 import Mat4

DEFAULT_SCAN_BUDGET = 10**8
_ENUM_CHUNK_K = 10  # codeword tables are built 4^10 rows at a time
_MAX_ENUM_K = 14
# Cost model of the distance router, measured on a 2-core Xeon with
# Python 3.11: one Eliminator.push of the column scan, and one symbol of
# one enumerated codeword (about 47 ns per word at n = 30).  Since the
# scan reduces each node's later columns once per pick, a push costs
# 0.5-1.0 us by scan size (0.9-1.3 us before).  1e-6 is kept so that no
# route choice moves: a lower value would hand some levels to the scan
# (20 of the 1,269 constructed builds with n <= 128 at 0.8e-6), a change
# for its own end-to-end measurement.
_PUSH_S = 1e-6
_ENUM_SYMBOL_S = 1.6e-9


def _budget(budget: int | None) -> int | None:
    """A work budget by :func:`lrc4.gf4._integers`'s rule, None kept (the
    caller's default); ValueError when it is negative."""
    if budget is not None:
        (budget,) = _integers([budget], "budgets")
        if budget < 0:
            raise ValueError(f"a budget must be >= 0, got {budget}")
    return budget


def span_chunks(basis: Mat4) -> Iterator[np.ndarray]:
    """Every combination of the rows of ``basis`` in :meth:`Mat4.span_words`
    order (row 0 the most significant base-4 digit), in tables of at
    most 4^10 rows; the first table starts with the zero word."""
    if basis.rows <= _ENUM_CHUNK_K:  # one table, without re-wrapping the rows
        yield basis.span_words()
        return
    g = basis.array
    lo = basis.rows - _ENUM_CHUNK_K
    table = Mat4(g[lo:]).span_words()
    yield table  # high word 0 is zero: the low table itself, no copy
    for base in Mat4(g[:lo]).span_words()[1:]:
        yield table ^ base


@dataclass(frozen=True)
class CodeParams:
    """[n, k, d] triple with the classical Singleton sanity check."""

    n: int
    k: int
    d: int

    def __post_init__(self):
        if not (1 <= self.d <= self.n - self.k + 1):
            raise ValueError(f"[{self.n},{self.k},{self.d}] violates 1 <= d <= n-k+1")

    def __str__(self) -> str:
        return f"[{self.n},{self.k},{self.d}]"


class LinearCode:
    """An [n, k] code over GF(4), held by its generator and parity-check
    matrices.  It is given exactly one; the other is its right kernel,
    whose size is the rank check."""

    __slots__ = ("gen", "pchk", "n", "k")

    def __init__(self, gen: Mat4 | None = None, pchk: Mat4 | None = None):
        if (gen is None) == (pchk is None):
            raise ValueError("a code needs exactly one of a generator and a parity-check matrix")
        held, what = (gen, "generator") if pchk is None else (pchk, "parity check")
        n = held.cols
        if n == 0:
            raise EmptyCodeError("length-0 codes are not supported")
        other = held.right_kernel()
        if n - other.rows != held.rows:
            raise RankError(f"{what} has rank {n - other.rows} < {held.rows} rows")
        gen, pchk = (held, other) if pchk is None else (other, held)
        self.gen = gen
        self.pchk = pchk
        self.n = n
        self.k = gen.rows

    @classmethod
    def _proved(cls, gen: Mat4, pchk: Mat4) -> "LinearCode":
        """The code held by a full-rank generator and a full-rank parity
        check whose caller has proved them orthogonal and of ranks adding
        to n, so none of the constructor's checks is repeated."""
        c = cls.__new__(cls)
        c.gen, c.pchk, c.n, c.k = gen, pchk, gen.cols, gen.rows
        return c

    def generator(self) -> Mat4:
        return self.gen

    def parity_check(self) -> Mat4:
        return self.pchk

    def __repr__(self) -> str:
        return f"LinearCode(n={self.n}, k={self.k})"

    # -- codeword enumeration -------------------------------------------

    def codeword_chunks(self) -> Iterable[np.ndarray]:
        """Yield all 4^k codewords as uint8 arrays of at most 4^10 rows."""
        if self.k > _MAX_ENUM_K:
            raise ResourceError(f"4^{self.k} codewords exceed the enumeration guard (k <= {_MAX_ENUM_K})")
        return span_chunks(self.generator())

    # -- parameters -------------------------------------------------------

    def min_distance(self, budget: int | None = None) -> int:
        """Smallest Hamming weight of a nonzero codeword (exact).

        Scans column subsets of size t = 1, 2, ... while the next level's
        C(n, t) subset checks are estimated cheaper than enumerating the
        4^k codewords, then enumerates.  A level over ``budget`` (taken by
        :func:`_budget`) also switches to enumeration when k <= 14 and
        raises :class:`ScanBudgetExceeded` otherwise.
        """
        budget = _budget(budget)
        if self.k == 0:
            raise UndefinedDistanceError("the zero code has no minimum distance")
        if self.k == self.n:
            return 1
        enum_s = 4**self.k * self.n * _ENUM_SYMBOL_S if self.k <= _MAX_ENUM_K else inf
        d = self._min_distance_scan(budget, enum_s)
        return self._min_distance_enumerate() if d is None else d

    def _min_distance_enumerate(self) -> int:
        best = self.n + 1
        for chunk in self.codeword_chunks():
            w = np.count_nonzero(chunk, axis=1)
            nz = w[w > 0]
            if nz.size:
                best = min(best, int(nz.min()))
        return best

    def _min_distance_scan(self, budget: int | None = None, enum_s: float = inf) -> int | None:
        """Column-scan route.  Returns None, leaving d >= t to enumeration,
        before a level t estimated at ``enum_s`` seconds or more or, when
        ``enum_s`` is finite, that would exceed the budget."""
        if budget is None:
            budget = DEFAULT_SCAN_BUDGET
        h = cols = None  # built at the first scanned level
        spent = 0
        for t in range(1, self.n - self.k + 2):
            cost = comb(self.n, t)
            over = spent + cost > budget
            if over and enum_s == inf:
                raise ScanBudgetExceeded(lower_bound=t, budget=budget)
            if over or cost * _PUSH_S >= enum_s:
                return None
            spent += cost
            if h is None:
                h = self.parity_check()
                cols = pack_columns(h)
            if has_dependent_columns(h, t, _packed=cols):
                return t
        raise AssertionError("unreachable: n - k + 1 columns are always dependent")

    def weight_distribution(self) -> list[int]:
        """A_0..A_n by brute-force enumeration (guarded at k <= 14)."""
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for chunk in self.codeword_chunks():
            w = np.count_nonzero(chunk, axis=1)
            counts += np.bincount(w, minlength=self.n + 1)
        return [int(c) for c in counts]

    # -- derived codes ------------------------------------------------------

    def puncture(self, coords: Iterable[int]) -> "LinearCode":
        """Delete the 1-based coordinates in ``coords`` from all codewords.

        The dimension may drop below k when deleted coordinates carried
        independent information; the result reports its own dimension.
        """
        drop = _check_coordinate_set(coords, self.n)
        if len(drop) == self.n:
            raise EmptyCodeError("puncturing every coordinate leaves nothing")
        g = self.generator().delete_columns(i - 1 for i in drop)
        return LinearCode(gen=g.row_basis())


def _check_coordinate_set(coords: Iterable[int], n: int) -> frozenset[int]:
    s = frozenset(_integers(coords, "coordinates"))
    bad = [i for i in s if not 1 <= i <= n]
    if bad:
        raise ValueError(f"coordinates out of range 1..{n}: {sorted(bad)}")
    return s


def has_dependent_columns(m: Mat4, t: int, _packed: list | None = None) -> bool:
    """Is some t-subset of columns of ``m`` linearly dependent?

    Depth-first over index-increasing subsets with an incremental echelon
    basis, so shared prefixes are eliminated once: each visited prefix is
    one :meth:`Eliminator.push`, and the scan stops at the first that
    does not raise the rank.  A node keeps the columns after its last
    pick reduced modulo its picks: a pick that raises the rank reduces
    the rest of the list once by the new basis vector
    (:meth:`Eliminator.reduce`), so every push meets a reduced column and
    skips the loop over the basis.  The frames live on an explicit
    stack, so no t reaches the interpreter's recursion limit.  Used both
    by the column-scan route of :meth:`LinearCode.min_distance` and as
    the independent cross-check of enumerated distances.  t is taken by
    :func:`lrc4.gf4._integers`; ValueError when t < 1.
    """
    (t,) = _integers([t], "t")
    if t < 1:
        raise ValueError(f"need t >= 1, got t={t}")
    cols = pack_columns(m) if _packed is None else _packed
    n = len(cols)
    if t > n:
        return False
    elim = Eliminator()
    push, pop, reduce = elim.push, elim.pop, elim.reduce
    if t == 1:  # the only pick is the last: a zero column
        for v in cols:
            if not push(v):
                return True
            pop()
        return False
    # frame d: the columns after the d-th pick, reduced modulo the d
    # picks, and the position of its next pick; it may pick up to the
    # one that leaves t - d - 1 columns after it
    later, pos = [cols], [0]
    d = 0
    while True:
        rest = later[d]
        j = pos[d]
        if j > len(rest) - t + d:
            if not d:
                return False
            later.pop()
            pos.pop()
            d -= 1
            pop()
            continue
        pos[d] = j + 1
        if not push(rest[j]):
            return True
        rest = reduce(rest[j + 1 :])
        if d + 2 < t:
            later.append(rest)
            pos.append(0)
            d += 1
            continue
        for v in rest:  # the last pick: a column dependent on the picks is zero here
            if not push(v):
                return True
            pop()
        pop()


def mds_feasible_q4(n: int, k: int) -> bool:
    """Can a quaternary [n, k] MDS code exist?

    Trivial families [n,1], [n,n-1] (n >= 2), [n,n], plus the four
    genuinely quaternary parameter pairs.
    """
    n, k = _integers((n, k), "n and k")
    if n < 1 or not 0 < k <= n:
        raise ValueError(f"need n >= 1 and 0 < k <= n, got ({n}, {k})")
    if k == n or k == 1 or (k == n - 1 and n >= 2):
        return True
    return (n, k) in {(4, 2), (5, 2), (5, 3), (6, 3)}


def mds_weight_distribution(n: int, k: int) -> list[int]:
    """Closed-form weight distribution of an [n, k] MDS code over GF(4).

    A_w = C(n,w) * sum_{j=0}^{w-d} (-1)^j C(w,j) (4^{w-d+1-j} - 1) for
    w >= d = n-k+1.  Serves as the independent oracle against brute-force
    enumeration.
    """
    n, k = _integers((n, k), "n and k")
    d = n - k + 1
    dist = [0] * (n + 1)
    dist[0] = 1
    for w in range(d, n + 1):
        total = 0
        sign = 1
        for j in range(w - d + 1):
            total += sign * comb(w, j) * (4 ** (w - d + 1 - j) - 1)
            sign = -sign
        dist[w] = comb(n, w) * total
    return dist


#: Generator of the (unique up to equivalence) quaternary [6, 3, 4] code.
HEXACODE_GEN = Mat4.from_string(
    """
    1 0 0 1 1 1
    0 1 0 1 w W
    0 0 1 1 W w
    """
)


def hexacode() -> LinearCode:
    """The [6, 3, 4] Hexacode."""
    return LinearCode(gen=HEXACODE_GEN)
