"""(r, delta)-locality: bound, search, profiles, structure theorems.

:func:`verify_locality` works straight from the definition: coordinate i
has locality (r, delta) when some support set R_i containing i, of size
at most r + delta - 1, induces a punctured code of minimum distance at
least delta.  The search is one depth-first pass over column subsets
of every size up to r + delta - 1.  Each node keeps the generator
columns after its last pick reduced modulo the span of its picks, so
whether a child raises the rank is a zero test, and tagged with the
pivot combination each residual absorbed, so a candidate's punctured
code comes with its systematic generator and its distance is decided
on packed ints.  A qualifying support must carry delta - 1 independent
parity words, i.e. its generator columns must be rank-deficient by
delta - 1, so a node of rank above r is pruned: at rank r - 1 the later
columns are sorted by projective point once, and a child that reaches
rank r keeps only its own point's columns and the zero residuals.  So
is a node whose remaining columns cannot make up the deficiency (each
adds at most one), and, for r in {2, 3} from a measured crossover in n
up to n = 30, a rank-(r-1) branch that one numpy table of point keys
per search shows cannot reach it.  The supports found are sorted in
increasing size and lexicographic order, so results are deterministic
and the (r-1, delta) result is a strict prefix of the (r, delta) one.
The search counts its work and stops with ResourceError once it passes
a budget, :data:`LOCALITY_SEARCH_MAX_WORK` by default, at every n.
One :class:`LocalitySearch` feeds a whole verification: its qualifying
supports rebuild the block layout, and r-optimality is read from it
(some coordinate's smallest qualifying support has size r+delta-1).

A :class:`LocalityProfile` is a row layout: a constraint matrix and
the rows of its local groups, whose supports it reads off the matrix,
the other rows being global, with 1-based indexing throughout; the
structure checks read it.  A profile checks its layout when it is made
and compiles it then into packed ints on its own fields, which the
repair simulator, the structure checks and the blockwise distance read,
and it holds the code of its parity check, reduced once, as ``code``.
When the groups whose supports meet, joined, form two blocks or more,
:func:`blockwise_min_distance` settles the minimum distance by dynamic
programming over the global syndromes of the blocks' local-kernel
words; ``LocalityProfile.min_distance`` takes that route for
verification and ``lrc4 distance``.  Each block's (syndrome, least
weight) table is built on packed ints: one echelon form of its local
rows and its masked global rows, each with a 1 in its own syndrome
column above the n coordinates, gives a kernel basis whose words
carry their global syndrome's two bit planes, and ``_gf4vec.span``
lists the 4^k_B words; a kernel above 4^:data:`_SPAN_MAX_K` words (a
joined block of a shared-column variant, k_B <= 5 on every constructed
build with n <= 256) is walked by ``code.span_chunks``, as codeword
enumeration is.  The two MDS checks of the structure theorem build no
code object per sub-code: an H' is its kept packed rows masked
to its kept columns, with its kernel read off their echelon form, and a
restriction C|_S is the packed generator rows masked to S, so each
sub-code's distance is the least weight of its 4^k' words (k' <= 3 on
every constructed build with n <= 128), or else that of the code it spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import combinations
from math import ceil, floor, inf
from operator import or_
from typing import Sequence

import numpy as np

from ._gf4vec import (
    Eliminator,
    Vec,
    coordinates,
    echelon,
    kernel,
    mask,
    pack_columns,
    pack_rows,
    point,
    points,
    reduce_by,
    reduce_planes,
    span,
    unpack,
)
from .code import LinearCode, span_chunks
from .errors import (
    ResourceError,
    ScanBudgetExceeded,
    StructureError,
    UndefinedDistanceError,
)
from .gf4 import _integers
from .mat4 import Mat4

#: the largest n at which the locality search builds its gain table
#: (:func:`_gain_table`), whose keys must fit a uint64 and which holds
#: n^2 x n entries; perfbench's guard preflight reads it
LOCALITY_SEARCH_MAX_N = 30
#: the locality search's default work bound, in column reductions, a distance
#: check counting _CHECK_WORK (about as long): the constructed builds need 2,738
#: up to n = 30 and 3.3e6 up to n = 256 (C10 l = 43 a, 4 s on a 2-core Xeon)
LOCALITY_SEARCH_MAX_WORK = 10**7
_CHECK_WORK = 6
#: the least n, by r, at which the locality search builds its gain table
#: (:func:`_gain_table`).  Measured on a 2-core Xeon with Python 3.11
#: over the audit's searches: the table costs 0.06-0.08 ms at r = 2 and
#: 0.12-0.43 ms at r = 3, and below these n the branches it rules out
#: save less than that
_GAIN_TABLE_MIN_N = {2: 24, 3: 13}
#: table operations the blockwise distance DP may spend inside verification
#: (the constructed builds with n <= 128 need at most ~1.1e6, at C17G l = 17)
BLOCKWISE_MAX_WORK = 10**8
_INF = 10**9  # an unreachable weight in the blockwise DP's tables
_DP_BLOCK = 1 << 14  # table entries the DP gathers per numpy call
#: the largest sub-code dimension whose 4^k' words the two MDS checks list
#: themselves, a larger one going to LinearCode.min_distance, and the
#: largest local kernel whose words the blockwise distance lists in Python,
#: a larger one going to code.span_chunks: listing loses to that walk from
#: k_b = 4 on, on a 2-core Xeon (the constructed builds with n <= 128 need
#: k' <= 3)
_SPAN_MAX_K = 3


def singleton_like_bound(n: int, k: int, r: int, delta: int) -> int:
    """Upper bound n - k + 1 - (ceil(k/r) - 1)(delta - 1) on the distance."""
    r, delta = _locality_params(r, delta, n, k)
    return n - k + 1 - (ceil(k / r) - 1) * (delta - 1)


def group_count_range(n: int, k: int, r: int, delta: int) -> tuple[int, int]:
    """Feasible local-group counts (ceil(k/r), floor((n-k)/(delta-1))).

    The pair is returned even when the lower end exceeds the upper end;
    that marks the parameters as infeasible.
    """
    r, delta = _locality_params(r, delta, n, k)
    return ceil(k / r), floor((n - k) / (delta - 1))


def _locality_params(r: int, delta: int, n: int | None = None, k: int = 0) -> tuple[int, int]:
    """r and delta as ints (:func:`lrc4.gf4._integers`); ValueError unless
    r >= 1 and delta >= 2, and, given n and k, r <= k <= n."""
    r, delta = _integers((r, delta), "r and delta")
    if r < 1 or delta < 2:
        raise ValueError(f"need r >= 1 and delta >= 2, got r={r}, delta={delta}")
    if n is not None and not (r <= k <= n):
        raise ValueError(f"need 1 <= r <= k <= n, got n={n}, k={k}, r={r}")
    return r, delta


@dataclass(frozen=True)
class LocalGroup:
    """One local group: its parity-check rows and column support (1-based)."""

    rows: tuple[int, ...]
    support: frozenset[int]


@dataclass
class LocalityProfile:
    """Partition of ``matrix``'s rows into local groups plus a global group.

    ``group_rows`` names each group's rows; its support is the set of
    columns they touch, and the rows no group names are global.
    ``partitioned`` is False in the exceptional case where the code is a
    certified LRC but no full-rank parity-check matrix admits a
    local/global row partition; ``matrix`` is then an augmented
    (redundant-row) constraint stack.

    The layout is checked when the profile is made, ``dataclasses.replace``
    included.  Its r >= 1, delta >= 2 and group rows are taken as ints
    (ValueError on a bool or a value int() would truncate, such as 1.5);
    then each group names a row, the groups name distinct rows of 1..m,
    no group's rows are all zero or touch more than r+delta-1 columns,
    and the supports cover every coordinate, none of them redundantly;
    StructureError otherwise.  The fields below take no part in
    comparison: coordinate c is bit c - 1 of a mask (``_gf4vec.mask``)
    or a packed vector.
    """

    r: int
    delta: int
    group_rows: tuple[tuple[int, ...], ...]
    matrix: Mat4 = field(repr=False)
    partitioned: bool = True
    #: each group's rows and support
    groups: tuple[LocalGroup, ...] = field(init=False, compare=False)
    #: the rows no group names, in order
    global_rows: tuple[int, ...] = field(init=False, compare=False)
    #: every row of the matrix, packed
    words: tuple[Vec, ...] = field(init=False, repr=False, compare=False)
    #: each group's support as a bit mask
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: each group's local rows, packed
    local_rows: tuple[tuple[Vec, ...], ...] = field(init=False, repr=False, compare=False)
    #: [c - 1]: the 0-based groups holding coordinate c, in order
    groups_of: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.r, self.delta = _locality_params(self.r, self.delta)
        self.group_rows = tuple(tuple(_integers(rows, "group rows")) for rows in self.group_rows)
        m, n = self.matrix.rows, self.matrix.cols
        named = [i for rows in self.group_rows for i in rows]
        self.global_rows = tuple(sorted(set(range(1, m + 1)).difference(named)))
        # the rest of 1..m leaves len(named) rows exactly when they are distinct rows of 1..m
        if len(self.global_rows) + len(named) != m:
            wrong = sorted({i for i in named if named.count(i) > 1 or not 1 <= i <= m})
            raise StructureError(f"the groups must name distinct rows of the matrix's rows "
                                 f"1..{m}; rows {wrong} break this")
        self.words = words = tuple(pack_rows(self.matrix))
        groups, masks, local_rows, groups_of = [], [], [], [[] for _ in range(n)]
        for gi, rows in enumerate(self.group_rows):
            if not rows:
                raise StructureError(f"group {gi + 1} names no row")
            local = tuple(words[i - 1] for i in rows)
            support = reduce(or_, (h | l for h, l in local), 0)
            if not support:
                where = (f"{rows[0]}..{rows[-1]}" if rows == tuple(range(rows[0], rows[-1] + 1))
                         else rows)
                raise StructureError(f"local group rows {where} are all zero")
            coords = coordinates(support)
            if len(coords) > self.r + self.delta - 1:
                raise StructureError(f"group {rows} has support size {len(coords)} "
                                     f"> r+delta-1 = {self.r + self.delta - 1}")
            groups.append(LocalGroup(rows=rows, support=frozenset(coords)))
            masks.append(support)
            local_rows.append(local)
            for c in coords:
                groups_of[c - 1].append(gi)
        full, cover = (1 << n) - 1, reduce(or_, masks, 0)
        if cover != full:
            raise StructureError(f"coordinates not covered by any local group: "
                                 f"{coordinates(full & ~cover)}")
        for gi in range(len(masks)):
            if _others_cover(masks, gi, full):
                raise StructureError(f"dropping group {gi + 1} still covers all coordinates")
        self.groups, self.masks, self.local_rows = tuple(groups), tuple(masks), tuple(local_rows)
        self.groups_of = tuple(map(tuple, groups_of))

    @property
    def l(self) -> int:
        return len(self.groups)

    def parity_check(self) -> Mat4:
        """The parity check of the code the profile presents: ``matrix``
        when partitioned, else its row basis."""
        return self.matrix if self.partitioned else self.matrix.row_basis()

    @cached_property
    def code(self) -> LinearCode:
        """The code of :meth:`parity_check`, with its kernel computed on
        first use only."""
        return LinearCode(pchk=self.parity_check())

    def min_distance(self, budget: int | None = None) -> int:
        """Exact d of ``code``: :func:`blockwise_min_distance` when the
        groups form at least two blocks and the DP takes them within its
        work bound, else :meth:`LinearCode.min_distance` with
        the scan ``budget``.  The DP measures the kernel of the stacked
        rows, which is the code whether or not some rows are redundant."""
        try:
            return blockwise_min_distance(self)
        except (ValueError, ResourceError):
            return self.code.min_distance(budget)


@dataclass(frozen=True)
class LocalitySearch:
    """The (r, delta) support search of an n-coordinate code: every
    support R, |R| <= r+delta-1, with d(C|_R) >= delta in (size, lex)
    order, and each coordinate's first one (coordinates with none are
    absent)."""

    n: int
    r: int
    delta: int
    qualifying: tuple[frozenset[int], ...] = field(repr=False)

    @cached_property
    def coordinate_supports(self) -> dict[int, frozenset[int]]:
        """Each coordinate's first qualifying support, keyed in the order
        the supports first reach them."""
        first: dict[int, frozenset[int]] = {}
        for s in self.qualifying:
            for c in sorted(s):
                first.setdefault(c, s)
        return first

    @property
    def ok(self) -> bool:
        """Does every coordinate have (r, delta)-locality?"""
        return len(self.coordinate_supports) == self.n

    @property
    def bad_coordinates(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if i not in self.coordinate_supports)

    def failure(self) -> StructureError:
        """The StructureError a layout built from this failed search raises."""
        return StructureError(f"coordinates {list(self.bad_coordinates)} have no "
                              f"({self.r},{self.delta}) repair support")

    @property
    def r_optimal(self) -> bool:
        """Is (r-1, delta)-locality impossible?  Its search is this one's
        prefix of sizes < r+delta-1, so it fails exactly when some
        coordinate's first support has size r+delta-1, or none."""
        full = self.r + self.delta - 1
        return not self.ok or any(len(s) == full for s in self.coordinate_supports.values())


def _punctured_distance_at_least(tags: Sequence[Vec], rank: int, delta: int) -> bool:
    """Exact check that a punctured code C|_R has d >= delta.

    C|_R has the systematic generator [I_rank | A]: its information
    coordinates are the rank picks of R that raised the rank, and
    ``tags`` holds the columns of A, one per other pick, packed over the
    pivot index.  A word (y, yA) of weight below delta needs wt(y) <
    delta, so only those y are tried, each scaled to lead with 1.  The
    zero code (rank 0) has no distance and fails.
    """
    if not rank:
        return False
    rows = []  # row j of A: pivot j's coefficient in every tagged column
    for j in range(rank):
        bit = 1 << j
        h = l = 0
        for t, (th, tl) in enumerate(tags):
            if th & bit:
                h |= 1 << t
            if tl & bit:
                l |= 1 << t
        rows.append((h, l))
    # grow y one nonzero entry at a time, in increasing position
    stack = [(j, 1, h, l) for j, (h, l) in enumerate(rows)]
    while stack:
        j, wt, h, l = stack.pop()
        if wt + (h | l).bit_count() < delta:
            return False
        if wt + 1 < delta:
            for j2 in range(j + 1, rank):
                rh, rl = rows[j2]
                m = rh ^ rl
                stack += ((j2, wt + 1, h ^ rh, l ^ rl),  # y_j2 = 1
                          (j2, wt + 1, h ^ m, l ^ rh),  # w
                          (j2, wt + 1, h ^ rl, l ^ m))  # w2
    return True


def _gain_table(cols: list[Vec], k: int, r: int) -> list:
    """What each rank-(r-1) branch of the search can add to its
    deficiency, for r in {2, 3}, indexed by its pivot columns (0-based):
    ``[i][j]`` at r = 3, ``[j]`` at r = 2.

    The columns c > j are reduced modulo the span of the pivots' columns
    on bit planes, in the search's own order of pivots, so each residual
    is the one the search keeps and its point is the search's key.  The
    gain is the number of zero residuals plus the size of the largest
    point class, minus one (the zero residuals alone when no residual is
    nonzero): the zero residuals keep the rank, and once a branch
    reaches rank r only its new pivot's point can follow.  With k <= 30
    a plane fits a uint32, which halves the arrays, and a key, the
    scaled residual's high plane above its low one, a uint64.  Entries
    of pivots the search never takes (a zero column, or a j in the span
    of i) are left meaningless.
    """
    n = len(cols)
    hi = np.array([h for h, _ in cols], dtype=np.uint32)
    lo = np.array([l for _, l in cols], dtype=np.uint32)
    # [j, c]: column c reduced by the column of pivot j
    hi, lo = reduce_planes(hi[:, None], lo[:, None], hi, lo)
    j = np.arange(n)
    if r == 3:  # [(i, j), c]: and then by pivot j's residual, for i < j
        i, j = np.triu_indices(n, 1)
        hi, lo = reduce_planes(hi[i, j][:, None], lo[i, j][:, None], hi[i], lo[i])
    hi, lo = points(hi, lo)
    keys = hi.astype(np.uint64) << np.uint64(k) | lo
    c = np.arange(n)
    after = c > j[:, None]  # does column c follow pivot j?
    zeros = np.count_nonzero(after & (keys == 0), axis=-1)
    # every other entry gets a key of its own, so it makes a class of one
    keys = np.where(after & (keys != 0), keys, c.astype(np.uint64) | 1 << 63)
    keys.sort(axis=-1)
    new = keys[..., 1:] != keys[..., :-1]
    # at each sorted entry, the number of equal keys just before it
    idx = np.arange(n - 1)
    run = idx - np.maximum.accumulate(new * (idx + 1) - 1, axis=-1)
    gains = zeros + run.max(axis=-1, initial=0)
    if r == 2:
        return gains.tolist()
    table = np.zeros((n, n), dtype=np.int64)
    table[i, j] = gains
    return table.tolist()


def _locality_search(gen: Mat4, r: int, delta: int, budget: float = inf) -> list[frozenset[int]]:
    """Find every support R, |R| <= r+delta-1, with d(C|_R) >= delta.

    Returns the qualifying supports in (size, lex) order.  One
    depth-first pass over column subsets covers every size.  A node
    keeps the columns after its last pick reduced modulo the span of its
    picks, so a child raises the rank exactly when its column's residual
    (its low k bits) is nonzero.  Above the residual, entry k + j of a
    column, its tag j, is the multiple of the j-th pivot's column that
    its residual has absorbed: a pivot is reduced into the later columns
    with its own entry k + j set to 1, so residual = column + sum of
    tag[j] * pivot j.  A pick with a zero residual is then the sum of
    tag[j] * pivot j, and its tag is its column of the punctured code's
    systematic generator, which is what
    :func:`_punctured_distance_at_least` reads.

    A support must carry delta - 1 independent parity words, so its
    columns are rank-deficient by delta - 1.  The rank never falls, so a
    node of rank above r has no qualifying descendant: below a node that
    reaches rank r only the later columns in its span can follow, the
    zero residuals and those on the new pivot's projective point.  A
    node of rank r - 1 sorts its later columns by point once, and each
    growing child reduces only its own point's columns and the zero
    ones; a child that keeps rank r - 1 takes its parent's points of
    its later columns, whose residuals it shares.  Nor has a node whose
    deficiency plus its number of later columns falls short.  Subsets of
    size >= delta with that deficiency get the exact distance check.

    That prune reaches rank r - 1 only after the node has reduced and
    keyed every later column.  For r in {2, 3}, from n =
    :data:`_GAIN_TABLE_MIN_N` up to :data:`LOCALITY_SEARCH_MAX_N`, the
    search first builds :func:`_gain_table`: one numpy table of the
    point keys of every column modulo every pivot pair (i, j) (pivot j
    at r = 2), from which each rank-(r-1) branch's gain, the most it can
    add to its deficiency, is read.  A node of rank r - 2 then skips a
    growing child whose deficiency plus its branch's gain falls short,
    before reducing anything for it; no qualifying support lies below
    such a child, so the outputs are those of the plain search.  Below
    the crossover the table costs more than it saves, and past n = 30 a
    key would not fit a uint64, so those searches run without it.

    A node entered with more than ``budget`` work done, a unit per column
    reduced and :data:`_CHECK_WORK` per distance check, raises
    ResourceError naming both counts.
    """
    k, n = gen.rows, gen.cols
    res_mask = (1 << k) - 1
    need_def = delta - 1
    max_size = r + delta - 1
    hits: list[tuple[int, ...]] = []
    chosen: list[int] = []
    tags: list[Vec] = []  # the tags of the picks with a zero residual
    cols = pack_columns(gen)
    table = (_gain_table(cols, k, r)
             if _GAIN_TABLE_MIN_N.get(r, n + 1) <= n <= LOCALITY_SEARCH_MAX_N else None)
    columns = checks = 0  # the work done: columns reduced, distance checks made

    def rec(later: list[tuple[int, int, int]], rank: int, keys: list | None = None,
            gains: list | None = None) -> None:
        nonlocal columns, checks
        if columns + _CHECK_WORK * checks > budget:
            raise ResourceError(f"locality search stopped after {columns} column reductions and "
                                f"{checks} distance checks, over its work budget of {budget}")
        depth = len(chosen) + 1
        # at rank r - 2: the gain of each growing child's branch, by column
        branch_gain = gains if rank + 2 == r else None
        # at rank r - 1, where a growing child reaches rank r, file the
        # later positions under their residual's point (zero residuals
        # under 0), and the slot of each position in its list; a node
        # reached by a zero-residual pick gets its parent's keys
        bucketed = rank + 1 == r and depth < max_size
        if bucketed:
            if keys is None:
                keys = [point(hi & res_mask, lo & res_mask) if (hi | lo) & res_mask else 0
                        for _, hi, lo in later]
            slots, by_point = [], {}
            for p, key in enumerate(keys):
                same = by_point.setdefault(key, [])
                slots.append(len(same))
                same.append(p)
            zeros = by_point.get(0, [])
            zeros_left = len(zeros)  # the zero residuals after the current child
        for p, (i, hi, lo) in enumerate(later):
            grows = bool((hi | lo) & res_mask)
            deficiency = depth - rank - grows
            if grows and branch_gain is not None and deficiency + branch_gain[i] < need_def:
                continue  # this branch cannot reach the deficiency
            if bucketed:
                if not grows:
                    zeros_left -= 1
                else:  # only the zero residuals and the child's point can follow
                    same = by_point[keys[p]]
                    ahead = same[slots[p] + 1:]
                    # each later column adds at most one to the deficiency
                    if deficiency + len(ahead) + zeros_left < need_def:
                        continue
                    follow = [later[q] for q in sorted(ahead + zeros[len(zeros) - zeros_left:])]
            chosen.append(i)
            if not grows:
                tags.append((hi >> k, lo >> k))
            if depth >= delta and deficiency >= need_def:
                checks += 1
                if _punctured_distance_at_least(tags, rank + grows, delta):
                    hits.append(tuple(chosen))
            if depth < max_size:
                if not grows:
                    rest = later[p + 1:]
                else:
                    reduced = follow if bucketed else later[p + 1:]
                    columns += len(reduced)
                    rest = reduce_by((hi, lo | 1 << (k + rank)), reduced)
                if deficiency + len(rest) >= need_def:
                    if not grows:
                        sub = gains
                    else:  # a growing pick at rank r - 3 selects its row
                        sub = gains[i] if gains is not None and rank + 3 == r else None
                    rec(rest, rank + grows, keys[p + 1:] if bucketed and not grows else None, sub)
            if not grows:
                tags.pop()
            chosen.pop()

    rec([(i, hi, lo) for i, (hi, lo) in enumerate(cols)], 0, gains=table)
    hits.sort(key=lambda s: (len(s), s))
    return [frozenset(c + 1 for c in t) for t in hits]


def verify_locality(c: LinearCode, r: int, delta: int, budget: int | None = None) -> LocalitySearch:
    """Search every coordinate's (r, delta) repair supports, by definition.

    The result is ``ok`` when every coordinate has one; otherwise its
    ``bad_coordinates`` lists those without.  :func:`restructure` turns a
    successful search into a block layout.  The search raises
    ResourceError, naming its work, once that passes ``budget``
    (:data:`LOCALITY_SEARCH_MAX_WORK` when None).
    """
    r, delta = _locality_params(r, delta)
    if c.k == 0:
        raise ValueError("locality of the zero code is undefined")
    if budget is None:
        budget = LOCALITY_SEARCH_MAX_WORK
    return LocalitySearch(n=c.n, r=r, delta=delta,
                          qualifying=tuple(_locality_search(c.gen, r, delta, budget)))


def _minimal_cover(masks: list[int], full: int) -> list[int]:
    """Drop the masks that are redundant for covering ``full``, newest first."""
    kept = list(masks)
    for i in range(len(kept) - 1, -1, -1):
        if _others_cover(kept, i, full):
            kept.pop(i)
    return kept


def _others_cover(masks: Sequence[int], i: int, full: int) -> bool:
    """Do the masks other than ``masks[i]`` still cover ``full``?"""
    return reduce(or_, masks[:i] + masks[i + 1:], 0) == full


def is_r_optimal(c: LinearCode, r: int, delta: int, budget: int | None = None) -> bool:
    """True when locality (r-1, delta) is impossible (vacuously true at r = 1),
    by a :func:`verify_locality` search within ``budget``."""
    r, delta = _locality_params(r, delta)
    return r == 1 or not verify_locality(c, r - 1, delta, budget).ok


def extract_profile(
    pchk: Mat4,
    layout: Sequence[tuple[int, int]],
    r: int,
    delta: int,
) -> LocalityProfile:
    """Build a profile from a parity-check matrix and its group row ranges.

    ``layout`` lists 1-based inclusive row ranges, one per local group,
    tiling a prefix of the rows (StructureError otherwise); the remaining
    rows are global.  The profile checks the rest of the layout.
    """
    ranges = [tuple(_integers(pair, "group row ranges")) for pair in layout]
    expect = 1
    for a, b in ranges:
        if a != expect or b < a:
            raise StructureError(f"group row ranges must tile a prefix: got {ranges}")
        expect = b + 1
    if expect - 1 > pchk.rows:
        raise StructureError("layout references more rows than the matrix has")
    return LocalityProfile(r=r, delta=delta, matrix=pchk,
                           group_rows=tuple(tuple(range(a, b + 1)) for a, b in ranges))


def _select_cover(full: int, candidates: list[tuple[int, list[Vec]]]) -> list[int] | None:
    """First (in candidate order) subfamily whose masks cover ``full`` and
    whose packed local row blocks are mutually independent.  Depth-first
    with backtracking."""
    elim = Eliminator()
    chosen: list[int] = []

    def rec(start: int, covered: int) -> bool:
        if covered == full:
            return True
        if reduce(or_, (s for s, _ in candidates[start:]), covered) != full:
            return False
        for i in range(start, len(candidates)):
            s, block = candidates[i]
            if not s & ~covered:
                continue
            pushed = 0
            for v in block:
                pushed += 1
                if not elim.push(v):
                    break
            else:
                chosen.append(i)
                if rec(i + 1, covered | s):
                    return True
                chosen.pop()
            for _ in range(pushed):
                elim.pop()
        return False

    return chosen if rec(0, 0) else None


def structured_parity_check(
    c: LinearCode, supports: Sequence[frozenset[int]]
) -> tuple[Mat4, tuple[tuple[int, ...], ...], bool]:
    """Rebuild a constraint matrix in local/global block form.

    Local groups are qualifying ``supports`` (in (size, lex) order)
    selected so that they cover every coordinate and their per-support
    dual bases stay mutually independent; the global rows extend the
    stack to a full dual basis.  A support S's dual basis is the RREF
    basis of the right kernel of G|_S, the generator masked to S: a
    dual word supported in S is exactly a solution of G|_S x = 0, and
    the basis touches every coordinate of S, since C|_S has d >= delta
    >= 2.  Returns the matrix, each local group's rows (the groups'
    rows first, the global rows after them), and whether the rows form
    a genuine partition of a full-rank parity check.

    Some certified LRCs admit no such partition at all (every qualifying
    cover needs more than n - k group rows); for those the matrix is an
    augmented stack with redundant rows and the flag is False.  All of it
    runs on packed rows; the finished matrix is unpacked once.
    """
    n = c.n
    full = (1 << n) - 1
    gen = pack_rows(c.gen)
    candidates = []
    for s in supports:
        support = mask(s)
        block = kernel([(h & support, l & support) for h, l in gen], support)
        if block:
            echelon(block)
            candidates.append((support, block))
    chosen = _select_cover(full, candidates)
    partitioned = chosen is not None
    if chosen is None:
        # with empty row blocks nothing is pushed, so only coverage decides
        chosen = _select_cover(full, [(s, []) for s, _ in candidates])
    if chosen is None:
        raise StructureError("no family of local groups covers all coordinates")
    # the search never picks a support twice, so masks identify blocks
    kept = _minimal_cover([candidates[i][0] for i in chosen], full)
    rows: list[Vec] = []
    group_rows = []
    for s, b in (candidates[i] for i in chosen):
        if s in kept:
            group_rows.append(tuple(range(len(rows) + 1, len(rows) + len(b) + 1)))
            rows += b
    elim = Eliminator(rows)
    words = pack_rows(c.pchk)
    rows += [v for v in words if elim.push(v)]
    if elim.rank != len(words):
        raise StructureError("restructured parity check lost rank")
    if partitioned and len(rows) != len(words):
        raise StructureError("partitioned stack has redundant rows")
    return Mat4(unpack(rows, n)), tuple(group_rows), partitioned


def restructure(c: LinearCode, found: LocalitySearch) -> LocalityProfile:
    """The profile of the code's parity check in local/global block form,
    built from a successful :func:`verify_locality` search of it.  Its
    ``code`` pairs ``c``'s generator with the stacked rows, which span c's
    dual at full rank or raise.  Raises StructureError when the search failed."""
    if not found.ok:
        raise found.failure()
    h, group_rows, partitioned = structured_parity_check(c, found.qualifying)
    profile = LocalityProfile(r=found.r, delta=found.delta, group_rows=group_rows, matrix=h,
                              partitioned=partitioned)
    profile.code = LinearCode._proved(c.gen, profile.parity_check())
    return profile


def layout_of(code: LinearCode, r: int, delta: int, ranges: Sequence[tuple[int, int]] | None = None,
              budget: int | None = None) -> tuple[LocalityProfile | None, LocalitySearch | None]:
    """A code's layout and the search behind it, the one route of ``build()``
    and ``lrc4 verify``/``distance``: :func:`extract_profile` of its parity
    check on group-row ``ranges`` as they stand, holding ``code`` as its
    ``code``, and no search (``punctured_mds`` certifies the locality);
    else the :func:`verify_locality` search within ``budget``, restructured
    by :func:`restructure`, or None when some coordinate has no support."""
    if ranges:
        profile = extract_profile(code.pchk, ranges, r=r, delta=delta)
        profile.code = code
        return profile, None
    found = verify_locality(code, r, delta, budget)
    return (restructure(code, found) if found.ok else None), found


# ---------------------------------------------------------------------------
# blockwise distance


def _splice_table(basis: list[Vec], mask: int, n: int, g: int) -> tuple[np.ndarray, np.ndarray]:
    """One block's splice table: every global syndrome of a nonzero word
    of its local kernel, and the least weight of such a word.

    ``basis`` spans the right kernel of [[L_B, 0], [G_B, I]] on the
    block's support ``mask`` and g syndrome columns above bit n, so each
    word of its span is a local-kernel word with its global syndrome's
    two planes above its n coordinates.  A syndrome of g entries is
    packed as its w-plane above its 1-plane, so adding syndromes is XOR
    of their packed ints.  Up to :data:`_SPAN_MAX_K` basis words the
    span is listed in Python.  A larger basis is unpacked once onto the
    support and syndrome columns and walked by :func:`code.span_chunks`,
    one numpy table at a time, so no list of all 4^k_B words is built.
    """
    coords = (1 << n) - 1
    if len(basis) <= _SPAN_MAX_K:
        best: dict[int, int] = {}
        for h, l in span(basis)[1:]:
            wt = ((h | l) & coords).bit_count()
            syn = (h >> n) << g | l >> n
            if best.get(syn, n + 1) > wt:
                best[syn] = wt
        return (np.fromiter(best, dtype=np.intp, count=len(best)),
                np.fromiter(best.values(), dtype=np.int32, count=len(best)))
    cols = [c - 1 for c in coordinates(mask)]
    words = Mat4._wrap(unpack(basis, n + g)[:, cols + list(range(n, n + g))])
    place = 1 << np.arange(g)
    least = np.full(1 << (2 * g), _INF, dtype=np.int32)
    for i, table in enumerate(span_chunks(words)):
        wt = np.count_nonzero(table[:, :len(cols)], axis=1).astype(np.int32)
        if not i:
            wt[0] = _INF  # the zero word
        tail = table[:, len(cols):]
        np.minimum.at(least, (tail >> 1) @ place << g | (tail & 1) @ place, wt)
    syn = np.flatnonzero(least < _INF)
    return syn, least[syn]


def _blockwise_dp(g: int, tables: list[tuple[np.ndarray, np.ndarray]]) -> int:
    """Least positive splice weight over the blocks' :func:`_splice_table`
    tables (g global rows), by one min-plus step per table entry."""
    size = 1 << (2 * g)
    indices = np.arange(size)
    # min splice weight per global syndrome: any splice, and one with a nonzero block
    dp_any = np.full(size, _INF, dtype=np.int32)
    dp_any[0] = 0
    dp_pos = np.full(size, _INF, dtype=np.int32)
    shifted = np.empty(size, dtype=np.int32)
    step = max(1, _DP_BLOCK // size)  # syndromes shifted per numpy call
    for syn, wt in tables:
        # each entry is a nonzero word, so it extends the same splices for
        # both tables; one of syndrome 0 leaves dp_any as it was
        shifted.fill(_INF)
        for at in range(0, len(syn), step):
            s, w = syn[at:at + step, None], wt[at:at + step, None]
            np.minimum(shifted, (dp_any[indices ^ s] + w).min(axis=0), out=shifted)
        np.minimum(dp_pos, shifted, out=dp_pos)
        np.minimum(dp_any, shifted, out=dp_any)
    d = int(dp_pos[0])
    if d >= _INF:
        raise UndefinedDistanceError("the zero code has no minimum distance")
    return d


def _blockwise_tables(profile: LocalityProfile) -> list[tuple[np.ndarray, np.ndarray]]:
    """The :func:`_splice_table` tables of the profile's blocks, each the
    groups whose supports meet, joined, with all their local rows in group
    order (a disjoint layout's blocks are its groups).  Raises ValueError
    when the groups form one block, whose table would list the whole
    code, and ResourceError past :data:`BLOCKWISE_MAX_WORK` table
    operations, before any kernel word is listed."""
    n = profile.matrix.cols
    blocks: list[tuple[int, list[Vec]]] = []  # (support, local rows)
    for local, m in zip(profile.local_rows, profile.masks):
        meet = [b for b in blocks if b[0] & m]
        blocks = [b for b in blocks if not b[0] & m] + [
            (reduce(or_, (b[0] for b in meet), m), [w for b in meet for w in b[1]] + list(local))]
    if len(blocks) < 2:
        raise ValueError("blockwise distance: the groups form one block")
    g = len(profile.global_rows)
    glob = [profile.words[i - 1] for i in profile.global_rows]
    syn_cols = ((1 << g) - 1) << n
    # the right kernel of [[L_B, 0], [G_B, I]]: global row j, masked to the
    # block's support, gets a 1 in syndrome column n + j
    bases = [kernel(local + [(a & mask, b & mask | 1 << n + j) for j, (a, b) in enumerate(glob)],
                    mask | syn_cols) for mask, local in blocks]
    # each block's 4^k_B kernel words, then one pass over the 4^g global
    # syndromes per distinct syndrome of its words
    size = 4**g
    work = sum(4**len(b) + min(4**len(b), size) * size for b in bases)
    if work > BLOCKWISE_MAX_WORK:
        raise ResourceError(f"blockwise distance needs an estimated {work} table operations, "
                            f"over the bound of {BLOCKWISE_MAX_WORK}")
    return [_splice_table(b, mask, n, g) for b, (mask, _) in zip(bases, blocks)]


def blockwise_min_distance(profile: LocalityProfile) -> int:
    """Exact minimum distance of the code of the profile's matrix via its
    group structure.

    The groups whose supports meet are joined into blocks, which
    partition the coordinates, so a codeword is a splice of local-kernel
    words, one per block, whose global-row syndromes cancel.  Per
    block, one table lists each packed global syndrome of a nonzero
    kernel word with its least weight; it is built from the profile's
    packed masks and rows, with no matrix object, by
    :func:`_splice_table`.  Dynamic programming over the 4^g syndromes
    (g global rows) then adds one XOR-shifted table per distinct
    syndrome to an int32 table and finds the least positive splice
    weight exactly, far beyond the generic enumeration and column-scan
    guards: the full 17-group code ([102,46]) takes about a million
    table operations.  Raises ValueError when the groups form one block,
    and ResourceError when the estimated table work, read off the block
    kernels before any word is listed, exceeds :data:`BLOCKWISE_MAX_WORK`.
    """
    return _blockwise_dp(len(profile.global_rows), _blockwise_tables(profile))


# ---------------------------------------------------------------------------
# structure checks


@dataclass
class CheckResult:
    """One structure check's verdict, None when it cannot be decided,
    named by its key in :attr:`OptimalityReport.checks`."""

    passed: bool | None
    witness: str | None = None


@dataclass
class OptimalityReport:
    """Everything the verification pipeline establishes about one code."""

    n: int
    k: int
    d: int | None
    bound_d: int
    r: int
    delta: int
    d_optimal: bool | None
    r_optimal: bool | None
    profile: LocalityProfile
    checks: dict[str, CheckResult]
    notes: list[str] = field(default_factory=list)
    family: str | None = None
    status: str | None = None

    @property
    def all_passed(self) -> bool:
        if self.d_optimal is False or self.r_optimal is False:
            return False
        return all(c.passed is not False for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {
            "params": {"n": self.n, "k": self.k, "d": self.d},
            "locality": {
                "r": self.r,
                "delta": self.delta,
                "l": self.profile.l,
                "groups": [
                    {"rows": list(g.rows), "support": sorted(g.support)}
                    for g in self.profile.groups
                ],
            },
            "bound_d": self.bound_d,
            "d_optimal": self.d_optimal,
            "r_optimal": self.r_optimal,
            "checks": {name: c.passed for name, c in self.checks.items()},
            "family": self.family,
            "status": self.status,
        }


def check_structure(
    profile: LocalityProfile,
    *,
    search: LocalitySearch | None = None,
    scan_budget: int | None = None,
    search_budget: int | None = None,
) -> OptimalityReport:
    """Run the optimality predicates and the five structural theorem checks
    on the code that :meth:`LocalityProfile.parity_check` presents, the
    profile's cached ``code``.

    A partitioned profile's matrix must be a full-rank parity check, else
    RankError.  d is settled by :meth:`LocalityProfile.min_distance`
    with ``scan_budget``.  r-optimality is read from ``search``, a
    successful (r, delta) :func:`verify_locality` result, if given.  Else,
    with d exact and r >= 2, a d above the (r-1, delta) Singleton-like
    bound proves it, since no code of these [n, k, d] has (r-1,
    delta)-locality; failing that, :func:`is_r_optimal` searches within
    ``search_budget``.  When the router's scan exceeds its budget with
    k > 14, or that search its budget, the affected verdicts are
    reported as None with an explanatory note rather than failing.

    The two MDS checks run on packed vectors, from the profile's
    packed rows and masks and one packed generator: an H' is its kept rows
    masked to its kept columns, C|_S the generator rows masked to S, and
    a sub-code's exact distance is the least weight of its words, or
    :meth:`LinearCode.min_distance` of the sub-code above
    :data:`_SPAN_MAX_K` dimensions.  An H' left with no columns fails
    its check.
    """
    c = profile.code
    n, k = c.n, c.k
    r, delta = profile.r, profile.delta
    notes: list[str] = []
    if search is not None and not (isinstance(search, LocalitySearch) and search.ok
                                   and (search.n, search.r, search.delta) == (n, r, delta)):
        raise StructureError(f"{search!r} does not certify the ({r},{delta})-locality "
                             f"of this [{n},{k}] code")

    if not profile.partitioned:
        notes.append(
            "no full-rank parity check admits a local/global row partition "
            "at these parameters; groups reference an augmented constraint stack"
        )

    d: int | None
    try:
        d = profile.min_distance(scan_budget)
    except ScanBudgetExceeded as e:
        d = None
        notes.append(f"min distance not settled: {e}; structural checks only")

    bound = singleton_like_bound(n, k, r, delta)
    d_optimal = None if d is None else (d == bound)

    r_optimal: bool | None = None
    if search is not None:
        r_optimal = search.r_optimal
    elif d is not None and r >= 2 and singleton_like_bound(n, k, r - 1, delta) < d:
        # (r-1, delta)-locality would cap d below its exact value
        r_optimal = True
    else:
        try:
            r_optimal = is_r_optimal(c, r, delta, search_budget)
        except ResourceError as e:
            notes.append(f"r-optimality skipped: {e}")

    checks = {
        "h_prime_mds": _check_h_prime(c, profile, d if d is not None else bound),
        "rows_per_group": _check_rows_per_group(profile),
        "punctured_mds": _check_punctured_mds(c, profile),
        "disjointness": _check_disjointness(c, profile),
        "distance_cap": _check_distance_cap(k, r, delta, d),
    }
    return OptimalityReport(
        n=n,
        k=k,
        d=d,
        bound_d=bound,
        r=r,
        delta=delta,
        d_optimal=d_optimal,
        r_optimal=r_optimal,
        profile=profile,
        checks=checks,
        notes=notes,
    )


def _least_weight(basis: list[Vec], mask: int) -> int | None:
    """Least weight of a nonzero word in the span of the independent
    packed vectors ``basis``, which vanish off the bit mask ``mask``
    (None for the zero span), read off its 4^k' words up to k' =
    :data:`_SPAN_MAX_K`; a larger span is measured as the code it
    generates on the mask's columns, by :meth:`LinearCode.min_distance`."""
    if len(basis) > _SPAN_MAX_K:
        cols = [c - 1 for c in coordinates(mask)]
        return LinearCode(gen=Mat4._wrap(unpack(basis, mask.bit_length())[:, cols])).min_distance()
    return min(((a | b).bit_count() for a, b in span(basis)[1:]), default=None)


def _check_h_prime(c: LinearCode, profile: LocalityProfile, d_target: int) -> CheckResult:
    """Deleting any ceil(k/r)-1 groups (rows and covered columns) must leave
    a full-rank parity check of an MDS code with the same distance.

    Each H' is the kept rows of the packed matrix masked to the kept
    columns; its kernel is read off their echelon form."""
    if not profile.partitioned:
        return CheckResult(
            None, "no full-rank local/global row partition exists at these parameters"
        )
    s = ceil(c.k / profile.r) - 1
    if s > profile.l:
        return CheckResult(False, f"ceil(k/r)-1 = {s} exceeds l = {profile.l}")
    for choice in combinations(range(profile.l), s):
        tag = "+".join(str(g + 1) for g in choice) or "none"
        drop_rows = {i - 1 for gi in choice for i in profile.groups[gi].rows}
        keep = (1 << c.n) - 1
        for gi in choice:
            keep &= ~profile.masks[gi]
        n_sub = keep.bit_count()
        if not n_sub:
            return CheckResult(False, f"H' has no columns after removing groups {tag}")
        rows = [(h & keep, l & keep) for i, (h, l) in enumerate(profile.words) if i not in drop_rows]
        basis = kernel(rows, keep)
        k_sub = len(basis)
        if n_sub - k_sub < len(rows):
            return CheckResult(False, f"H' not full rank after removing groups {tag}")
        if not k_sub:
            return CheckResult(False, f"H' leaves the zero code (groups {tag})")
        dp = _least_weight(basis, keep)
        if dp != n_sub - k_sub + 1 or dp != d_target:
            return CheckResult(
                False, f"groups {tag}: [{n_sub},{k_sub}] with d'={dp}, want MDS d'={d_target}"
            )
    return CheckResult(True)


def _check_rows_per_group(profile: LocalityProfile) -> CheckResult:
    want = profile.delta - 1
    for i, g in enumerate(profile.groups):
        if len(g.rows) != want:
            return CheckResult(False, f"group {i + 1} has {len(g.rows)} rows, want {want}")
    return CheckResult(True)


def _check_punctured_mds(c: LinearCode, profile: LocalityProfile) -> CheckResult:
    """Each restriction C|_{S_i} must be [s_i, s_i - delta + 1, delta] MDS.

    C|_S is spanned by the packed generator rows masked to S."""
    delta = profile.delta
    gen = pack_rows(c.generator())
    masks = profile.masks
    for i, g in enumerate(profile.groups):
        rows = [(h & masks[i], l & masks[i]) for h, l in gen]
        local = rows[:len(echelon(rows))]
        si = len(g.support)
        di = _least_weight(local, masks[i])
        if len(local) != si - delta + 1 or di != delta:
            return CheckResult(
                False,
                f"group {i + 1}: C|_S is [{si},{len(local)},{di}], "
                f"want [{si},{si - delta + 1},{delta}]",
            )
    return CheckResult(True)


def _check_disjointness(c: LinearCode, profile: LocalityProfile) -> CheckResult:
    """When r | k and r < k: disjoint supports of size r+delta-1, which
    tile the n coordinates, as every profile's supports cover them."""
    r, delta = profile.r, profile.delta
    if c.k % r != 0 or r >= c.k:
        return CheckResult(True, "not applicable (r does not properly divide k)")
    full = r + delta - 1
    seen: set[int] = set()
    for i, g in enumerate(profile.groups):
        if len(g.support) != full:
            return CheckResult(False, f"group {i + 1} support size {len(g.support)} != {full}")
        if seen & g.support:
            return CheckResult(False, f"group {i + 1} overlaps an earlier group")
        seen |= g.support
    return CheckResult(True)


def _check_distance_cap(k: int, r: int, delta: int, d: int | None) -> CheckResult:
    """d <= q when r does not divide k-1, else d <= delta*q (q = 4)."""
    if d is None:
        return CheckResult(None, "distance unknown")
    if (k - 1) % r == 0:
        cap, why = 4 * delta, "r | (k-1)"
    else:
        cap, why = 4, "r does not divide k-1"
    if d > cap:
        return CheckResult(False, f"d = {d} exceeds cap {cap} ({why})")
    return CheckResult(True)
