"""Builders for every catalogued optimal quaternary (r, delta)-LRC.

Each constructed family carries a parity-check template (or a printed
generator matrix for the projective-geometry codes) with block structure

    [ local group 1 ]
    [     ...       ]
    [ local group l ]
    [ global rows   ]

instantiated at the requested parameters.  Every parity-check family
comes from one group template, :func:`_groups`: g copies of a local
block over per-group global tail rows, in which the variant families
let groups 1 and 2 share one coordinate.  Each family's catalogue entry
holds only that matrix (``FamilySpec.matrix``); :func:`build` finishes
every family in one place from its entry into a :class:`BuiltCode`
bundling the code, its expected [n,k,d], the locality pair, the
locality profile, and the family record.

Family records (:class:`FamilySpec`) cover the whole classification:
constructed families, the two parameter ranges that remain open, and the
parameter cases ruled out by weight-distribution or incidence arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from math import ceil
from typing import Callable, Iterator

from . import gf4, lrc
from ._gf4vec import Eliminator, pack_rows
from .code import HEXACODE_GEN, CodeParams, LinearCode
from .errors import CatalogError, RangeError, StructureError
from .lrc import (
    LocalityProfile,
    LocalitySearch,
    OptimalityReport,
    check_structure,
    layout_of,
)
from .mat4 import Mat4, hstack, vstack
from .pg import normalize

# ---------------------------------------------------------------------------
# shared blocks

#: rows span a [5,2,4] MDS code; the kernel is the [5,3,3] local code
LOCAL_5 = Mat4.from_string("1 0 1 1 1 / 0 1 1 w W")

#: LOCAL_5 without its 4th column ([4,2,3] local structure, variant used by C2)
LOCAL_4A = LOCAL_5.delete_columns([3])

#: LOCAL_5 without its 5th column ([4,2,3] local structure, used by C4/C7)
LOCAL_4B = LOCAL_5.delete_columns([4])

#: LOCAL_5 without columns 4,5 (kernel is the [3,1,3] repetition code)
LOCAL_3 = LOCAL_5.delete_columns([3, 4])

#: Hexacode generator doubling as the 3-row [6,3,4] local block
LOCAL_6 = HEXACODE_GEN

#: LOCAL_6 without its 5th column ([5,2,4] local code, used by C8/C11)
LOCAL_5C = LOCAL_6.delete_columns([4])

#: LOCAL_6 without columns 5,6 (kernel is the [4,1,4] repetition code)
LOCAL_4C = LOCAL_6.delete_columns([4, 5])


def single_parity_generator(delta: int) -> Mat4:
    """Generator [I | 1] of the [delta, delta-1, 2] MDS code.

    Its kernel is the [delta, 1, delta] repetition code, which is what
    makes it the local block for the r = 1 families.
    """
    return hstack([Mat4.identity(delta - 1), Mat4([[1]] * (delta - 1))])


def _group_tails(tails, width: int) -> Mat4:
    """Global rows giving group b (width - len(tails[b])) zero columns
    followed by the vectors of ``tails[b]`` as columns."""
    dim = len(tails[0][0])
    cols = []
    for vecs in tails:
        cols += [(0,) * dim] * (width - len(vecs)) + [tuple(v) for v in vecs]
    return Mat4(cols).transpose()


#: variant -> group 1's entries at the coordinate it shares with group 2
_SHARED_COLUMN = {"a": (gf4.ZERO, gf4.ZERO, gf4.ZERO), "b": (gf4.ONE, gf4.W2, gf4.W)}


def _groups(local: Mat4, tails, variant: str | None = None) -> Mat4:
    """g = len(tails) copies of ``local`` over global rows in which group b
    carries the vectors ``tails[b]`` in its last columns; no global rows
    when every group's tail is empty.

    The groups are disjoint unless ``variant`` is given: then group 1
    loses its last column and holds the variant's shared column at group
    2's first coordinate instead."""
    h = Mat4.identity(len(tails)).kron(local)
    if any(tails):
        h = vstack([h, _group_tails(tails, local.cols)])
    if variant is None:
        return h
    shared = local.cols - 1
    a = h.delete_columns([shared]).array.copy()
    a[:local.rows, shared] = _SHARED_COLUMN[variant][:local.rows]
    return Mat4(a)


# ---------------------------------------------------------------------------
# printed generator matrices (d >= 5 projective constructions)

#: [16,3,12] with (2,3)-locality: four 4-point line segments of PG(2,F4)
G16 = Mat4.from_string(
    """
    0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 W
    0 1 1 1 W 1 w 0 W w 0 1 W 0 1 1
    1 w W 1 0 0 0 0 1 1 1 1 w w w 1
    """
)

#: [21,3,16] with (2,4)-locality: all 21 points of PG(2,F4)
G17 = Mat4.from_string(
    """
    0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 W 1 1 w 1
    1 0 1 1 1 W 1 w 0 W w 0 1 W 0 1 1 0 1 1 w
    0 1 w W 1 0 0 0 0 1 1 1 1 w w w 1 W W 1 W
    """
)

#: [17,4,12] with (3,3)-locality: 17 points of PG(3,F4) on plane sections
G18 = Mat4.from_string(
    """
    0 0 0 0 0 1 1 1 1 1 1 1 1 1 1 1 1
    0 0 1 1 1 0 0 0 1 1 1 w w w W W W
    0 1 1 w W 0 w W 0 w W w 0 W w W 0
    1 1 w W W 0 1 1 0 0 w 1 1 W 0 0 1
    """
)

#: [18,4,12] with (3,4)-locality as printed; its second and third blocks
#: have rank 4, so they are not plane sections and the punctured chain
#: loses locality.  Kept verbatim as reference data.
G19_PRINTED = Mat4.from_string(
    """
    0 0 0 0 0 0 1 w 1 w 1 w W 1 W 1 W 1
    1 0 0 1 1 1 1 0 0 1 1 1 1 0 0 1 1 1
    0 1 0 1 W w 0 1 0 1 W w 0 1 0 1 W w
    0 0 1 1 w W 0 0 1 1 w W 0 0 1 1 w W
    """
)

#: [18,4,12] with (3,4)-locality: three 6-point plane sections (hyperovals)
#: of a plane pencil through a common line.  Block b has top row equal to
#: c_b * (y1 + w*y2 + y3) over the section points y, with c in {0, 1, w^2};
#: the printed version deviates from this linear form in two entries per
#: nonzero block, which is what breaks its face structure.
G19 = Mat4.from_string(
    """
    0 0 0 0 0 0 1 w 1 w w 1 W 1 W 1 1 W
    1 0 0 1 1 1 1 0 0 1 1 1 1 0 0 1 1 1
    0 1 0 1 W w 0 1 0 1 W w 0 1 0 1 W w
    0 0 1 1 w W 0 0 1 1 w W 0 0 1 1 w W
    """
)

#: [13,4,7] with (3,4)-locality: three hyperoval plane sections through a
#: common point, pairwise sharing one further point.  No puncturing of a
#: three-disjoint-section code can reach n = 13 (sections pairwise share
#: 0 or 2 points, so 18 - n stays even), hence the dedicated configuration.
G19_D7 = Mat4.from_string(
    """
    0 0 0 1 0 0 0 1 1 1 1 1 1
    0 0 1 0 1 1 1 0 0 0 1 W w
    0 1 0 0 1 W w 1 W w 0 0 0
    1 0 0 0 1 w W 1 w W 1 w W
    """
)

# puncture chains: target d -> 1-based coordinate set of the base code
C16_PUNCTURES: dict[int, tuple[int, ...]] = {
    12: (),
    11: (13,),
    10: (13, 14),
    9: (13, 14, 15),
    8: (13, 14, 15, 16),
}
#: puncturing these six coordinates also yields d = 6, but strands the two
#: surviving points of the third line segment without any 4-point collinear
#: support, so the result is not a (2,3)-LRC; C16 uses a selection
#: through the pencil point instead (see C16_SELECTIONS[6]).
C16_D6_PUNCTURE = (11, 12, 13, 14, 15, 16)

# d in {5, 6, 7} select columns of the extended matrix (a | G16) with
# a = (0 1 0)^T the pencil point; entries are 1-based columns of G16,
# 0 meaning a.  Every selected point then lies on a 4-point segment of a
# line through a.
C16_SELECTIONS: dict[int, tuple[int, ...]] = {
    7: (0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13),
    6: (0, 1, 2, 3, 5, 6, 7, 9, 10, 11),
    5: (0, 1, 2, 3, 5, 6, 7, 9, 13),
}


def _c16(d: int) -> Mat4:
    """C16's generator: the selection for d in C16_SELECTIONS, else G16's
    puncture chain."""
    if d in C16_SELECTIONS:
        ext = hstack([Mat4([[0], [1], [0]]), G16])
        return ext.take_columns(C16_SELECTIONS[d])  # 0 maps to column a
    return G16.delete_columns(i - 1 for i in C16_PUNCTURES[d])


C17_PUNCTURES: dict[int, tuple[int, ...]] = {
    16: (),
    15: (2,),
    14: (2, 3),
    13: (2, 3, 4),
    12: (2, 3, 4, 5),
    11: (13, 17, 18, 19, 21),
    10: (15, 16, 17, 18, 19, 21),
    9: (12, 13, 16, 17, 18, 19, 21),
    8: (14, 15, 16, 17, 18, 19, 20, 21),
    7: (11, 12, 13, 15, 16, 17, 18, 19, 21),
}

# suffix punctures: d = 12 - |S| for S = {17}, {16,17}, ..., {11..17}
C18_PUNCTURES: dict[int, tuple[int, ...]] = {
    d: tuple(range(d + 6, 18)) for d in range(12, 4, -1)
}

#: chain of the corrected base code; d = 7 is unreachable by puncturing
#: (section overlaps change n in even steps) and uses G19_D7 instead
C19_PUNCTURES: dict[int, tuple[int, ...]] = {
    12: (),
    11: (18,),
    10: (13, 18),
    9: (13, 15, 18),
    8: (13, 15, 17, 18),
    6: (13, 14, 15, 16, 17, 18),
}
#: the printed puncture list, kept for reference; on the printed base these
#: sets reproduce d = 11..6 but lose (3,4)-locality for d <= 10
C19_PRINTED_PUNCTURES: dict[int, tuple[int, ...]] = {
    11: (18,),
    10: (13, 18),
    9: (13, 15, 18),
    8: (13, 15, 17, 18),
    7: (13, 14, 16, 17, 18),
    6: (13, 14, 15, 16, 17, 18),
}

# ---------------------------------------------------------------------------
# global-row data

# one global row tag per repetition group: C14 takes the first k + 2 of
# the five points of PG(1,F4), C15 the first k + 3 of a 6-arc of PG(2,F4)
_C14_TAGS = [(1, 0), (0, 1), (1, 1), (1, gf4.W), (1, gf4.W2)]
_C15_TAGS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 1), (1, gf4.W, gf4.W2), (1, gf4.W2, gf4.W),
]

# -- the n = 4l / 6l families with d in {8, 12}

# (u_i, v_i) in GF(4)^3 sitting at columns 3,4 of each 4-column group;
# all five lines span{u_i, v_i} meet at the common point (0 1 0).
CLS2_1_UV = [
    ("0 0 1", "0 1 W"),
    ("1 0 0", "W 1 0"),
    ("1 0 1", "W 1 W"),
    ("1 0 w", "W 1 1"),
    ("1 0 W", "W 1 w"),
]

# (u_i, v_i) in GF(4)^5 for the [20,5,12] code; the common-line structure
# puts every w^2 u_i + v_i on the line through (0 1 0 0 0) and (0 0 0 1 0).
# As printed, group 2 ends in (0, 0), which makes the spans of lines 2-4
# pairwise degenerate and drops the distance to 9; the last coordinates of
# (u_2, v_2) are repaired to (w, 1), the minimal change restoring all the
# span conditions (and d = 12).
CLS3_1_UV = [
    ("0 0 0 0 1", "0 0 0 1 W"),
    ("0 0 1 0 w", "0 1 W 0 1"),
    ("1 0 0 0 1", "W 1 0 1 W"),
    ("1 1 1 1 1", "W w W 1 W"),
    ("1 w w W W", "W 0 1 1 w"),
]

# (u_i, v_i, z_i) in GF(4)^5: 17 triples each spanning a 3-dim subspace,
# pairwise meeting only in the six tolerated weight-3 combinations.
C17G_TRIPLES = [
    ("W 0 w 0 0", "0 W W 0 0", "W W 0 0 0"),
    ("W 0 0 W w", "0 0 0 W 1", "W 0 0 0 1"),
    ("0 1 w 1 w", "1 0 1 0 1", "0 W w W w"),
    ("0 1 w w W", "1 0 1 0 w", "W 1 0 w 0"),
    ("0 1 w W 1", "1 0 1 0 W", "w 1 1 W W"),
    ("1 1 1 0 w", "1 w 1 W W", "1 1 w W w"),
    ("1 1 1 1 W", "1 w 1 1 w", "1 1 w w 0"),
    ("1 1 1 w 0", "1 w W w w", "W w 1 0 1"),
    ("1 1 1 W 1", "1 w W 0 1", "w 1 W 1 0"),
    ("1 1 1 0 W", "1 1 W W W", "W w W w 1"),
    ("1 1 1 1 w", "1 W 1 0 W", "1 1 W w 0"),
    ("1 1 1 w 1", "1 w 1 w W", "w w W 1 0"),
    ("1 1 1 W 0", "1 1 w w w", "1 w 1 0 w"),
    ("1 1 1 0 1", "1 w W W w", "W w 1 w w"),
    ("1 1 1 1 0", "1 w W 1 1", "w 1 W 0 w"),
    ("1 1 1 w W", "1 1 W W 0", "W w W 0 W"),
    ("1 1 1 W w", "1 w W w 0", "w 1 W w W"),
]


def _parse_vecs(texts) -> tuple[tuple[int, ...], ...]:
    """Printed vectors such as ("0 0 1", "0 1 W") as tuples of GF(4) entries."""
    return tuple(tuple(gf4.from_symbol(s) for s in text.split()) for text in texts)


def c17g_triples(l: int) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """The first l (u, v, z) triples of the degree-17 table."""
    (l,) = gf4._integers([l], "l")
    if not 4 <= l <= 17:
        raise RangeError(f"the triple table covers 4 <= l <= 17, got l={l}")
    return [_parse_vecs(row) for row in C17G_TRIPLES[:l]]


# combinations a*u + b*v + c*z that must avoid every other subspace: the
# tails (a, b, c) at coordinates 4-6 of the local kernel's weight-4 words,
# one per projective point.  Such a word's global syndrome inside another
# group's plane would splice with a word of weight at most 6 there into a
# codeword of weight below 12.  The other 6 points are the weight-6 tails.
_FORBIDDEN_COMBOS: list[tuple[int, ...]] = sorted(
    {normalize(w[3:]).coords for w in LOCAL_6.right_kernel().span_words() if (w > 0).sum() == 4}
)


def verify_c17g_properties(l: int, triples=None) -> bool:
    """Check the two span conditions behind the n = 6l, d = 12 family.

    (1) every triple spans a 3-dimensional subspace; (2) for i != j, all
    fifteen flagged combinations of triple i avoid the subspace of
    triple j.  Each plane is one :class:`Eliminator`; a combination lies
    in it exactly when pushing it does not raise the rank.  l is taken by
    :func:`lrc4.gf4._integers`'s rule.  Given ``triples``, the first l are
    checked; RangeError when l < 1 or there are fewer.
    """
    (l,) = gf4._integers([l], "l")
    if triples is None:
        triples = c17g_triples(l)
    else:
        triples = list(triples)
        if l < 1:
            raise RangeError(f"verify_c17g_properties needs l >= 1, got l={l}")
        if len(triples) < l:
            raise RangeError(f"verify_c17g_properties(l={l}) needs {l} triples, "
                             f"got {len(triples)}")
        triples = triples[:l]
    planes, flagged = [], []
    for u, v, z in triples:
        m = Mat4([u, v, z])
        plane = Eliminator(pack_rows(m))
        if plane.rank < 3:
            return False
        planes.append(plane)
        flagged.append(pack_rows(Mat4(_FORBIDDEN_COMBOS) @ m))
    for i, combos in enumerate(flagged):
        for plane in planes[:i] + planes[i + 1:]:
            for x in combos:
                if not plane.push(x):
                    return False
                plane.pop()
    return True


# ---------------------------------------------------------------------------
# family specifications


@dataclass(frozen=True)
class FamilySpec:
    """One parameter family of the classification."""

    id: str
    status: str  # constructed | open | nonexistent
    construction: str | None
    formulas: dict[str, str]
    valid_range: str
    note: str = ""
    variants: tuple[str, ...] = ()
    #: ``matrix`` gives the printed generator matrix, not a parity check
    generator: bool = False
    #: defining parameters -> (n, k, d, r, delta); build() finishes every code from it
    shape: Callable[..., tuple[int, int, int, int, int]] | None = field(default=None, repr=False)
    #: defining parameter -> (lo, hi), hi None for unbounded; build() accepts
    #: exactly these parameters within these ranges
    ranges: dict[str, tuple[int, int | None]] | None = field(default=None, repr=False)
    #: defining parameter -> value build() uses when it is not given
    defaults: dict[str, int] = field(default_factory=dict, repr=False)
    #: defining parameters -> instance status, where it varies within the family
    instance_status: Callable[..., str] | None = field(default=None, repr=False)
    #: defining parameters (and ``variant`` where the family has variants)
    #: -> the family's matrix: the printed generator if ``generator`` is
    #: set, the parity check otherwise; None for a family with no construction
    matrix: Callable[..., Mat4] | None = field(default=None, repr=False)

    def _status_at(self, params: dict) -> str:
        return self.instance_status(**params) if self.instance_status else self.status

    def instances(self, n_max: int) -> Iterator[dict]:
        """Evaluated parameter tuples with n <= n_max, increasing n.

        Each item carries n, k, d, r, delta, the defining parameters, and
        the instance status (only the n = 6l, d = 12 family mixes
        constructed and open instances).  Every family's n grows with
        each parameter, so a range ends once n exceeds n_max with the
        later parameters at their minimum.
        """
        if not self.ranges:
            return iter(())
        names = list(self.ranges)
        out = []

        def walk(params: dict) -> None:
            if len(params) == len(names):
                n, k, d, r, delta = self.shape(**params)
                out.append({
                    "n": n, "k": k, "d": d, "r": r, "delta": delta, "params": params,
                    "status": self._status_at(params),
                })
                return
            name = names[len(params)]
            lo, hi = self.ranges[name]
            rest = {m: self.ranges[m][0] for m in names[len(params) + 1:]}
            for v in count(lo) if hi is None else range(lo, hi + 1):
                if self.shape(**params, **{name: v}, **rest)[0] > n_max:
                    break
                walk({**params, name: v})

        walk({})
        out.sort(key=lambda t: (t["n"], t["k"], t["d"], t["r"], t["delta"]))
        return iter(out)


_FAMILIES: list[FamilySpec] = [
    FamilySpec("1", "constructed", "C1",
        {"n": "5l-1", "k": "3l-1", "d": "3", "r": "3", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (5 * l - 1, 3 * l - 1, 3, 3, 3), ranges={"l": (2, None)},
        matrix=lambda l, variant: _groups(LOCAL_5, [()] * l, variant)),
    FamilySpec("2", "constructed", "C2",
        {"n": "4l-1", "k": "2l-1", "d": "3", "r": "2", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (4 * l - 1, 2 * l - 1, 3, 2, 3), ranges={"l": (2, None)},
        matrix=lambda l, variant: _groups(LOCAL_4A, [()] * l, variant)),
    FamilySpec("3", "constructed", "C3",
        {"n": "5l-2", "k": "3l-2", "d": "3", "r": "3", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (5 * l - 2, 3 * l - 2, 3, 3, 3), ranges={"l": (2, None)},
        # C1 without its first column
        matrix=lambda l, variant: _groups(LOCAL_5, [()] * l, variant).delete_columns([0])),
    FamilySpec("4", "constructed", "C4",
        {"n": "l(r+2)", "k": "rl", "d": "3", "r": "1..3", "delta": "3"}, "l >= 2, 1 <= r <= 3",
        shape=lambda l, r: (l * (r + 2), r * l, 3, r, 3), ranges={"l": (2, None), "r": (1, 3)},
        defaults={"r": 3},
        matrix=lambda l, r: _groups({3: LOCAL_5, 2: LOCAL_4B, 1: LOCAL_3}[r], [()] * l)),
    FamilySpec("5", "constructed", "C5",
        {"n": "6l-1", "k": "3l-1", "d": "4", "r": "3", "delta": "4"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (6 * l - 1, 3 * l - 1, 4, 3, 4), ranges={"l": (2, None)},
        matrix=lambda l, variant: _groups(LOCAL_6, [()] * l, variant)),
    FamilySpec("6", "constructed", "C6",
        {"n": "5l", "k": "3l-1", "d": "4", "r": "3", "delta": "3"}, "l >= 2",
        shape=lambda l: (5 * l, 3 * l - 1, 4, 3, 3), ranges={"l": (2, None)},
        # global row 1_l (x) (0 0 1 W w)
        matrix=lambda l: _groups(LOCAL_5, [_parse_vecs(("1", "W", "w"))] * l)),
    FamilySpec("7", "constructed", "C7",
        {"n": "4l", "k": "2l-1", "d": "4", "r": "2", "delta": "3"}, "l >= 2",
        shape=lambda l: (4 * l, 2 * l - 1, 4, 2, 3), ranges={"l": (2, None)},
        # global row 1_l (x) (0 0 1 W)
        matrix=lambda l: _groups(LOCAL_4B, [_parse_vecs(("1", "W"))] * l)),
    FamilySpec("8", "constructed", "C8",
        {"n": "5l-1", "k": "2l-1", "d": "4", "r": "2", "delta": "4"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (5 * l - 1, 2 * l - 1, 4, 2, 4), ranges={"l": (2, None)},
        matrix=lambda l, variant: _groups(LOCAL_5C, [()] * l, variant)),
    FamilySpec("9", "constructed", "C9",
        {"n": "5l-1", "k": "3l-2", "d": "4", "r": "3", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (5 * l - 1, 3 * l - 2, 4, 3, 3), ranges={"l": (2, None)},
        # C6's matrix with groups 1 and 2 sharing a coordinate
        matrix=lambda l, variant: _groups(LOCAL_5, [_parse_vecs(("1", "W", "w"))] * l, variant)),
    FamilySpec("10", "constructed", "C10",
        {"n": "6l-2", "k": "3l-2", "d": "4", "r": "3", "delta": "4"}, "l >= 2",
        variants=("a", "b"),
        shape=lambda l: (6 * l - 2, 3 * l - 2, 4, 3, 4), ranges={"l": (2, None)},
        # C5 without its first column
        matrix=lambda l, variant: _groups(LOCAL_6, [()] * l, variant).delete_columns([0])),
    FamilySpec("11", "constructed", "C11",
        {"n": "l(r+3)", "k": "rl", "d": "4", "r": "1..3", "delta": "4"}, "l >= 2, 1 <= r <= 3",
        shape=lambda l, r: (l * (r + 3), r * l, 4, r, 4), ranges={"l": (2, None), "r": (1, 3)},
        defaults={"r": 3},
        matrix=lambda l, r: _groups({3: LOCAL_6, 2: LOCAL_5C, 1: LOCAL_4C}[r], [()] * l)),
    FamilySpec("12", "constructed", "C12",
        {"n": "k*delta", "k": "k", "d": "delta", "r": "1", "delta": ">= 5"}, "k >= 2, delta >= 5",
        shape=lambda k, delta: (k * delta, k, delta, 1, delta),
        ranges={"k": (2, None), "delta": (5, None)},
        matrix=lambda k, delta: _groups(single_parity_generator(delta), [()] * k)),
    FamilySpec("13", "constructed", "C13",
        {"n": "(k+1)delta", "k": "k", "d": "2delta", "r": "1", "delta": "> 2"}, "k >= 2, delta >= 3",
        shape=lambda k, delta: ((k + 1) * delta, k, 2 * delta, 1, delta),
        ranges={"k": (2, None), "delta": (3, None)},
        # global row 1_{k+1} (x) (0 ... 0 1)
        matrix=lambda k, delta: _groups(single_parity_generator(delta), [((1,),)] * (k + 1))),
    FamilySpec("14", "constructed", "C14",
        {"n": "(k+2)delta", "k": "k", "d": "3delta", "r": "1", "delta": "> 2"}, "k in {2,3}, delta >= 3",
        shape=lambda k, delta: ((k + 2) * delta, k, 3 * delta, 1, delta),
        ranges={"k": (2, 3), "delta": (3, None)},
        matrix=lambda k, delta: _groups(single_parity_generator(delta),
                                        [[tag] for tag in _C14_TAGS[:k + 2]])),
    FamilySpec("15", "constructed", "C15",
        {"n": "(k+3)delta", "k": "k", "d": "4delta", "r": "1", "delta": "> 2"}, "k in {2,3}, delta >= 3",
        shape=lambda k, delta: ((k + 3) * delta, k, 4 * delta, 1, delta),
        ranges={"k": (2, 3), "delta": (3, None)},
        matrix=lambda k, delta: _groups(single_parity_generator(delta),
                                        [[tag] for tag in _C15_TAGS[:k + 3]])),
    FamilySpec("16", "constructed", "C16",
        {"n": "d+4", "k": "3", "d": "5..12", "r": "2", "delta": "3"}, "5 <= d <= 12",
        generator=True, shape=lambda d: (d + 4, 3, d, 2, 3), ranges={"d": (5, 12)},
        defaults={"d": 12}, matrix=_c16),
    FamilySpec("l-s=2_1", "constructed", "CLS2_1",
        {"n": "4l", "k": "2l-3", "d": "8", "r": "2", "delta": "3"}, "l in {4, 5}",
        note="printed dimension k=3 is inconsistent; k is derived as n - rank(H)",
        shape=lambda l: (4 * l, 2 * l - 3, 8, 2, 3), ranges={"l": (4, 5)}, defaults={"l": 5},
        matrix=lambda l: _groups(LOCAL_4B, [_parse_vecs(uv) for uv in CLS2_1_UV[:l]])),
    FamilySpec("l-s=3_1", "constructed", "CLS3_1",
        {"n": "20", "k": "5", "d": "12", "r": "2", "delta": "3"}, "l = 5",
        note="printed dimension k=3 is inconsistent; k is derived as n - rank(H)",
        shape=lambda l: (4 * l, 2 * l - 5, 12, 2, 3), ranges={"l": (5, 5)}, defaults={"l": 5},
        matrix=lambda l: _groups(LOCAL_4B, [_parse_vecs(uv) for uv in CLS3_1_UV[:l]])),
    FamilySpec("17", "constructed", "C17",
        {"n": "d+5", "k": "3", "d": "7..16", "r": "2", "delta": "4"}, "7 <= d <= 16",
        generator=True, shape=lambda d: (d + 5, 3, d, 2, 4), ranges={"d": (7, 16)},
        defaults={"d": 16}, matrix=lambda d: G17.delete_columns(i - 1 for i in C17_PUNCTURES[d])),
    FamilySpec("18", "constructed", "C18",
        {"n": "d+5", "k": "4", "d": "5..12", "r": "3", "delta": "3"}, "5 <= d <= 12",
        generator=True, shape=lambda d: (d + 5, 4, d, 3, 3), ranges={"d": (5, 12)},
        defaults={"d": 12}, matrix=lambda d: G18.delete_columns(i - 1 for i in C18_PUNCTURES[d])),
    FamilySpec("l-s=1_3", "constructed", "CLS1_3",
        {"n": "5l", "k": "3l-2", "d": "5", "r": "3", "delta": "3"}, "l >= 3",
        shape=lambda l: (5 * l, 3 * l - 2, 5, 3, 3), ranges={"l": (3, None)},
        # global rows 1_l (x) (0 0 1 0 W / 0 0 0 1 W)
        matrix=lambda l: _groups(LOCAL_5, [_parse_vecs(("1 0", "0 1", "W W"))] * l)),
    FamilySpec("33d=10", "open", None,
        {"n": "5l", "k": "3l-5", "d": "10", "r": "3", "delta": "3"}, "4 <= l <= 9",
        note="only the length range is known; existence and structure are open",
        shape=lambda l: (5 * l, 3 * l - 5, 10, 3, 3),
        ranges={"l": (4, 9)}),
    FamilySpec("19", "constructed", "C19",
        {"n": "d+6", "k": "4", "d": "6..12", "r": "3", "delta": "4"}, "6 <= d <= 12",
        note="d >= 13 is impossible: no quaternary [6+d, 4, d] code exists",
        generator=True, shape=lambda d: (d + 6, 4, d, 3, 4), ranges={"d": (6, 12)},
        defaults={"d": 12},
        matrix=lambda d: G19_D7 if d == 7 else G19.delete_columns(i - 1 for i in C19_PUNCTURES[d])),
    FamilySpec("l-s=1_4", "constructed", "CLS1_4",
        {"n": "6l", "k": "3l-2", "d": "6", "r": "3", "delta": "4"}, "l >= 3",
        shape=lambda l: (6 * l, 3 * l - 2, 6, 3, 4), ranges={"l": (3, None)},
        # global rows 1_l (x) (0 0 0 1 0 W / 0 0 0 0 1 W)
        matrix=lambda l: _groups(LOCAL_6, [_parse_vecs(("1 0", "0 1", "W W"))] * l)),
    FamilySpec("34l=4", "constructed", "C17G",
        {"n": "6l", "k": "3l-5", "d": "12", "r": "3", "delta": "4"}, "4 <= l <= 20",
        note="explicit for 4 <= l <= 17; existence believed but open for 18 <= l <= 20",
        shape=lambda l: (6 * l, 3 * l - 5, 12, 3, 4),
        ranges={"l": (4, 20)},
        instance_status=lambda l: "constructed" if l <= 17 else "open",
        matrix=lambda l: _groups(LOCAL_6, c17g_triples(l))),
    # parameter cases proven impossible
    FamilySpec("d3-t3", "nonexistent", None, {"d": "3"}, "k = 3 (mod r)",
        note="the removed groups force [5,2,4] local codes with r = 3, contradicting t <= r-1"),
    FamilySpec("d3-r4", "nonexistent", None, {"d": "3", "r": ">= 4"}, "t = 1, r >= 4",
        note="a local group would be a [>=6, 2] MDS code, impossible over GF(4)"),
    FamilySpec("d4-t3", "nonexistent", None, {"d": "4"}, "k = 3 (mod r)",
        note="the removed groups force [6,3,4] local codes with r = 3, contradicting t <= r-1"),
    FamilySpec("d4-r4", "nonexistent", None, {"d": "4", "r": ">= 4"}, "t = 1, r >= 4",
        note="a local group would be a [>=6, 2] or [>=7, 3] MDS code, impossible over GF(4)"),
    FamilySpec("24d5", "nonexistent", None,
        {"n": "10", "k": "3", "d": "5", "r": "2", "delta": "4"}, "single tuple",
        note="no weight-5 word in any [5,2,4] code, so no [5,1,5] dual subcode"),
    FamilySpec("24d6", "nonexistent", None,
        {"n": "11", "k": "3", "d": "6", "r": "2", "delta": "4"}, "single tuple",
        note="two size-5 supports cannot cover 11 coordinates"),
    FamilySpec("34d5", "nonexistent", None,
        {"n": "11", "k": "4", "d": "5", "r": "3", "delta": "4"}, "single tuple",
        note="reduces to a weight-5 word in a [5,2,4] code, which does not exist"),
    FamilySpec("24d10", "nonexistent", None,
        {"n": "5l", "k": "2l-3", "d": "10", "r": "2", "delta": "4"}, "l - s = 2",
        note="lines in PG(2,F4) must intersect"),
    FamilySpec("24d15", "nonexistent", None,
        {"n": "5l", "k": "2l-5", "d": "15", "r": "2", "delta": "4"}, "l - s = 3",
        note="a line and a 4-dim subspace of PG(4,F4) must intersect"),
    FamilySpec("34d13", "nonexistent", None,
        {"n": "6+d", "k": "4", "d": ">= 13", "r": "3", "delta": "4"}, "s = 1, d >= 13",
        note="no quaternary [6+d, 4, d] linear code exists for d >= 13"),
]

_FAMILY_BY_ID = {f.id: f for f in _FAMILIES}
_FAMILY_BY_CONSTRUCTION = {f.construction: f for f in _FAMILIES if f.construction}


def catalog() -> list[FamilySpec]:
    """The complete family list: constructed, open, and nonexistent."""
    return list(_FAMILIES)


def family(fid: str) -> FamilySpec:
    try:
        return _FAMILY_BY_ID[fid]
    except KeyError:
        raise CatalogError(f"unknown family {fid!r}") from None


# ---------------------------------------------------------------------------
# the built-code bundle


@dataclass
class BuiltCode:
    """A constructed code together with everything needed to verify it."""

    construction: str
    family: FamilySpec
    params: dict
    variant: str | None
    code: LinearCode
    expected: CodeParams
    r: int
    delta: int
    profile: LocalityProfile
    #: the (r, delta) locality search that built a generator family's profile
    search: LocalitySearch | None = None

    def verify(self) -> OptimalityReport:
        report = check_structure(self.profile, search=self.search)
        report.family = self.family.id
        report.status = self.family.status
        return report


# ---------------------------------------------------------------------------
# the public builder

def build(
    construction: str,
    *,
    l: int | None = None,
    k: int | None = None,
    delta: int | None = None,
    r: int | None = None,
    d: int | None = None,
    variant: str | None = None,
) -> BuiltCode:
    """Instantiate a catalogued construction at the given parameters.

    Parameters are family-specific: l for the block families, (k, delta)
    for the r = 1 families, d for the puncture chains C16..C19, r (or
    k = r*l) for C4/C11, and variant 'a'/'b' where both parity choices
    are printed.  The family's catalogue entry states which parameters
    it takes, their ranges and defaults: a parameter it does not take,
    one that is not an integer or lies outside its range, or an instance
    the catalogue lists as open raises RangeError.  ``construction`` is
    a construction id in any case or a family id; any other name, or an
    entry with no matrix, raises CatalogError.

    Every family is finished here from its catalogue entry: [n, k, d], r
    and delta come from the entry, and :func:`lrc.layout_of` gives the
    layout.  A parity check's first ceil(n / (r + delta - 1)) blocks of
    delta - 1 rows are its local groups and the remaining rows global; a
    generator's groups come from the locality search, and a search that
    leaves some coordinate without a support raises StructureError.
    """
    fam = _FAMILY_BY_CONSTRUCTION.get(construction.upper()) or _FAMILY_BY_ID.get(construction)
    if fam is None or fam.matrix is None:
        raise CatalogError(f"unknown construction {construction!r}")
    cid = fam.construction
    if k is not None and "r" in fam.ranges:  # C4/C11 also take k = r*l for r
        try:
            k, l = gf4._integers((k, l), "k and l")
            fits = l and not k % l and r in (None, k // l)
        except ValueError:
            fits = False
        if not fits:
            with_r = "" if r is None else f", r={r!r}"
            raise RangeError(f"{cid} needs k = r*l, got k={k!r}, l={l!r}{with_r}")
        k, r = None, k // l
    given = {"l": l, "k": k, "delta": delta, "r": r, "d": d}
    for name, value in given.items():
        if value is not None and name not in fam.ranges:
            raise RangeError(f"{cid} takes no parameter {name}")
    if variant is not None and variant not in fam.variants:
        raise RangeError(f"{cid} has no variant {variant!r}")
    params = {}
    for name, (lo, hi) in fam.ranges.items():
        value = fam.defaults.get(name) if given[name] is None else given[name]
        if value is None:
            raise RangeError(f"{cid} needs parameter {name}")
        try:
            [value] = gf4._integers([value], name)
        except ValueError:
            raise RangeError(f"{cid} needs an integer {name}, got {name}={value!r}") from None
        if value < lo or (hi is not None and value > hi):
            needs = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
            raise RangeError(f"{cid} needs {needs}, got {name}={value}")
        params[name] = value
    status = fam._status_at(params)
    if status != "constructed":
        at = ", ".join(f"{name}={value}" for name, value in params.items())
        raise RangeError(f"{cid} {at} is {status}: {fam.note}")

    if fam.variants:
        variant = variant or "a"
        m = fam.matrix(**params, variant=variant)
    else:
        m = fam.matrix(**params)
    n, dim, dist, r, delta = fam.shape(**params)
    rows = delta - 1
    ranges = None if fam.generator else [(1 + i * rows, (i + 1) * rows)
                                         for i in range(ceil(n / (r + rows)))]
    code = LinearCode(gen=m) if fam.generator else LinearCode(pchk=m)
    profile, search = layout_of(code, r, delta, ranges)
    if profile is None:
        raise search.failure()
    code = profile.code  # shared, so verify() reduces no matrix a second time
    if (code.n, code.k) != (n, dim):
        raise StructureError(f"{cid}: built [{code.n},{code.k}], expected [{n},{dim}]")
    return BuiltCode(
        construction=cid,
        family=fam,
        params=params,
        variant=variant,
        code=code,
        expected=CodeParams(n, dim, dist),
        r=r,
        delta=delta,
        profile=profile,
        search=search,
    )


def blockwise_min_distance(bc: BuiltCode) -> int:
    """Exact d of a built code: :func:`lrc.blockwise_min_distance` on its
    profile.  Raises ValueError when its groups form one block and
    ResourceError past :data:`lrc.BLOCKWISE_MAX_WORK`."""
    return lrc.blockwise_min_distance(bc.profile)


def acceptance_sweep() -> list[tuple[str, dict]]:
    """(construction, build kwargs) at the two smallest parameter points
    of every constructed family, with both variants where offered."""
    out: list[tuple[str, dict]] = []
    for cid in [f.construction for f in _FAMILIES if f.variants]:
        for l in (2, 3):
            for v in ("a", "b"):
                out.append((cid, {"l": l, "variant": v}))
    for cid in ("C6", "C7"):
        for l in (2, 3):
            out.append((cid, {"l": l}))
    for cid in ("C4", "C11"):
        for l in (2, 3):
            for r in (1, 2, 3):
                out.append((cid, {"l": l, "r": r}))
    out += [("C12", {"k": 2, "delta": 5}), ("C12", {"k": 2, "delta": 6}), ("C12", {"k": 3, "delta": 5})]
    for cid, dmin in (("C13", 3), ("C14", 3), ("C15", 3)):
        out += [(cid, {"k": 2, "delta": dmin}), (cid, {"k": 3, "delta": dmin}),
                (cid, {"k": 2, "delta": dmin + 1})]
    out += [("C16", {"d": 5}), ("C16", {"d": 6}), ("C16", {"d": 12})]
    out += [("C17", {"d": 7}), ("C17", {"d": 8}), ("C17", {"d": 16})]
    out += [("C18", {"d": 5}), ("C18", {"d": 6}), ("C18", {"d": 12})]
    out += [("C19", {"d": 6}), ("C19", {"d": 7}), ("C19", {"d": 12})]
    out += [("CLS2_1", {"l": 4}), ("CLS2_1", {"l": 5})]
    out += [("CLS3_1", {"l": 5})]
    out += [("CLS1_3", {"l": 3}), ("CLS1_3", {"l": 4})]
    out += [("CLS1_4", {"l": 3}), ("CLS1_4", {"l": 4})]
    out += [("C17G", {"l": 4}), ("C17G", {"l": 5})]
    return out
