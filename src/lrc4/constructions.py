"""Builders for every catalogued optimal quaternary (r, delta)-LRC.

Each constructed family carries a parity-check template (or a printed
generator matrix for the projective-geometry codes) with block structure

    [ local group 1 ]
    [     ...       ]
    [ local group l ]
    [ global rows   ]

instantiated at the requested parameters.  Builders return a
:class:`BuiltCode` bundling the code, its expected [n,k,d], the locality
pair, the group layout, and the family record.

Family records (:class:`FamilySpec`) cover the whole classification:
constructed families, the two parameter ranges that remain open, and the
parameter cases ruled out by weight-distribution or incidence arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import gf4
from .code import HEXACODE_GEN, CodeParams, LinearCode
from .errors import CatalogError, RangeError, StructureError
from .lrc import (
    LocalityProfile,
    OptimalityReport,
    check_structure,
    extract_profile,
    structured_parity_check,
    verify_locality,
)
from .mat4 import Mat4, assemble_blocks, hstack, vstack

# ---------------------------------------------------------------------------
# shared blocks

#: rows span a [5,2,4] MDS code; the kernel is the [5,3,3] local code
LOCAL_5 = Mat4.from_string("1 0 1 1 1 / 0 1 1 w W")

#: LOCAL_5 without its 4th column ([4,2,3] local structure, variant used by C2)
LOCAL_4A = Mat4.from_string("1 0 1 1 / 0 1 1 W")

#: LOCAL_5 without its 5th column ([4,2,3] local structure, used by C4/C7)
LOCAL_4B = Mat4.from_string("1 0 1 1 / 0 1 1 w")

#: LOCAL_5 without columns 4,5 (kernel is the [3,1,3] repetition code)
LOCAL_3 = Mat4.from_string("1 0 1 / 0 1 1")

#: Hexacode generator doubling as the 3-row [6,3,4] local block
LOCAL_6 = HEXACODE_GEN

#: LOCAL_6 without its 5th column ([5,2,4] local code, used by C8/C11)
LOCAL_5C = Mat4.from_string("1 0 0 1 1 / 0 1 0 1 W / 0 0 1 1 w")

#: LOCAL_6 without columns 5,6 (kernel is the [4,1,4] repetition code)
LOCAL_4C = Mat4.from_string("1 0 0 1 / 0 1 0 1 / 0 0 1 1")


def single_parity_generator(delta: int) -> Mat4:
    """Generator [I | 1] of the [delta, delta-1, 2] MDS code.

    Its kernel is the [delta, 1, delta] repetition code, which is what
    makes it the local block for the r = 1 families.
    """
    rows = []
    for i in range(delta - 1):
        row = [0] * delta
        row[i] = 1
        row[delta - 1] = 1
        rows.append(row)
    return Mat4(rows)


def _ones_kron(l: int, block: Mat4) -> Mat4:
    ones = Mat4([[1] * l]) if l else Mat4.zeros(1, 0)
    return ones.kron(block)


def _variant_pair(variant: str) -> tuple[int, int]:
    if variant == "a":
        return gf4.ZERO, gf4.ZERO
    if variant == "b":
        return gf4.ONE, gf4.W2
    raise RangeError(f"variant must be 'a' or 'b', got {variant!r}")


def _variant_triple(variant: str) -> tuple[int, int, int]:
    if variant == "a":
        return gf4.ZERO, gf4.ZERO, gf4.ZERO
    if variant == "b":
        return gf4.ONE, gf4.W2, gf4.W
    raise RangeError(f"variant must be 'a' or 'b', got {variant!r}")


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
#: support, so the result is not a (2,3)-LRC; the builder uses a selection
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
# global-row data for the n = 4l / 6l families with d in {8, 12}

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


def _parse_vec(text: str) -> tuple[int, ...]:
    return tuple(gf4.from_symbol(s) for s in text.split())


def c17g_triples(l: int) -> list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """The first l (u, v, z) triples of the degree-17 table."""
    if not 4 <= l <= 17:
        raise RangeError(f"the triple table covers 4 <= l <= 17, got l={l}")
    return [tuple(_parse_vec(t) for t in row) for row in C17G_TRIPLES[:l]]


# combinations a*u + b*v + c*z that must avoid every other subspace:
# the projective (a,b,c) of weight <= 2 plus (1,1,1), (1,w,w^2), (1,w^2,w)
_FORBIDDEN_COMBOS: list[tuple[int, int, int]] = (
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    + [(1, b, 0) for b in gf4.NONZERO]
    + [(1, 0, c) for c in gf4.NONZERO]
    + [(0, 1, c) for c in gf4.NONZERO]
    + [(1, 1, 1), (1, gf4.W, gf4.W2), (1, gf4.W2, gf4.W)]
)


def verify_c17g_properties(l: int, triples=None) -> bool:
    """Check the two span conditions behind the n = 6l, d = 12 family.

    (1) every triple spans a 3-dimensional subspace; (2) for i != j, all
    fifteen flagged combinations of triple i avoid the subspace of
    triple j.
    """
    if triples is None:
        triples = c17g_triples(l)
    else:
        triples = list(triples)[:l]
    bases = []
    for u, v, z in triples:
        m = Mat4([u, v, z])
        if m.rank() != 3:
            return False
        bases.append(m.rref()[0])
    for i, (u, v, z) in enumerate(triples):
        vecs = []
        for a, b, c in _FORBIDDEN_COMBOS:
            vec = tuple(
                gf4.mul(a, ux) ^ gf4.mul(b, vx) ^ gf4.mul(c, zx)
                for ux, vx, zx in zip(u, v, z)
            )
            vecs.append(vec)
        for j, basis in enumerate(bases):
            if j == i:
                continue
            for vec in vecs:
                stacked = vstack([basis, Mat4([vec])])
                if stacked.rank() == 3:
                    return False
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
    _instances: Callable[[int], Iterator[dict]] | None = field(default=None, repr=False)

    def instances(self, n_max: int) -> Iterator[dict]:
        """Evaluated parameter tuples with n <= n_max, increasing n.

        Each item carries n, k, d, r, delta, the defining parameters, and
        the instance status (only the n = 6l, d = 12 family mixes
        constructed and open instances).
        """
        if self._instances is None:
            return iter(())
        return self._instances(n_max)


def _mk(fid, status, construction, formulas, valid_range, note="", variants=(), gen=None):
    return FamilySpec(
        id=fid,
        status=status,
        construction=construction,
        formulas=formulas,
        valid_range=valid_range,
        note=note,
        variants=variants,
        _instances=gen,
    )


def _linear_family(nf, kf, d, r, delta, lmin, lmax=None, status=None):
    def gen(n_max: int) -> Iterator[dict]:
        l = lmin
        while nf(l) <= n_max and (lmax is None or l <= lmax):
            inst_status = status(l) if status else "constructed"
            yield {
                "n": nf(l), "k": kf(l), "d": d, "r": r, "delta": delta,
                "params": {"l": l}, "status": inst_status,
            }
            l += 1
    return gen


def _r_family(d, delta, lmin=2):
    # n = l(r + delta - 1), k = rl for r in 1..3 (families with r | k)
    def gen(n_max: int) -> Iterator[dict]:
        out = []
        for r in (1, 2, 3):
            l = lmin
            while True:
                n = l * (r + delta - 1)
                if n > n_max:
                    break
                out.append({
                    "n": n, "k": r * l, "d": d, "r": r, "delta": delta,
                    "params": {"l": l, "r": r}, "status": "constructed",
                })
                l += 1
        out.sort(key=lambda t: (t["n"], t["r"]))
        return iter(out)
    return gen


def _kdelta_family(nf, df, kmin, kmax, dmin):
    def gen(n_max: int) -> Iterator[dict]:
        out = []
        for k in range(kmin, (kmax or n_max) + 1):
            delta = dmin
            while nf(k, delta) <= n_max:
                out.append({
                    "n": nf(k, delta), "k": k, "d": df(delta), "r": 1, "delta": delta,
                    "params": {"k": k, "delta": delta}, "status": "constructed",
                })
                delta += 1
            if nf(k, dmin) > n_max:
                break
        out.sort(key=lambda t: (t["n"], t["k"], t["delta"]))
        return iter(out)
    return gen


def _d_family(nf, k, r, delta, dmin, dmax):
    def gen(n_max: int) -> Iterator[dict]:
        for d in range(dmin, dmax + 1):
            if nf(d) <= n_max:
                yield {
                    "n": nf(d), "k": k, "d": d, "r": r, "delta": delta,
                    "params": {"d": d}, "status": "constructed",
                }
    return gen


_FAMILIES: list[FamilySpec] = [
    _mk("1", "constructed", "C1",
        {"n": "5l-1", "k": "3l-1", "d": "3", "r": "3", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 5 * l - 1, lambda l: 3 * l - 1, 3, 3, 3, 2)),
    _mk("2", "constructed", "C2",
        {"n": "4l-1", "k": "2l-1", "d": "3", "r": "2", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 4 * l - 1, lambda l: 2 * l - 1, 3, 2, 3, 2)),
    _mk("3", "constructed", "C3",
        {"n": "5l-2", "k": "3l-2", "d": "3", "r": "3", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 5 * l - 2, lambda l: 3 * l - 2, 3, 3, 3, 2)),
    _mk("4", "constructed", "C4",
        {"n": "l(r+2)", "k": "rl", "d": "3", "r": "1..3", "delta": "3"}, "l >= 2, 1 <= r <= 3",
        gen=_r_family(3, 3)),
    _mk("5", "constructed", "C5",
        {"n": "6l-1", "k": "3l-1", "d": "4", "r": "3", "delta": "4"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 6 * l - 1, lambda l: 3 * l - 1, 4, 3, 4, 2)),
    _mk("6", "constructed", "C6",
        {"n": "5l", "k": "3l-1", "d": "4", "r": "3", "delta": "3"}, "l >= 2",
        gen=_linear_family(lambda l: 5 * l, lambda l: 3 * l - 1, 4, 3, 3, 2)),
    _mk("7", "constructed", "C7",
        {"n": "4l", "k": "2l-1", "d": "4", "r": "2", "delta": "3"}, "l >= 2",
        gen=_linear_family(lambda l: 4 * l, lambda l: 2 * l - 1, 4, 2, 3, 2)),
    _mk("8", "constructed", "C8",
        {"n": "5l-1", "k": "2l-1", "d": "4", "r": "2", "delta": "4"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 5 * l - 1, lambda l: 2 * l - 1, 4, 2, 4, 2)),
    _mk("9", "constructed", "C9",
        {"n": "5l-1", "k": "3l-2", "d": "4", "r": "3", "delta": "3"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 5 * l - 1, lambda l: 3 * l - 2, 4, 3, 3, 2)),
    _mk("10", "constructed", "C10",
        {"n": "6l-2", "k": "3l-2", "d": "4", "r": "3", "delta": "4"}, "l >= 2",
        variants=("a", "b"),
        gen=_linear_family(lambda l: 6 * l - 2, lambda l: 3 * l - 2, 4, 3, 4, 2)),
    _mk("11", "constructed", "C11",
        {"n": "l(r+3)", "k": "rl", "d": "4", "r": "1..3", "delta": "4"}, "l >= 2, 1 <= r <= 3",
        gen=_r_family(4, 4)),
    _mk("12", "constructed", "C12",
        {"n": "k*delta", "k": "k", "d": "delta", "r": "1", "delta": ">= 5"}, "k >= 2, delta >= 5",
        gen=_kdelta_family(lambda k, dl: k * dl, lambda dl: dl, 2, None, 5)),
    _mk("13", "constructed", "C13",
        {"n": "(k+1)delta", "k": "k", "d": "2delta", "r": "1", "delta": "> 2"}, "k >= 2, delta >= 3",
        gen=_kdelta_family(lambda k, dl: (k + 1) * dl, lambda dl: 2 * dl, 2, None, 3)),
    _mk("14", "constructed", "C14",
        {"n": "(k+2)delta", "k": "k", "d": "3delta", "r": "1", "delta": "> 2"}, "k in {2,3}, delta >= 3",
        gen=_kdelta_family(lambda k, dl: (k + 2) * dl, lambda dl: 3 * dl, 2, 3, 3)),
    _mk("15", "constructed", "C15",
        {"n": "(k+3)delta", "k": "k", "d": "4delta", "r": "1", "delta": "> 2"}, "k in {2,3}, delta >= 3",
        gen=_kdelta_family(lambda k, dl: (k + 3) * dl, lambda dl: 4 * dl, 2, 3, 3)),
    _mk("16", "constructed", "C16",
        {"n": "d+4", "k": "3", "d": "5..12", "r": "2", "delta": "3"}, "5 <= d <= 12",
        gen=_d_family(lambda d: d + 4, 3, 2, 3, 5, 12)),
    _mk("l-s=2_1", "constructed", "CLS2_1",
        {"n": "4l", "k": "2l-3", "d": "8", "r": "2", "delta": "3"}, "l in {4, 5}",
        note="printed dimension k=3 is inconsistent; k is derived as n - rank(H)",
        gen=_linear_family(lambda l: 4 * l, lambda l: 2 * l - 3, 8, 2, 3, 4, lmax=5)),
    _mk("l-s=3_1", "constructed", "CLS3_1",
        {"n": "20", "k": "5", "d": "12", "r": "2", "delta": "3"}, "l = 5",
        note="printed dimension k=3 is inconsistent; k is derived as n - rank(H)",
        gen=_linear_family(lambda l: 4 * l, lambda l: 2 * l - 5, 12, 2, 3, 5, lmax=5)),
    _mk("17", "constructed", "C17",
        {"n": "d+5", "k": "3", "d": "7..16", "r": "2", "delta": "4"}, "7 <= d <= 16",
        gen=_d_family(lambda d: d + 5, 3, 2, 4, 7, 16)),
    _mk("18", "constructed", "C18",
        {"n": "d+5", "k": "4", "d": "5..12", "r": "3", "delta": "3"}, "5 <= d <= 12",
        gen=_d_family(lambda d: d + 5, 4, 3, 3, 5, 12)),
    _mk("l-s=1_3", "constructed", "CLS1_3",
        {"n": "5l", "k": "3l-2", "d": "5", "r": "3", "delta": "3"}, "l >= 3",
        gen=_linear_family(lambda l: 5 * l, lambda l: 3 * l - 2, 5, 3, 3, 3)),
    _mk("33d=10", "open", None,
        {"n": "5l", "k": "3l-5", "d": "10", "r": "3", "delta": "3"}, "4 <= l <= 9",
        note="only the length range is known; existence and structure are open",
        gen=_linear_family(lambda l: 5 * l, lambda l: 3 * l - 5, 10, 3, 3, 4,
                           lmax=9, status=lambda l: "open")),
    _mk("19", "constructed", "C19",
        {"n": "d+6", "k": "4", "d": "6..12", "r": "3", "delta": "4"}, "6 <= d <= 12",
        note="d >= 13 is impossible: no quaternary [6+d, 4, d] code exists",
        gen=_d_family(lambda d: d + 6, 4, 3, 4, 6, 12)),
    _mk("l-s=1_4", "constructed", "CLS1_4",
        {"n": "6l", "k": "3l-2", "d": "6", "r": "3", "delta": "4"}, "l >= 3",
        gen=_linear_family(lambda l: 6 * l, lambda l: 3 * l - 2, 6, 3, 4, 3)),
    _mk("34l=4", "constructed", "C17G",
        {"n": "6l", "k": "3l-5", "d": "12", "r": "3", "delta": "4"}, "4 <= l <= 20",
        note="explicit for 4 <= l <= 17; existence believed but open for 18 <= l <= 20",
        gen=_linear_family(lambda l: 6 * l, lambda l: 3 * l - 5, 12, 3, 4, 4,
                           lmax=20, status=lambda l: "constructed" if l <= 17 else "open")),
    # parameter cases proven impossible
    _mk("d3-t3", "nonexistent", None, {"d": "3"}, "k = 3 (mod r)",
        note="the removed groups force [5,2,4] local codes with r = 3, contradicting t <= r-1"),
    _mk("d3-r4", "nonexistent", None, {"d": "3", "r": ">= 4"}, "t = 1, r >= 4",
        note="a local group would be a [>=6, 2] MDS code, impossible over GF(4)"),
    _mk("d4-t3", "nonexistent", None, {"d": "4"}, "k = 3 (mod r)",
        note="the removed groups force [6,3,4] local codes with r = 3, contradicting t <= r-1"),
    _mk("d4-r4", "nonexistent", None, {"d": "4", "r": ">= 4"}, "t = 1, r >= 4",
        note="a local group would be a [>=6, 2] or [>=7, 3] MDS code, impossible over GF(4)"),
    _mk("24d5", "nonexistent", None,
        {"n": "10", "k": "3", "d": "5", "r": "2", "delta": "4"}, "single tuple",
        note="no weight-5 word in any [5,2,4] code, so no [5,1,5] dual subcode"),
    _mk("24d6", "nonexistent", None,
        {"n": "11", "k": "3", "d": "6", "r": "2", "delta": "4"}, "single tuple",
        note="two size-5 supports cannot cover 11 coordinates"),
    _mk("34d5", "nonexistent", None,
        {"n": "11", "k": "4", "d": "5", "r": "3", "delta": "4"}, "single tuple",
        note="reduces to a weight-5 word in a [5,2,4] code, which does not exist"),
    _mk("24d10", "nonexistent", None,
        {"n": "5l", "k": "2l-3", "d": "10", "r": "2", "delta": "4"}, "l - s = 2",
        note="lines in PG(2,F4) must intersect"),
    _mk("24d15", "nonexistent", None,
        {"n": "5l", "k": "2l-5", "d": "15", "r": "2", "delta": "4"}, "l - s = 3",
        note="a line and a 4-dim subspace of PG(4,F4) must intersect"),
    _mk("34d13", "nonexistent", None,
        {"n": "6+d", "k": "4", "d": ">= 13", "r": "3", "delta": "4"}, "s = 1, d >= 13",
        note="no quaternary [6+d, 4, d] linear code exists for d >= 13"),
]

_FAMILY_BY_ID = {f.id: f for f in _FAMILIES}
_FAMILY_BY_CONSTRUCTION = {f.construction: f for f in _FAMILIES if f.construction}
_CONSTRUCTION_IDS = frozenset(_FAMILY_BY_CONSTRUCTION)


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
    layout: list[tuple[int, int]]

    def verify(self, *, r_optimality: bool = True, scan_budget: int | None = None) -> OptimalityReport:
        report = check_structure(
            self.code, self.profile, r_optimality=r_optimality, scan_budget=scan_budget
        )
        report.family = self.family.id
        report.status = self.family.status
        return report


def _finish_parity(construction, params, variant, h, layout, r, delta, expect_nkd):
    code = LinearCode.from_parity_check(h).complete()
    return _bundle(construction, params, variant, code, h, layout, r, delta, expect_nkd)


def _finish_generator(construction, params, g, r, delta, expect_nkd):
    base = LinearCode.from_generator(g)
    found = verify_locality(base, r, delta)
    if not found.ok:
        raise StructureError(
            f"{construction}: locality ({r},{delta}) fails at {found.bad_coordinates}"
        )
    h, layout, partitioned = structured_parity_check(base, r, delta)
    code = LinearCode(gen=g, pchk=h if partitioned else h.row_basis())
    return _bundle(construction, params, None, code, h, layout, r, delta, expect_nkd, partitioned)


def _bundle(construction, params, variant, code, h, layout, r, delta, expect_nkd, partitioned=True):
    """Check the built code against its expected [n, k] and profile it."""
    n, k, _ = expect_nkd
    if (code.n, code.k) != (n, k):
        raise StructureError(f"{construction}: built [{code.n},{code.k}], expected [{n},{k}]")
    return BuiltCode(
        construction=construction,
        family=_FAMILY_BY_CONSTRUCTION[construction],
        params=params,
        variant=variant,
        code=code,
        expected=CodeParams(*expect_nkd),
        r=r,
        delta=delta,
        profile=extract_profile(h, layout, r=r, delta=delta, partitioned=partitioned),
        layout=layout,
    )


def _uniform_layout(l: int, rows_per_group: int) -> list[tuple[int, int]]:
    return [(1 + i * rows_per_group, (i + 1) * rows_per_group) for i in range(l)]


# -- d = 3 -------------------------------------------------------------------


def _build_c1_h(l: int, variant: str) -> Mat4:
    a, b = _variant_pair(variant)
    head = Mat4([
        [1, 0, 1, 1, a, 0, 0, 0, 0],
        [0, 1, 1, gf4.W, b, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 1, 1, gf4.W, gf4.W2],
    ])
    tail = Mat4.identity(l - 2).kron(LOCAL_5)
    return assemble_blocks([
        [head, Mat4.zeros(4, 5 * (l - 2))],
        [Mat4.zeros(2 * (l - 2), 9), tail],
    ])


def _build_c1(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    h = _build_c1_h(l, variant)
    return _finish_parity("C1", {"l": l}, variant, h, _uniform_layout(l, 2), 3, 3,
                          (5 * l - 1, 3 * l - 1, 3))


def _build_c2(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    a, b = _variant_pair(variant)
    head = Mat4([
        [1, 0, 1, a, 0, 0, 0],
        [0, 1, 1, b, 0, 0, 0],
        [0, 0, 0, 1, 0, 1, 1],
        [0, 0, 0, 0, 1, 1, gf4.W2],
    ])
    tail = Mat4.identity(l - 2).kron(LOCAL_4A)
    h = assemble_blocks([
        [head, Mat4.zeros(4, 4 * (l - 2))],
        [Mat4.zeros(2 * (l - 2), 7), tail],
    ])
    return _finish_parity("C2", {"l": l}, variant, h, _uniform_layout(l, 2), 2, 3,
                          (4 * l - 1, 2 * l - 1, 3))


def _build_c3(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    h = _build_c1_h(l, variant).delete_columns([0])
    return _finish_parity("C3", {"l": l}, variant, h, _uniform_layout(l, 2), 3, 3,
                          (5 * l - 2, 3 * l - 2, 3))


_C4_BLOCKS = {3: LOCAL_5, 2: LOCAL_4B, 1: LOCAL_3}


def _build_c4(l: int, r: int) -> BuiltCode:
    _need_l(l, 2)
    if r not in (1, 2, 3):
        raise RangeError(f"C4 needs r in 1..3, got {r}")
    h = Mat4.identity(l).kron(_C4_BLOCKS[r])
    return _finish_parity("C4", {"l": l, "r": r}, None, h, _uniform_layout(l, 2), r, 3,
                          (l * (r + 2), r * l, 3))


# -- d = 4 -------------------------------------------------------------------


def _build_c5_h(l: int, variant: str) -> Mat4:
    a, b, c = _variant_triple(variant)
    head = Mat4([
        [1, 0, 0, 1, 1, a, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, gf4.W, b, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, gf4.W2, c, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 0, 1, 0, 1, gf4.W, gf4.W2],
        [0, 0, 0, 0, 0, 0, 0, 1, 1, gf4.W2, gf4.W],
    ])
    tail = Mat4.identity(l - 2).kron(LOCAL_6)
    return assemble_blocks([
        [head, Mat4.zeros(6, 6 * (l - 2))],
        [Mat4.zeros(3 * (l - 2), 11), tail],
    ])


def _build_c5(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    h = _build_c5_h(l, variant)
    return _finish_parity("C5", {"l": l}, variant, h, _uniform_layout(l, 3), 3, 4,
                          (6 * l - 1, 3 * l - 1, 4))


def _build_c6(l: int) -> BuiltCode:
    _need_l(l, 2)
    h = vstack([
        Mat4.identity(l).kron(LOCAL_5),
        _ones_kron(l, Mat4.from_string("0 0 1 W w")),
    ])
    return _finish_parity("C6", {"l": l}, None, h, _uniform_layout(l, 2), 3, 3,
                          (5 * l, 3 * l - 1, 4))


def _build_c7(l: int) -> BuiltCode:
    _need_l(l, 2)
    h = vstack([
        Mat4.identity(l).kron(LOCAL_4B),
        _ones_kron(l, Mat4.from_string("0 0 1 W")),
    ])
    return _finish_parity("C7", {"l": l}, None, h, _uniform_layout(l, 2), 2, 3,
                          (4 * l, 2 * l - 1, 4))


def _build_c8(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    a, b, c = _variant_triple(variant)
    head = Mat4([
        [1, 0, 0, 1, a, 0, 0, 0, 0],
        [0, 1, 0, 1, b, 0, 0, 0, 0],
        [0, 0, 1, 1, c, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 1, 0, 1, gf4.W2],
        [0, 0, 0, 0, 0, 0, 1, 1, gf4.W],
    ])
    tail = Mat4.identity(l - 2).kron(LOCAL_5C)
    h = assemble_blocks([
        [head, Mat4.zeros(6, 5 * (l - 2))],
        [Mat4.zeros(3 * (l - 2), 9), tail],
    ])
    return _finish_parity("C8", {"l": l}, variant, h, _uniform_layout(l, 3), 2, 4,
                          (5 * l - 1, 2 * l - 1, 4))


def _build_c9(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    a, b = _variant_pair(variant)
    head = Mat4([
        [1, 0, 1, 1, a, 0, 0, 0, 0],
        [0, 1, 1, gf4.W, b, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1, 1, 1],
        [0, 0, 0, 0, 0, 1, 1, gf4.W, gf4.W2],
    ])
    tail = Mat4.identity(l - 2).kron(LOCAL_5)
    # the printed global block is 1_{l-2} x (0 0 1 W w) past the 9 head columns
    glob = hstack([
        Mat4.from_string("0 0 1 W 0 0 1 W w"),
        _ones_kron(l - 2, Mat4.from_string("0 0 1 W w")),
    ])
    h = assemble_blocks([
        [head, Mat4.zeros(4, 5 * (l - 2))],
        [Mat4.zeros(2 * (l - 2), 9), tail],
        [glob],
    ])
    return _finish_parity("C9", {"l": l}, variant, h, _uniform_layout(l, 2), 3, 3,
                          (5 * l - 1, 3 * l - 2, 4))


def _build_c10(l: int, variant: str) -> BuiltCode:
    _need_l(l, 2)
    h = _build_c5_h(l, variant).delete_columns([0])
    return _finish_parity("C10", {"l": l}, variant, h, _uniform_layout(l, 3), 3, 4,
                          (6 * l - 2, 3 * l - 2, 4))


_C11_BLOCKS = {3: LOCAL_6, 2: LOCAL_5C, 1: LOCAL_4C}


def _build_c11(l: int, r: int) -> BuiltCode:
    _need_l(l, 2)
    if r not in (1, 2, 3):
        raise RangeError(f"C11 needs r in 1..3, got {r}")
    h = Mat4.identity(l).kron(_C11_BLOCKS[r])
    return _finish_parity("C11", {"l": l, "r": r}, None, h, _uniform_layout(l, 3), r, 4,
                          (l * (r + 3), r * l, 4))


# -- d >= 5, r = 1 -----------------------------------------------------------


def _build_c12(k: int, delta: int) -> BuiltCode:
    if k < 2:
        raise RangeError(f"C12 needs k >= 2, got {k}")
    if delta < 5:
        raise RangeError(f"C12 needs delta >= 5, got {delta}")
    h = Mat4.identity(k).kron(single_parity_generator(delta))
    return _finish_parity("C12", {"k": k, "delta": delta}, None, h,
                          _uniform_layout(k, delta - 1), 1, delta, (k * delta, k, delta))


def _build_c13(k: int, delta: int) -> BuiltCode:
    if k < 2:
        raise RangeError(f"C13 needs k >= 2, got {k}")
    if delta < 3:
        raise RangeError(f"C13 needs delta >= 3, got {delta}")
    tick = Mat4([[0] * (delta - 1) + [1]])
    h = vstack([
        Mat4.identity(k + 1).kron(single_parity_generator(delta)),
        _ones_kron(k + 1, tick),
    ])
    return _finish_parity("C13", {"k": k, "delta": delta}, None, h,
                          _uniform_layout(k + 1, delta - 1), 1, delta,
                          ((k + 1) * delta, k, 2 * delta))


_C14_TAGS = [(1, 0), (0, 1), (1, 1), (1, gf4.W), (1, gf4.W2)]
_C15_TAGS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 1), (1, gf4.W, gf4.W2), (1, gf4.W2, gf4.W),
]


def _tag_rows(tags: list[tuple[int, ...]], delta: int) -> Mat4:
    blocks = []
    for tag in tags:
        block = [[0] * (delta - 1) + [t] for t in tag]
        blocks.append(Mat4(block))
    return hstack(blocks)


def _build_c14(k: int, delta: int) -> BuiltCode:
    if k not in (2, 3):
        raise RangeError(f"C14 needs k in {{2,3}}, got {k}")
    if delta < 3:
        raise RangeError(f"C14 needs delta >= 3, got {delta}")
    groups = k + 2
    h = vstack([
        Mat4.identity(groups).kron(single_parity_generator(delta)),
        _tag_rows(_C14_TAGS[:groups], delta),
    ])
    return _finish_parity("C14", {"k": k, "delta": delta}, None, h,
                          _uniform_layout(groups, delta - 1), 1, delta,
                          (groups * delta, k, 3 * delta))


def _build_c15(k: int, delta: int) -> BuiltCode:
    if k not in (2, 3):
        raise RangeError(f"C15 needs k in {{2,3}}, got {k}")
    if delta < 3:
        raise RangeError(f"C15 needs delta >= 3, got {delta}")
    groups = k + 3
    h = vstack([
        Mat4.identity(groups).kron(single_parity_generator(delta)),
        _tag_rows(_C15_TAGS[:groups], delta),
    ])
    return _finish_parity("C15", {"k": k, "delta": delta}, None, h,
                          _uniform_layout(groups, delta - 1), 1, delta,
                          (groups * delta, k, 4 * delta))


# -- d >= 5, r >= 2 ----------------------------------------------------------


def _uv_global_rows(uv: list[tuple[str, str]], dim: int, group_cols: int) -> Mat4:
    blocks = []
    for u_text, v_text in uv:
        u = _parse_vec(u_text)
        v = _parse_vec(v_text)
        cols = [[0] * dim for _ in range(group_cols - 2)] + [list(u), list(v)]
        blocks.append(Mat4(cols).transpose())
    return hstack(blocks)


def _build_cls2_1(l: int) -> BuiltCode:
    if l not in (4, 5):
        raise RangeError(f"CLS2_1 exists for l in {{4, 5}}, got {l}")
    h = vstack([
        Mat4.identity(l).kron(LOCAL_4B),
        _uv_global_rows(CLS2_1_UV[:l], 3, 4),
    ])
    return _finish_parity("CLS2_1", {"l": l}, None, h, _uniform_layout(l, 2), 2, 3,
                          (4 * l, 2 * l - 3, 8))


def _build_cls3_1(l: int = 5) -> BuiltCode:
    if l != 5:
        raise RangeError(f"CLS3_1 exists only for l = 5, got {l}")
    h = vstack([
        Mat4.identity(5).kron(LOCAL_4B),
        _uv_global_rows(CLS3_1_UV, 5, 4),
    ])
    return _finish_parity("CLS3_1", {"l": 5}, None, h, _uniform_layout(5, 2), 2, 3,
                          (20, 5, 12))


def _build_cls1_3(l: int) -> BuiltCode:
    _need_l(l, 3)
    h = vstack([
        Mat4.identity(l).kron(LOCAL_5),
        _ones_kron(l, Mat4.from_string("0 0 1 0 W / 0 0 0 1 W")),
    ])
    return _finish_parity("CLS1_3", {"l": l}, None, h, _uniform_layout(l, 2), 3, 3,
                          (5 * l, 3 * l - 2, 5))


def _build_cls1_4(l: int) -> BuiltCode:
    _need_l(l, 3)
    h = vstack([
        Mat4.identity(l).kron(LOCAL_6),
        _ones_kron(l, Mat4.from_string("0 0 0 1 0 W / 0 0 0 0 1 W")),
    ])
    return _finish_parity("CLS1_4", {"l": l}, None, h, _uniform_layout(l, 3), 3, 4,
                          (6 * l, 3 * l - 2, 6))


def _build_c17g(l: int) -> BuiltCode:
    triples = c17g_triples(l)
    blocks = []
    for u, v, z in triples:
        cols = [[0] * 5, [0] * 5, [0] * 5, list(u), list(v), list(z)]
        blocks.append(Mat4(cols).transpose())
    h = vstack([Mat4.identity(l).kron(LOCAL_6), hstack(blocks)])
    return _finish_parity("C17G", {"l": l}, None, h, _uniform_layout(l, 3), 3, 4,
                          (6 * l, 3 * l - 5, 12))


# -- printed generator matrices and their puncture chains ---------------------


def _chain_generator(base: Mat4, punctures: tuple[int, ...]) -> Mat4:
    return base.delete_columns(i - 1 for i in punctures)


def _build_c16(d: int) -> BuiltCode:
    if d in C16_SELECTIONS:
        ext = hstack([Mat4([[0], [1], [0]]), G16])
        g = ext.take_columns([c for c in C16_SELECTIONS[d]])  # 0 maps to column a
    elif d in C16_PUNCTURES:
        g = _chain_generator(G16, C16_PUNCTURES[d])
    else:
        raise RangeError(f"C16 covers 5 <= d <= 12, got d={d}")
    return _finish_generator("C16", {"d": d}, g, 2, 3, (d + 4, 3, d))


def _build_c17(d: int) -> BuiltCode:
    if d not in C17_PUNCTURES:
        raise RangeError(f"C17 covers 7 <= d <= 16, got d={d}")
    g = _chain_generator(G17, C17_PUNCTURES[d])
    return _finish_generator("C17", {"d": d}, g, 2, 4, (d + 5, 3, d))


def _build_c18(d: int) -> BuiltCode:
    if d not in C18_PUNCTURES:
        raise RangeError(f"C18 covers 5 <= d <= 12, got d={d}")
    g = _chain_generator(G18, C18_PUNCTURES[d])
    return _finish_generator("C18", {"d": d}, g, 3, 3, (d + 5, 4, d))


def _build_c19(d: int) -> BuiltCode:
    if d == 7:
        g = G19_D7
    elif d in C19_PUNCTURES:
        g = _chain_generator(G19, C19_PUNCTURES[d])
    else:
        raise RangeError(f"C19 covers 6 <= d <= 12, got d={d}")
    return _finish_generator("C19", {"d": d}, g, 3, 4, (d + 6, 4, d))


def _need_l(l: int, lmin: int) -> None:
    if l is None or l < lmin:
        raise RangeError(f"this family needs l >= {lmin}, got {l}")


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
    are printed.  Out-of-range parameters raise RangeError; unknown
    construction names raise CatalogError.
    """
    cid = construction.upper()
    if cid not in _CONSTRUCTION_IDS:
        # accept a family id and resolve it to its construction
        fam = _FAMILY_BY_ID.get(construction)
        if fam is not None and fam.construction:
            cid = fam.construction
    var = variant or "a"
    if cid in ("C1", "C2", "C3", "C5", "C8", "C9", "C10"):
        fn = {"C1": _build_c1, "C2": _build_c2, "C3": _build_c3, "C5": _build_c5,
              "C8": _build_c8, "C9": _build_c9, "C10": _build_c10}[cid]
        return fn(_require(cid, "l", l), var)
    if variant is not None and cid not in ("C1", "C2", "C3", "C5", "C8", "C9", "C10"):
        raise RangeError(f"{cid} does not offer variants")
    if cid in ("C4", "C11"):
        ll = _require(cid, "l", l)
        rr = r
        if rr is None and k is not None:
            if k % ll:
                raise RangeError(f"{cid}: k = {k} is not a multiple of l = {ll}")
            rr = k // ll
        if rr is None:
            rr = 3
        return (_build_c4 if cid == "C4" else _build_c11)(ll, rr)
    if cid == "C6":
        return _build_c6(_require(cid, "l", l))
    if cid == "C7":
        return _build_c7(_require(cid, "l", l))
    if cid == "C12":
        return _build_c12(_require(cid, "k", k), _require(cid, "delta", delta))
    if cid == "C13":
        return _build_c13(_require(cid, "k", k), _require(cid, "delta", delta))
    if cid == "C14":
        return _build_c14(_require(cid, "k", k), _require(cid, "delta", delta))
    if cid == "C15":
        return _build_c15(_require(cid, "k", k), _require(cid, "delta", delta))
    if cid == "C16":
        return _build_c16(12 if d is None else d)
    if cid == "C17":
        return _build_c17(16 if d is None else d)
    if cid == "C18":
        return _build_c18(12 if d is None else d)
    if cid == "C19":
        return _build_c19(12 if d is None else d)
    if cid == "C17G":
        return _build_c17g(_require(cid, "l", l))
    if cid == "CLS2_1":
        return _build_cls2_1(5 if l is None else l)
    if cid == "CLS3_1":
        return _build_cls3_1(5 if l is None else l)
    if cid == "CLS1_3":
        return _build_cls1_3(_require(cid, "l", l))
    if cid == "CLS1_4":
        return _build_cls1_4(_require(cid, "l", l))
    raise CatalogError(f"unknown construction {construction!r}")


def _require(cid: str, name: str, value):
    if value is None:
        raise RangeError(f"{cid} needs parameter {name}")
    return value


def blockwise_min_distance(bc: BuiltCode) -> int:
    """Exact minimum distance via the local/global block structure.

    For disjoint-support profiles, a codeword is a splice of local-kernel
    words, one per group, whose global-row syndromes cancel.  Dynamic
    programming over the 4^g global syndromes (g = number of global rows)
    finds the minimum positive splice weight exactly, far beyond the
    generic enumeration and column-scan guards: the full 17-group code
    ([102,46]) takes about a million table operations.

    Requires pairwise disjoint group supports covering every coordinate.
    """
    import numpy as np

    profile = bc.profile
    h = profile.matrix if profile.matrix is not None else bc.code.parity_check()
    n = bc.code.n
    seen: set[int] = set()
    for grp in profile.groups:
        if seen & grp.support:
            raise ValueError("blockwise distance needs disjoint group supports")
        seen |= grp.support
    if len(seen) != n:
        raise ValueError("group supports must cover every coordinate")

    g_rows = [h.array[i - 1] for i in profile.global_rows]
    g = len(g_rows)
    size = 1 << (2 * g)
    INF = 10 ** 9

    def syndrome_index(word_cols, word):
        # pack the F4^g syndrome as an integer, 2 bits per entry
        idx = 0
        for gi, row in enumerate(g_rows):
            acc = 0
            for c, x in zip(word_cols, word):
                acc ^= gf4.MUL[int(row[c])][int(x)]
            idx |= acc << (2 * gi)
        return idx

    dp_any = np.full(size, INF, dtype=np.int64)  # min weight, zero splice allowed
    dp_pos = np.full(size, INF, dtype=np.int64)  # min weight with some nonzero block
    dp_any[0] = 0
    indices = np.arange(size)
    for grp in profile.groups:
        cols0 = sorted(c - 1 for c in grp.support)
        local = Mat4(h.array[[i - 1 for i in grp.rows], :][:, cols0])
        new_any = np.full(size, INF, dtype=np.int64)
        new_pos = np.full(size, INF, dtype=np.int64)
        for word in local.right_kernel().span_words():
            wt = int(np.count_nonzero(word))
            shift = indices ^ syndrome_index(cols0, word)
            np.minimum(new_any, dp_any[shift] + wt, out=new_any)
            np.minimum(new_pos, dp_pos[shift] + wt, out=new_pos)
            if wt:
                np.minimum(new_pos, dp_any[shift] + wt, out=new_pos)
        dp_any, dp_pos = new_any, new_pos
    d = int(dp_pos[0])
    if d >= INF:
        raise ValueError("no nonzero splice cancels the global syndrome")
    return d


def acceptance_sweep() -> list[tuple[str, dict]]:
    """(construction, build kwargs) at the two smallest parameter points
    of every constructed family, with both variants where offered."""
    out: list[tuple[str, dict]] = []
    for cid in ("C1", "C2", "C3", "C5", "C8", "C9", "C10"):
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
