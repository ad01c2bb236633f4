"""Reproduce the parameter classification and its impossibility arguments.

The enumeration walks every family formula over its admissible range and
returns the optimal parameter tuples up to a length cap.  The
impossibility claims are machine-checked at the level of their proofs:
weight-distribution facts verified exhaustively over all 2-dimensional
subspaces of GF(4)^5; incidence facts of PG(2,F4), exhaustively from one
span table of its 21 lines, and of PG(4,F4), on 500 seeded line/solid
pairs, each decided on packed vectors by one Eliminator twice over (a
common point found among the line's five, and a rank count); and the
three projective counting bounds.  No search over codes is attempted;
each proof pillar is exactly checkable where a code search would not be.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ._gf4vec import Eliminator, Vec, pack, span
from .code import mds_weight_distribution
from .constructions import catalog
from .gf4 import _integers
from .lrc import group_count_range, singleton_like_bound
from .mat4 import span_stack
from .pg import count_subspaces, enumerate_points, subspace_blocks

MAX_ENUMERATION_N = 128
_PG4_PAIRS, _PG4_SEED = 500, 0  # PG(4,F4) line/solid pairs sampled, from a fixed seed


@dataclass(frozen=True)
class ParamRecord:
    """One optimal parameter tuple with its family attribution."""

    n: int
    k: int
    d: int
    r: int
    delta: int
    family: str
    status: str

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n, self.k, self.d, self.r, self.delta)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n, "k": self.k, "d": self.d, "r": self.r, "delta": self.delta,
            "family": self.family, "status": self.status,
        }


def enumerate_optimal_params(n_max: int) -> list[ParamRecord]:
    """All optimal (n, k, d, r, delta) tuples with n <= n_max.

    Constructed and open families are evaluated over their ranges;
    every returned tuple meets the Singleton-like bound with equality.
    """
    (n_max,) = _integers([n_max], "n_max")
    if n_max > MAX_ENUMERATION_N:
        raise ValueError(f"enumeration capped at n <= {MAX_ENUMERATION_N}")
    if n_max < 1:
        raise ValueError(f"enumeration needs n_max >= 1, got {n_max}")
    seen: dict[tuple, ParamRecord] = {}
    for fam in catalog():
        if fam.status == "nonexistent":
            continue
        for inst in fam.instances(n_max):
            rec = ParamRecord(
                n=inst["n"], k=inst["k"], d=inst["d"], r=inst["r"], delta=inst["delta"],
                family=fam.id, status=inst["status"],
            )
            if rec.d != singleton_like_bound(rec.n, rec.k, rec.r, rec.delta):
                raise AssertionError(f"family {fam.id} produced a non-optimal tuple {rec}")
            seen.setdefault(rec.as_tuple(), rec)
    return [seen[t] for t in sorted(seen)]


@dataclass
class EvidenceReport:
    """Machine-checked facts backing one of the impossibility arguments."""

    name: str
    passed: bool
    facts: dict = field(default_factory=dict)
    conclusion: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "facts": self.facts,
            "conclusion": self.conclusion,
        }


def no_weight5_in_d4_planes() -> tuple[int, int]:
    """Exhaustive scan of the 5797 two-dimensional subspaces of GF(4)^5.

    Returns (number of subspaces with minimum weight 4, total number of
    weight-5 words found among them) - the second count must be zero:
    a [5,2,4] code has no full-weight codeword.  Each block of bases is
    spanned at once: weights are a (15, planes) table.
    """
    d4 = 0
    weight5 = 0
    total = 0
    for block in subspace_blocks(5, 2):
        total += len(block)
        weights = np.count_nonzero(span_stack(block)[1:], axis=2)
        mds = weights.min(axis=0) == 4
        d4 += int(np.count_nonzero(mds))
        weight5 += int(np.count_nonzero(weights[:, mds] == 5))
    assert total == count_subspaces(5, 2) == 5797
    return d4, weight5


def verify_claim1(planes: tuple[int, int] | None = None) -> EvidenceReport:
    """No optimal (2,4)-LRC with parameters [10,3,5] or [11,3,6].

    Pillar (i): every [5,2,4] subspace of GF(4)^5 has A_5 = 0, checked
    exhaustively, so a [5,1,5] repetition code embeds in no such dual and
    the forced two-group structure of a [10,3,5] code cannot exist.
    Pillar (ii): for [11,3,6] two size-5 supports cover at most 10 < 11
    coordinates.  ``planes`` is the result of
    :func:`no_weight5_in_d4_planes`, scanned here when not given.
    """
    d4, weight5 = no_weight5_in_d4_planes() if planes is None else planes
    l_range_10 = group_count_range(10, 3, 2, 4)
    l_range_11 = group_count_range(11, 3, 2, 4)
    facts = {
        "planes_scanned": 5797,
        "planes_with_d4": d4,
        "weight5_words_in_d4_planes": weight5,
        "closed_form_A5_of_[5,2,4]": mds_weight_distribution(5, 2)[5],
        "l_range_[10,3,5]": l_range_10,
        "l_range_[11,3,6]": l_range_11,
        "cover_bound_[11,3,6]": "2*5 = 10 < 11",
    }
    passed = (
        weight5 == 0
        and mds_weight_distribution(5, 2)[5] == 0
        and l_range_10 == (2, 2)
        and l_range_11 == (2, 2)
        and 2 * 5 < 11
    )
    return EvidenceReport(
        name="claim1",
        passed=passed,
        facts=facts,
        conclusion="no optimal (2,4)-LRC with parameters [10,3,5] or [11,3,6]",
    )


def verify_claim2(planes: tuple[int, int] | None = None) -> EvidenceReport:
    """No optimal (3,4)-LRC with parameters [11,4,5].

    The group count is forced to l = 2 and the two size-6 supports must
    share exactly one coordinate; deleting one group then asks a [5,1,5]
    code to sit inside a [5,2,4] dual, impossible by claim 1's pillar.
    ``planes`` is as for :func:`verify_claim1`.
    """
    d4, weight5 = no_weight5_in_d4_planes() if planes is None else planes
    l_range = group_count_range(11, 4, 3, 4)
    overlap = 6 + 6 - 11
    facts = {
        "l_range_[11,4,5]": l_range,
        "support_overlap": overlap,
        "weight5_words_in_d4_planes": weight5,
    }
    passed = l_range == (2, 2) and overlap == 1 and weight5 == 0
    return EvidenceReport(
        name="claim2",
        passed=passed,
        facts=facts,
        conclusion="no optimal (3,4)-LRC with parameters [11,4,5]",
    )


def _pg4_pairs(rng: random.Random) -> list[tuple[Vec, Vec, list[Vec]]]:
    """The sampled line / solid pairs of PG(4,F4), packed, in draw order.

    A candidate draws two points of ``enumerate_points(5)`` with
    ``rng.sample`` and, once their line has rank 2, four rows of five
    ``rng.randrange(4)`` entries; it is accepted when the rows have rank
    4.  Returns the first ``_PG4_PAIRS`` accepted ``(p, q, rows)``.
    """
    points = pack(np.array([pt.coords for pt in enumerate_points(5)], dtype=np.uint8))
    pairs = []
    while len(pairs) < _PG4_PAIRS:
        p, q = rng.sample(points, 2)
        if Eliminator((p, q)).rank != 2:
            continue
        rows = pack(np.array([[rng.randrange(4) for _ in range(5)] for _ in range(4)], dtype=np.uint8))
        if Eliminator(rows).rank == 4:
            pairs.append((p, q, rows))
    return pairs


def _line_meets(p: Vec, q: Vec, sub: Eliminator) -> tuple[bool, int]:
    """Whether the line through p and q meets the span held by ``sub``,
    and the rank of the line's points stacked on that span.

    Two routes that share only ``sub``, which is left as it was.  The
    meet pushes and pops each of the line's five points, p, q and
    p + c*q for c in 1, w, w2: a dependent one is a common point.  The
    rank pushes p and q on top of ``sub``.
    """
    ph, pl = p
    points = [p, q] + [(ph ^ h, pl ^ l) for h, l in span([q])[1:]]
    meets = False
    for v in points:
        grew = sub.push(v)
        sub.pop()
        if not grew:
            meets = True
            break
    sub.push(p)
    sub.push(q)
    rank = sub.rank
    sub.pop()
    sub.pop()
    return meets, rank


def verify_geometric_nonexistence() -> EvidenceReport:
    """Incidence facts killing the (2,4) families with d = 10 and d = 15.

    (a) exhaustively, any two of the 21 lines of PG(2,F4) meet in exactly
    one point, so disjoint 2-dim spans cannot exist in GF(4)^3: the lines'
    spans come from one :func:`span_stack` table, and a pair shares
    (common nonzero words) / 3 points;
    (b) sampled line / 4-dim-subspace pairs in PG(4,F4) always intersect.
    Each pair, packed (:func:`_pg4_pairs`), is decided on one Eliminator
    holding the solid, by two routes (:func:`_line_meets`): a point of the
    line that the solid contains, found by pushing each of the five, and
    the rank count dim 2 + dim 4 - rank of the stack >= 1.
    """
    bases = np.concatenate(list(subspace_blocks(3, 2)))
    words = span_stack(bases)[1:] @ np.array([16, 4, 1])  # (15, lines) word ids
    member = np.zeros((len(bases), 64), dtype=np.int64)
    member[np.arange(len(bases)), words] = 1
    member = member[:, 1:]  # nonzero words only
    line_sizes = set((member.sum(axis=1) // 3).tolist())
    first, second = np.triu_indices(len(bases), 1)
    pair_counts = set(((member @ member.T)[first, second] // 3).tolist())

    pairs = _pg4_pairs(random.Random(_PG4_SEED))
    all_meet = True
    rank_forced = True
    for p, q, rows in pairs:
        solid = Eliminator(rows)
        meets, stacked = _line_meets(p, q, solid)
        all_meet &= meets
        rank_forced &= 2 + solid.rank - stacked >= 1
    facts = {
        "lines_in_pg2": len(bases),
        "points_per_line": sorted(line_sizes),
        "line_pairs_checked": len(first),
        "pairwise_intersection_sizes": sorted(pair_counts),
        "pg4_pairs_sampled": len(pairs),
        "pg4_all_intersect": all_meet,
        "pg4_rank_argument": rank_forced,
    }
    passed = (
        len(bases) == 21
        and line_sizes == {5}
        and pair_counts == {1}
        and all_meet
        and rank_forced
    )
    return EvidenceReport(
        name="geometric_nonexistence",
        passed=passed,
        facts=facts,
        conclusion="no optimal (2,4)-LRC in the n=5l families with d = 10 or d = 15",
    )


def verify_counting_bounds() -> EvidenceReport:
    """The three projective counting bounds: 17, 21 and 9.

    (a) subspaces through a common point: (341-1)/(21-1) = 17;
    (b) union growth 15l + 21 <= 341 gives l <= 21, and the weight-split
    inequality 5*lambda + 1 <= 26 rules the degenerate l = 21 out;
    (c) fixing a weight-3 coset point, 1 + 4*10(l-1) <= 341 - 9 gives
    l <= 9 for the open (3,3) range.
    """
    points_pg4 = count_subspaces(5, 1)
    points_per_solid = count_subspaces(3, 1)
    claim3_bound = (points_pg4 - 1) // (points_per_solid - 1)

    union_l = (points_pg4 - 21) // 15
    a_dist_6 = mds_weight_distribution(6, 3)
    proj_a4 = a_dist_6[4] // 3
    cap = points_pg4 - 21 * proj_a4
    lam = (cap - 1) // 5

    a_dist_5 = mds_weight_distribution(5, 3)
    proj_a3 = a_dist_5[3] // 3
    # the largest l with 1 + 4 * proj_a3 * (l - 1) <= points_pg4 - (proj_a3 - 1)
    line_bound = (points_pg4 - proj_a3) // (4 * proj_a3) + 1

    facts = {
        "points_pg4": points_pg4,
        "points_per_solid": points_per_solid,
        "common_point_bound": claim3_bound,
        "union_bound_l": union_l,
        "weight4_projective_words": proj_a4,
        "weight6_budget": cap,
        "max_degree_lambda": lam,
        "weight3_projective_words": proj_a3,
        "open_range_line_bound": line_bound,
    }
    passed = (
        points_pg4 == 341
        and points_per_solid == 21
        and claim3_bound == 17
        and union_l == 21
        and cap == 26
        and lam == 5
        and line_bound == 9
    )
    return EvidenceReport(
        name="counting_bounds",
        passed=passed,
        facts=facts,
        conclusion="l <= 17 through a common point; l <= 21 overall with l = 21 excluded; l <= 9 in the open (3,3) range",
    )


def all_claim_reports() -> dict[str, EvidenceReport]:
    planes = no_weight5_in_d4_planes()
    return {
        "claim1": verify_claim1(planes),
        "claim2": verify_claim2(planes),
        "geometric_nonexistence": verify_geometric_nonexistence(),
        "counting_bounds": verify_counting_bounds(),
    }
