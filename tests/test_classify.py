import random
from math import factorial

import numpy as np
from hypothesis import assume, given, strategies as st

from lrc4._gf4vec import Eliminator, pack
from lrc4.classify import (
    _PG4_SEED,
    _line_meets,
    _pg4_pairs,
    all_claim_reports,
    enumerate_optimal_params,
    no_weight5_in_d4_planes,
    verify_claim1,
    verify_claim2,
    verify_counting_bounds,
    verify_geometric_nonexistence,
)
from lrc4.constructions import build, catalog
from lrc4.lrc import is_r_optimal, singleton_like_bound, verify_locality
from lrc4.mat4 import Mat4
from lrc4.pg import enumerate_points, intersect_subspaces


def tuples(records):
    return {rec.as_tuple() for rec in records}


def test_enumeration_examples_up_to_10():
    recs = enumerate_optimal_params(10)
    ts = tuples(recs)
    assert (9, 5, 3, 3, 3) in ts  # n = 5l-1 family at l = 2
    assert (10, 5, 4, 3, 3) in ts  # n = 5l family at l = 2
    assert (10, 2, 5, 1, 5) in ts  # n = k*delta family
    assert (10, 3, 5, 2, 4) not in ts  # ruled out by the weight argument
    assert (11, 3, 6, 2, 4) not in tuples(enumerate_optimal_params(11))


def test_enumeration_families_attributed():
    recs = enumerate_optimal_params(10)
    by_tuple = {rec.as_tuple(): rec for rec in recs}
    assert by_tuple[(9, 5, 3, 3, 3)].family == "1"
    assert by_tuple[(10, 5, 4, 3, 3)].family == "6"
    assert by_tuple[(10, 2, 5, 1, 5)].family == "12"


def test_every_tuple_meets_the_bound_exactly():
    for rec in enumerate_optimal_params(30):
        assert rec.d == singleton_like_bound(rec.n, rec.k, rec.r, rec.delta)


def test_open_families_reported_open():
    recs = enumerate_optimal_params(30)
    open_recs = [rec for rec in recs if rec.status == "open"]
    assert (20, 7, 10, 3, 3) in {rec.as_tuple() for rec in open_recs}
    big = enumerate_optimal_params(128)
    open_34 = [rec for rec in big if rec.family == "34l=4" and rec.status == "open"]
    assert {rec.n // 6 for rec in open_34} == {18, 19, 20}


def test_no_nonexistent_family_parameters_in_output():
    nonexistent = {f.id for f in catalog() if f.status == "nonexistent"}
    recs = enumerate_optimal_params(128)
    assert all(rec.family not in nonexistent for rec in recs)
    banned = {(10, 3, 5, 2, 4), (11, 3, 6, 2, 4), (11, 4, 5, 3, 4)}
    assert not banned & tuples(recs)


def test_output_sorted_and_deduplicated():
    recs = enumerate_optimal_params(30)
    ts = [rec.as_tuple() for rec in recs]
    assert ts == sorted(ts)
    assert len(ts) == len(set(ts))


def constructed_instances(n_max):
    """(construction, build kwargs, catalogue d) of every constructed
    instance with n <= n_max, both variants."""
    out, seen = [], set()
    for fam in catalog():
        if fam.status == "nonexistent" or fam.construction is None:
            continue
        for inst in fam.instances(n_max):
            if inst["status"] != "constructed":
                continue
            for v in fam.variants or (None,):
                key = (fam.construction, tuple(sorted(inst["params"].items())), v)
                if key in seen:
                    continue
                seen.add(key)
                kw = dict(inst["params"])
                if v:
                    kw["variant"] = v
                out.append((fam.construction, kw, inst["d"]))
    return out


def _assert_verifies_exactly(bc, cid, kw, d):
    report = bc.verify()
    assert report.d == d, (cid, kw)
    assert report.d_optimal is True and report.r_optimal is True, (cid, kw)
    assert report.all_passed, (cid, kw)
    for name, res in report.checks.items():
        # the group-deletion check is indeterminate, with a note, on
        # the chain members that admit no local/global row partition
        indeterminate = name == "h_prime_mds" and not bc.profile.partitioned
        assert res.passed is (None if indeterminate else True), (cid, kw, name)


def test_every_constructed_instance_fully_verifies_up_to_30():
    # stronger than the acceptance sweep: every family instance with
    # n <= 30 (both variants) passes the locality search and the entire
    # verify pipeline
    insts = constructed_instances(30)
    assert len(insts) == 223
    for cid, kw, d in insts:
        bc = build(cid, **kw)
        assert verify_locality(bc.code, bc.r, bc.delta).ok, (cid, kw)
        _assert_verifies_exactly(bc, cid, kw, d)


def test_every_constructed_instance_verifies_exactly_up_to_64():
    # past the n <= 30 search guard and the scan budget: the blockwise DP
    # settles d of the disjoint-group codes, the router the others, and
    # the (r-1, delta) bound proves r-optimality without a search (the
    # instances with n <= 30 are in the test above)
    small = constructed_instances(30)
    insts = [inst for inst in constructed_instances(64) if inst not in small]
    assert len(insts) == 330
    for cid, kw, d in insts:
        _assert_verifies_exactly(build(cid, **kw), cid, kw, d)


def test_r_optimality_bound_agrees_with_the_search_up_to_30():
    fired = 0
    for cid, kw, d in constructed_instances(30):
        bc = build(cid, **kw)
        n, k = bc.code.n, bc.code.k
        if bc.r >= 2 and singleton_like_bound(n, k, bc.r - 1, bc.delta) < d:
            fired += 1
            assert is_r_optimal(bc.code, bc.r, bc.delta), (cid, kw)
    assert fired == 123


def test_enumeration_cap():
    import pytest

    with pytest.raises(ValueError):
        enumerate_optimal_params(129)
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="n_max >= 1"):
            enumerate_optimal_params(n_max)
    assert enumerate_optimal_params(1) == []


def test_weight5_scan():
    # a [5,2,4] code's generator columns are the 5 points of PG(1,4), each
    # scaled, in some order; each code has |GL(2,4)| = 15 * 12 generators
    mds_planes = factorial(5) * 3 ** 5 // (15 * 12)
    assert mds_planes == 162
    assert no_weight5_in_d4_planes() == (mds_planes, 0)


def test_claim1():
    rep = verify_claim1()
    assert rep.passed
    assert rep.facts["planes_scanned"] == 5797
    assert rep.facts["weight5_words_in_d4_planes"] == 0
    assert rep.facts["l_range_[10,3,5]"] == (2, 2)
    assert rep.facts["l_range_[11,3,6]"] == (2, 2)


def test_claim2():
    rep = verify_claim2()
    assert rep.passed
    assert rep.facts["l_range_[11,4,5]"] == (2, 2)
    assert rep.facts["support_overlap"] == 1


def test_all_claim_reports_match_the_standalone_claims():
    # all_claim_reports scans the planes once and hands the result to both
    # claims; each claim called alone scans for itself
    assert all_claim_reports() == {
        "claim1": verify_claim1(),
        "claim2": verify_claim2(),
        "geometric_nonexistence": verify_geometric_nonexistence(),
        "counting_bounds": verify_counting_bounds(),
    }


def test_geometric_nonexistence():
    rep = verify_geometric_nonexistence()
    assert rep.passed
    assert rep.facts["lines_in_pg2"] == 21
    assert rep.facts["points_per_line"] == [5]
    assert rep.facts["line_pairs_checked"] == 210
    assert rep.facts["pairwise_intersection_sizes"] == [1]
    assert rep.facts["pg4_pairs_sampled"] == 500
    assert rep.facts["pg4_all_intersect"] and rep.facts["pg4_rank_argument"]


def pg4_pairs_one_by_one(rng):
    """The reference sampler: one Mat4 line and solid per candidate.

    Returns the accepted (p, q, rows) and the number of candidates drawn.
    """
    pts5 = enumerate_points(5)
    pairs, drawn = [], 0
    while len(pairs) < 500:
        drawn += 1
        p, q = rng.sample(pts5, 2)
        if Mat4([p.coords, q.coords]).rank() != 2:
            continue
        rows = [[rng.randrange(4) for _ in range(5)] for _ in range(4)]
        if Mat4(rows).row_basis().rows != 4:
            continue
        pairs.append((p.coords, q.coords, rows))
    return pairs, drawn


def packed(*rows):
    return pack(np.array(rows, dtype=np.uint8))


def test_pg4_pairs_match_the_mat4_sampler():
    rng, reference_rng = random.Random(_PG4_SEED), random.Random(_PG4_SEED)
    pairs = _pg4_pairs(rng)
    reference, drawn = pg4_pairs_one_by_one(reference_rng)
    assert drawn == 538
    assert rng.getstate() == reference_rng.getstate()  # the same 538 draws
    assert pairs == [(*packed(p, q), packed(*rows)) for p, q, rows in reference]
    for (p, q, rows), (p_coords, q_coords, solid) in zip(pairs, reference):
        meets, rank = _line_meets(p, q, Eliminator(rows))
        line = Mat4([p_coords, q_coords])
        assert meets == (intersect_subspaces(line, Mat4(solid).row_basis()).rows >= 1)
        assert rank == Mat4([p_coords, q_coords, *solid]).rank()


@st.composite
def line_and_subspace(draw):
    """Two vectors for a line and i rows, possibly dependent, for a
    subspace of GF(4)^m, where the two need not meet: two lines in
    GF(4)^4 or a line and a plane in GF(4)^5."""
    m, i = draw(st.sampled_from([(4, 2), (5, 3)]))
    vector = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    return draw(st.lists(vector, min_size=2, max_size=2)), draw(st.lists(vector, min_size=i, max_size=i))


def test_line_meets_matches_intersect_subspaces():
    # a line and a solid of PG(4,F4) always meet, so the sampled pairs
    # cannot tell a working meet test from one that always says "meet"
    outcomes = set()

    @given(line_and_subspace())
    def check(case):
        line, sub = case
        assume(Mat4(line).rank() == 2)
        meets, rank = _line_meets(*packed(*line), Eliminator(packed(*sub)))
        assert meets == (intersect_subspaces(Mat4(line), Mat4(sub)).rows >= 1)
        assert rank == Mat4(line + sub).rank()
        outcomes.add(meets)

    check()
    assert outcomes == {True, False}


def test_counting_bounds():
    rep = verify_counting_bounds()
    assert rep.passed
    assert rep.facts["points_pg4"] == 341
    assert rep.facts["common_point_bound"] == 17
    assert rep.facts["union_bound_l"] == 21
    assert rep.facts["max_degree_lambda"] == 5
    assert rep.facts["open_range_line_bound"] == 9
