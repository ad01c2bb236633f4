import dataclasses
import functools
import hashlib
import json
import operator
import random
import re
from collections import Counter
from itertools import combinations, product
from math import comb
from unittest import mock

import pytest

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from lrc4 import gf4
from lrc4.code import LinearCode, hexacode, span_chunks
from lrc4.constructions import build
from lrc4 import constructions, lrc
from lrc4._gf4vec import Eliminator, echelon, kernel, pack_rows, unpack
from lrc4.errors import (
    EmptyCodeError,
    Lrc4Error,
    RankError,
    ResourceError,
    StructureError,
    UndefinedDistanceError,
)
from lrc4.lrc import (
    LocalityProfile,
    LocalitySearch,
    blockwise_min_distance,
    check_structure,
    extract_profile,
    group_count_range,
    is_r_optimal,
    singleton_like_bound,
    structured_parity_check,
    verify_locality,
)
from lrc4.mat4 import Mat4, vstack
from lrc4.repair import local_repair
from test_classify import constructed_instances


def repetition(n):
    return LinearCode(gen=Mat4([[1] * n]))


def test_singleton_like_bound():
    assert singleton_like_bound(16, 3, 2, 3) == 12
    assert singleton_like_bound(9, 5, 3, 3) == 3
    # r = k, delta = 2 degenerates to the classical Singleton bound
    for n, k in [(8, 3), (12, 7)]:
        assert singleton_like_bound(n, k, k, 2) == n - k + 1
    with pytest.raises(ValueError):
        singleton_like_bound(5, 6, 3, 3)
    with pytest.raises(ValueError):
        singleton_like_bound(9, 5, 3, 1)


def test_group_count_range():
    assert group_count_range(9, 5, 3, 3) == (2, 2)
    assert group_count_range(10, 3, 2, 4) == (2, 2)
    n, k = 12, 4
    assert group_count_range(n, k, k, 2) == (1, n - k)
    lo, hi = group_count_range(6, 4, 2, 4)  # infeasible combination is flagged, not hidden
    assert lo > hi


def test_verify_locality_hexacode():
    res = verify_locality(hexacode(), 3, 4)
    assert res.ok
    assert set(res.coordinate_supports.values()) == {frozenset(range(1, 7))}


def test_verify_locality_repetition():
    res = verify_locality(repetition(4), 1, 4)
    assert res.ok


def test_verify_locality_c4():
    bc = build("C4", l=2, r=3)
    res = verify_locality(bc.code, 3, 3)
    assert res.ok
    supports = sorted(sorted(s) for s in set(res.coordinate_supports.values()))
    assert supports == [[1, 2, 3, 4, 5], [6, 7, 8, 9, 10]]


def test_verify_locality_failure_lists_coordinates():
    res = verify_locality(hexacode(), 2, 4)
    assert isinstance(res, LocalitySearch) and not res.ok
    assert res.bad_coordinates == tuple(range(1, 7))


def test_verify_locality_guard(monkeypatch):
    # the search stops once its work passes the budget, and the error
    # names the work it did; the budget binds at every n
    bc = build("C17G", l=6)  # n = 36
    assert verify_locality(bc.code, 3, 4).ok
    work = r"stopped after (\d+) column reductions and (\d+) distance checks"
    with pytest.raises(ResourceError, match=work + ", over its work budget of 50") as err:
        verify_locality(bc.code, 3, 4, budget=50)
    columns, checks = map(int, re.search(work, str(err.value)).groups())
    assert columns + lrc._CHECK_WORK * checks > 50
    monkeypatch.setattr(lrc, "LOCALITY_SEARCH_MAX_WORK", 50)
    with pytest.raises(ResourceError, match="budget of 50"):
        verify_locality(bc.code, 3, 4)
    with pytest.raises(ResourceError, match="budget of 50"):
        is_r_optimal(bc.code, 3, 4)
    assert verify_locality(bc.code, 3, 4, budget=10**18).ok
    with pytest.raises(ResourceError, match="budget of 50"):
        verify_locality(build("C17G", l=5).code, 3, 4)  # n = 30
    # a low-dimensional random code makes a long search: [40,6] at r = 5
    # takes about 10^7 units; its distance checks count toward the stop
    rng = np.random.default_rng(2)
    code = LinearCode(gen=Mat4(rng.integers(0, 4, size=(6, 40), dtype=np.uint8)))
    with pytest.raises(ResourceError, match=r"and [1-9]\d* distance checks"):
        verify_locality(code, 5, 3, budget=10**5)


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # the [1100,1099,2] code at (1099, 2): the only qualifying support is
    # all 1100 coordinates, 1100 nested picks.  Its one distance check
    # shows the search reached it, past the recursion limit, and the
    # budget stops it there with ResourceError
    code = LinearCode(pchk=Mat4([[1] * 1100]))
    work = r"stopped after (\d+) column reductions and (\d+) distance checks"
    with pytest.raises(ResourceError, match=work + ", over its work budget of 1000000") as err:
        verify_locality(code, 1099, 2, budget=10**6)
    columns, checks = map(int, re.search(work, str(err.value)).groups())
    assert checks == 1 and columns >= comb(1100, 2)  # the first path reduces 1099 + ... + 1


def test_every_budget_takes_the_integer_rule():
    bc = build("C6", l=2)
    entries = {
        "verify_locality": lambda b: verify_locality(bc.code, 2, 3, b),
        "is_r_optimal": lambda b: is_r_optimal(bc.code, 3, 3, b),
        "is_r_optimal at r = 1": lambda b: is_r_optimal(bc.code, 1, 3, b),
        "layout_of": lambda b: lrc.layout_of(bc.code, 3, 3, budget=b),
        "LocalityProfile.min_distance": lambda b: bc.profile.min_distance(b),
        "scan_budget": lambda b: check_structure(bc.profile, scan_budget=b),
        "search_budget": lambda b: check_structure(bc.profile, search_budget=b),
    }
    for name, call in entries.items():
        for bad in ("x", 2.5, True):
            with pytest.raises(ValueError, match="budgets must be integers"):
                call(bad)
        with pytest.raises(ValueError, match="a budget must be >= 0, got -1"):
            call(-1)
        for good in (None, 10**18, np.int64(10**6)):
            call(good)
    assert verify_locality(bc.code, 3, 3, 10**6.0) == verify_locality(bc.code, 3, 3)


def test_search_refinds_every_parity_layout_past_n_30_from_the_generator():
    # the second route to a parity-check build's layout past n = 30: the
    # budgeted search from its generator alone finds every printed group
    # support, and the profile it restructures gives the catalogue d
    checked = 0
    for cid, kw, d in constructed_instances(64):
        bc = build(cid, **kw)
        if bc.family.generator or bc.code.n <= lrc.LOCALITY_SEARCH_MAX_N:
            continue
        code = LinearCode(gen=bc.code.gen)
        found = verify_locality(code, bc.r, bc.delta)
        assert found.ok, (cid, kw)
        assert all(g.support in found.qualifying for g in bc.profile.groups), (cid, kw)
        assert lrc.restructure(code, found).min_distance() == d, (cid, kw)
        checked += 1
    assert checked == 330


def test_the_default_budget_binds_no_search_up_to_n_30():
    # a second route to "the budget changes no output at n <= 30": every
    # search of test_search_output_is_pinned finishes within 2,738 units,
    # and one needs all of them, far under LOCALITY_SEARCH_MAX_WORK
    searches, over = 0, []
    for cid, kw, _ in constructed_instances(30):
        bc = build(cid, **kw)
        for r in range(max(bc.r - 1, 1), bc.r + 1):
            verify_locality(bc.code, r, bc.delta, budget=2738)
            try:
                verify_locality(bc.code, r, bc.delta, budget=2737)
            except ResourceError:
                over.append((cid, kw, r))
            searches += 1
    assert searches == SEARCHES
    assert over == [("C3", {"l": 6, "variant": "a"}, 3)]
    assert 2738 < lrc.LOCALITY_SEARCH_MAX_WORK


def test_a_layout_from_group_rows_holds_the_callers_code(monkeypatch):
    # the rows are taken as they stand: no search, and no second kernel
    bc = build("C6", l=3)
    code = LinearCode(pchk=bc.code.parity_check())
    ranges = [(g.rows[0], g.rows[-1]) for g in bc.profile.groups]

    def refuse(*args, **kwargs):
        raise AssertionError("a layout from group rows computed something twice")

    monkeypatch.setattr(Mat4, "right_kernel", refuse)
    monkeypatch.setattr(lrc, "verify_locality", refuse)
    profile, found = lrc.layout_of(code, bc.r, bc.delta, ranges)
    assert found is None and profile.code is code
    assert profile == bc.profile
    assert check_structure(profile).all_passed


def test_a_searched_layout_is_restructured_or_none():
    code = hexacode()
    profile, found = lrc.layout_of(code, 3, 4)
    assert found == verify_locality(code, 3, 4) and found.ok
    assert profile == lrc.restructure(code, found) and profile.code.gen is code.gen
    # a failing search gives no layout, and the search names its bad coordinates
    profile, found = lrc.layout_of(code, 2, 4)
    assert profile is None and found.bad_coordinates == tuple(range(1, 7))
    with pytest.raises(StructureError) as err:
        lrc.restructure(code, found)
    assert str(err.value) == str(found.failure()) == (
        "coordinates [1, 2, 3, 4, 5, 6] have no (2,4) repair support")
    # the budget reaches the search
    with pytest.raises(ResourceError, match="budget of 50"):
        lrc.layout_of(build("C17G", l=5).code, 3, 4, budget=50)


def test_a_profile_takes_r_and_delta_by_the_locality_rule():
    # r and delta are checked before the layout, whose checks read them
    bc = build("C6", l=3)
    layout = {"group_rows": bc.profile.group_rows, "matrix": bc.profile.matrix}
    cases = [(0, 9, "need r >= 1 and delta >= 2, got r=0, delta=9"), (3, 2.5, "integer"),
             (True, 3, "integer"), (3, 1, "need r >= 1 and delta >= 2, got r=3, delta=1")]
    for r, delta, why in cases:
        with pytest.raises(ValueError, match=re.escape(why)):
            LocalityProfile(r=r, delta=delta, **layout)
        with pytest.raises(ValueError, match=re.escape(why)):
            dataclasses.replace(bc.profile, r=r, delta=delta)
    same = LocalityProfile(r=np.int64(3), delta=3.0, **layout)
    assert same == bc.profile and (type(same.r), type(same.delta)) == (int, int)


SEARCHES = 367
SEARCH_SHA256 = "6a3b903ecd65a679aa93e082c393f85342f231272106910d36179ebd321e00eb"


def test_search_output_is_pinned():
    # the (r, delta) and, for r >= 2, the (r-1, delta) search of every
    # constructed instance with n <= 30, recorded with the Mat4 distance
    # check and the full later-column reduction, whose outputs these pin
    digest, searches = hashlib.sha256(), 0
    for cid, kw, _ in constructed_instances(30):
        bc = build(cid, **kw)
        for r in range(max(bc.r - 1, 1), bc.r + 1):
            res = verify_locality(bc.code, r, bc.delta)
            record = (sorted((i, tuple(sorted(s))) for i, s in res.coordinate_supports.items()),
                      [tuple(sorted(s)) for s in res.qualifying])
            digest.update(repr((cid, sorted(kw.items()), r, record)).encode())
            searches += 1
    assert searches == SEARCHES
    assert digest.hexdigest() == SEARCH_SHA256


@pytest.mark.parametrize("r,delta", [(2.5, 3), (True, 3), (3, 3.5), (2, False), ("3", 3)])
def test_verify_locality_rejects_non_integer_parameters(r, delta):
    # a float r would never meet the rank-r prune, and a bool would run as 0 or 1
    code = build("C1", l=2).code
    with pytest.raises(ValueError, match="integer"):
        verify_locality(code, r, delta)
    with pytest.raises(ValueError, match="integer"):
        is_r_optimal(code, r, delta)
    # the bounds too: 2.5 made singleton_like_bound(16, 3, 2.5, 3) read 12
    with pytest.raises(ValueError, match="integer"):
        singleton_like_bound(16, 3, r, delta)
    with pytest.raises(ValueError, match="integer"):
        group_count_range(16, 3, r, delta)


def test_is_r_optimal():
    assert is_r_optimal(build("C1", l=2).code, 3, 3)
    assert is_r_optimal(repetition(4), 1, 4)
    assert is_r_optimal(hexacode(), 3, 4)
    # the [5,3,3] single-group code has (3,3)-locality, so calling it a
    # (4,3)-LRC is not r-optimal
    local = LinearCode(pchk=Mat4.from_string("1 0 1 1 1 / 0 1 1 w W"))
    assert verify_locality(local, 3, 3).ok
    assert not is_r_optimal(local, 4, 3)


def test_extract_profile_c6():
    bc = build("C6", l=2)
    profile = extract_profile(bc.code.parity_check(), [(1, 2), (3, 4)], r=3, delta=3)
    assert profile.l == 2
    assert sorted(profile.groups[0].support) == [1, 2, 3, 4, 5]
    assert sorted(profile.groups[1].support) == [6, 7, 8, 9, 10]
    assert profile.global_rows == (5,)
    # integral floats and numpy ints name the same rows; 1.5 is refused,
    # not truncated to row 1
    same = extract_profile(bc.code.parity_check(), [(1, 2.0), (np.int64(3), 4)], r=3, delta=3)
    assert same == profile
    for layout in ([(1.5, 2.9), (3, 4)], [(1, 2), (3, 4.5)], [(True, 2), (3, 4)]):
        with pytest.raises(ValueError, match="group row ranges must be integers"):
            extract_profile(bc.code.parity_check(), layout, r=3, delta=3)


def test_extract_profile_overlap_variant():
    bc = build("C1", l=2, variant="b")
    profile = bc.profile
    assert sorted(profile.groups[0].support) == [1, 2, 3, 4, 5]
    assert sorted(profile.groups[1].support) == [5, 6, 7, 8, 9]
    inter = profile.groups[0].support & profile.groups[1].support
    assert inter == {5}


def test_extract_profile_single_group():
    hx = hexacode()
    profile = extract_profile(hx.pchk, [(1, 3)], r=3, delta=4)
    assert profile.l == 1 and profile.global_rows == ()


def test_extract_profile_uncovered_raises():
    bc = build("C6", l=2)
    with pytest.raises(StructureError):
        extract_profile(bc.code.parity_check(), [(1, 2)], r=3, delta=3)


def test_extract_profile_rejects_redundant_group():
    h = Mat4.from_string(
        "1 0 1 1 1 / 0 1 1 w W / 1 0 1 1 1 / 0 1 1 w W"
    )  # second "group" covers nothing new
    with pytest.raises(StructureError):
        extract_profile(h, [(1, 2), (3, 4)], r=3, delta=3)


def test_check_structure_c4_all_pass():
    bc = build("C4", l=2, r=3)
    report = bc.verify()
    assert report.d == 3 and report.bound_d == 3
    assert report.d_optimal and report.r_optimal
    assert all(c.passed for c in report.checks.values())
    assert "not applicable" not in (report.checks["disjointness"].witness or "")


def test_check_structure_c16_distance_cap_via_k_minus_1():
    bc = build("C16", d=12)
    report = bc.verify()
    assert report.d == 12
    assert (bc.code.k - 1) % bc.r == 0  # r | (k-1) branch: cap is 4*delta = 12
    assert report.checks["distance_cap"].passed
    assert report.all_passed


def test_check_structure_reduces_its_parity_check_once(echelon_calls):
    echelon_calls.clear()
    bc = build("C4", l=2, r=3)  # k = 6, r = 3: each H' drops one group
    profile = bc.profile
    packed = pack_rows(profile.parity_check())
    report = check_structure(profile)
    assert report.all_passed
    # the build and the checks share the profile's code: one reduction in all
    assert bc.code is profile.code
    assert sum(rows == packed for rows in echelon_calls) == 1
    fresh = dataclasses.replace(profile)  # the same layout, nothing cached
    echelon_calls.clear()
    assert check_structure(fresh).all_passed
    assert sum(rows == packed for rows in echelon_calls) == 1


def test_check_structure_corruption_is_detected():
    bc = build("C6", l=2)
    h = bc.code.parity_check().array.copy()
    h[4, 2] = 0  # zero one global entry
    broken = LinearCode(pchk=Mat4(h))
    profile = extract_profile(broken.pchk, [(1, 2), (3, 4)], r=3, delta=3)
    report = check_structure(profile)
    assert not report.all_passed
    assert report.d_optimal is False or any(
        c.passed is False for c in report.checks.values()
    )
    failed = [c for c in report.checks.values() if c.passed is False]
    if failed:
        assert all(c.witness for c in failed)


def test_check_structure_reports_rank_deficient_h_prime():
    # the global row repeats group 2's first row on group 2, so removing
    # group 1 leaves three rows of rank 2
    h = Mat4.from_string(
        "1 0 1 1 1 0 0 0 0 0 / 0 1 1 w W 0 0 0 0 0 / 0 0 0 0 0 1 0 1 1 1"
        " / 0 0 0 0 0 0 1 1 w W / 0 0 1 W w 1 0 1 1 1"
    )
    profile = extract_profile(h, [(1, 2), (3, 4)], r=3, delta=3)
    report = check_structure(profile)
    check = report.checks["h_prime_mds"]
    assert check.passed is False
    assert check.witness == "H' not full rank after removing groups 1"


def test_h_prime_with_no_columns_left_is_a_failed_check():
    # k = 2 and r = 1, so deleting ceil(k/r) - 1 = 1 group removes all of
    # the single group's columns
    profile = extract_profile(Mat4.from_string("1 1 1"), [(1, 1)], r=1, delta=3)
    report = check_structure(profile)
    check = report.checks["h_prime_mds"]
    assert check.passed is False
    assert check.witness == "H' has no columns after removing groups 1"
    assert check == h_prime_by_linear_codes(LinearCode(pchk=profile.matrix), profile, report.d)


def test_h_prime_is_none_when_d_is_unsettled():
    # with d unknown the rank cannot be judged: the verdict waits for d,
    # as distance_cap does, whatever the layout
    profile = build("C6", l=2).profile
    assert lrc._check_h_prime(profile, 4).passed is True
    assert lrc._check_h_prime(profile, None) == lrc.CheckResult(None, "distance unknown")
    assert lrc._check_h_prime(profile, 5).witness == "groups 1: [5,2] has n'-k'+1 = 4, want MDS d'=5"


# ---------------------------------------------------------------------------
# the two MDS checks against an independent route: every H' and every
# C|_S built as a LinearCode and measured by LinearCode.min_distance


def h_prime_code(profile, choice):
    """The code of H', the matrix without the rows and the columns of the
    0-based groups in ``choice``; EmptyCodeError or RankError as LinearCode
    raises them."""
    drop_rows, drop_cols = set(), set()
    for gi in choice:
        g = profile.groups[gi]
        drop_rows.update(i - 1 for i in g.rows)
        drop_cols.update(i - 1 for i in g.support)
    return LinearCode(pchk=profile.matrix.delete_rows(drop_rows).delete_columns(drop_cols))


def h_prime_by_linear_codes(c, profile, d_target, d_code=None):
    """The h_prime_mds verdict with every d' measured, each H' asserted to
    reach C's exact distance ``d_code`` (``d_target`` when None), as C
    shortened on the deleted supports must."""
    if not profile.partitioned:
        return lrc.CheckResult(
            None, "no full-rank local/global row partition exists at these parameters"
        )
    s = -(-c.k // profile.r) - 1
    if s > profile.l:
        return lrc.CheckResult(False, f"ceil(k/r)-1 = {s} exceeds l = {profile.l}")
    for choice in combinations(range(profile.l), s):
        tag = "+".join(str(g + 1) for g in choice) or "none"
        try:
            sub = h_prime_code(profile, choice)
        except EmptyCodeError:
            return lrc.CheckResult(False, f"H' has no columns after removing groups {tag}")
        except RankError:
            return lrc.CheckResult(False, f"H' not full rank after removing groups {tag}")
        if sub.k == 0:
            return lrc.CheckResult(False, f"H' leaves the zero code (groups {tag})")
        dp = sub.min_distance()
        assert dp >= (d_target if d_code is None else d_code), (tag, dp)
        if dp != sub.n - sub.k + 1 or dp != d_target:
            return lrc.CheckResult(False, f"groups {tag}: [{sub.n},{sub.k}] has "
                                          f"n'-k'+1 = {sub.n - sub.k + 1}, want MDS d'={d_target}")
    return lrc.CheckResult(True)


def punctured_by_linear_codes(c, profile):
    """The punctured_mds verdict with every C|_S built by puncturing C and
    measured, each one of the right dimension asserted to fall short of
    delta whenever it misses it, as the Singleton bound d' <= s-k'+1 has
    it: so the check's bounded test sees every failure."""
    delta = profile.delta
    for i, g in enumerate(profile.groups):
        local = c.puncture(set(range(1, c.n + 1)) - g.support)
        si = len(g.support)
        want = f"want [{si},{si - delta + 1},{delta}]"
        if not local.k or local.k != si - delta + 1:
            return lrc.CheckResult(False, f"group {i + 1}: C|_S is [{si},{local.k}], {want}")
        di = local.min_distance()
        if di != delta:
            assert di < delta, (i, di)
            return lrc.CheckResult(False, f"group {i + 1}: C|_S is [{si},{local.k},<{delta}], {want}")
    return lrc.CheckResult(True)


def assert_mds_checks_match(report):
    profile = report.profile
    c = LinearCode(pchk=profile.parity_check())
    if report.d is None:
        assert report.checks["h_prime_mds"].passed is None
    else:
        assert report.checks["h_prime_mds"] == h_prime_by_linear_codes(c, profile, report.d)
    assert report.checks["punctured_mds"] == punctured_by_linear_codes(c, profile)


def random_layout_profile(rng):
    """A full-rank parity check of random local rows on random supports,
    then random global rows, with its profile; None when the draw is not
    a valid profile of a code with k >= r."""
    n = rng.randrange(3, 10)
    r, delta = rng.randrange(1, 4), rng.randrange(2, 5)
    cols = list(range(n))
    rng.shuffle(cols)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(0, min(3, n - 1))))
    parts = [cols[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    if rng.random() < 0.3 and len(parts) > 1:  # let one group reach into the next
        parts[0] = parts[0] + parts[1][:1]
    rows, layout = [], []
    for part in parts:
        first = len(rows) + 1
        for _ in range(rng.choice([delta - 1, delta - 1, 1, 2])):
            row = [0] * n
            for j in part:
                row[j] = rng.choice([0, 1, 1, 2, 3])
            rows.append(row)
        layout.append((first, len(rows)))
    rows += [[rng.randrange(4) for _ in range(n)] for _ in range(rng.randrange(0, 3))]
    h = Mat4(rows)
    if h.rank() != h.rows or n - h.rows < r:
        return None
    try:
        return extract_profile(h, layout, r=r, delta=delta)
    except StructureError:
        return None


def mds_failure_kinds(report):
    """The kinds of failure that a report's two MDS checks witness."""
    kinds = set()
    h = report.checks["h_prime_mds"]
    if h.passed is False:
        m = re.fullmatch(r"groups (\S+): \[\d+,\d+\] has n'-k'\+1 = (\d+), want MDS d'=\d+",
                         h.witness)
        if m:  # the failing H' measured: below n'-k'+1, or MDS with d' > d
            choice = () if m[1] == "none" else tuple(int(g) - 1 for g in m[1].split("+"))
            dp = h_prime_code(report.profile, choice).min_distance()
            kinds.add("H' not MDS" if dp != int(m[2]) else "H' d' != d")
        kinds |= {kind for kind in ("H' not full rank", "H' leaves the zero code",
                                    "H' has no columns") if h.witness.startswith(kind)}
    p = report.checks["punctured_mds"]
    if p.passed is False:
        dim = re.fullmatch(r"group \d+: C\|_S is \[\d+,\d+\], want \[\d+,-?\d+,\d+\]", p.witness)
        assert dim or re.fullmatch(r"group \d+: C\|_S is \[\d+,\d+,<\d+\], want \[\d+,\d+,\d+\]",
                                   p.witness), p.witness
        kinds.add("C|_S dim" if dim else "d(C|_S) < delta")
    return kinds


def test_mds_checks_match_linear_codes_on_random_profiles():
    rng = random.Random(2021)
    seen, compared = set(), 0
    while compared < 300:
        profile = random_layout_profile(rng)
        if profile is None:
            continue
        report = check_structure(profile)
        assert_mds_checks_match(report)
        seen |= mds_failure_kinds(report)
        compared += 1
    assert seen == {"H' not full rank", "H' leaves the zero code", "H' not MDS", "H' d' != d",
                    "H' has no columns", "C|_S dim", "d(C|_S) < delta"}


def test_distance_at_least_matches_min_distance():
    # random [I | A] codes with k' from 1 to 8; A's columns spread over a
    # wider word with zero columns between, as the masked rows of C|_S come
    rng = random.Random(7)
    passed = failed = 0
    for _ in range(400):
        k, m = rng.randrange(1, 9), rng.randrange(0, 7)
        a = np.array([[rng.choice([0, 0, 1, 2, 3]) for _ in range(m)] for _ in range(k)],
                     dtype=np.uint8).reshape(k, m)
        d = LinearCode(gen=Mat4(np.hstack([np.eye(k, dtype=np.uint8), a]))).min_distance()
        wide = np.zeros((k, m + 4), dtype=np.uint8)
        wide[:, sorted(rng.sample(range(m + 4), m))] = a
        rows = pack_rows(Mat4(wide))
        for delta in range(2, 6):
            assert lrc._distance_at_least(rows, delta) == (d >= delta), (k, m, delta)
            passed += d >= delta
            failed += d < delta
    assert passed > 100 and failed > 100


def test_distance_at_least_visits_each_light_message_once():
    # on a code that passes, every y of weight below delta, led by 1, is
    # one node: sum_{w < delta} C(k', w) 3^(w-1), and no heavier y
    class Lookups(list):
        count = 0

        def __getitem__(self, j):
            Lookups.count += 1  # one per extension, which pushes 3 children
            return super().__getitem__(j)

    def systematic_a(gen):
        sub, pivots = gen.rref()
        return pack_rows(sub.take_columns([c for c in range(gen.cols) if c not in pivots]))

    # the [30,29,2] parity code's A is a column of ones
    cases = [(pack_rows(Mat4(np.ones((29, 1), dtype=np.uint8))), 2)]
    cases += [(systematic_a(hexacode().gen), delta) for delta in (2, 3, 4)]
    for rows, delta in cases:
        k = len(rows)
        Lookups.count = 0
        assert lrc._distance_at_least(Lookups(rows), delta)
        assert k + 3 * Lookups.count == sum(comb(k, w) * 3 ** (w - 1) for w in range(1, delta))


def test_mds_checks_match_linear_codes_on_catalogue_builds():
    for cid, kw, _ in constructed_instances(64):
        assert_mds_checks_match(build(cid, **kw).verify())


def test_mds_checks_measure_no_large_sub_code(monkeypatch):
    # the [6,5,2] parity code as one group: k <= r, so H' is the whole
    # matrix, and C|_S is the whole code, both of dimension 5
    profile = extract_profile(Mat4.from_string("1 1 1 1 1 1"), [(1, 1)], r=5, delta=2)
    c = LinearCode(pchk=profile.matrix)
    small = build("C6", l=2)
    measured = []
    real = LinearCode.min_distance

    def spy(self, *args, **kwargs):
        measured.append((self.n, self.k))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(LinearCode, "min_distance", spy)
    assert lrc._check_h_prime(small.profile, 4).passed is True
    assert lrc._check_punctured_mds(small.profile).passed is True
    assert measured == []
    # H' is decided by its rank, and C|_S by the search's bounded test
    checks = [lrc._check_h_prime(profile, 2), lrc._check_h_prime(profile, 3),
              lrc._check_punctured_mds(profile)]
    assert measured == []
    monkeypatch.undo()
    assert checks == [h_prime_by_linear_codes(c, profile, 2),
                      h_prime_by_linear_codes(c, profile, 3, d_code=2),
                      punctured_by_linear_codes(c, profile)]
    assert checks[0].passed is True and checks[2].passed is True
    assert checks[1].witness == "groups none: [6,5] has n'-k'+1 = 2, want MDS d'=3"


def test_h_prime_takes_one_rank_per_choice_and_measures_nothing(monkeypatch):
    # the code of H' is C shortened on the deleted supports, so the check
    # lists no kernel basis, no word and no sub-code distance
    def refuse(*args, **kwargs):
        raise AssertionError("H' was measured")

    profiles = [build(cid, **kw).profile
                for cid, kw in [("C6", {"l": 3}), ("C17G", {"l": 5}), ("C13", {"k": 42, "delta": 3})]]
    monkeypatch.setattr(lrc, "kernel", refuse)
    monkeypatch.setattr(LinearCode, "min_distance", refuse)
    ranks = []
    monkeypatch.setattr(lrc, "echelon", lambda rows: ranks.append(len(rows)) or echelon(rows))
    for profile in profiles:
        s = -(-profile.code.k // profile.r) - 1
        ranks.clear()
        assert lrc._check_h_prime(profile, profile.matrix.cols).passed is False
        assert len(ranks) == 1  # the first choice already fails at this d
        ranks.clear()
        d = profile.matrix.rows - sum(len(g.rows) for g in profile.groups[:s]) + 1
        assert lrc._check_h_prime(profile, d).passed is True
        assert len(ranks) == comb(profile.l, s)


def test_punctured_mds_takes_one_echelon_per_group_and_measures_nothing(monkeypatch):
    # C|_S's rank and the search's bounded test on its systematic
    # generator decide it: no word list, no Mat4 and no sub-code distance
    def refuse(*args, **kwargs):
        raise AssertionError("C|_S was measured")

    parity = extract_profile(Mat4.from_string("1 1 1 1 1 1"), [(1, 1)], r=5, delta=2)
    short = extract_profile(Mat4.from_string("1 1 0 0\n0 0 1 1"), [(1, 2)], r=2, delta=3)
    profiles = [parity, short] + [build(cid, **kw).profile for cid, kw in
                                  [("C6", {"l": 3}), ("C13", {"k": 42, "delta": 3})]]
    codes = [LinearCode(pchk=p.matrix) for p in profiles]
    for p in profiles:
        p.code.generator()
    monkeypatch.setattr(lrc, "span", refuse)
    monkeypatch.setattr(lrc, "Mat4", refuse)
    monkeypatch.setattr(LinearCode, "min_distance", refuse)
    ranks = []
    monkeypatch.setattr(lrc, "echelon", lambda rows: ranks.append(len(rows)) or echelon(rows))
    checks = []
    for p in profiles:
        ranks.clear()
        checks.append(lrc._check_punctured_mds(p))
        assert len(ranks) == (p.l if checks[-1].passed else 1)
    monkeypatch.undo()
    assert checks == [punctured_by_linear_codes(c, p) for c, p in zip(codes, profiles)]
    assert [c.passed for c in checks] == [True, False, True, True]
    assert checks[1].witness == "group 1: C|_S is [4,2,<3], want [4,2,3]"


def test_punctured_mds_leaves_a_group_over_the_scan_budget_undecided(monkeypatch):
    # the bounded test may visit sum_{w < delta} C(k', w) 3^(w-1)
    # messages: 5 on the [6,5,2] parity code as one group (k' = 5), and
    # 2 + 3 on a [4,2,2] group at delta = 3 (k' = 2)
    parity = extract_profile(Mat4.from_string("1 1 1 1 1 1"), [(1, 1)], r=5, delta=2)
    short = extract_profile(Mat4.from_string("1 1 0 0\n0 0 1 1"), [(1, 2)], r=2, delta=3)
    # group 1 is [3,2,2]; group 2's C|_S is {(0, a, a)}, of rank 1
    wrong = extract_profile(Mat4.from_string("1 1 1 0 0 0\n0 0 0 1 1 1\n0 0 0 1 0 0"),
                            [(1, 1), (2, 2)], r=2, delta=2)
    tested = []
    real = lrc._distance_at_least
    monkeypatch.setattr(lrc, "_distance_at_least",
                        lambda rows, delta: tested.append(len(rows)) or real(rows, delta))
    def over(profile, work, budget):
        return lrc.CheckResult(None, f"group 1: d(C|_S) >= {profile.delta} needs up to "
                                     f"{work} messages, over the budget {budget}")

    for profile, work, verdict in ((parity, 5, True), (short, 5, False)):
        tested.clear()
        assert lrc._check_punctured_mds(profile, work - 1) == over(profile, work, work - 1)
        assert tested == []
        assert lrc._check_punctured_mds(profile, work).passed is verdict
        assert tested == [len(profile.groups[0].support) - profile.delta + 1]
    # an undecided group does not hide another group's failure
    tested.clear()
    assert lrc._check_punctured_mds(wrong, 1) == lrc._check_punctured_mds(wrong) == lrc.CheckResult(
        False, "group 2: C|_S is [3,1], want [3,2,2]")
    assert tested == [2]
    # check_structure passes its scan budget on, the default 10^8 unless given
    assert check_structure(parity, scan_budget=4).checks["punctured_mds"] == over(parity, 5, 4)
    assert check_structure(parity).checks["punctured_mds"].passed is True


def test_delta2_agrees_with_dual_word_locality():
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        n = rng.randrange(4, 9)
        rows = [[rng.randrange(4) for _ in range(n)] for _ in range(rng.randrange(1, 4))]
        basis = Mat4(rows).row_basis()
        if basis.rows == 0 or basis.rows >= n:
            continue
        code = LinearCode(pchk=basis)
        if code.k == 0:
            continue
        r = rng.randrange(1, min(code.k, n - 1) + 1)
        res = verify_locality(code, r, 2)
        # direct oracle: coordinate i is r-local iff some dual word of
        # weight <= r + 1 covers it
        dual_words = []
        for scalars in product(gf4.ELEMENTS, repeat=basis.rows):
            if not any(scalars):
                continue
            vec = np.zeros(n, dtype=np.uint8)
            for lam, row in zip(scalars, basis.array):
                vec ^= gf4.MUL_NP[lam, row]
            dual_words.append(vec)
        per_coord = []
        for i in range(n):
            per_coord.append(
                any(w[i] and int(np.count_nonzero(w)) <= r + 1 for w in dual_words)
            )
        assert res.ok == all(per_coord)
        if not res.ok:
            bad = {i + 1 for i, okc in enumerate(per_coord) if not okc}
            assert set(res.bad_coordinates) == bad
        checked += 1


def test_qualifying_supports_hexacode():
    sup = verify_locality(hexacode(), 3, 4).qualifying
    assert list(sup) == [frozenset(range(1, 7))]


def test_structured_parity_check_rebuilds_layout():
    base = build("C16", d=12).code
    h, group_rows, partitioned = structured_parity_check(base, verify_locality(base, 2, 3).qualifying)
    assert partitioned
    assert h.rank() == h.rows == base.n - base.k
    assert all(len(rows) == 2 for rows in group_rows)  # delta - 1 rows per group
    layout = [(rows[0], rows[-1]) for rows in group_rows]
    profile = extract_profile(h, layout, r=2, delta=3)
    assert profile.l >= 4
    assert profile.group_rows == group_rows


def _reread(profile):
    """A restructured profile read back through extract_profile from its
    matrix and its groups' row ranges: the second route to its layout."""
    layout = [(g.rows[0], g.rows[-1]) for g in profile.groups]
    assert all(g.rows == tuple(range(a, b + 1)) for g, (a, b) in zip(profile.groups, layout))
    again = extract_profile(profile.matrix, layout, r=profile.r, delta=profile.delta)
    assert (again.groups, again.global_rows) == (profile.groups, profile.global_rows)


def test_restructured_profiles_reread_through_extract_profile():
    # every generator build with n <= 64 (the C19 d = 9 augmented stack
    # among them), and the sweep codes' generators restructured from a
    # search alone, with no layout given
    generator_builds = 0
    for cid, kw, _ in constructed_instances(64):
        bc = build(cid, **kw)
        if bc.family.generator:
            _reread(bc.profile)
            generator_builds += 1
    assert generator_builds == len(RESTRUCTURED_DIGESTS)
    c19 = build("C19", d=9).profile  # among them, an augmented stack
    assert not c19.partitioned and c19.matrix.rows > c19.code.n - c19.code.k
    for cid, kw in constructions.acceptance_sweep():
        bc = build(cid, **kw)
        code = LinearCode(gen=bc.code.generator())
        _reread(lrc.restructure(code, verify_locality(code, bc.r, bc.delta)))


# restructured matrix, its shape, the group row ranges and ``partitioned``
# of every generator-family build, recorded before the dual bases, the
# cover and the stack moved to packed rows
RESTRUCTURED_DIGESTS = {
    "C16 d=5": "6623cb6494bca283", "C16 d=6": "a68ab2c3787e3113",
    "C16 d=7": "c673a7dd5d5c615e", "C16 d=8": "48a8d4baee328289",
    "C16 d=9": "d31727b9d3671186", "C16 d=10": "b1410eb35ce37499",
    "C16 d=11": "7c7d76fffae6e1de", "C16 d=12": "2aa2596744c374bb",
    "C17 d=7": "7af2190086a8449c", "C17 d=8": "c1eb6757c7e2462d",
    "C17 d=9": "825bc4bb94320054", "C17 d=10": "c4d7624393bccaad",
    "C17 d=11": "3e6ece48501f9038", "C17 d=12": "366834a4b72dfd35",
    "C17 d=13": "2d172e9ab65a0d85", "C17 d=14": "b89d69faa934b434",
    "C17 d=15": "e5bb9218e54c267f", "C17 d=16": "c06c4a473ce78ed4",
    "C18 d=5": "a7e27a5d4780c97c", "C18 d=6": "8b5bab4a005d28cc",
    "C18 d=7": "374f970319f04be7", "C18 d=8": "d723c994072b2ef5",
    "C18 d=9": "eaec65cb68e8b83f", "C18 d=10": "4fd5ffa7a8b4e91d",
    "C18 d=11": "f25f7fb25594bec9", "C18 d=12": "ee7a6645a077add1",
    "C19 d=6": "5960287fe3bd23a8", "C19 d=7": "e1ae5e02ed2591b1",
    "C19 d=8": "73faf4978d38fd39", "C19 d=9": "c9a8efb1eb62b6f9",
    "C19 d=10": "20a3d5280fea9d6b", "C19 d=11": "b34d97be9dbad9a2",
    "C19 d=12": "a8ddba6696b7aa4a",
}


def test_restructured_generator_builds_match_recorded_digests():
    got = {}
    for cid, lo, hi in (("C16", 5, 12), ("C17", 7, 16), ("C18", 5, 12), ("C19", 6, 12)):
        for d in range(lo, hi + 1):
            p = build(cid, d=d).profile
            head = json.dumps({"shape": list(p.matrix.shape),
                               "layout": [[g.rows[0], g.rows[-1]] for g in p.groups],
                               "partitioned": p.partitioned})
            got[f"{cid} d={d}"] = hashlib.sha256(head.encode() + p.matrix.array.tobytes()).hexdigest()[:16]
    assert got == RESTRUCTURED_DIGESTS


@given(st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=n),
    st.sets(st.integers(1, n), max_size=n))))
def test_packed_local_dual_basis_matches_span_oracle(case):
    # structured_parity_check's local block on a support S: the right
    # kernel of the generator masked to S, in reduced echelon form, is
    # exactly the dual words that vanish off S
    rows, support = case
    h = Mat4(rows).row_basis()
    n = h.cols
    off = [c for c in range(n) if c + 1 not in support]
    want = {tuple(w) for w in h.span_words() if not w[off].any()}
    mask = sum(1 << c - 1 for c in support)
    block = kernel([(a & mask, b & mask) for a, b in pack_rows(h.right_kernel())], mask)
    echelon(block)
    basis = Mat4(unpack(block, n))
    assert {tuple(w) for w in basis.span_words()} == want
    assert basis.row_basis() == basis  # independent rows, in reduced echelon form


def brute_force_locality(code, r, delta):
    """Definition-direct oracle: try every support of size <= r+delta-1."""
    from itertools import combinations

    n = code.n
    bad = []
    for i in range(1, n + 1):
        found = False
        for size in range(1, r + delta):
            for rest in combinations([c for c in range(1, n + 1) if c != i], size - 1):
                support = set(rest) | {i}
                sub = code.puncture(set(range(1, n + 1)) - support)
                if sub.k >= 1 and sub.min_distance() >= delta:
                    found = True
                    break
            if found:
                break
        if not found:
            bad.append(i)
    return bad


def test_locality_search_matches_brute_force_oracle():
    rng = random.Random(13)
    checked = 0
    while checked < 10:
        n = rng.randrange(5, 9)
        kk = rng.randrange(1, min(5, n))
        rows = [[rng.randrange(4) for _ in range(n)] for _ in range(kk)]
        basis = Mat4(rows).row_basis()
        if basis.rows == 0 or basis.rows >= n:
            continue
        code = LinearCode(gen=basis)
        r = rng.randrange(1, min(code.k, 3) + 1)
        delta = 3
        expected_bad = brute_force_locality(code, r, delta)
        res = verify_locality(code, r, delta)
        if expected_bad:
            assert not res.ok and list(res.bad_coordinates) == expected_bad
        else:
            assert res.ok
            assert all(i in s for i, s in res.coordinate_supports.items())
        checked += 1


def systematic_tags(gen, support):
    """rank(C|_R) and the columns of A in C|_R's systematic generator
    [I | A], packed over the pivot index, read off the rref of G|_R."""
    sub, pivots = gen.take_columns([c - 1 for c in support]).rref()
    tags = []
    for c in range(len(support)):
        if c not in pivots:
            col = [int(x) for x in sub.array[:len(pivots), c]]
            tags.append((sum(x >> 1 << j for j, x in enumerate(col)),
                         sum((x & 1) << j for j, x in enumerate(col))))
    return tags, len(pivots)


def test_packed_punctured_distance_matches_the_punctured_code():
    rng = random.Random(20)
    checked = zeros = zero_columns = 0
    while checked < 2000:
        n, k, m = rng.randrange(4, 10), rng.randrange(1, 5), rng.randrange(1, 6)
        base = [[rng.randrange(4) for _ in range(m)] for _ in range(k)]
        # every column a scalar multiple of one of m base columns, or zero
        picks = [(rng.randrange(m), rng.randrange(4)) for _ in range(n)]
        gen = Mat4([[gf4.mul(a, row[j]) for j, a in picks] for row in base]).row_basis()
        if gen.rows == 0:
            continue
        code = LinearCode(gen=gen)
        support = sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
        delta = rng.randrange(2, 6)
        sub = code.puncture(set(range(1, n + 1)) - set(support))
        expect = sub.k >= 1 and sub.min_distance() >= delta
        tags, rank = systematic_tags(gen, support)
        assert rank == sub.k
        assert lrc._punctured_distance_at_least(tags, rank, delta) == expect
        zeros += rank == 0
        zero_columns += any(picks[c - 1][1] == 0 for c in support)
        checked += 1
    assert zeros > 0 and zero_columns > 0
    # an all-zero support has rank 0 and no distance
    gen = Mat4([[1, 0, 0, 1], [0, 0, 0, 1]])
    assert gen.take_columns([1, 2]).row_basis().rows == 0
    assert systematic_tags(gen, [2, 3]) == ([(0, 0), (0, 0)], 0)
    assert not lrc._punctured_distance_at_least([(0, 0), (0, 0)], 0, 2)


@st.composite
def small_locality_cases(draw):
    # columns are scalar multiples of m random columns, so repeated
    # columns give small repair supports and r-optimality goes both ways
    n = draw(st.integers(5, 8))
    m = draw(st.integers(1, n))
    base = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=m, max_size=m), min_size=1, max_size=4
    ))
    picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 3)),
                          min_size=n, max_size=n))
    rows = [[gf4.mul(a, row[j]) for j, a in picks] for row in base]
    basis = Mat4(rows).row_basis()
    assume(basis.rows > 0)
    code = LinearCode(gen=basis)
    return code, draw(st.integers(1, code.k)), draw(st.integers(2, 5))


@given(small_locality_cases())
def test_locality_search_matches_oracles_on_random_codes(case):
    code, r, delta = case
    res = verify_locality(code, r, delta)
    expected_bad = brute_force_locality(code, r, delta)
    if expected_bad:
        assert not res.ok and list(res.bad_coordinates) == expected_bad
        return
    assert res.ok
    assert all(i in s for i, s in res.coordinate_supports.items())
    # r-optimality read from the (r, delta) search against the direct
    # (r-1, delta) search
    assert res.r_optimal == is_r_optimal(code, r, delta)


def ordered_supports_oracle(code, r, delta):
    """Definition-direct: every support of size delta..r+delta-1 with
    d(C|_R) >= delta in (size, lex) order, and each coordinate's first."""
    everything = set(range(1, code.n + 1))
    found = []
    for size in range(delta, r + delta):
        for support in combinations(range(1, code.n + 1), size):
            sub = code.puncture(everything - set(support))
            if sub.k >= 1 and sub.min_distance() >= delta:
                found.append(frozenset(support))
    first = {}
    for s in found:
        for i in sorted(s):
            first.setdefault(i, s)
    return first, found


@given(small_locality_cases())
def test_locality_search_order_matches_definition(case):
    # restructure(), the built layouts and the golden digests read the
    # supports in this order, so the search must reproduce it exactly
    code, r, delta = case
    first, found = ordered_supports_oracle(code, r, delta)
    res = verify_locality(code, r, delta)
    if res.ok:
        assert list(res.qualifying) == found
        assert res.coordinate_supports == first
    else:
        assert set(res.bad_coordinates) == set(range(1, code.n + 1)) - set(first)


TABLE_ON = {2: 0, 3: 0}  # _GAIN_TABLE_MIN_N forcing the gain table at every n
TABLE_OFF = {}


@st.composite
def gain_table_cases(draw):
    # random columns, some of them then replaced by zero columns or by
    # scaled copies of others, so point classes and zero residuals vary
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, min(n, 6)))
    r = draw(st.sampled_from([2, 3]))
    # with k <= r the rank prune never bites: keep such searches small
    assume(k > r or n <= 12)
    cols = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                         min_size=n, max_size=n))
    for j, src, a in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.integers(0, 3)), max_size=5)):
        cols[j] = [gf4.mul(a, x) for x in cols[src]]
    gen = Mat4([list(row) for row in zip(*cols)]).row_basis()
    assume(gen.rows > 0)
    return gen, r, draw(st.integers(2, 5))


@settings(max_examples=60)
@given(gain_table_cases())
def test_gain_table_leaves_the_search_unchanged(case):
    gen, r, delta = case
    with mock.patch.object(lrc, "_GAIN_TABLE_MIN_N", TABLE_OFF):
        want = lrc._locality_search(gen, r, delta)
    with mock.patch.object(lrc, "_GAIN_TABLE_MIN_N", TABLE_ON):
        assert lrc._locality_search(gen, r, delta) == want


@pytest.mark.parametrize("table", [TABLE_ON, TABLE_OFF], ids=["on", "off"])
def test_search_output_is_pinned_with_the_gain_table_forced(monkeypatch, table):
    monkeypatch.setattr(lrc, "_GAIN_TABLE_MIN_N", table)
    test_search_output_is_pinned()


def test_oracle_cases_with_the_gain_table_forced_on(monkeypatch):
    monkeypatch.setattr(lrc, "_GAIN_TABLE_MIN_N", TABLE_ON)
    test_locality_search_matches_brute_force_oracle()
    test_locality_search_matches_oracles_on_random_codes()
    test_locality_search_order_matches_definition()


def assert_gains_match_the_search(gen, r, delta):
    """Check every gain of the table against the residuals that the
    search without the table passes through ``Eliminator.reduce``: zero
    residuals plus the largest point class, minus one.  Returns the
    number of branches checked."""
    n, k = gen.cols, gen.rows
    mask = (1 << k) - 1
    table = lrc._gain_table(lrc.pack_columns(gen), k, r)
    pivots, checked = [], 0
    real = Eliminator.reduce

    def spy(self, vectors):
        nonlocal checked
        out = real(self, vectors)
        rank = len(self._basis) - 1  # the newest pivot's rank
        if rank <= r - 2:  # below rank r - 1 a node keeps every later column
            del pivots[rank:]
            pivots.append(n - 1 - len(vectors))
        if rank == r - 2:
            keys = [lrc.point(h & mask, l & mask) if (h | l) & mask else 0 for h, l in out]
            classes = Counter(key for key in keys if key)
            gain = keys.count(0) + max(classes.values(), default=1) - 1
            assert (table[pivots[0]][pivots[1]] if r == 3 else table[pivots[0]]) == gain, pivots
            checked += 1
        return out

    with mock.patch.object(Eliminator, "reduce", spy), \
            mock.patch.object(lrc, "_GAIN_TABLE_MIN_N", TABLE_OFF):
        lrc._locality_search(gen, r, delta)
    return checked


def search_and_count_reductions(gen, r, delta, table):
    calls = 0
    real = Eliminator.reduce

    def counted(self, vectors):
        nonlocal calls
        calls += 1
        return real(self, vectors)

    with mock.patch.object(Eliminator, "reduce", counted), \
            mock.patch.object(lrc, "_GAIN_TABLE_MIN_N", table):
        return lrc._locality_search(gen, r, delta), calls


def test_gain_table_matches_the_searchs_own_residuals():
    checked = ruled_out = 0
    for cid, kw in (("C17G", {"l": 4}), ("C18", {"d": 12}), ("C16", {"d": 9}),
                    ("C4", {"l": 3, "r": 3}), ("C1", {"l": 3})):
        bc = build(cid, **kw)
        for r in (2, 3):
            checked += assert_gains_match_the_search(bc.code.gen, r, bc.delta)
            # with the table the search reduces less and finds the same
            got, fewer = search_and_count_reductions(bc.code.gen, r, bc.delta, TABLE_ON)
            want, calls = search_and_count_reductions(bc.code.gen, r, bc.delta, TABLE_OFF)
            assert got == want and fewer <= calls
            ruled_out += fewer < calls
    assert checked > 700 and ruled_out == 10


@given(gain_table_cases())
def test_gain_table_matches_the_searchs_own_residuals_on_random_codes(case):
    assert_gains_match_the_search(*case)


def test_search_past_the_guard_takes_the_plain_path(monkeypatch):
    # past n = 30 a key no longer fits the table's planes: the table must
    # stay off whatever the crossover
    def refuse(*args):
        raise AssertionError("gain table built past n = 30")

    monkeypatch.setattr(lrc, "_GAIN_TABLE_MIN_N", TABLE_ON)
    monkeypatch.setattr(lrc, "_gain_table", refuse)
    bc = build("C17G", l=6)  # n = 36
    assert bc.code.n > lrc.LOCALITY_SEARCH_MAX_N
    assert verify_locality(bc.code, 3, 4).ok
    with pytest.raises(AssertionError, match="past n = 30"):
        verify_locality(build("C17G", l=5).code, 2, 2)  # n = 30 takes the table


def test_check_structure_rejects_a_search_at_other_parameters():
    bc = build("C1", l=2)
    with pytest.raises(StructureError):
        check_structure(bc.profile, search=verify_locality(bc.code, 4, 3))
    with pytest.raises(StructureError):
        check_structure(bc.profile, search=verify_locality(bc.code, 1, 3))
    with pytest.raises(StructureError):  # a layout profile is no search result
        check_structure(bc.profile, search=bc.profile)


def test_check_structure_rejects_a_rank_deficient_partitioned_matrix():
    # a partitioned profile's matrix is the code's parity check, so a
    # repeated row is bad input, not an inconsistency between two codes
    bc = build("C6", l=2)
    h = bc.profile.matrix
    profile = LocalityProfile(r=bc.r, delta=bc.delta, group_rows=bc.profile.group_rows,
                              matrix=vstack([h, h.take_rows([h.rows - 1])]))
    assert profile.global_rows == bc.profile.global_rows + (h.rows + 1,)
    with pytest.raises(RankError) as err:
        check_structure(profile)
    assert isinstance(err.value, Lrc4Error)


@pytest.mark.parametrize(
    "cid,d", [("C19", 9), ("C19", 11), ("C17", 9), ("C17", 11), ("C17", 14), ("C17", 15)]
)
def test_unpartitionable_lrc_gets_augmented_profile(cid, d):
    # these chain members verify as optimal LRCs, yet every qualifying
    # cover needs more group rows than n - k, so no full-rank parity
    # check splits into local/global groups
    bc = build(cid, d=d)
    assert not bc.profile.partitioned
    assert bc.profile.matrix.rows > bc.code.n - bc.code.k
    assert bc.profile.matrix.rank() == bc.code.n - bc.code.k
    assert bc.code.min_distance() == d
    assert verify_locality(bc.code, bc.r, bc.delta).ok
    report = bc.verify()
    assert report.d_optimal and report.r_optimal
    assert report.checks["h_prime_mds"].passed is None
    assert report.checks["rows_per_group"].passed is True
    assert report.checks["punctured_mds"].passed is True
    assert report.all_passed  # indeterminate checks carry a note, not a failure
    assert any("partition" in note for note in report.notes)


def test_partitioned_profiles_everywhere_else():
    for cid, d in [("C17", 10), ("C17", 12), ("C17", 13), ("C17", 16),
                   ("C19", 8), ("C19", 10), ("C19", 12)]:
        assert build(cid, d=d).profile.partitioned, (cid, d)


def _unbounded_select_cover(full, candidates):
    """The cover search with no rank bound: the first (in candidate order)
    subfamily of masks that covers ``full`` with mutually independent row
    blocks, by plain depth-first backtracking."""
    elim = Eliminator()
    chosen = []

    def rec(start, covered):
        if covered == full:
            return True
        if functools.reduce(operator.or_, (s for s, _ in candidates[start:]), covered) != full:
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


def test_bounded_cover_search_matches_the_unbounded_one_on_every_generator_build():
    # the bound is the dual's dimension, and cutting by it changes no cover:
    # neither the partitioned builds' first cover nor the six unpartitionable
    # builds' failure, which the bound reaches with far fewer pushes
    calls = []

    def recorded(full, candidates, rank):
        calls.append((full, candidates, rank))
        return select(full, candidates, rank)

    select = lrc._select_cover
    unpartitioned = 0
    for cid, lo, hi in (("C16", 5, 12), ("C17", 7, 16), ("C18", 5, 12), ("C19", 6, 12)):
        for d in range(lo, hi + 1):
            calls.clear()
            with mock.patch.object(lrc, "_select_cover", recorded):
                bc = build(cid, d=d)
            full, candidates, rank = calls[0]
            assert rank == bc.code.n - bc.code.k
            got = select(full, candidates, rank)
            assert got == _unbounded_select_cover(full, candidates), (cid, d)
            unpartitioned += got is None
    assert unpartitioned == 6


@given(st.data())
def test_bounded_cover_search_matches_the_unbounded_one_on_random_families(data):
    n = data.draw(st.integers(1, 10), label="n")
    full = (1 << n) - 1
    mask = st.integers(1, full)
    candidates = []
    for s in data.draw(st.lists(mask, min_size=1, max_size=8), label="supports"):
        rows = data.draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=3))
        candidates.append((s, [(h & s, l & s) for h, l in rows]))
    # every block lies in the span of all of them, so its rank bounds any cover
    rank = Eliminator([v for _, b in candidates for v in b]).rank
    rank += data.draw(st.integers(0, 2), label="slack")
    assert lrc._select_cover(full, candidates, rank) == _unbounded_select_cover(full, candidates)


@st.composite
def disjoint_block_codes(draw):
    """A parity check [blockdiag(local rows) ; global rows] of two or three
    groups over randomly permuted columns, with its profile at r = the
    largest group and delta = 2.  A group's first row is nonzero on each
    of its columns, so the groups cover every coordinate; its other rows
    and the global rows may be zero or dependent."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    entries = st.integers(0, 3)
    rows, group_rows, at = [], [], 0
    for size in sizes:
        cols = perm[at:at + size]
        at += size
        first = len(rows) + 1
        for j in range(draw(st.integers(1, size))):
            row = [0] * n
            for c in cols:
                row[c] = draw(st.integers(1, 3) if j == 0 else entries)
            rows.append(row)
        group_rows.append(tuple(range(first, len(rows) + 1)))
    rows += draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
    h = Mat4(rows)
    return h, LocalityProfile(r=max(sizes), delta=2, group_rows=tuple(group_rows), matrix=h)


@given(disjoint_block_codes())
def test_blockwise_distance_matches_enumeration(case):
    h, profile = case
    kernel = h.right_kernel()
    assume(kernel.rows <= 8)
    if kernel.rows == 0:
        with pytest.raises(UndefinedDistanceError):
            blockwise_min_distance(profile)
        return
    words = kernel.span_words()[1:]
    assert blockwise_min_distance(profile) == int(np.count_nonzero(words, axis=1).min())


# A numpy reference for the packed splice tables and their DP.  The
# blocks are the groups whose supports meet, joined: two blocks merge
# while their column sets share a column.  Per block, the right kernel of
# [[L_B, 0], [G_B, I]] is the words w on the block's columns that its
# local rows L_B annihilate, each followed by its global syndrome G_B w
# (G_B: the global rows on the block's columns); every combination of
# them is listed, and each syndrome, packed 2 bits per entry, gets its
# least weight.
_ORACLE_INF = 10**9


def _oracle_blocks(profile):
    """(0-based rows, 0-based columns) of each block, merged pairwise."""
    blocks = [({i - 1 for i in g.rows}, {c - 1 for c in g.support}) for g in profile.groups]
    while pair := next(((a, b) for a, b in combinations(blocks, 2) if a[1] & b[1]), None):
        blocks = [x for x in blocks if x not in pair] + [(pair[0][0] | pair[1][0],
                                                          pair[0][1] | pair[1][1])]
    return blocks


def _oracle_splice_bases(profile):
    h = profile.matrix
    glob0 = [i - 1 for i in profile.global_rows]
    out = []
    for rows, cols in _oracle_blocks(profile):
        rows0 = sorted(rows)
        ident = np.zeros((len(rows0) + len(glob0), len(glob0)), dtype=np.uint8)
        ident[len(rows0):] = np.eye(len(glob0), dtype=np.uint8)
        out.append(Mat4(np.hstack([h.array[np.ix_(rows0 + glob0, sorted(cols))], ident]))
                   .right_kernel())
    return out


def _oracle_syndrome_tables(basis, g):
    """Least weight per packed syndrome over all kernel words (entry 0 is
    0), and over the nonzero ones."""
    width = basis.cols - g
    place = 1 << (2 * np.arange(g, dtype=np.int64))
    t_any = np.full(1 << (2 * g), _ORACLE_INF, dtype=np.int64)
    zero_syn = _ORACLE_INF
    for words in span_chunks(basis):
        syn = words[:, width:].astype(np.int64) @ place
        wt = np.count_nonzero(words[:, :width], axis=1)
        np.minimum.at(t_any, syn, wt)
        zero_syn = min(zero_syn, int(wt[(syn == 0) & (wt > 0)].min(initial=_ORACLE_INF)))
    t_pos = t_any.copy()
    t_pos[0] = zero_syn
    return t_any, t_pos


def _oracle_distance(g, bases):
    """Least positive splice weight, by the int64 min-plus DP."""
    size = 1 << (2 * g)
    indices = np.arange(size)
    dp_any = np.full(size, _ORACLE_INF, dtype=np.int64)
    dp_any[0] = 0
    dp_pos = np.full(size, _ORACLE_INF, dtype=np.int64)
    for basis in bases:
        t_any, t_pos = _oracle_syndrome_tables(basis, g)
        shifted = np.full(size, _ORACLE_INF, dtype=np.int64)
        for s in np.flatnonzero(t_any < _ORACLE_INF)[1:]:
            np.minimum(shifted, dp_any[indices ^ s] + t_any[s], out=shifted)
        dp_pos = np.minimum(np.minimum(dp_pos, dp_any + t_pos[0]), shifted)
        dp_any = np.minimum(dp_any, shifted)
    return int(dp_pos[0]) if dp_pos[0] < _ORACLE_INF else None


def _interleaved(syn, g):
    """A syndrome packed as w-plane above 1-plane, repacked 2 bits per entry."""
    return sum(((syn >> g + j & 1) << 1 | syn >> j & 1) << 2 * j for j in range(g))


def _assert_tables_match_oracle(profile):
    """The profile's tables equal the oracle's, one per block: the
    oracle's blocks come in its own order, so the two are compared as
    sorted lists."""
    g = len(profile.global_rows)
    tables = lrc._blockwise_tables(profile)
    bases = _oracle_splice_bases(profile)
    got, want = [], []
    for (syn, wt), basis in zip(tables, bases, strict=True):
        assert syn.dtype == np.intp and wt.dtype == np.int32
        got.append(sorted((_interleaved(int(s), g), int(w)) for s, w in zip(syn, wt)))
        assert len({s for s, _ in got[-1]}) == len(syn)
        _, t_pos = _oracle_syndrome_tables(basis, g)
        want.append([(s, int(w)) for s, w in enumerate(t_pos) if w < _ORACLE_INF])
    assert sorted(got) == sorted(want)
    want_d = _oracle_distance(g, bases)
    if want_d is None:
        with pytest.raises(UndefinedDistanceError):
            lrc._blockwise_dp(g, tables)
    else:
        assert lrc._blockwise_dp(g, tables) == want_d


@given(disjoint_block_codes())
def test_splice_tables_match_the_numpy_oracle(case):
    _, profile = case
    _assert_tables_match_oracle(profile)


@given(disjoint_block_codes())
def test_splice_tables_in_numpy_blocks_match_the_numpy_oracle(case):
    # every nonzero kernel goes through the span_chunks walk, 4 words per table
    _, profile = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lrc, "_SPAN_MAX_K", 0)
        mp.setattr("lrc4.code._ENUM_CHUNK_K", 1)
        _assert_tables_match_oracle(profile)


def test_large_local_kernel_is_walked_in_bounded_blocks(monkeypatch):
    # an 11-coordinate group with one local row and one global row: a
    # 10-dimensional kernel, 4^10 words in 16 tables of 4^8; a second
    # group, coordinate 12 alone, is a block of its own with no nonzero word
    rng = np.random.default_rng(7)
    n = 11
    h = Mat4(np.vstack([np.append(np.ones(n, dtype=np.uint8), 0),
                        np.eye(1, n + 1, n, dtype=np.uint8),
                        rng.integers(0, 4, n + 1, dtype=np.uint8)]))
    profile = LocalityProfile(r=n - 1, delta=2, group_rows=((1,), (2,)), matrix=h)
    assert profile.global_rows == (3,) and profile.groups[0].support == set(range(1, n + 1))
    monkeypatch.setattr("lrc4.code._ENUM_CHUNK_K", 8)
    rows = []
    walk = lrc.span_chunks

    def record(basis):
        for table in walk(basis):
            rows.append(len(table))
            yield table

    monkeypatch.setattr(lrc, "span_chunks", record)
    _assert_tables_match_oracle(profile)
    assert rows == [4**8] * 16
    assert blockwise_min_distance(profile) == LinearCode(pchk=h).min_distance()


def test_splice_tables_match_the_numpy_oracle_on_every_build_that_splits():
    checked = joined = 0
    for cid, kw, d in constructed_instances(64):
        profile = build(cid, **kw).profile
        blocks = len(_oracle_blocks(profile))
        if blocks == 1:  # the router's case
            with pytest.raises(ValueError, match="the groups form one block"):
                lrc._blockwise_tables(profile)
            continue
        _assert_tables_match_oracle(profile)
        assert blockwise_min_distance(profile) == d, (cid, kw)
        checked += 1
        joined += blocks < profile.l
    assert checked > 300 and joined > 50


def test_blockwise_dp_without_zero_syndrome_words_stays_exact():
    # each group is one column pair whose only local row is [1 1]: its
    # kernel words (a, a) have weight 2 and the nonzero syndrome (a, 0)
    # of the two global rows, so no nonzero word has syndrome 0 and most
    # of the 16 syndromes stay unreachable in every table
    groups = 4
    n = 2 * groups
    rows = []
    for b in range(groups):
        row = [0] * n
        row[2 * b] = row[2 * b + 1] = 1
        rows.append(row)
    rows.append([1, 0] * groups)
    rows.append([0] * n)
    h = Mat4(rows)
    profile = LocalityProfile(r=1, delta=2, group_rows=tuple((b + 1,) for b in range(groups)),
                              matrix=h)
    assert profile.global_rows == (groups + 1, groups + 2)
    tables = lrc._blockwise_tables(profile)
    for syn, wt in tables:
        assert 0 not in syn and len(syn) == 3 and set(wt) == {2}
    # two blocks with the same a cancel: weight 4
    assert blockwise_min_distance(profile) == 4
    assert blockwise_min_distance(profile) == LinearCode(pchk=h.row_basis()).min_distance()
    _assert_tables_match_oracle(profile)


@st.composite
def overlapping_block_codes(draw):
    """A parity check whose local groups share coordinates, with up to
    three global rows, and its profile at r = the largest group and
    delta = 2.  The groups come in one to three clusters.  In a cluster,
    each group after the first shares one or two columns with the group
    before it (a chain) or with the first (a star), and the first column
    of every group is its own, so no group is redundant.  The groups are
    listed in a random order, so a group may join two blocks listed
    before it.  A group's first row is nonzero on each of its columns;
    its second row, if any, and the global rows may be zero or dependent."""
    n, groups = 0, []  # each group's columns, its own ones first
    for _ in range(draw(st.integers(1, 3))):
        cluster = [list(range(n, n + draw(st.integers(2, 3))))]
        n += len(cluster[0])
        star = draw(st.booleans())
        for _ in range(draw(st.integers(0, 2))):
            base = cluster[0] if star else cluster[-1]
            own = list(range(n, n + draw(st.integers(1, 2))))
            n += len(own)
            cluster.append(own + draw(st.lists(st.sampled_from(base[1:]), min_size=1, max_size=2,
                                               unique=True)))
        groups += cluster
    perm = draw(st.permutations(range(n)))
    rows, group_rows = [], []
    for cols in draw(st.permutations(groups)):
        first = len(rows) + 1
        for j in range(draw(st.integers(1, 2))):
            row = [0] * n
            for c in cols:
                row[perm[c]] = draw(st.integers(1, 3) if j == 0 else st.integers(0, 3))
            rows.append(row)
        group_rows.append(tuple(range(first, len(rows) + 1)))
    rows += draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=3))
    h = Mat4(rows)
    r = max(map(len, groups))
    return h, LocalityProfile(r=r, delta=2, group_rows=tuple(group_rows), matrix=h)


def _bridged_groups():
    """A = {1, 2, 3}, C = {5, 6, 7} and B = {3, 4, 5}, listed A, C, B, and
    D = {8, 9}: B meets both blocks listed before it, so the blocks are
    A + B + C and D."""
    h = Mat4([[1, 1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 0, 0],
              [0, 0, 1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1, 1],
              [1, 2, 3, 1, 2, 3, 1, 2, 3]])
    return h, LocalityProfile(r=2, delta=2, group_rows=((1,), (2,), (3,), (4,)), matrix=h)


@given(overlapping_block_codes())
@example(_bridged_groups())
def test_blockwise_distance_joins_overlapping_groups_into_blocks(case):
    _, profile = case
    if len(_oracle_blocks(profile)) == 1:
        with pytest.raises(ValueError, match="the groups form one block"):
            blockwise_min_distance(profile)
        return
    code = LinearCode(pchk=profile.parity_check().row_basis())
    if code.k == 0:
        with pytest.raises(UndefinedDistanceError):
            blockwise_min_distance(profile)
        return
    assert blockwise_min_distance(profile) == code.min_distance()
    _assert_tables_match_oracle(profile)


def test_router_and_blockwise_dp_agree_on_every_shared_column_build_up_to_64():
    split = one_block = 0
    for cid, kw, d in constructed_instances(64):
        if "variant" not in kw:
            continue
        bc = build(cid, **kw)
        assert bc.code.min_distance() == d, (cid, kw)  # the router
        if len(_oracle_blocks(bc.profile)) == 1:
            with pytest.raises(ValueError, match="the groups form one block"):
                blockwise_min_distance(bc.profile)
            one_block += 1
        else:
            assert blockwise_min_distance(bc.profile) == d, (cid, kw)
            split += 1
    assert (split, one_block) == (157, 7)


def test_profile_distance_of_every_parity_build_that_splits_takes_no_router(monkeypatch):
    # every parity-check build with n <= 128, and the 25 shared-column
    # builds past n = 224 whose d the router's 10^8 scan budget leaves
    # unsettled (C5 l = 38..42, C8 and C9 l = 45..51, C10 l = 38..43, all b)
    def refuse(self, budget=None):
        raise AssertionError("LinearCode.min_distance was called")

    monkeypatch.setattr(LinearCode, "min_distance", refuse)
    unsettled = ([("C5", l) for l in range(38, 43)] + [("C8", l) for l in range(45, 52)]
                 + [("C9", l) for l in range(45, 52)] + [("C10", l) for l in range(38, 44)])
    large = [(cid, kw, d) for cid, kw, d in constructed_instances(256)
             if kw.get("variant") == "b" and (cid, kw["l"]) in unsettled]
    assert len(large) == 25
    one_block = []
    for cid, kw, d in constructed_instances(128) + large:
        bc = build(cid, **kw)
        if bc.family.generator:
            continue
        if len(_oracle_blocks(bc.profile)) == 1:
            one_block.append((cid, kw))
        else:
            assert bc.profile.min_distance() == d, (cid, kw)
    # the one-block layouts: groups 1 and 2 of variant b meet, and l = 2
    assert one_block == [(cid, {"l": 2, "variant": "b"})
                         for cid in ("C1", "C2", "C3", "C5", "C8", "C9", "C10")]


def test_blockwise_work_bound_is_checked_before_any_word_is_listed(monkeypatch):
    profile = build("C17G", l=4).profile

    def refuse(*args):
        raise AssertionError("a kernel word was listed past the work bound")

    monkeypatch.setattr(lrc, "span", refuse)
    monkeypatch.setattr(lrc, "BLOCKWISE_MAX_WORK", 0)
    with pytest.raises(ResourceError, match="over the bound of 0"):
        blockwise_min_distance(profile)
    assert profile.min_distance() == 12  # by the router


def test_group_view_names_a_row_or_coordinate_the_matrix_lacks():
    bc = build("C6", l=3)  # [15,8,4], three disjoint groups, rows 1..7
    p = bc.profile
    first, *rest = p.group_rows
    # the profile refuses a row the matrix lacks where it is made, so no
    # check, repair or distance ever reads it; a support is read off the
    # matrix's columns, so it names no coordinate the matrix lacks
    with pytest.raises(StructureError, match=r"distinct rows of the matrix's rows 1\.\.7; rows \[99\]"):
        dataclasses.replace(p, group_rows=((*first, 99), *rest))
    assert set().union(*(g.support for g in p.groups)) == set(range(1, 16))
    received = [None] + [0] * (bc.code.n - 1)
    assert local_repair(bc, received).ok


def _leaky(bc):
    """The matrix of ``bc``'s profile with a global row added to its first
    local row: the same code, but that row leaks outside its group."""
    h = bc.profile.matrix.array.copy()
    h[0] ^= h[bc.profile.global_rows[0] - 1]
    return Mat4(h)


def _retyped(group_rows, to):
    """``group_rows`` with every row passed through ``to``."""
    return tuple(tuple(map(to, rows)) for rows in group_rows)


def _broken_layouts(bc):
    """One layout per rule a profile checks where it is made, each
    breaking only that rule: {case: (changed fields, error, error text)}."""
    p = bc.profile
    h, m, rows = p.matrix, p.matrix.rows, p.group_rows
    return {
        "no-row": ({"group_rows": (*rows, ())}, StructureError, f"group {p.l + 1} names no row"),
        "row-twice": ({"group_rows": (*rows, (m - 1, m))},
                      StructureError, rf"rows 1\.\.{m}; rows \[{m - 1}\]"),
        # an unnamed row is a global row, so the last group's coordinates go uncovered
        "row-unnamed": ({"group_rows": rows[:-1]}, StructureError,
                        r"coordinates not covered by any local group: \[11, 12, 13, 14, 15\]"),
        # a leaking local row widens its group's support
        "leak": ({"matrix": _leaky(bc)},
                 StructureError, r"group \(1, 2\) has support size 1\d > r\+delta-1 = 5"),
        "all-zero": ({"matrix": vstack([h, Mat4.zeros(1, h.cols)]), "group_rows": (*rows, (m + 1,))},
                     StructureError, rf"local group rows {m + 1}\.\.{m + 1} are all zero"),
        "oversize": ({"r": 2}, StructureError, r"group \(1, 2\) has support size 5 > r\+delta-1 = 4"),
        "redundant": ({"matrix": vstack([h, h.take_rows([0, 1])]),
                       "group_rows": (*rows, (m + 1, m + 2))},
                      StructureError, "dropping group 1 still covers all coordinates"),
        "fractional-rows": ({"group_rows": _retyped(rows, lambda i: i + 0.5)},
                            ValueError, "group rows must be integers"),
    }


PACKED_FIELDS = ("words", "masks", "local_rows", "groups_of")
DERIVED_FIELDS = ("groups", "global_rows")


@pytest.mark.parametrize("route", ["constructor", "replace"])
@pytest.mark.parametrize("case", ["no-row", "row-twice", "row-unnamed", "leak", "all-zero",
                                  "oversize", "redundant", "fractional-rows"])
def test_profile_checks_its_layout_where_it_is_made(case, route):
    bc = build("C6", l=3)
    p = bc.profile
    changes, error, message = _broken_layouts(bc)[case]

    def make(base, **changes):
        if route == "constructor":
            fields = {"r": base.r, "delta": base.delta, "group_rows": base.group_rows,
                      "matrix": base.matrix}
            return LocalityProfile(**{**fields, **changes})
        return dataclasses.replace(base, **changes)

    with pytest.raises(error, match=message):
        make(p, **changes)
    if case == "fractional-rows":
        # a bool is refused too, not read as row 1
        with pytest.raises(error, match=message):
            make(p, group_rows=_retyped(p.group_rows, lambda i: True))
    # the unbroken layout passes, and its derived and packed fields are
    # made again; they take no part in comparison, and only the derived
    # ones are shown
    again = make(p)
    assert again == p
    for name in DERIVED_FIELDS + PACKED_FIELDS:
        assert getattr(again, name) == getattr(p, name)
        assert getattr(again, name) is not getattr(p, name)
    assert {f.name: (f.compare, f.repr) for f in dataclasses.fields(p) if not f.init} \
        == {**dict.fromkeys(DERIVED_FIELDS, (False, True)),
            **dict.fromkeys(PACKED_FIELDS, (False, False))}
    if case == "fractional-rows":
        # integral floats and numpy ints give the int-indexed profile, with
        # ints stored; at n = 70 a support's mask passes 64 bits
        wide = build("C6", l=14).profile
        for to in (float, np.int64):
            twin = make(wide, group_rows=_retyped(wide.group_rows, to))
            assert twin == wide and twin.masks == wide.masks
            indices = [*twin.global_rows, *(i for g in twin.groups for i in (*g.rows, *g.support))]
            assert {type(i) for i in indices} == {int}
            assert twin.min_distance() == 4


def test_derived_layout_matches_what_the_producers_passed():
    # a group's support is the set of columns its rows touch, and the
    # global rows are the rows after the groups'; extract_profile read the
    # first off the matrix's columns, and restructure took it from the
    # qualifying supports of its search
    restructured = 0
    for cid, kw, _ in constructed_instances(64):
        bc = build(cid, **kw)
        p = bc.profile
        h = p.matrix.array
        assert p.global_rows == tuple(range(p.group_rows[-1][-1] + 1, h.shape[0] + 1)), (cid, kw)
        for g in p.groups:
            touched = np.flatnonzero(h[[i - 1 for i in g.rows]].any(axis=0)) + 1
            assert g.support == set(touched.tolist()), (cid, kw)
            if bc.family.generator:
                assert g.support in bc.search.qualifying, (cid, kw)
        restructured += bc.family.generator
    assert restructured == len(RESTRUCTURED_DIGESTS)


def test_blockwise_route_needs_two_blocks_and_the_work_budget(monkeypatch):
    bc = build("C6", l=3)
    h = bc.profile.matrix
    routed = []  # (code, budget) of each LinearCode.min_distance call
    real = LinearCode.min_distance

    def spy(self, budget=None):
        routed.append((self, budget))
        return real(self, budget)

    monkeypatch.setattr(LinearCode, "min_distance", spy)
    assert bc.profile.min_distance() == 4 and routed == []  # by the DP
    # the DP measures the kernel of the stacked rows, so an augmented
    # stack of disjoint groups (here the global row twice) takes it too
    unpartitioned = LocalityProfile(r=bc.r, delta=bc.delta, group_rows=bc.profile.group_rows,
                                    matrix=vstack([h, h.take_rows([h.rows - 1])]),
                                    partitioned=False)
    assert unpartitioned.min_distance(7) == 4 and routed == []
    assert unpartitioned.code.min_distance(7) == 4  # the router's d
    routed.clear()
    one_block = build("C1", l=2, variant="b")  # groups 1 and 2 share coordinate 5
    assert one_block.profile.min_distance() == one_block.expected.d
    assert routed == [(one_block.code, None)]
    routed.clear()
    joined = build("C1", l=3, variant="b")  # one block of groups 1 and 2, and group 3
    assert joined.profile.min_distance() == joined.expected.d and routed == []
    monkeypatch.setattr(lrc, "BLOCKWISE_MAX_WORK", 0)
    assert bc.profile.min_distance() == 4
    assert routed == [(bc.code, None)]
    assert bc.verify().d == 4  # by the router
    assert routed[1:] == [(bc.code, None)]
    # the public entry points refuse the same work instead of running the DP
    for measure, arg in ((blockwise_min_distance, bc.profile),
                         (constructions.blockwise_min_distance, bc)):
        with pytest.raises(ResourceError, match=r"estimated \d+ table operations, over the bound of 0"):
            measure(arg)
