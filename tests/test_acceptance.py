"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

All checks are exact (integer equality); the only tolerances are runtime
budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import random
import time
from itertools import combinations

from lrc4.classify import (
    enumerate_optimal_params,
    verify_claim1,
    verify_counting_bounds,
    verify_geometric_nonexistence,
)
from lrc4.code import LinearCode, hexacode, has_dependent_columns
from lrc4.constructions import (
    C16_D6_PUNCTURE,
    C16_PUNCTURES,
    C16_SELECTIONS,
    C17_PUNCTURES,
    G16,
    G17,
    LOCAL_5,
    acceptance_sweep,
    build,
    verify_c17g_properties,
)
from lrc4.lrc import singleton_like_bound, verify_locality
from lrc4.mat4 import Mat4, hstack
from lrc4.pg import enumerate_points, enumerate_subspaces, subspace_points
from lrc4.repair import ErasurePattern, encode, erasure_tolerance_ok, local_repair


def _report(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_construction_sweep():
    """Every constructed family at its two smallest parameter points:
    ranks give (n, k), distance is exact, locality verifies, r-optimality
    holds, and all five structure checks pass.  Budget: 5 minutes."""
    t0 = time.time()
    failures = []
    for cid, kw in acceptance_sweep():
        bc = build(cid, **kw)
        tag = f"{cid} {kw}"
        n_from_rank = bc.code.generator().cols
        k_from_rank = bc.code.generator().rank()
        if (n_from_rank, k_from_rank) != (bc.expected.n, bc.expected.k):
            failures.append(f"{tag}: rank parameters differ")
            continue
        if bc.code.min_distance() != bc.expected.d:
            failures.append(f"{tag}: d != {bc.expected.d}")
            continue
        if not verify_locality(bc.code, bc.r, bc.delta).ok:
            failures.append(f"{tag}: locality fails")
            continue
        report = bc.verify()
        if not report.d_optimal:
            failures.append(f"{tag}: not d-optimal")
        if not report.r_optimal:
            failures.append(f"{tag}: not r-optimal")
        for name, res in report.checks.items():
            if res.passed is not True:
                failures.append(f"{tag}: check {name}: {res.witness}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 300
    _report(
        "criterion 1 (construction sweep)",
        ok,
        failures[0] if failures else f"{len(acceptance_sweep())} builds in {elapsed:.1f}s",
    )


def test_criterion_2_bound_equality():
    """Every enumerated tuple up to n = 30 meets the Singleton-like bound
    with equality (exact integer check)."""
    records = enumerate_optimal_params(30)
    bad = [
        rec for rec in records
        if rec.d != singleton_like_bound(rec.n, rec.k, rec.r, rec.delta)
    ]
    _report(
        "criterion 2 (bound equality)",
        not bad and len(records) > 0,
        f"{len(records)} tuples, {len(bad)} exceptions",
    )


def test_criterion_3_weight_distributions():
    """Brute force reproduces the catalogued weight distributions exactly."""
    c533 = LinearCode(pchk=LOCAL_5)
    got_533 = c533.weight_distribution()
    got_hex = hexacode().weight_distribution()
    ok = got_533 == [1, 0, 0, 30, 15, 18] and got_hex == [1, 0, 0, 0, 45, 0, 18]
    _report(
        "criterion 3 (weight distributions)",
        ok,
        f"[5,3,3]: {got_533}, hexacode: {got_hex}",
    )


def test_criterion_4_claim_machine_check():
    """All 5797 planes of GF(4)^5 scanned in under 10 seconds: every
    distance-4 plane has no weight-5 word; the [11,3,6] covering
    contradiction and the forced group count are reported."""
    t0 = time.time()
    rep = verify_claim1()
    elapsed = time.time() - t0
    ok = (
        rep.passed
        and rep.facts["planes_scanned"] == 5797
        and rep.facts["weight5_words_in_d4_planes"] == 0
        and rep.facts["l_range_[10,3,5]"] == (2, 2)
        and rep.facts["l_range_[11,3,6]"] == (2, 2)
        and rep.facts["cover_bound_[11,3,6]"] == "2*5 = 10 < 11"
        and elapsed < 10
    )
    _report("criterion 4 (claim 1/2 machine check)", ok, f"{elapsed:.2f}s")


def test_criterion_5_geometry():
    """PG(2,F4) incidence, exhaustively, plus the three counting bounds."""
    points = enumerate_points(3)
    lines = [frozenset(subspace_points(b)) for b in enumerate_subspaces(3, 2)]
    pair_sizes = {len(a & b) for a, b in combinations(lines, 2)}
    geo = verify_geometric_nonexistence()
    bounds = verify_counting_bounds()
    ok = (
        len(points) == 21
        and len(lines) == 21
        and all(len(line) == 5 for line in lines)
        and pair_sizes == {1}
        and len(enumerate_points(5)) == 341
        and geo.passed
        and bounds.passed
        and bounds.facts["common_point_bound"] == 17
        and bounds.facts["union_bound_l"] == 21
        and bounds.facts["open_range_line_bound"] == 9
    )
    _report(
        "criterion 5 (projective geometry)",
        ok,
        f"21 points/21 lines, bounds {bounds.facts['common_point_bound']}/"
        f"{bounds.facts['union_bound_l']}/{bounds.facts['open_range_line_bound']}",
    )


def test_criterion_6_c17g():
    """The 17-triple table satisfies both span properties; the l = 4 code
    gets a full d = 12 verification by the column scan (all 11-subsets of
    its 24 parity columns independent) against enumeration; l = 5..17 get
    the structural properties, per the desk-scale guard."""
    t0 = time.time()
    props17 = verify_c17g_properties(17)
    bc = build("C17G", l=4)
    d_enum = bc.code._min_distance_enumerate()  # the route itself, not the router
    h = bc.code.parity_check()
    scan_clean = not has_dependent_columns(h, 11)
    elapsed = time.time() - t0
    structural = all(verify_c17g_properties(l) for l in range(5, 18))
    ok = props17 and structural and d_enum == 12 and scan_clean and elapsed < 600
    _report(
        "criterion 6 (l=17 table and full d=12 scan)",
        ok,
        f"enum d={d_enum}, 11-column scan clean={scan_clean} in {elapsed:.1f}s",
    )


def _exhaustive_patterns(bc):
    n = bc.code.n
    budget = bc.delta - 1
    supports = [g.support for g in bc.profile.groups]
    for mask in range(1 << n):
        erased = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        if all(len(erased & s) <= budget for s in supports):
            yield ErasurePattern(erased)


def test_criterion_7_repair():
    """For the five designated families at minimal parameters, every
    erasure pattern within per-group tolerance recovers exactly, reading
    at most r + delta - 2 symbols per solve, and over-tolerance patterns
    fail cleanly."""
    cases = [
        ("C1", {"l": 2, "variant": "a"}),
        ("C1", {"l": 2, "variant": "b"}),
        ("C4", {"l": 2, "r": 3}),
        ("C6", {"l": 2}),
        ("C11", {"l": 2, "r": 3}),
        ("C12", {"k": 2, "delta": 5}),
    ]
    problems = []
    total = 0
    for cid, kw in cases:
        bc = build(cid, **kw)
        assert bc.code.n <= 12, "exhaustive regime expected at minimal parameters"
        rng = random.Random(0)
        word = encode(bc, [rng.randrange(4) for _ in range(bc.code.k)])
        cap = bc.r + bc.delta - 2
        for pattern in _exhaustive_patterns(bc):
            total += 1
            out = local_repair(bc, pattern.apply(word))
            if not out.ok or out.codeword != word:
                problems.append(f"{cid} {kw}: pattern {sorted(pattern.erased)} not recovered")
                break
            if any(len(step.reads) > cap for step in out.trace):
                problems.append(f"{cid} {kw}: read bound violated")
                break
        # one pattern beyond tolerance must fail cleanly, not misdecode
        heavy = sorted(bc.profile.groups[0].support)[: bc.delta]
        heavy_pattern = ErasurePattern.of(heavy)
        if erasure_tolerance_ok(bc, heavy_pattern):
            problems.append(f"{cid} {kw}: heavy pattern unexpectedly tolerable")
        out = local_repair(bc, heavy_pattern.apply(word))
        if out.ok or not out.failures:
            problems.append(f"{cid} {kw}: over-tolerance pattern did not fail cleanly")
    _report(
        "criterion 7 (repair simulation)",
        not problems,
        problems[0] if problems else f"{total} exhaustive patterns recovered",
    )


def test_criterion_8_puncture_chains():
    """The printed puncture chains reproduce their distances exactly."""
    failures = []
    base16 = LinearCode(gen=G16)
    expect16 = {12: (), **{d: C16_PUNCTURES[d] for d in (11, 10, 9, 8)}, 6: C16_D6_PUNCTURE}
    for d, punct in expect16.items():
        c = base16.puncture(punct) if punct else base16
        if c.min_distance() != d:
            failures.append(f"C16 puncture {punct}: d != {d}")
    ext = hstack([Mat4([[0], [1], [0]]), G16])
    for d in (7, 5):
        g = ext.take_columns(C16_SELECTIONS[d])
        c = LinearCode(gen=g)
        if c.min_distance() != d:
            failures.append(f"C16 selection for d={d} wrong")
    base17 = LinearCode(gen=G17)
    for d, punct in C17_PUNCTURES.items():
        c = base17.puncture(punct) if punct else base17
        if c.min_distance() != d:
            failures.append(f"C17 puncture {punct}: d != {d}")
    _report(
        "criterion 8 (puncture chains)",
        not failures,
        failures[0] if failures else "C16 d=12..5 and C17 d=16..7 reproduced",
    )
