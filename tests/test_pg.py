import tracemalloc
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lrc4 import gf4
from lrc4.classify import enumerate_optimal_params
from lrc4.code import mds_feasible_q4, mds_weight_distribution
from lrc4.mat4 import Mat4, span_stack
from lrc4.pg import (
    PgPoint,
    count_subspaces,
    count_subspaces_containing,
    enumerate_points,
    enumerate_subspaces,
    intersect_subspaces,
    normalize,
    subspace_blocks,
    subspace_points,
)


def test_point_counts():
    assert len(enumerate_points(3)) == 21
    assert len(enumerate_points(1)) == 1
    assert len(enumerate_points(5)) == 341
    for m in range(1, 7):
        assert len(enumerate_points(m)) == count_subspaces(m, 1) == (4 ** m - 1) // 3


def test_points_are_canonical_and_sorted():
    pts = enumerate_points(3)
    assert pts == sorted(pts)
    for p in pts:
        lead = next(x for x in p.coords if x)
        assert lead == 1


def test_normalize():
    p = normalize((gf4.W, gf4.W, 0))
    assert p.coords == (1, 1, 0)
    assert normalize(p.coords) == p  # involution-free
    with pytest.raises(ValueError):
        normalize((0, 0, 0))
    # a non-integral coordinate is refused, not truncated to (1 w)
    with pytest.raises(ValueError, match="must be integers"):
        normalize([1.5, 2])
    # and a bool, not read as 1
    with pytest.raises(ValueError, match="must be integers"):
        normalize([True, 0, 1])
    # and so is an int outside 0..3, which indexed past the field tables
    # (7) or wrapped round to w^2 (-1)
    for bad in ([0, 7, 1], [1, -1]):
        with pytest.raises(ValueError, match=r"must be integers 0\.\.3; \[-?\d\] are not GF\(4\)"):
            normalize(bad)
    assert normalize([2.0, np.int64(2)]) == normalize((2, 2))
    with pytest.raises(ValueError):
        PgPoint((gf4.W, 0, 0))  # not normalized


def test_point_coordinates_are_field_elements():
    # 7 made a point whose str() raised IndexError, and True passed for 1
    for bad in ((1, 7), (1, True), (1, -1)):
        with pytest.raises(ValueError, match="not GF\\(4\\) elements"):
            PgPoint(bad)
    p = PgPoint((1, 2.0))
    assert p == PgPoint((1, gf4.W)) and all(type(x) is int for x in p.coords)
    assert str(p) == "(1 w)"


def lines_of_the_plane() -> list[frozenset[PgPoint]]:
    """The lines of PG(2,F4): point sets of the 2-dim subspaces of GF(4)^3."""
    return [frozenset(subspace_points(b)) for b in enumerate_subspaces(3, 2)]


def test_line_points_coordinate_line():
    pts = subspace_points(Mat4([(1, 0, 0), (0, 1, 0)]))
    assert pts == {
        PgPoint((1, 0, 0)), PgPoint((0, 1, 0)), PgPoint((1, 1, 0)),
        PgPoint((1, gf4.W, 0)), PgPoint((1, gf4.W2, 0)),
    }


def test_every_line_pair_meets_once():
    lines = lines_of_the_plane()
    assert len(set(lines)) == 21
    assert all(len(line) == 5 for line in lines)
    for a, b in combinations(lines, 2):
        assert len(a & b) == 1


def test_pencil_through_a_point_covers_the_plane():
    pts = enumerate_points(3)
    a = pts[0]
    through = [line for line in lines_of_the_plane() if a in line]
    assert len(through) == 5
    covered = set()
    for line in through:
        covered |= line
    assert covered == set(pts)


def test_count_subspaces():
    assert count_subspaces(3, 1) == 21
    assert count_subspaces(4, 0) == 1
    assert count_subspaces(5, 2) == 5797
    assert count_subspaces(3, 2) == 21  # lines of PG(2,F4) by duality
    with pytest.raises(ValueError):
        count_subspaces(2, 3)


def test_counting_parameters_take_the_integer_rule():
    # an integral value of any numeric type is the int it names, and 2.5,
    # a bool or a string raises ValueError at entry, never a raw TypeError,
    # a float count or a silent answer
    table = [
        (count_subspaces, (5, 2)),
        (count_subspaces_containing, (5, 2, 1)),
        (enumerate_points, (2,)),
        (lambda m, i: sum(map(len, subspace_blocks(m, i))), (5, 2)),
        (enumerate_optimal_params, (30,)),
        (mds_feasible_q4, (5, 2)),
        (mds_weight_distribution, (5, 2)),
    ]
    for f, args in table:
        want = f(*args)
        for pos, value in enumerate(args):
            for same in (float(value), np.int64(value)):
                got = f(*args[:pos], same, *args[pos + 1:])
                assert got == want and type(got) is type(want), (f, args, pos)
            for bad in (value + 0.5, True, str(value)):
                with pytest.raises(ValueError, match="must be integers"):
                    f(*args[:pos], bad, *args[pos + 1:])
    assert count_subspaces(5.0, 2) == 5797 and type(count_subspaces(5.0, 2)) is int


def subspaces_one_by_one(m, i):
    """The reference enumeration: one rref basis per filling of the free cells."""
    if i == 0:
        yield Mat4.zeros(0, m)
        return
    for pivots in combinations(range(m), i):
        free_cells = [
            (r, c)
            for r in range(i)
            for c in range(pivots[r] + 1, m)
            if c not in pivots
        ]
        base = np.zeros((i, m), dtype=np.uint8)
        for r, p in enumerate(pivots):
            base[r, p] = 1
        for values in product(gf4.ELEMENTS, repeat=len(free_cells)):
            a = base.copy()
            for (r, c), v in zip(free_cells, values):
                a[r, c] = v
            yield Mat4(a)


def test_count_subspaces_matches_enumeration():
    for m, i in [(3, 1), (3, 2), (4, 2), (5, 2), (4, 0), (4, 4), (5, 5)]:
        bases = list(enumerate_subspaces(m, i))
        assert bases == list(subspaces_one_by_one(m, i))
        assert len(bases) == count_subspaces(m, i)
    # blocks split across free cells, and one-basis blocks at i >= 10
    for m, i, count in [(8, 4, 3 * 4 ** 6), (11, 10, 50)]:
        head = list(islice(enumerate_subspaces(m, i), count))
        assert head == list(islice(subspaces_one_by_one(m, i), count))


def test_subspace_blocks_span_like_span_words():
    for m, i in [(3, 1), (4, 2), (5, 2), (5, 3), (4, 0), (5, 5)]:
        for block in subspace_blocks(m, i):
            table = span_stack(block)
            assert block.shape[1:] == (i, m) and table.shape == (4 ** i, len(block), m)
            assert table.shape[0] * table.shape[1] <= 4 ** 10
            for b, basis in enumerate(block):
                assert np.array_equal(table[:, b], Mat4(basis).span_words())
    for block in islice(subspace_blocks(8, 4), 2):
        assert span_stack(block).shape == (4 ** 4, 4 ** 6, 8)


def test_enumerate_subspaces_is_lazy():
    tracemalloc.start()
    try:
        next(enumerate_subspaces(8, 4))  # 4^16 bases share the first pivot pattern
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_enumerated_subspaces_are_canonical_and_distinct():
    seen = set()
    for basis in enumerate_subspaces(4, 2):
        assert basis.rank() == 2
        r, _ = basis.rref()
        assert r == basis
        seen.add(basis)
    assert len(seen) == count_subspaces(4, 2)


def test_count_subspaces_containing():
    assert count_subspaces_containing(3, 2, 1) == 5  # five lines through a point
    assert count_subspaces_containing(4, 3, 2) == 5  # five planes through a line
    assert count_subspaces_containing(4, 3, 3) == 1
    assert count_subspaces_containing(5, 2, 1) == count_subspaces(4, 1)


def test_subspace_points_and_membership():
    basis = Mat4.from_string("1 0 0 / 0 1 0")
    pts = subspace_points(basis)
    assert len(pts) == 5
    # membership oracle: a point of the row space leaves the rank unchanged
    assert all(Mat4([*basis.array.tolist(), p.coords]).rank() == 2 for p in pts)
    assert Mat4([*basis.array.tolist(), (0, 0, 1)]).rank() == 3
    assert PgPoint((0, 0, 1)) not in pts


def test_subspace_points_of_dependent_rows():
    assert subspace_points(Mat4([(1, 0, 0), (gf4.W, 0, 0)])) == {PgPoint((1, 0, 0))}


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.lists(st.integers(0, 3), min_size=m, max_size=m), max_size=4))))
def test_subspace_points_match_the_definition(case):
    # rows may be zero or dependent; a point lies in the row space when
    # some scalar combination of the rows equals it
    m, rows = case
    spanned = set()
    for coeffs in product(gf4.ELEMENTS, repeat=len(rows)):
        v = [0] * m
        for a, row in zip(coeffs, rows):
            v = [gf4.add(x, gf4.mul(a, y)) for x, y in zip(v, row)]
        if any(v):
            spanned.add(normalize(v))
    assert subspace_points(Mat4(rows) if rows else Mat4.zeros(0, m)) == spanned


def test_intersect_subspaces():
    a = Mat4.from_string("1 0 0 / 0 1 0")
    b = Mat4.from_string("0 1 0 / 0 0 1")
    meet = intersect_subspaces(a, b)
    assert meet.rows == 1
    assert meet.row(0) == (0, 1, 0)
    disjoint = intersect_subspaces(Mat4.from_string("1 0 0 0"), Mat4.from_string("0 1 0 0"))
    assert disjoint.rows == 0
