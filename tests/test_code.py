import random
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lrc4 import gf4
from lrc4._gf4vec import Eliminator, pack_columns
from lrc4.code import (
    CodeParams,
    HEXACODE_GEN,
    LinearCode,
    has_dependent_columns,
    hexacode,
    mds_feasible_q4,
    mds_weight_distribution,
)
from lrc4.constructions import LOCAL_5, build
from lrc4.errors import (
    EmptyCodeError,
    RankError,
    ScanBudgetExceeded,
    UndefinedDistanceError,
)
from lrc4.mat4 import Mat4


def repetition(n):
    return LinearCode(gen=Mat4([[1] * n]))


def brute_force_codeword_set(code):
    g = code.generator()
    words = set()
    for scalars in product(gf4.ELEMENTS, repeat=g.rows):
        vec = [0] * g.cols
        for lam, row in zip(scalars, g.array):
            vec = [v ^ gf4.mul(lam, int(x)) for v, x in zip(vec, row)]
        words.add(tuple(vec))
    return words


def test_code_params_singleton_guard():
    CodeParams(6, 3, 4)
    with pytest.raises(ValueError):
        CodeParams(6, 3, 5)
    with pytest.raises(ValueError):
        CodeParams(6, 3, 0)


def test_complete_hexacode():
    # a code built from one matrix holds both, orthogonal, from construction
    c = hexacode()
    assert c.gen is HEXACODE_GEN
    assert c.pchk.rows == 3
    assert (c.gen @ c.pchk.transpose()).is_zero()
    # parity-only input: the generator is the kernel of the parity check
    p = LinearCode(pchk=LOCAL_5)
    assert p.pchk is LOCAL_5
    assert p.gen == LOCAL_5.right_kernel()
    assert (p.gen @ p.pchk.transpose()).is_zero()
    assert p.gen.rows + p.pchk.rows == p.n
    # it is given exactly one: neither, or both, is refused
    for gen, pchk in ((None, None), (c.gen, c.pchk)):
        with pytest.raises(ValueError, match="exactly one"):
            LinearCode(gen=gen, pchk=pchk)


def test_complete_single_parity_layout_gives_repetition():
    # parity check [I_{n-1} | 1] forces all coordinates equal
    n = 5
    pchk = Mat4([[1 if j == i else (1 if j == n - 1 else 0) for j in range(n)]
                 for i in range(n - 1)])
    c = LinearCode(pchk=pchk)
    assert c.k == 1
    assert c.generator().row_basis() == Mat4([[1] * n])


def test_complete_rejects_rank_deficient():
    with pytest.raises(RankError):
        LinearCode(gen=Mat4([[1, 1, 0], [1, 1, 0]]))


def test_min_distance_examples():
    assert hexacode().min_distance() == 4
    assert repetition(7).min_distance() == 7
    assert build("C16", d=12).code.min_distance() == 12
    full = LinearCode(gen=Mat4.identity(4))
    assert full.min_distance() == 1


def test_min_distance_undefined_for_zero_code():
    z = LinearCode(gen=Mat4.zeros(0, 4))
    with pytest.raises(UndefinedDistanceError):
        z.min_distance()


def test_min_distance_dual_route_cross_check():
    # enumeration and the parity-check column scan are independent routes
    cases = [
        hexacode(),
        build("C1", l=2).code,
        build("C6", l=2).code,
        build("C9", l=2, variant="b").code,
        build("C16", d=8).code,
        build("CLS2_1", l=4).code,
    ]
    for c in cases:
        d_enum = c._min_distance_enumerate()
        d_scan = c._min_distance_scan()
        assert d_enum == d_scan == c.min_distance()


@given(st.integers(2, 10).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=n - 1)))
def test_min_distance_routes_agree_on_random_codes(rows):
    # the router's safety net: both routes, and whatever min_distance
    # picks, agree on the code held by its generator or its parity check
    g = Mat4(rows).row_basis()
    assume(g.rows > 0)
    for c in (LinearCode(gen=g), LinearCode(pchk=g.right_kernel())):
        assert c._min_distance_enumerate() == c._min_distance_scan() == c.min_distance()


def test_weight_distribution_paper_values():
    dual533 = LinearCode(pchk=LOCAL_5)  # the [5,3,3] local code
    assert dual533.weight_distribution() == [1, 0, 0, 30, 15, 18]
    assert hexacode().weight_distribution() == [1, 0, 0, 0, 45, 0, 18]
    c524 = LinearCode(gen=LOCAL_5)  # [5,2,4]
    wd = c524.weight_distribution()
    assert wd[4] == 15 and wd[5] == 0
    assert sum(wd) == 4 ** 2


def test_weight_distribution_matches_closed_form_for_mds():
    cases = [
        (LinearCode(gen=LOCAL_5), 5, 2),
        (LinearCode(pchk=LOCAL_5), 5, 3),
        (hexacode(), 6, 3),
        (repetition(7), 7, 1),
        (LinearCode(pchk=Mat4([[1] * 6])), 6, 5),
    ]
    for code, n, k in cases:
        assert code.min_distance() == n - k + 1
        assert code.weight_distribution() == mds_weight_distribution(n, k)


def test_puncture_examples():
    hx = hexacode()
    p = hx.puncture({5})
    assert (p.n, p.k) == (5, 3)
    assert p.min_distance() == 3
    assert hx.puncture(set()).generator() == HEXACODE_GEN.row_basis()
    chain = build("C16", d=12).code.puncture({13})
    assert (chain.n, chain.k, chain.min_distance()) == (15, 3, 11)
    with pytest.raises(EmptyCodeError):
        hx.puncture(range(1, 7))
    with pytest.raises(ValueError):
        hx.puncture({0})


def test_mds_feasible_q4():
    assert mds_feasible_q4(6, 3)
    assert not mds_feasible_q4(7, 3)
    assert mds_feasible_q4(9, 1)
    assert mds_feasible_q4(4, 2) and mds_feasible_q4(5, 2) and mds_feasible_q4(5, 3)
    assert mds_feasible_q4(8, 7) and mds_feasible_q4(8, 8)
    assert not mds_feasible_q4(6, 2) and not mds_feasible_q4(7, 4)
    with pytest.raises(ValueError):
        mds_feasible_q4(3, 0)


def test_scan_budget_exceeded():
    # past the enumeration guard (k = 17 > 14) the budget is final: level
    # t = 1 alone (29 subsets) exceeds it, so only d >= 1 is proven
    c = build("C1", l=6).code
    assert (c.n, c.k) == (29, 17)
    with pytest.raises(ScanBudgetExceeded) as exc:
        c.min_distance(budget=5)
    assert exc.value.lower_bound == 1
    # within the guard a scan over budget hands over to enumeration
    assert build("C1", l=2).code.min_distance(budget=5) == 3


def test_has_dependent_columns():
    assert not has_dependent_columns(HEXACODE_GEN, 3)  # MDS: any 3 columns independent
    assert has_dependent_columns(HEXACODE_GEN, 4)
    assert not has_dependent_columns(Mat4.identity(3), 3)


def test_has_dependent_columns_takes_t_by_the_integer_rule():
    h = build("C6", l=3).code.pchk
    for t in (0, -1):
        with pytest.raises(ValueError, match=f"need t >= 1, got t={t}"):
            has_dependent_columns(h, t)
    for t in (1.5, True, "2"):
        with pytest.raises(ValueError, match="t must be integers"):
            has_dependent_columns(h, t)
    assert has_dependent_columns(h, 4.0) and not has_dependent_columns(h, 3)
    assert not has_dependent_columns(h, h.cols + 1)


def test_min_distance_takes_its_budget_by_the_integer_rule():
    c = build("C1", l=2).code
    for bad in (True, 1.5, "5"):
        with pytest.raises(ValueError, match="budgets must be integers"):
            c.min_distance(budget=bad)
    with pytest.raises(ValueError, match="a budget must be >= 0, got -1"):
        c.min_distance(budget=-1)
    assert c.min_distance(budget=0) == c.min_distance(budget=5.0) == c.min_distance() == 3
    assert c.min_distance(budget=10**18) == 3


def test_has_dependent_columns_matches_brute_force():
    from itertools import combinations

    rng = random.Random(17)
    for _ in range(40):
        cols = rng.randrange(2, 7)
        m = Mat4([[rng.randrange(4) for _ in range(cols)]
                  for _ in range(rng.randrange(1, 5))])
        for t in range(1, m.cols + 1):
            brute = any(
                m.take_columns(cols).rank() < t
                for cols in combinations(range(m.cols), t)
            )
            assert has_dependent_columns(m, t) == brute


def recursive_scan(m, t):
    """The column scan as it was before nodes kept their later columns
    reduced: one recursion level per pick, each push reducing its column
    by the whole basis.  t >= 1."""
    cols = pack_columns(m)
    n = len(cols)
    if t > n:
        return False
    elim = Eliminator()

    def rec(start, depth):
        remaining = t - depth
        for i in range(start, n - remaining + 1):
            if not elim.push(cols[i]):
                elim.pop()
                return True
            if remaining > 1 and rec(i + 1, depth + 1):
                elim.pop()
                return True
            elim.pop()
        return False

    return rec(0, 0)


def test_scan_matches_the_recursive_scan(monkeypatch):
    # the same verdicts and as many pushes as the recursive scan, and
    # every push of the scan meets a column already reduced modulo the
    # basis, so it never runs the loop over the basis
    rng = random.Random(39)
    pushed, unreduced = [], []
    real = Eliminator.push

    def spy(self, v):
        leads = 0
        for entry in self._basis:
            leads |= entry[0]
        pushed.append(v)
        unreduced.append((v[0] | v[1]) & leads != 0)
        return real(self, v)

    monkeypatch.setattr(Eliminator, "push", spy)
    verdicts = set()
    for case in range(240):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 13)
        zero = 0.2 if case % 2 else 0.7  # dense, then sparse
        m = Mat4([[0 if rng.random() < zero else rng.randrange(1, 4) for _ in range(cols)]
                  for _ in range(rows)])
        for t in range(1, cols + 2):
            pushed.clear()
            want = recursive_scan(m, t)
            oracle = list(pushed)
            pushed.clear()
            unreduced.clear()
            assert has_dependent_columns(m, t) == want, (m, t)
            assert len(pushed) == len(oracle), (m, t)
            assert not any(unreduced), (m, t)
            verdicts.add(want)
    assert verdicts == {False, True}


def test_scan_depth_is_not_bounded_by_the_recursion_limit():
    # one frame per pick on an explicit stack: t = 1100 picks deep
    eye = np.eye(1100, dtype=np.uint8)
    assert not has_dependent_columns(Mat4(eye), 1100)
    dup = eye.copy()
    dup[:, 700] = dup[:, 3]
    assert has_dependent_columns(Mat4(dup), 1100)
    assert has_dependent_columns(Mat4(np.hstack([eye, eye[:, :1]])), 1100)


def test_exhaustive_scan_pushes_every_subset_prefix_once(monkeypatch):
    # every 7 columns of the [24,7,12] code's parity check are independent,
    # so the scan pushes each prefix of each 7-subset once, whatever the
    # column order: sum_{j=1..7} C(17 + j, j) = C(25, 7) - 1 pushes
    h = build("C17G", l=4).code.parity_check().array
    rng = random.Random(1)  # a seeded monomial change, as the benchmark's
    perm = list(range(h.shape[1]))
    rng.shuffle(perm)
    hp = h[:, perm].copy()
    for j in range(hp.shape[1]):
        hp[:, j] = gf4.MUL_NP[rng.randrange(1, 4), hp[:, j]]
    pushes = 0
    real = Eliminator.push

    def counted(self, v):
        nonlocal pushes
        pushes += 1
        return real(self, v)

    monkeypatch.setattr(Eliminator, "push", counted)
    assert not has_dependent_columns(Mat4(hp), 7)
    assert pushes == comb(25, 7) - 1 == 480_699


@pytest.mark.parametrize(("cid", "params"), [("C1", {"l": 3}), ("C16", {"d": 12}), ("CLS2_1", {"l": 5})])
def test_column_scan_finds_dependence_exactly_from_d(cid, params):
    bc = build(cid, **params)
    h = bc.code.parity_check()
    d = bc.expected.d
    for t in range(1, d + 1):
        assert has_dependent_columns(h, t) == (t >= d), t


def test_enumeration_guards():
    from lrc4.errors import ResourceError

    big = LinearCode(gen=Mat4.identity(15))  # k = 15 > the enumeration guard
    with pytest.raises(ResourceError):
        big.weight_distribution()


def test_held_matrix_is_returned_without_a_kernel(echelon_calls):
    # building from one matrix reduces it once, for the other matrix and
    # the rank; reading either matrix back reduces nothing
    for gen, pchk in ((HEXACODE_GEN, None), (None, LOCAL_5)):
        echelon_calls.clear()
        c = LinearCode(gen=gen, pchk=pchk)
        g, h = c.generator(), c.parity_check()
        assert g is c.gen and h is c.pchk
        assert g is HEXACODE_GEN if gen is not None else h is LOCAL_5
        assert len(echelon_calls) == 1


def test_codeword_chunks_cover_everything():
    c = build("C2", l=2).code  # [7,3,3]
    words = set()
    for chunk in c.codeword_chunks():
        for row in chunk:
            words.add(tuple(int(x) for x in row))
    assert words == brute_force_codeword_set(c)
    assert len(words) == 4 ** c.k
