import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lrc4 import gf4
from lrc4._gf4vec import (
    Eliminator,
    echelon,
    pack_columns,
    pack_rows,
    unpack,
)
from lrc4.code import HEXACODE_GEN
from lrc4.constructions import LOCAL_5, build
from lrc4.mat4 import Mat4, ShapeError, hstack, vstack


def random_matrix(rng, rows, cols):
    return Mat4([[rng.randrange(4) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity_and_zero():
    i3 = Mat4.identity(3)
    r, piv = i3.rref()
    assert r == i3 and piv == (0, 1, 2)
    z = Mat4.zeros(2, 3)
    r, piv = z.rref()
    assert r == z and piv == ()


def test_rref_hexacode_is_systematic():
    r, piv = HEXACODE_GEN.rref()
    assert r == HEXACODE_GEN  # already [I | P]
    assert piv == (0, 1, 2)


def test_rank_examples():
    assert HEXACODE_GEN.rank() == 3
    assert Mat4.zeros(4, 4).rank() == 0
    h = build("C1", l=2).code.parity_check()
    assert h.shape == (4, 9)
    assert h.rank() == 4  # n - k = 9 - 5


def test_right_kernel_identity_and_hexacode():
    assert Mat4.identity(3).right_kernel().rows == 0
    k = HEXACODE_GEN.right_kernel()
    assert k.rows == 3  # rank-nullity: 6 - 3
    assert (HEXACODE_GEN @ k.transpose()).is_zero()


def test_right_kernel_single_row_brute_force():
    row = Mat4([[1, 1, 0]])
    kernel = row.right_kernel()
    assert kernel.rows == 2
    # oracle: enumerate all 64 vectors annihilated by the row
    expected = set()
    for v in product(gf4.ELEMENTS, repeat=3):
        if gf4.mul(v[0], 1) ^ gf4.mul(v[1], 1) == 0:
            expected.add(v)
    spanned = set()
    for s in product(gf4.ELEMENTS, repeat=2):
        vec = tuple(
            gf4.mul(s[0], a) ^ gf4.mul(s[1], b)
            for a, b in zip(kernel.row(0), kernel.row(1))
        )
        spanned.add(vec)
    assert spanned == expected
    assert (1, 1, 0) in spanned and (0, 0, 1) in spanned


def test_kron_examples():
    assert Mat4.identity(2).kron(Mat4.identity(2)) == Mat4.identity(4)
    blockdiag = Mat4.identity(2).kron(LOCAL_5)
    expected = build("C4", l=2, r=3).code.parity_check()
    assert blockdiag == expected  # the 4x10 local part of the r=3, delta=3 family
    assert Mat4([[gf4.W]]).kron(Mat4([[1, 1]])) == Mat4([[gf4.W, gf4.W]])


def test_assemble_blocks():
    i2 = Mat4.identity(2)
    z = Mat4.zeros(2, 2)
    assert vstack([hstack([i2, z]), hstack([z, i2])]) == Mat4.identity(4)
    assert vstack([hstack([i2])]) == i2
    h = build("C1", l=3).code.parity_check()
    assert h.shape == (6, 14)
    with pytest.raises(ShapeError):
        vstack([i2, Mat4.zeros(2, 3)])
    with pytest.raises(ShapeError):
        hstack([i2, Mat4.zeros(3, 3)])


def test_empty_blocks_degenerate_cleanly():
    # l = 2 layout: zero-width and zero-height blocks vanish
    h2 = build("C1", l=2).code.parity_check()
    assert h2.shape == (4, 9)
    assert Mat4.identity(0).kron(LOCAL_5).shape == (0, 0)


def test_rank_transpose_invariance_random():
    rng = random.Random(0)
    for _ in range(100):
        m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        assert m.rank() == m.transpose().rank()


def test_kernel_orthogonal_and_independent_random():
    rng = random.Random(1)
    for _ in range(100):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 9))
        k = m.right_kernel()
        assert k.rows == m.cols - m.rank()
        if k.rows:
            assert (m @ k.transpose()).is_zero()
            assert k.rank() == k.rows


def test_rref_idempotent_random():
    rng = random.Random(2)
    for _ in range(100):
        m = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 9))
        r1, piv1 = m.rref()
        r2, piv2 = r1.rref()
        assert r1 == r2 and piv1 == piv2
        assert list(piv1) == sorted(piv1)


def test_kron_rank_multiplicative_random():
    rng = random.Random(3)
    for _ in range(40):
        a = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        b = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert a.kron(b).rank() == a.rank() * b.rank()


def test_matmul_against_scalar_definition():
    rng = random.Random(4)
    for _ in range(20):
        a = random_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        b = random_matrix(rng, a.cols, rng.randrange(1, 5))
        c = a @ b
        for i in range(a.rows):
            for j in range(b.cols):
                acc = 0
                for t in range(a.cols):
                    acc ^= gf4.mul(int(a[i, t]), int(b[t, j]))
                assert int(c[i, j]) == acc


def span_by_product(m):
    """Reference: each combination of the rows, scalar by scalar, in product order."""
    words = []
    for scalars in product(gf4.ELEMENTS, repeat=m.rows):
        vec = [0] * m.cols
        for lam, row in zip(scalars, m.array):
            vec = [v ^ gf4.mul(lam, int(x)) for v, x in zip(vec, row)]
        words.append(vec)
    return words


def test_span_words_against_product_loop():
    rng = random.Random(6)
    r = random_matrix(rng, 1, 5)
    s = random_matrix(rng, 1, 5)
    cases = [
        Mat4.zeros(0, 5),  # one word, the zero word
        Mat4.zeros(0, 0),
        Mat4.zeros(3, 0),  # 64 empty words
        vstack([r, Mat4([[gf4.W]]).kron(r), r + s, s]),  # dependent rows
    ]
    for _ in range(60):
        rows, cols = rng.randrange(0, 5), rng.randrange(0, 7)
        cases.append(Mat4.zeros(0, cols) if rows == 0 else random_matrix(rng, rows, cols))
    # tables large enough that the row order of the build matters
    cases += [random_matrix(rng, rows, rng.randrange(1, 7)) for rows in (5, 6, 7)]
    for m in cases:
        words = m.span_words()
        assert words.dtype == np.uint8 and words.shape == (4 ** m.rows, m.cols)
        assert words.tolist() == span_by_product(m)


def test_packed_eliminator_matches_dense_rank():
    rng = random.Random(5)
    for _ in range(200):
        m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        e = Eliminator()
        for v in pack_columns(m):
            e.push(v)
        assert e.rank == m.rank()


def test_eliminator_push_pop_round_trip():
    m = Mat4.from_string("1 w W / 0 1 1 / 1 0 w")
    cols = pack_columns(m)
    e = Eliminator()
    assert e.push(cols[0]) and e.rank == 1
    assert e.push(cols[1]) and e.rank == 2
    e.pop()
    assert e.rank == 1
    e.push(cols[1])
    e.push(cols[2])
    assert e.rank == m.rank()
    # dependent columns must not grow the rank, and pop must undo cleanly
    e2 = Eliminator()
    assert e2.push((1, 1))  # the vector (w2,) in a length-1 space
    assert not e2.push((1, 0))  # (w,) is a multiple of it
    e2.pop()
    e2.pop()
    assert e2.rank == 0


@given(st.data())
def test_eliminator_matches_dense_rank_under_push_pop(data):
    length = data.draw(st.integers(1, 12), label="length")
    # a vector is drawn as its base-4 digits; clearing the low digits gives
    # high leads, below which later vectors start
    digits = st.integers(0, 4**length - 1)
    vector = st.one_of(
        digits,
        st.builds(lambda x, j: x >> 2 * j << 2 * j, digits, st.integers(0, length - 1)),
        st.just(0),
    ).map(lambda x: [x >> 2 * i & 3 for i in range(length)])
    pushed: list[list[int]] = []
    stack: list[list[int]] = []
    ranks = [0]  # ranks[i]: Mat4.rank of the first i vectors of the stack
    e = Eliminator()
    for _ in range(data.draw(st.integers(1, 40), label="steps")):
        step = data.draw(st.sampled_from(("push", "repeat", "multiple", "pop")))
        if step == "pop" and stack:
            stack.pop()
            ranks.pop()
            e.pop()
            assert e.rank == ranks[-1]
            continue
        if step == "repeat" and pushed:
            v = data.draw(st.sampled_from(pushed))
        elif step == "multiple" and stack:
            lam = data.draw(st.sampled_from(gf4.NONZERO))
            v = [gf4.mul(lam, x) for x in data.draw(st.sampled_from(stack))]
        else:
            v = data.draw(vector)
        stack.append(v)
        pushed.append(v)
        ranks.append(Mat4(stack).rank())
        assert e.push(pack_rows(Mat4([v]))[0]) == (ranks[-1] > ranks[-2])
        assert e.rank == ranks[-1]


def test_entry_validation():
    # non-integral entries are refused, not truncated; a cast would also
    # wrap an int64 256 to 0
    for bad in ([[0, 4]], [[-1]], [[256]], [[1.5, 2.9]], [[float("nan")]], [[float("inf")]],
                [[Fraction(3, 2)]], [[2**70]], np.array([[256]], dtype=np.int64),
                [[2, True]], np.array([[True]])):
        with pytest.raises(ValueError, match="GF\\(4\\) elements"):
            Mat4(bad)
    # integral values of any numeric type are the field elements they name
    for good in ([[2.0, 1]], np.array([[2, 1]]), [[np.int64(2), Fraction(1)]]):
        assert Mat4(good) == Mat4([[2, 1]])
    with pytest.raises(ShapeError):
        Mat4.from_string("1 0 / 1")


def test_matrix_data_must_be_rows_of_equal_length():
    # a flat list and ragged rows name what was given; no rows is 0 x 0
    for bad in ([1, 2, 3], [[1, 2], [3]]):
        with pytest.raises(ShapeError, match=re.escape(repr(bad))):
            Mat4(bad)
    assert Mat4([]).shape == (0, 0)


@given(st.data())
def test_reduce_by_leaves_zero_exactly_on_dependent_vectors(data):
    length = data.draw(st.integers(1, 8), label="length")
    row = st.lists(st.integers(0, 3), min_size=length, max_size=length)
    base = data.draw(st.lists(row, min_size=1, max_size=4), label="base")
    # each vector is a combination of a few base vectors, so the list has
    # dependencies of every kind: zero, repeated, scaled and summed
    coeffs = st.lists(st.integers(0, 3), min_size=len(base), max_size=len(base))
    combos = data.draw(st.lists(coeffs, min_size=1, max_size=10), label="coeffs")
    packed = pack_rows(Mat4(combos) @ Mat4(base))
    # pick each vector in turn as the next pivot, as the locality search
    # does: a growing pick pushes its reduced vector and reduces the rest
    tags = list(range(len(packed)))
    later = list(packed)
    e = Eliminator()
    while later:
        for t, (hi, lo) in zip(tags, later):
            assert e.push(packed[t]) == bool(hi | lo)
            e.pop()
        if e.push(later[0]):
            later = e.reduce(later[1:])
        else:
            later = later[1:]
        tags = tags[1:]


def rref_reference(a):
    """Definition-direct RREF: for each column left to right, the first
    nonzero row at or below the next pivot row is swapped up, scaled to 1
    and used to clear the column in every other row."""
    a = a.copy()
    m, n = a.shape
    pivots = []
    prow = 0
    for col in range(n):
        if prow >= m:
            break
        nz = np.nonzero(a[prow:, col])[0]
        if nz.size == 0:
            continue
        pick = prow + int(nz[0])
        a[[prow, pick]] = a[[pick, prow]]
        a[prow] = gf4.MUL_NP[gf4.inv(int(a[prow, col])), a[prow]]
        for r in range(m):
            if r != prow and a[r, col]:
                a[r] ^= gf4.MUL_NP[int(a[r, col]), a[prow]]
        pivots.append(col)
        prow += 1
    return a, tuple(pivots)


def bit_planes(vector):
    """(hi, lo): bit i holds the high / low bit of entry i."""
    hi = sum((int(x) >> 1) << i for i, x in enumerate(vector))
    lo = sum((int(x) & 1) << i for i, x in enumerate(vector))
    return hi, lo


@st.composite
def echelon_cases(draw):
    """Matrices up to 14 x 130 (rows cross the 64-bit word), with planted
    dependent rows, zero columns and sparse entries."""
    rows = draw(st.integers(0, 14), label="rows")
    cols = draw(st.integers(0, 130), label="cols")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    a = rng.integers(0, 4, (rows, cols), dtype=np.uint8)
    a[rng.random((rows, cols)) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0
    for r in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=4)):
        if r:  # row r becomes a combination of the rows above it
            lam = rng.integers(0, 4, r, dtype=np.uint8)
            a[r] = np.bitwise_xor.reduce(gf4.MUL_NP[lam[:, None], a[:r]], axis=0)
    for c in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=6)):
        if cols:
            a[:, c] = 0
    return Mat4(a)


@given(echelon_cases())
@example(Mat4.zeros(0, 0))
@example(Mat4.zeros(0, 70))
@example(Mat4.zeros(3, 0))
@example(Mat4.zeros(2, 66))
@example(Mat4([[0, 0, 2, 3]] * 2))
def test_packed_echelon_matches_reference_rref(m):
    ref, pivots = rref_reference(m.array)
    rank = len(pivots)
    rows = pack_rows(m)
    assert rows == [bit_planes(row) for row in m.array]
    assert pack_columns(m) == [bit_planes(col) for col in m.array.T]
    assert np.array_equal(unpack(rows, m.cols), m.array)
    assert echelon(rows) == list(pivots)
    assert np.array_equal(unpack(rows, m.cols), ref)

    r, piv = m.rref()
    assert piv == pivots and r == Mat4(ref)
    assert m.rank() == rank
    assert m.row_basis() == Mat4(ref[:rank])
    free = [c for c in range(m.cols) if c not in pivots]
    kernel = np.zeros((len(free), m.cols), dtype=np.uint8)
    for i, f in enumerate(free):
        kernel[i, f] = 1
        kernel[i, list(pivots)] = ref[:rank, f]
    k = m.right_kernel()
    assert k == Mat4(kernel)
    assert (m @ k.transpose()).is_zero()
    for out in (r, m.row_basis(), k):
        assert out.array.dtype == np.uint8 and not out.array.flags.writeable
