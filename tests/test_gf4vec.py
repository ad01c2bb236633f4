import numpy as np
from hypothesis import given, strategies as st

from lrc4._gf4vec import Eliminator, coordinates, echelon, mask, pack, pack_word, span
from lrc4 import gf4
from lrc4.mat4 import Mat4


@given(st.integers(0, 5), st.integers(1, 7), st.integers(0, 2**32 - 1))
def test_span_lists_span_words_packed(k, m, seed):
    # both take the first row as the most significant base-4 digit, so
    # they list the same words in the same order.  Dependent bases are
    # allowed.
    rows = np.random.default_rng(seed).integers(0, 4, size=(k, m), dtype=np.uint8)
    words = span(pack(rows))
    assert len(words) == 4**k
    assert words == pack(Mat4(rows).span_words())


@given(st.lists(st.sampled_from((0, 1, 2, 3, None)), min_size=1, max_size=130))
def test_pack_word_is_pack_with_the_erasures_at_zero(word):
    hi, lo, erased = pack_word(word)
    assert [(hi, lo)] == pack(np.array([[x or 0 for x in word]], dtype=np.uint8))
    assert erased == mask(i + 1 for i, x in enumerate(word) if x is None)


@given(st.integers(1, 130).flatmap(
    lambda n: st.tuples(st.just(n), st.frozensets(st.integers(1, n)))))
def test_mask_and_coordinates_round_trip(case):
    n, coords = case
    bits = mask(coords)
    assert bits.bit_length() <= n
    assert all(bits >> c - 1 & 1 for c in coords) and bits.bit_count() == len(coords)
    assert coordinates(bits) == sorted(coords)
    assert mask(coordinates(bits)) == bits


@given(st.lists(st.tuples(st.integers(0, 2**70), st.integers(0, 2**70)), max_size=8))
def test_seeded_eliminator_is_the_pushes_one_by_one(vectors):
    calls = []
    real = Eliminator.push

    def counted(self, v):
        calls.append(v)
        return real(self, v)

    Eliminator.push = counted
    try:
        seeded = Eliminator(vectors)
        seeded_calls = len(calls)
        calls.clear()
        pushed = Eliminator()
        grew = [pushed.push(v) for v in vectors]
    finally:
        Eliminator.push = real
    assert seeded_calls == len(calls) == len(vectors)
    assert seeded.rank == pushed.rank == sum(grew)
    # the basis is the whole state beside the lead mask: one entry per
    # push, the zero entry for a push that did not extend the rank
    assert seeded._basis == pushed._basis and seeded._leads == pushed._leads
    assert len(seeded._basis) == len(vectors)
    assert [entry != (0, 0, 0, 0) for entry in seeded._basis] == grew


class Unmasked(Eliminator):
    """``Eliminator`` with no lead mask: every push of a nonzero vector
    runs the loop over the basis."""

    _leads = property(lambda self: -1, lambda self, value: None)


vectors = st.tuples(st.integers(0, 63), st.integers(0, 63)) | st.tuples(
    st.integers(0, 2**70), st.integers(0, 2**70))


@given(st.lists(vectors | st.none(), max_size=40))
def test_lead_mask_is_the_or_of_the_basis_leads(ops):
    # None pops; the masked push must build what the unmasked one builds
    fast, slow = Eliminator(), Unmasked()
    for v in ops:
        if v is None:
            if not fast._basis:
                continue
            fast.pop()
            slow.pop()
        else:
            assert fast.push(v) == slow.push(v)
        leads = 0
        for entry in fast._basis:
            leads |= entry[0]
        assert fast._leads == leads and fast.rank == sum(entry[0] != 0 for entry in fast._basis)
        # the basis, zero entries for dependent pushes included, is the
        # whole undo record
        assert fast._basis == slow._basis


def combination(basis, coeffs):
    """sum_i coeffs[i] * basis[i], each coefficient 0..3 read as 0, 1, w, w2."""
    hi = lo = 0
    for v, c in zip(basis, coeffs):
        h, l = span([v])[c]  # the words of span([v]) are 0, v, w v, w2 v
        hi ^= h
        lo ^= l
    return hi, lo


@st.composite
def bases_and_others(draw):
    # others are random vectors or combinations of the basis vectors, so
    # they depend on it in every way: zero, repeated, scaled and summed
    basis = draw(st.lists(vectors, min_size=1, max_size=8))
    coeffs = st.lists(st.integers(0, 3), min_size=len(basis), max_size=len(basis))
    combos = coeffs.map(lambda c: combination(basis, c))
    return basis, draw(st.lists(vectors | combos, max_size=8))


@given(bases_and_others())
def test_reduce_after_each_push_reduces_by_the_whole_basis(case):
    # reducing by each new basis vector in turn leaves a vector zero at
    # every lead, so zero exactly when it is dependent, and it pushes as
    # the unreduced vector does unmasked
    basis, others = case
    elim = Eliminator()
    reduced = others
    for v in basis:
        if elim.push(v):
            reduced = elim.reduce(reduced)
    for v, w in zip(others, reduced):
        assert (w[0] | w[1]) & elim._leads == 0
        slow = Unmasked(basis)
        assert elim.push(w) == slow.push(v)
        assert elim._basis == slow._basis
        elim.pop()


def dense_echelon(rows):
    """The dense elimination loop that the lead-indexed ``echelon``
    replaced, kept as its oracle: for each pivot, the lowest column that
    is nonzero in a row not yet used, and the first such row, swapped up,
    scaled to 1 and cleared from every other row."""
    pivots = []
    m = len(rows)
    for p in range(m):
        x = 0
        for h, l in rows[p:]:
            x |= h | l
        if not x:
            break
        bit = x & -x
        i = p
        while not (rows[i][0] | rows[i][1]) & bit:
            i += 1
        hi, lo = rows[i]
        rows[i] = rows[p]
        if hi & bit:
            hi, lo = (hi ^ lo, hi) if lo & bit else (lo, hi ^ lo)
        rows[p] = (hi, lo)
        mix = hi ^ lo
        for j in range(m):
            h, l = rows[j]
            if j == p or not (h | l) & bit:
                continue
            if h & bit:
                rows[j] = (h ^ lo, l ^ mix) if l & bit else (h ^ mix, l ^ hi)
            else:
                rows[j] = (h ^ hi, l ^ lo)
        pivots.append(bit.bit_length() - 1)
    return pivots


@st.composite
def echelon_inputs(draw):
    """Packed matrices of every shape the elimination meets: dense,
    2-sparse rows, block-diagonal with the rows shuffled, rank-deficient,
    zero, repeated and scaled rows, and more rows than columns."""
    kind = draw(st.sampled_from(
        ("dense", "2-sparse", "blocks", "deficient", "zero", "repeated", "tall")), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = int(rng.integers(1, 131))  # rows cross the 64-bit word
    m = int(rng.integers(0, 13))
    if kind == "tall":
        n = int(rng.integers(1, 12))
        m = int(rng.integers(n + 1, 3 * n + 2))
    a = np.zeros((m, n), dtype=np.uint8)
    if kind in ("dense", "tall"):
        a = rng.integers(0, 4, (m, n), dtype=np.uint8)
    elif kind == "2-sparse":
        for row in a:
            row[rng.integers(0, n, 2)] = rng.integers(0, 4, 2)
    elif kind == "blocks":
        i = j = 0
        while i < m and j < n:
            b, c = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            block = a[i : i + b, j : j + c]
            block[:] = rng.integers(0, 4, block.shape)
            i, j = i + b, j + c
        rng.shuffle(a)
    elif kind == "deficient":  # every row a combination of a few base rows
        base = rng.integers(0, 4, (int(rng.integers(1, 4)), n), dtype=np.uint8)
        for row in a:
            lam = rng.integers(0, 4, len(base), dtype=np.uint8)
            row[:] = np.bitwise_xor.reduce(gf4.MUL_NP[lam[:, None], base], axis=0)
    elif kind == "repeated" and m:  # copies of a few rows, each scaled by 1, w or w2
        base = rng.integers(0, 4, (int(rng.integers(1, m + 1)), n), dtype=np.uint8)
        for row in a:
            row[:] = gf4.MUL_NP[int(rng.integers(1, 4)), base[rng.integers(0, len(base))]]
    return pack(a)


@given(echelon_inputs())
def test_echelon_matches_the_dense_loop(rows):
    # the reduced row-echelon form is unique: any elimination order that
    # ends in it, rows sorted by pivot, returns the dense loop's rows
    want = list(rows)
    pivots = dense_echelon(want)
    got = list(rows)
    assert echelon(got) == pivots
    assert got == want
