import hashlib
import random
import re
from itertools import combinations, product

import numpy as np
import pytest

from lrc4 import gf4
from lrc4._gf4vec import coordinates, dots, pack, pack_word, unpack
from lrc4.constructions import acceptance_sweep, build
from lrc4.mat4 import Mat4
from lrc4.repair import (
    ErasurePattern,
    _solve_group,
    encode,
    erasure_tolerance_ok,
    local_repair,
    random_message,
    random_tolerable_pattern,
)


def test_encode_zero_message():
    bc = build("C4", l=2, r=3)
    assert encode(bc, [0] * bc.code.k) == [0] * bc.code.n


def test_encode_unit_message_gives_generator_row():
    bc = build("C6", l=2)
    g = bc.code.generator()
    msg = [1] + [0] * (bc.code.k - 1)
    assert encode(bc, msg) == list(g.row(0))


def test_encode_satisfies_parity():
    bc = build("C1", l=2, variant="b")
    rng = random.Random(0)
    h = bc.code.parity_check()
    for _ in range(20):
        word = encode(bc, random_message(bc, rng))
        for i in range(h.rows):
            from lrc4 import gf4
            acc = 0
            for j, x in enumerate(word):
                acc ^= gf4.mul(int(h[i, j]), x)
            assert acc == 0


def test_encode_length_mismatch():
    bc = build("C4", l=2, r=3)
    with pytest.raises(ValueError):
        encode(bc, [0] * (bc.code.k + 1))


def test_encode_rejects_non_field_symbols():
    bc = build("C4", l=2, r=3)
    for bad in (4, -1, 256, 1.5):
        with pytest.raises(ValueError, match="GF\\(4\\) elements"):
            encode(bc, [bad] + [0] * (bc.code.k - 1))
    # an integral value of another numeric type is the symbol it names
    assert encode(bc, [1.0] + [0] * (bc.code.k - 1)) == encode(bc, [1] + [0] * (bc.code.k - 1))


def encode_codes():
    """The acceptance-sweep codes, C17G l = 8 and 17, and the unpartitioned C19 d = 9."""
    codes = [build(cid, **kw) for cid, kw in acceptance_sweep()]
    return codes + [build("C17G", l=8), build("C17G", l=17), build("C19", d=9)]


def test_encode_matches_the_mat4_product():
    # the second route is the product of the message as a 1 x k Mat4 with
    # the generator; every unit message times 1, w and w^2 is one scaled row
    rng = random.Random(41)
    for bc in encode_codes():
        k, g = bc.code.k, bc.code.generator()
        msgs = [[0] * k]
        msgs += [[x if j == i else 0 for j in range(k)] for i in range(k) for x in gf4.NONZERO]
        msgs += [random_message(bc, rng) for _ in range(8)]
        for m in msgs:
            word = encode(bc, m)
            assert word == list((Mat4([m]) @ g).row(0)), (bc.construction, bc.params, m)
            assert all(type(x) is int for x in word)
            assert not any(dots(bc.profile.words, pack(np.array([word], dtype=np.uint8))[0]))


def test_encode_checks_length_then_symbols():
    bc = build("C4", l=2, r=3)
    k = bc.code.k
    with pytest.raises(ValueError, match=f"message length {k + 1} != k = {k}"):
        encode(bc, [7, -1] + [0] * (k - 1))
    # checked before the uint8 cast, which would wrap -1 to 255 and 256 to 0
    for bad in (-1, 256):
        with pytest.raises(ValueError, match=r"matrix entries must be integers 0\.\.3"):
            encode(bc, [0] * (k - 1) + [bad])
    want = encode(bc, [2] + [0] * (k - 1))
    assert want == gf4.MUL_NP[2, bc.code.generator().array[0]].tolist()
    for two in (np.int64(2), 2.0):
        assert encode(bc, [two] + [0] * (k - 1)) == want


def test_random_tolerable_pattern_draws_as_the_per_group_check():
    # the second route checks each coordinate's groups with all(), drawing
    # one random() per coordinate whose groups all have room, in shuffled order
    def oracle(bc, rng):
        counts, erased = [0] * bc.profile.l, set()
        coords = list(range(1, bc.code.n + 1))
        rng.shuffle(coords)
        for c in coords:
            held = bc.profile.groups_of[c - 1]
            if all(counts[gi] < bc.delta - 1 for gi in held) and rng.random() < 0.6:
                erased.add(c)
                for gi in held:
                    counts[gi] += 1
        return ErasurePattern(frozenset(erased))

    for seed, bc in enumerate(encode_codes()):
        mine, theirs = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert random_tolerable_pattern(bc, mine) == oracle(bc, theirs)
        assert mine.random() == theirs.random()  # the same number of draws


def test_zero_erasures_is_identity():
    bc = build("C4", l=2, r=3)
    word = encode(bc, [1, 2, 3, 0, 1, 2])
    out = local_repair(bc, list(word))
    assert out.ok and out.codeword == word and out.trace == []


def test_all_tolerable_patterns_recover_c4():
    bc = build("C4", l=2, r=3)
    rng = random.Random(1)
    word = encode(bc, random_message(bc, rng))
    supports = [sorted(g.support) for g in bc.profile.groups]
    patterns = []
    for a in range(3):
        for b in range(3):
            for left in combinations(supports[0], a):
                for right in combinations(supports[1], b):
                    patterns.append(ErasurePattern.of(left + right))
    assert len(patterns) == (1 + 5 + 10) ** 2
    for pattern in patterns:
        out = local_repair(bc, pattern.apply(word))
        assert out.ok and out.codeword == word


def test_over_tolerance_reports_local_failure():
    bc = build("C4", l=2, r=3)  # delta = 3 tolerates 2 erasures per group
    word = encode(bc, [1, 0, 2, 3, 1, 1])
    pattern = ErasurePattern.of([1, 2, 3])  # three erasures inside group 1
    assert not erasure_tolerance_ok(bc, pattern)
    out = local_repair(bc, pattern.apply(word))
    assert not out.ok
    assert {c for c, _ in out.failures} == {1, 2, 3}
    for _, reason in out.failures:
        assert "exceed" in reason


def test_corrupted_symbol_in_repaired_group_is_inconsistent():
    bc = build("C4", l=2, r=3)
    received = ErasurePattern.of([1]).apply(encode(bc, [1, 0, 2, 3, 1, 1]))
    received[1] ^= 1  # coordinate 2 shares group 1 with the erasure
    out = local_repair(bc, received)
    assert not out.ok
    assert out.failures == [(1, "local solve inconsistent in groups [1]")]


def test_corrupted_symbol_outside_repaired_groups_is_not_a_codeword():
    bc = build("C4", l=2, r=3)
    received = ErasurePattern.of([1]).apply(encode(bc, [1, 0, 2, 3, 1, 1]))
    received[5] ^= 1  # coordinate 6 lies in group 2, which needs no repair
    with pytest.raises(ValueError, match="not a codeword"):
        local_repair(bc, received)


def test_peeling_across_overlapping_groups():
    bc = build("C1", l=2, variant="b")  # supports {1..5} and {5..9}
    word = encode(bc, [1, 2, 3, 0, 2])
    # group 1 sees three erasures until group 2 repairs coordinate 5
    pattern = ErasurePattern.of([1, 2, 5])
    out = local_repair(bc, pattern.apply(word))
    assert out.ok and out.codeword == word
    assert out.trace[0].group == 2 and out.trace[0].solved == (5,)
    assert out.trace[1].group == 1 and out.trace[1].solved == (1, 2)


def test_access_bound_and_reads_stay_in_group():
    bc = build("C11", l=2, r=3)
    rng = random.Random(2)
    cap = bc.r + bc.delta - 2
    for _ in range(200):
        word = encode(bc, random_message(bc, rng))
        pattern = random_tolerable_pattern(bc, rng)
        out = local_repair(bc, pattern.apply(word))
        assert out.ok and out.codeword == word
        for step in out.trace:
            support = bc.profile.groups[step.group - 1].support
            assert set(step.reads) <= support
            assert len(step.reads) <= cap
            assert set(step.solved) <= support


def test_repair_is_deterministic():
    bc = build("C6", l=3)
    word = encode(bc, [1, 3, 2, 0, 1, 2, 3, 0])
    pattern = ErasurePattern.of([2, 3, 6, 11])
    out1 = local_repair(bc, pattern.apply(word))
    out2 = local_repair(bc, pattern.apply(word))
    assert out1.ok and out1.codeword == out2.codeword and out1.trace == out2.trace


def test_erased_coordinates_range_checked():
    bc = build("C4", l=2, r=1)
    word = encode(bc, [1] * bc.code.k)
    n = bc.code.n
    for coords, bad in (([0], [0]), ([n + 1], [n + 1]), ([1, -2], [-2]), ([n + 2, 0, 1], [0, n + 2])):
        message = re.escape(f"coordinates out of range 1..{n}: {bad}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErasurePattern.of(coords).apply(word)
        with pytest.raises(ValueError, match=f"^{message}$"):
            erasure_tolerance_ok(bc, ErasurePattern.of(coords))
    # a non-integral coordinate is refused, not truncated to coordinate 1,
    # and so is a bool, not read as coordinate 1
    for coords in ([1.5], [2, 1.5], [True], [2, np.bool_(False)]):
        message = re.escape(f"coordinates must be integers, got {coords}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ErasurePattern.of(coords)
        message = re.escape(f"coordinates must be integers, got {list(frozenset(coords))}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            erasure_tolerance_ok(bc, ErasurePattern(frozenset(coords)))
    assert ErasurePattern.of([2.0, 1]) == ErasurePattern.of([1, 2])
    # and so is a non-integral codeword entry, which read as [None, 1, 2]
    with pytest.raises(ValueError, match="codeword entries must be integers"):
        ErasurePattern.of([1]).apply([0, 1.5, 2])
    assert ErasurePattern.of([1]).apply([0, 1.0, np.int64(2)]) == [None, 1, 2]


def test_received_symbols_checked():
    bc = build("C1", l=2, variant="a")
    word = encode(bc, [1] * bc.code.k)
    for bad in (7, -1, 1.5):
        received = [None] + word[1:]
        received[3] = bad
        with pytest.raises(ValueError, match="not GF"):
            local_repair(bc, received)
    # an integral float is the symbol it names
    received = [None] + [float(x) for x in word[1:]]
    assert local_repair(bc, received).codeword == word


def test_field_elements_follow_one_rule():
    # a received word, a codeword, a message and a matrix take the same
    # symbols: a value equal to one of 0..3 that is no bool
    bc = build("C4", l=2, r=3)
    word = encode(bc, [1] + [0] * (bc.code.k - 1))
    for bad in (True, np.bool_(True), 7, -1, 1.5, "1"):
        received = [None] + word[1:]
        received[1] = bad
        with pytest.raises(ValueError, match=r"received symbols must be integers 0\.\.3; \[.*\] are not GF"):
            local_repair(bc, received)
        with pytest.raises(ValueError, match=r"codeword entries must be integers 0\.\.3"):
            ErasurePattern.of([1]).apply(received[1:2] + word[1:])
        with pytest.raises(ValueError, match=r"matrix entries must be integers 0\.\.3"):
            encode(bc, [bad] + [0] * (bc.code.k - 1))
        with pytest.raises(ValueError, match=r"matrix entries must be integers 0\.\.3"):
            Mat4([[bad, 2.0]])
    same = [np.int64(x) if i % 2 else float(x) for i, x in enumerate(word)]
    assert ErasurePattern.of([1]).apply(same) == [None] + word[1:]
    assert local_repair(bc, [None] + same[1:]).codeword == word
    assert encode(bc, [1.0] + [np.uint8(0)] * (bc.code.k - 1)) == word
    assert Mat4([[np.int64(1), 2.0]]) == Mat4([[1, 2]])


def test_received_length_checked():
    bc = build("C4", l=2, r=3)
    with pytest.raises(ValueError):
        local_repair(bc, [0] * (bc.code.n + 1))


def small_sweep_codes():
    """Acceptance-sweep codes with k <= 6: all 4^k codewords enumerate fast."""
    codes = (build(cid, **kw) for cid, kw in acceptance_sweep())
    return [bc for bc in codes if bc.code.k <= 6]


def test_local_repair_matches_exhaustive_decoding():
    rng = random.Random(7)
    for bc in small_sweep_codes():
        words = bc.code.generator().span_words()
        for _ in range(5):
            word = words[rng.randrange(len(words))].tolist()
            pattern = random_tolerable_pattern(bc, rng)
            out = local_repair(bc, pattern.apply(word))
            kept = [i for i in range(bc.code.n) if i + 1 not in pattern.erased]
            agree = (words[:, kept] == np.array(word)[kept]).all(axis=1)
            # the unerased symbols pin down exactly one codeword
            assert out.ok and words[agree].tolist() == [out.codeword]


def group_syndrome(h, row, support, word):
    acc = 0
    for c in support:
        acc ^= gf4.mul(int(h[row - 1, c - 1]), word[c - 1])
    return acc


def test_solve_group_inconsistent_exactly_without_a_completion():
    rng = random.Random(8)
    verdicts = set()
    for bc in small_sweep_codes():
        h = bc.profile.matrix
        words = bc.code.generator().span_words()
        for _ in range(4):
            gi = rng.randrange(bc.profile.l)
            grp = bc.profile.groups[gi]
            support = sorted(grp.support)
            unknowns = sorted(rng.sample(support, rng.randrange(1, bc.delta)))
            word = words[rng.randrange(len(words))].tolist()
            bad = rng.choice([c for c in support if c not in unknowns])
            word[bad - 1] ^= rng.randrange(1, 4)  # one corrupted symbol in the group
            for c in unknowns:
                word[c - 1] = None
            fits = []
            for values in product(gf4.ELEMENTS, repeat=len(unknowns)):
                full = list(word)
                for c, x in zip(unknowns, values):
                    full[c - 1] = x
                if not any(group_syndrome(h, r, support, full) for r in grp.rows):
                    fits.append(dict(zip(unknowns, values)))
            hi, lo, unknown = pack_word(word)
            solved = _solve_group(bc.profile.local_rows[gi], (hi, lo), unknown)
            verdicts.add(solved if isinstance(solved, str) else "solved")
            if not fits:
                assert solved == "inconsistent"
            elif len(fits) == 1:
                assert solved == fits[0]
            else:
                assert solved == "underdetermined"
    assert verdicts == {"inconsistent", "solved"}


def seeded_repairs():
    """Seeded local_repair calls on the sweep codes, C17G l = 8 and the
    unpartitioned C19 d = 9: per code, tolerable patterns, patterns one
    erasure past a group's tolerance, and patterns with one corrupted
    symbol inside a group that holds an erasure.  Yields each
    pattern with its tolerance verdict and the repair's outcome, or the
    message of the ValueError it raised."""
    codes = [build(cid, **kw) for cid, kw in acceptance_sweep()]
    codes += [build("C17G", l=8), build("C19", d=9)]
    rng = random.Random(1919)
    for bc in codes:
        for trial in range(24):
            pattern = random_tolerable_pattern(bc, rng)
            yield "pattern", sorted(pattern.erased)
            word = encode(bc, random_message(bc, rng))
            grp = bc.profile.groups[rng.randrange(bc.profile.l)]
            erased = set(pattern.erased)
            kind = trial % 3
            if kind == 1:  # over tolerance in grp
                spare = sorted(grp.support - erased)
                rng.shuffle(spare)
                while len(erased & grp.support) < bc.delta:
                    erased.add(spare.pop())
            elif kind == 2 and not erased & grp.support:
                erased.add(rng.choice(sorted(grp.support)))
            pattern = ErasurePattern.of(erased)
            received = pattern.apply(word)
            if kind == 2:  # one corrupted symbol in a group with an erasure
                bad = rng.choice(sorted(grp.support - erased))
                received[bad - 1] ^= rng.randrange(1, 4)
            yield "tolerable", erasure_tolerance_ok(bc, pattern)
            try:
                out = local_repair(bc, received)
            except ValueError as exc:
                yield "raised", str(exc)
                continue
            steps = [(s.group, s.solved, s.reads) for s in out.trace]
            yield "outcome", (out.ok, out.codeword, steps, out.failures)


KINDS = {"pattern": 1896, "tolerable": 1896, "ok": 909, "exceed": 532, "inconsistent": 251,
         "raised": 204}
PATTERNS_SHA256 = "7880ad927f394d5526291da416a0b6434ad091cf89a4d7ce6f1ca5a96cc364f7"
REPAIRS_SHA256 = "92fceb5c20111536274082fa72daa329621711800f89c46eb9d624206e8d4c89"


def test_seeded_repairs_are_pinned():
    # recorded with the per-repair numpy implementation, whose outputs these pin
    patterns, repairs = hashlib.sha256(), hashlib.sha256()
    kinds = {}
    for kind, value in seeded_repairs():
        (patterns if kind == "pattern" else repairs).update(repr((kind, value)).encode())
        if kind == "outcome":
            ok, _, _, failures = value
            kind = "ok" if ok else "inconsistent" if "inconsistent" in failures[0][1] else "exceed"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == KINDS
    assert patterns.hexdigest() == PATTERNS_SHA256
    assert repairs.hexdigest() == REPAIRS_SHA256


@pytest.mark.parametrize("cid,kw", [
    ("C1", {"l": 2, "variant": "b"}),  # coordinate 5 lies in groups 1 and 2
    ("C19", {"d": 9}),  # an augmented (unpartitioned) constraint stack
    ("C17G", {"l": 8}),
])
def test_group_view_matches_its_profile(cid, kw):
    bc = build(cid, **kw)
    profile, n = bc.profile, bc.code.n
    h = profile.matrix.array
    fields = (profile.words, profile.masks, profile.local_rows, profile.groups_of)
    again = (profile.words, profile.masks, profile.local_rows, profile.groups_of)
    assert all(a is b for a, b in zip(fields, again))  # compiled once
    for gi, grp in enumerate(profile.groups):
        cols = np.array(sorted(grp.support))
        assert coordinates(profile.masks[gi]) == cols.tolist()
        local = unpack(list(profile.local_rows[gi]), n)
        rows = np.array(grp.rows)
        assert (local[:, cols - 1] == h[rows - 1][:, cols - 1]).all()
        assert (local == h[rows - 1]).all()  # zero off the group's columns
    for c in range(1, n + 1):
        holding = [gi for gi, g in enumerate(profile.groups) if c in g.support]
        assert profile.groups_of[c - 1] == tuple(holding)
    if kw.get("variant") == "b":
        assert profile.groups_of[4] == (0, 1)
    else:
        assert profile.partitioned == (cid != "C19")

    # the packed inner products against numpy's syndromes, row by row and
    # over the whole matrix, on random words and on codewords
    assert profile.words == tuple(pack(h))
    rng = np.random.default_rng(19)
    words = rng.integers(0, 4, size=(200, n), dtype=np.uint8)
    msgs = rng.integers(0, 4, size=(50, bc.code.k))
    codewords = np.array([encode(bc, m) for m in msgs], dtype=np.uint8)
    for x in (words, codewords):
        syndromes = np.bitwise_xor.reduce(gf4.MUL_NP[h[None, :, :], x[:, None, :]], axis=2)
        zero = syndromes == 0
        packed = pack(x)
        assert [dots(profile.words, v) for v in packed] == syndromes.tolist()
        assert [[not any(dots((row,), v)) for row in profile.words] for v in packed] == zero.tolist()
        assert [not any(dots(profile.words, v)) for v in packed] == zero.all(axis=1).tolist()
    assert zero.all() and codewords.any()



def test_tolerance_count_by_masks_matches_the_per_coordinate_count():
    # in the b variants groups 1 and 2 share a coordinate, whose erasure
    # counts in both; the mask count must agree with counting coordinate
    # by coordinate through groups_of
    rng = random.Random(7)
    seen, shared = set(), 0
    for cid, kw in acceptance_sweep():
        if kw.get("variant") != "b":
            continue
        bc = build(cid, **kw)
        profile = bc.profile
        for _ in range(40):
            p = rng.random() * 0.6
            erased = frozenset(c for c in range(1, bc.code.n + 1) if rng.random() < p)
            counts = [0] * profile.l
            for c in erased:
                for gi in profile.groups_of[c - 1]:
                    counts[gi] += 1
            want = all(k <= bc.delta - 1 for k in counts)
            assert erasure_tolerance_ok(bc, ErasurePattern(erased)) == want, (cid, kw, erased)
            seen.add(want)
            shared += any(len(profile.groups_of[c - 1]) > 1 for c in erased)
    assert seen == {True, False} and shared > 50
