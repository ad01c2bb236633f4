import random
from itertools import combinations

import pytest

from lrc4.code import hexacode
from lrc4.constructions import build
from lrc4.repair import (
    ErasurePattern,
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
    hx = hexacode()
    assert encode(hx, [1, 0, 0]) == [1, 0, 0, 1, 1, 1]
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
    for bad in (4, -1, 256):
        with pytest.raises(ValueError, match="GF\\(4\\) elements"):
            encode(bc, [bad] + [0] * (bc.code.k - 1))


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
    for coords in ([0], [bc.code.n + 1], [1, -2]):
        with pytest.raises(ValueError, match="out of range"):
            ErasurePattern.of(coords).apply(word)


def test_received_symbols_checked():
    bc = build("C1", l=2, variant="a")
    word = encode(bc, [1] * bc.code.k)
    for bad in (7, -1):
        received = [None] + word[1:]
        received[3] = bad
        with pytest.raises(ValueError, match="not GF"):
            local_repair(bc, received)


def test_received_length_checked():
    bc = build("C4", l=2, r=3)
    with pytest.raises(ValueError):
        local_repair(bc, [0] * (bc.code.n + 1))
