import hashlib
import json
import random
import re

import numpy as np
import pytest

from lrc4.code import LinearCode
from lrc4.constructions import (
    C16_D6_PUNCTURE,
    C16_SELECTIONS,
    C19_PRINTED_PUNCTURES,
    G16,
    G17,
    G19,
    G19_PRINTED,
    _FORBIDDEN_COMBOS,
    acceptance_sweep,
    build,
    c17g_triples,
    catalog,
    family,
    verify_c17g_properties,
)
from lrc4.errors import CatalogError, RangeError, StructureError
from lrc4 import lrc
from lrc4.lrc import LocalitySearch, check_structure, restructure, verify_locality
from lrc4.mat4 import Mat4, vstack
from lrc4.pg import enumerate_points, normalize
from lrc4.repair import ErasurePattern
from test_classify import constructed_instances


def test_catalog_lookup_examples():
    f4 = family("4")
    assert f4.status == "constructed"
    assert f4.formulas["n"] == "l(r+2)" and f4.formulas["k"] == "rl"
    open_fam = family("33d=10")
    assert open_fam.status == "open"
    assert "4 <= l <= 9" in open_fam.valid_range
    nx = family("24d10")
    assert nx.status == "nonexistent"
    assert "intersect" in nx.note


def test_catalog_instance_statuses():
    fam = family("34l=4")
    statuses = {inst["params"]["l"]: inst["status"] for inst in fam.instances(128)}
    assert statuses[17] == "constructed"
    assert statuses[18] == "open" and statuses[20] == "open"
    open_insts = [i for i in family("33d=10").instances(128)]
    assert {i["params"]["l"] for i in open_insts} == set(range(4, 10))
    assert all(i["status"] == "open" for i in open_insts)


def test_catalog_covers_all_statuses():
    statuses = {f.status for f in catalog()}
    assert statuses == {"constructed", "open", "nonexistent"}
    with pytest.raises(CatalogError):
        family("zzz")


def _build_bytes(bc):
    mats = (bc.code.generator(), bc.code.parity_check(), bc.profile.matrix)
    return bc.construction, b"".join(repr(m.array.shape).encode() + m.array.tobytes() for m in mats)


def test_family_and_lower_case_ids_build_what_their_construction_id_builds():
    constructed = [f for f in catalog() if f.status == "constructed"]
    assert [f.id for f in catalog() if f.matrix is not None] == [f.id for f in constructed]
    cids = [f.construction for f in constructed]
    assert len(cids) == len(set(cids)) == 24
    for fam in constructed:
        params = next(fam.instances(128))["params"]  # the smallest instance
        for v in fam.variants or (None,):
            want = _build_bytes(build(fam.construction, **params, variant=v))
            for alias in (fam.id, fam.construction.lower()):
                assert _build_bytes(build(alias, **params, variant=v)) == want, (alias, v)
    # an open or nonexistent entry has no matrix, so it names no construction
    for fid, kw in (("33d=10", {"l": 4}), ("d3-t3", {})):
        with pytest.raises(CatalogError, match=f"unknown construction '{fid}'"):
            build(fid, **kw)


def test_build_parameter_validation():
    cases = [
        ("C1", {"l": 1}, "C1 needs l >= 2, got l=1"),
        ("C12", {"k": 2, "delta": 4}, "C12 needs delta >= 5, got delta=4"),
        ("C14", {"k": 4, "delta": 3}, "C14 needs 2 <= k <= 3, got k=4"),
        ("C16", {"d": 4}, "C16 needs 5 <= d <= 12, got d=4"),
        ("C16", {"d": 13}, "C16 needs 5 <= d <= 12, got d=13"),
        ("C17G", {"l": 3}, "C17G needs 4 <= l <= 20, got l=3"),
        ("C17G", {"l": 21}, "C17G needs 4 <= l <= 20, got l=21"),
        ("C17G", {"l": 18}, "C17G l=18 is open: "),
        ("C4", {"l": 2, "r": 4}, "C4 needs 1 <= r <= 3, got r=4"),
        ("C4", {"l": 2, "k": 8}, "C4 needs 1 <= r <= 3, got r=4"),
        ("C6", {"l": 2, "variant": "b"}, "C6 has no variant 'b'"),
        ("C1", {"l": 2, "variant": "c"}, "C1 has no variant 'c'"),
        ("C12", {"k": 2, "delta": 5, "l": 7}, "C12 takes no parameter l"),
        ("C16", {"l": 3}, "C16 takes no parameter l"),
        ("C1", {"l": 2.5}, "C1 needs an integer l, got l=2.5"),
        ("C1", {"l": None}, "C1 needs parameter l"),
        ("C1", {"l": "3"}, "C1 needs an integer l, got l='3'"),
        ("C1", {"l": True}, "C1 needs an integer l, got l=True"),
        ("C16", {"d": 11.5}, "C16 needs an integer d, got d=11.5"),
        ("C4", {"l": 2, "r": 2.5}, "C4 needs an integer r, got r=2.5"),
        ("C4", {"l": 2, "k": "6"}, "C4 needs k = r*l, got k='6', l=2"),
        ("C4", {"l": 2, "k": 6.5}, "C4 needs k = r*l, got k=6.5, l=2"),
        ("C4", {"l": 2.0, "k": 7}, "C4 needs k = r*l, got k=7, l=2"),
    ]
    for cid, kw, message in cases:
        with pytest.raises(RangeError, match=re.escape(message)):
            build(cid, **kw)
    with pytest.raises(CatalogError):
        build("C99", l=2)
    with pytest.raises(CatalogError):
        build("C99", l=2, variant="a")


def test_one_integer_rule_for_parameters_and_coordinates():
    # build() parameters, r and delta, coordinates, rows and supports all
    # follow gf4._integers: an integral value of any numeric type is the
    # int it names, and 1.5, "2" and bools are refused
    for cid, kw, want in (("C6", {"l": 3.0}, {"l": 3}), ("C16", {"d": np.float64(12)}, {"d": 12}),
                          ("C4", {"l": 2, "r": np.int64(2)}, {"l": 2, "r": 2}),
                          ("C4", {"l": 2, "k": 6.0}, {"l": 2, "r": 3})):
        bc = build(cid, **kw)
        assert bc.params == want and {type(v) for v in bc.params.values()} == {int}, kw
        assert bc.code.generator() == build(cid, **want).code.generator()
    assert ErasurePattern.of([2.0, np.int64(1)]).erased == frozenset({1, 2})
    bc = build("C6", l=3)
    found = verify_locality(bc.code, 3.0, np.int64(3))
    assert found == verify_locality(bc.code, 3, 3) and (type(found.r), type(found.delta)) == (int, int)
    bound = lrc.singleton_like_bound(15, 7, np.int64(3), 3.0)
    assert bound == lrc.singleton_like_bound(15, 7, 3, 3) and type(bound) is int
    for bad in (1.5, "2", True, [3]):
        with pytest.raises(RangeError, match="needs an integer l"):
            build("C6", l=bad)
        with pytest.raises(ValueError, match="coordinates must be integers"):
            ErasurePattern.of([bad])
        with pytest.raises(ValueError, match="r and delta must be integers"):
            verify_locality(bc.code, 3, bad)


def test_build_accepts_exactly_the_catalogue_ranges():
    for fam in catalog():
        if fam.status != "constructed":
            continue
        lows = {name: lo for name, (lo, _) in fam.ranges.items()}
        for name, (lo, hi) in fam.ranges.items():
            assert build(fam.construction, **{**lows, name: lo}).params == {**lows, name: lo}
            with pytest.raises(RangeError, match=f"got {name}={lo - 1}"):
                build(fam.construction, **{**lows, name: lo - 1})
            if hi is None:
                continue
            top = hi
            while fam._status_at({**lows, name: top}) != "constructed":
                with pytest.raises(RangeError, match="is open"):
                    build(fam.construction, **{**lows, name: top})
                top -= 1
            assert build(fam.construction, **{**lows, name: top}).params == {**lows, name: top}
            with pytest.raises(RangeError, match=f"got {name}={hi + 1}"):
                build(fam.construction, **{**lows, name: hi + 1})


def _formula_value(text: str, params: dict) -> int | None:
    """A catalogue formula such as '5l-1', 'l(r+2)' or '(k+1)delta' at the
    family's defining parameters; None for a range such as '5..12'."""
    if any(op in text for op in ("..", "<", ">", "=")):
        return None
    tokens = re.findall(r"\d+|delta|[a-z]|[()+*-]", text)
    assert "".join(tokens) == text.replace(" ", ""), text
    expr = ""
    for prev, tok in zip([None] + tokens, tokens):
        # juxtaposition is multiplication: 5l, rl, l(r+2), (k+1)delta
        if prev is not None and (prev[-1].isalnum() or prev == ")") and (tok[0].isalnum() or tok == "("):
            expr += "*"
        expr += tok
    return eval(expr, {"__builtins__": {}}, dict(params))


def test_catalogue_formulas_match_the_shapes():
    # the printed n/k/d/r/delta formulas and the shape that build() and
    # classify read are two statements of each family's parameters
    checked = skipped = 0
    for fam in catalog():
        for inst in fam.instances(64):
            for name, text in fam.formulas.items():
                value = _formula_value(text, inst["params"])
                if value is None:
                    skipped += 1
                    continue
                assert value == inst[name], (fam.id, inst["params"], name, text)
                checked += 1
    assert (checked, skipped) == (2050, 335)


def test_build_examples_from_the_classification():
    bc = build("C1", l=2, variant="b")
    assert (bc.code.n, bc.code.k, bc.code.min_distance()) == (9, 5, 3)
    assert (bc.r, bc.delta) == (3, 3)
    assert bc.profile.groups[0].support & bc.profile.groups[1].support == {5}

    bc = build("C12", k=2, delta=5)
    assert (bc.code.n, bc.code.k, bc.code.min_distance()) == (10, 2, 5)
    assert (bc.r, bc.delta) == (1, 5)

    bc = build("C17G", l=4)
    assert (bc.code.n, bc.code.k) == (24, 7)
    assert (bc.r, bc.delta) == (3, 4)
    assert bc.expected.d == 12

    chain = build("C16", d=11)
    assert (chain.code.n, chain.code.k, chain.code.min_distance()) == (15, 3, 11)


def _generator_instances():
    gen_cids = {f.construction for f in catalog() if f.generator}
    return [(cid, kw) for cid, kw, _ in constructed_instances(30) if cid in gen_cids]


def test_generator_builds_reduce_once_and_keep_full_rank_matrices(monkeypatch):
    insts = _generator_instances()
    assert len(insts) == 33  # C16-C19: the catalogue has no other generator family

    def refuse(*args):
        raise AssertionError("a generator build multiplied matrices")

    for cid, kw in insts:
        with monkeypatch.context() as m:
            m.setattr(Mat4, "__matmul__", refuse)
            bc = build(cid, **kw)
        g, h = bc.code.generator(), bc.code.parity_check()
        n, k = bc.code.n, bc.code.k
        assert (g.rows, g.rank()) == (k, k), (cid, kw)
        assert (h.rows, h.rank()) == (n - k, n - k), (cid, kw)
        assert (g @ h.transpose()).is_zero(), (cid, kw)
        assert h == bc.profile.parity_check(), (cid, kw)  # the restructured H


def test_generator_builds_verify_from_their_own_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify() searched again")

    for cid, kw in _generator_instances():
        bc = build(cid, **kw)
        assert bc.search.ok and (bc.search.r, bc.search.delta) == (bc.r, bc.delta)
        want = check_structure(bc.profile)  # may search (r - 1, delta) afresh
        with monkeypatch.context() as m:
            m.setattr(lrc, "_locality_search", refuse)
            report = bc.verify()
        assert report.r_optimal is want.r_optimal is True, (cid, kw)
        assert report.notes == want.notes
        want.family, want.status = report.family, report.status
        assert report.to_json_dict() == want.to_json_dict(), (cid, kw)
    # parity-check families carry no search
    assert build("C1", l=2).search is None


def test_every_build_up_to_64_shares_its_code_with_the_profile(monkeypatch):
    insts = constructed_instances(64)
    assert len(insts) == 553
    for cid, kw, _ in insts:
        bc = build(cid, **kw)
        assert bc.profile.code is bc.code, (cid, kw)

    def refuse(*args):
        raise AssertionError("verify() reduced a matrix again")

    # so a generator build's verify() takes no kernel: build() proved it
    for cid, kw in _generator_instances():
        bc = build(cid, **kw)
        with monkeypatch.context() as m:
            m.setattr(Mat4, "right_kernel", refuse)
            assert bc.verify().all_passed, (cid, kw)


def test_c4_c11_accept_k_for_r():
    assert build("C4", l=2, k=4).r == 2
    assert build("C11", l=3, k=3).r == 1
    with pytest.raises(RangeError):
        build("C4", l=2, k=5)
    with pytest.raises(RangeError):
        build("C4", l=0, k=4)
    assert build("C4", l=2, r=2, k=4).r == 2
    with pytest.raises(RangeError, match="C4 needs k = r\\*l, got k=6, l=2, r=2"):
        build("C4", l=2, r=2, k=6)


#: SHA-256 over the generator, parity check, profile matrix and layout of
#: every build below, in catalogue order; a change to any built matrix or
#: layout changes it
BUILDS_UP_TO_64_SHA256 = "403cee608aa3bb2e67b42097f87c3ed04773a5c49057219e03a696efffd5623d"


def test_every_constructed_instance_up_to_64_matches_its_catalogue_tuple():
    builds = 0
    digest = hashlib.sha256()
    for fam in catalog():
        if fam.construction is None:
            continue
        for inst in fam.instances(64):
            if inst["status"] != "constructed":
                continue
            want = (inst["n"], inst["k"], inst["d"], inst["r"], inst["delta"])
            for v in fam.variants or (None,):
                bc = build(fam.construction, **inst["params"], variant=v)
                builds += 1
                key = (fam.construction, inst["params"], v)
                assert (bc.code.n, bc.code.k, bc.expected.d, bc.r, bc.delta) == want, key
                assert (bc.expected.n, bc.expected.k) == (bc.code.n, bc.code.k), key
                layout = [(g.rows[0], g.rows[-1]) for g in bc.profile.groups]
                if bc.profile.partitioned:
                    assert all(b - a + 1 == bc.delta - 1 for a, b in layout), key
                for m in (bc.code.generator(), bc.code.parity_check(), bc.profile.matrix):
                    digest.update(repr(m.array.shape).encode() + m.array.tobytes())
                digest.update(repr(layout).encode())
    assert builds == 553
    assert digest.hexdigest() == BUILDS_UP_TO_64_SHA256


def test_expected_parameters_match_ranks():
    for cid, kw in [("C5", {"l": 3, "variant": "b"}), ("CLS3_1", {"l": 5}),
                    ("C19", {"d": 9}), ("C13", {"k": 3, "delta": 4})]:
        bc = build(cid, **kw)
        assert bc.code.n == bc.expected.n
        assert bc.code.k == bc.expected.k == bc.code.n - bc.code.parity_check().rows


# -- puncture relationships between the families ------------------------------


def shortened_on_columns(bc, cols0):
    """Delete parity-check columns: the classification's 'puncture H'."""
    return LinearCode(pchk=bc.code.parity_check().delete_columns(cols0))


def row_space(c):
    """Canonical generator: equal for two codes iff they have the same codewords."""
    return c.generator().row_basis()


def test_c2_is_c1_with_one_column_per_group_removed():
    for l in (2, 3):
        for v in ("a", "b"):
            c1 = build("C1", l=l, variant=v)
            cols = [3, 7] + [12 + 5 * j for j in range(l - 2)]
            expected = shortened_on_columns(c1, cols)
            assert row_space(build("C2", l=l, variant=v).code) == row_space(expected)


def test_c3_is_c1_without_the_first_column():
    for l in (2, 3):
        for v in ("a", "b"):
            c1 = build("C1", l=l, variant=v)
            expected = shortened_on_columns(c1, [0])
            assert row_space(build("C3", l=l, variant=v).code) == row_space(expected)


def test_c7_is_c6_with_one_column_per_group_removed():
    for l in (2, 3):
        c6 = build("C6", l=l)
        cols = [5 * j + 4 for j in range(l)]
        assert row_space(build("C7", l=l).code) == row_space(shortened_on_columns(c6, cols))


def test_c8_is_c5_with_one_column_per_group_removed():
    for l in (2, 3):
        for v in ("a", "b"):
            c5 = build("C5", l=l, variant=v)
            cols = [4, 9] + [15 + 6 * j for j in range(l - 2)]
            assert row_space(build("C8", l=l, variant=v).code) == row_space(shortened_on_columns(c5, cols))


def test_c10_is_c5_without_the_first_column():
    for l in (2, 3):
        for v in ("a", "b"):
            c5 = build("C5", l=l, variant=v)
            assert row_space(build("C10", l=l, variant=v).code) == row_space(shortened_on_columns(c5, [0]))


def test_c4_c11_low_r_variants_come_from_r3():
    for l in (2, 3):
        c4 = build("C4", l=l, r=3)
        cols_r2 = [5 * j + 4 for j in range(l)]
        assert row_space(build("C4", l=l, r=2).code) == row_space(shortened_on_columns(c4, cols_r2))
        cols_r1 = sorted([5 * j + 3 for j in range(l)] + [5 * j + 4 for j in range(l)])
        assert row_space(build("C4", l=l, r=1).code) == row_space(shortened_on_columns(c4, cols_r1))
        c11 = build("C11", l=l, r=3)
        cols_r2 = [6 * j + 4 for j in range(l)]
        assert row_space(build("C11", l=l, r=2).code) == row_space(shortened_on_columns(c11, cols_r2))
        cols_r1 = sorted([6 * j + 4 for j in range(l)] + [6 * j + 5 for j in range(l)])
        assert row_space(build("C11", l=l, r=1).code) == row_space(shortened_on_columns(c11, cols_r1))


def test_c14_c15_smaller_k_drop_one_group():
    for cid, groups in (("C14", 5), ("C15", 6)):
        big = build(cid, k=3, delta=3).code.parity_check()
        small = build(cid, k=2, delta=3).code.parity_check()
        rows_per = 2  # delta - 1
        drop_rows = range((groups - 1) * rows_per, groups * rows_per)
        drop_cols = range((groups - 1) * 3, groups * 3)
        assert big.delete_rows(drop_rows).delete_columns(drop_cols) == small


def test_cls2_1_l4_drops_the_last_group():
    big = build("CLS2_1", l=5).code.parity_check()
    small = build("CLS2_1", l=4).code.parity_check()
    assert big.delete_rows(range(8, 10)).delete_columns(range(16, 20)) == small


# -- printed generator matrices ------------------------------------------------


def test_g16_is_g17_without_pencil_point_and_last_line():
    assert G17.take_columns(range(1, 17)) == G16


def test_g17_columns_are_all_21_points():
    cols = {normalize(tuple(int(x) for x in G17.array[:, j])) for j in range(21)}
    assert cols == set(enumerate_points(3))


def test_g19_differs_from_printed_only_in_four_top_entries():
    diff = [(i, j) for i in range(4) for j in range(18)
            if int(G19[i, j]) != int(G19_PRINTED[i, j])]
    assert diff == [(0, 10), (0, 11), (0, 16), (0, 17)]
    # the printed blocks 2 and 3 are not plane sections
    assert [G19_PRINTED.take_columns(range(b * 6, b * 6 + 6)).rank() for b in range(3)] == [3, 4, 4]
    assert [G19.take_columns(range(b * 6, b * 6 + 6)).rank() for b in range(3)] == [3, 3, 3]


def test_printed_g19_chain_reproduces_the_distances():
    # the printed matrix still gets every chain distance right, even where
    # its locality breaks; transcription-level check
    assert LinearCode(gen=G19_PRINTED).min_distance() == 12
    for d, punct in C19_PRINTED_PUNCTURES.items():
        c = LinearCode(gen=G19_PRINTED.delete_columns(i - 1 for i in punct))
        assert c.min_distance() == d


def test_printed_c16_d6_puncture_reproduces_d6():
    c = LinearCode(gen=G16.delete_columns(i - 1 for i in C16_D6_PUNCTURE))
    assert (c.n, c.k, c.min_distance()) == (10, 3, 6)


def test_c16_d6_builder_uses_covered_selection():
    bc = build("C16", d=6)
    assert (bc.code.n, bc.code.k, bc.code.min_distance()) == (10, 3, 6)
    assert 6 in C16_SELECTIONS


# -- the 17-triple table -------------------------------------------------------


def test_c17g_properties():
    assert verify_c17g_properties(17)
    assert verify_c17g_properties(4)
    # the weight-4 tails of the local kernel: 15 of PG(2,4)'s 21 points
    assert len({normalize(c) for c in _FORBIDDEN_COMBOS}) == len(_FORBIDDEN_COMBOS) == 15


def test_c17g_properties_reject_degenerate_triple():
    triples = c17g_triples(17)
    broken = [(triples[0][1], triples[0][1], triples[0][2])] + triples[1:]
    assert not verify_c17g_properties(17, triples=broken)


def test_c17g_properties_need_l_triples():
    triples = c17g_triples(17)
    with pytest.raises(RangeError, match=r"needs 5 triples, got 1"):
        verify_c17g_properties(5, triples=triples[:1])
    with pytest.raises(RangeError, match=r"needs 17 triples, got 16"):
        verify_c17g_properties(17, triples=triples[:16])
    # a longer list is cut to its first l, so a broken triple past them is not read
    broken = triples[:5] + [(triples[0][0],) * 3]
    assert verify_c17g_properties(5, triples=broken)
    assert not verify_c17g_properties(6, triples=broken)
    # l by the integer rule, and at least 1, so no call checks nothing
    for l in (0, -1):
        with pytest.raises(RangeError, match=f"needs l >= 1, got l={l}"):
            verify_c17g_properties(l, triples=triples)
    for l in (2.5, True, "5"):
        with pytest.raises(ValueError, match="l must be integers"):
            verify_c17g_properties(l, triples=triples)
        with pytest.raises(ValueError, match="l must be integers"):
            c17g_triples(l)
    assert verify_c17g_properties(5.0, triples=broken) and not verify_c17g_properties(6.0, triples=broken)
    assert c17g_triples(4.0) == triples[:4]


def c17g_properties_by_mat4(l, triples):
    """The Mat4 formulation of verify_c17g_properties: each triple's rank,
    then each flagged combination stacked under every other triple's rref
    basis, in the plane when the stack keeps rank 3."""
    triples = list(triples)[:l]
    bases = []
    for u, v, z in triples:
        m = Mat4([u, v, z])
        if m.rank() != 3:
            return False
        bases.append(m.rref()[0])
    for i, (u, v, z) in enumerate(triples):
        combos = Mat4(_FORBIDDEN_COMBOS) @ Mat4([u, v, z])
        for j, basis in enumerate(bases):
            if j == i:
                continue
            for t in range(combos.rows):
                if vstack([basis, combos.take_rows([t])]).rank() == 3:
                    return False
    return True


def test_c17g_properties_match_the_mat4_formulation():
    for l in range(4, 18):
        assert verify_c17g_properties(l) is c17g_properties_by_mat4(l, c17g_triples(l)) is True
    # single-entry mutations of the table, each entry moved to another
    # GF(4) value; the Mat4 route takes ~0.1 s a table, so 80 of them
    rng = random.Random(17)
    table = c17g_triples(17)
    verdicts = []
    for _ in range(80):
        mutated = [[list(vec) for vec in triple] for triple in table]
        vec = mutated[rng.randrange(17)][rng.randrange(3)]
        vec[rng.randrange(len(vec))] ^= rng.randrange(1, 4)
        got = verify_c17g_properties(17, triples=mutated)
        assert got is c17g_properties_by_mat4(17, mutated)
        verdicts.append(got)
    assert verdicts.count(True) >= 5 and verdicts.count(False) >= 5


def test_c17g_triples_range():
    assert len(c17g_triples(4)) == 4
    with pytest.raises(RangeError):
        c17g_triples(3)
    with pytest.raises(RangeError):
        c17g_triples(18)


def test_c1_template_bit_identity():
    from lrc4.mat4 import Mat4

    hb = build("C1", l=2, variant="b").code.parity_check()
    assert hb == Mat4.from_string(
        """
        1 0 1 1 1 0 0 0 0
        0 1 1 w W 0 0 0 0
        0 0 0 0 1 0 1 1 1
        0 0 0 0 0 1 1 w W
        """
    )
    ha = build("C1", l=2, variant="a").code.parity_check()
    assert ha.take_columns([4]).take_rows([0, 1]).is_zero()
    # the same shared coordinate on the 3-row hexacode block (C5)
    assert build("C5", l=2, variant="b").code.parity_check() == Mat4.from_string(
        """
        1 0 0 1 1 1 0 0 0 0 0
        0 1 0 1 w W 0 0 0 0 0
        0 0 1 1 W w 0 0 0 0 0
        0 0 0 0 0 1 0 0 1 1 1
        0 0 0 0 0 0 1 0 1 w W
        0 0 0 0 0 0 0 1 1 W w
        """
    )
    # and under C6's global row 1_l (x) (0 0 1 W w), which loses group 1's
    # last entry (C9); the local rows are C1's
    for v in ("a", "b"):
        h9 = build("C9", l=3, variant=v).code.parity_check()
        assert h9.take_rows(range(6)) == build("C1", l=3, variant=v).code.parity_check()
        assert h9.take_rows([6]) == Mat4.from_string("0 0 1 W 0 0 1 W w 0 0 1 W w")


def test_c6_template_bit_identity():
    from lrc4.mat4 import Mat4

    h = build("C6", l=2).code.parity_check()
    assert h == Mat4.from_string(
        """
        1 0 1 1 1 0 0 0 0 0
        0 1 1 w W 0 0 0 0 0
        0 0 0 0 0 1 0 1 1 1
        0 0 0 0 0 0 1 1 w W
        0 0 1 W w 0 0 1 W w
        """
    )


def test_c13_template_bit_identity():
    from lrc4.mat4 import Mat4

    h = build("C13", k=2, delta=3).code.parity_check()
    assert h == Mat4.from_string(
        """
        1 0 1 0 0 0 0 0 0
        0 1 1 0 0 0 0 0 0
        0 0 0 1 0 1 0 0 0
        0 0 0 0 1 1 0 0 0
        0 0 0 0 0 0 1 0 1
        0 0 0 0 0 0 0 1 1
        0 0 1 0 0 1 0 0 1
        """
    )


def test_cls1_4_template_bit_identity():
    from lrc4.mat4 import Mat4

    h = build("CLS1_4", l=3).code.parity_check()
    top = Mat4.identity(3).kron(Mat4.from_string("1 0 0 1 1 1 / 0 1 0 1 w W / 0 0 1 1 W w"))
    glob = Mat4.from_string(
        "0 0 0 1 0 W 0 0 0 1 0 W 0 0 0 1 0 W / 0 0 0 0 1 W 0 0 0 0 1 W 0 0 0 0 1 W"
    )
    from lrc4.mat4 import vstack

    assert h == vstack([top, glob])


def test_dual_route_distance_cross_check_over_sweep():
    # enumeration vs parity-column scan wherever both are affordable
    from math import comb

    for cid, kw in acceptance_sweep():
        bc = build(cid, **kw)
        c = bc.code
        if c.k > 10:
            continue
        d = bc.expected.d
        cost = sum(comb(c.n, t) for t in range(1, d + 1))
        if cost > 10 ** 6:
            continue
        assert c._min_distance_enumerate() == c._min_distance_scan() == d


def test_realized_group_count():
    from math import ceil

    from lrc4.lrc import group_count_range

    for cid, kw in acceptance_sweep():
        bc = build(cid, **kw)
        if not bc.profile.partitioned:
            continue
        lo, hi = group_count_range(bc.code.n, bc.code.k, bc.r, bc.delta)
        assert lo <= bc.profile.l <= hi, (cid, kw, bc.profile.l, (lo, hi))
        if bc.expected.d in (3, 4):
            assert bc.profile.l == ceil(bc.code.k / bc.r)


def test_derived_dimension_meets_bound_for_uv_families():
    # the n = 4l, d in {8, 12} families: dimension comes from the matrix
    # rank, and the bound holds with equality at the stated distance
    from lrc4.lrc import singleton_like_bound

    for cid, kw in (("CLS2_1", {"l": 4}), ("CLS2_1", {"l": 5}), ("CLS3_1", {"l": 5})):
        bc = build(cid, **kw)
        h = bc.code.parity_check()
        k = bc.code.n - h.rank()
        assert k == bc.code.k
        assert bc.expected.d == singleton_like_bound(bc.code.n, k, bc.r, bc.delta)


def test_blockwise_distance_matches_generic_routes():
    from lrc4.constructions import blockwise_min_distance

    cases = [
        ("C17G", {"l": 4}, 12), ("CLS2_1", {"l": 5}, 8), ("CLS3_1", {"l": 5}, 12),
        ("CLS1_3", {"l": 4}, 5), ("CLS1_4", {"l": 4}, 6), ("C6", {"l": 3}, 4),
        ("C13", {"k": 3, "delta": 4}, 8), ("C14", {"k": 3, "delta": 3}, 9),
        ("C15", {"k": 2, "delta": 4}, 16), ("C12", {"k": 3, "delta": 5}, 5),
        ("C4", {"l": 3, "r": 3}, 3), ("C11", {"l": 3, "r": 2}, 4),
    ]
    for cid, kw, expect in cases:
        bc = build(cid, **kw)
        assert blockwise_min_distance(bc) == bc.code.min_distance() == expect


def test_blockwise_distance_certifies_large_codes_exactly():
    # beyond both generic guards: the splice DP settles these in milliseconds
    from lrc4.constructions import blockwise_min_distance

    for l in range(4, 18):
        assert blockwise_min_distance(build("C17G", l=l)) == 12
    assert blockwise_min_distance(build("CLS1_3", l=12)) == 5  # [60,34,5]
    assert blockwise_min_distance(build("CLS1_4", l=10)) == 6  # [60,28,6]
    assert blockwise_min_distance(build("C6", l=10)) == 4      # [50,29,4]
    assert blockwise_min_distance(build("C12", k=8, delta=7)) == 7
    assert blockwise_min_distance(build("C13", k=6, delta=5)) == 10


def test_blockwise_distance_joins_meeting_groups_and_rejects_one_block():
    from lrc4.constructions import blockwise_min_distance

    bc = build("C1", l=2, variant="b")  # supports meet at coordinate 5: one block
    with pytest.raises(ValueError, match="the groups form one block"):
        blockwise_min_distance(bc)
    # groups 1 and 2 are joined into one block, and groups 3.. stay blocks of their own
    for l in (3, 4):
        bc = build("C1", l=l, variant="b")
        assert bc.profile.groups[0].support & bc.profile.groups[1].support
        assert blockwise_min_distance(bc) == bc.code.min_distance() == bc.expected.d == 3


def test_desk_scale_distance_settled_by_blockwise_route():
    # l = 17: n = 102, k = 46, past the scan budget and the locality-search
    # guard; the disjoint groups give the exact d by the blockwise DP, and
    # d above the (r-1, delta) bound proves r-optimality without a search
    bc = build("C17G", l=17)
    assert (bc.code.n, bc.code.k) == (102, 46)
    report = check_structure(bc.profile, scan_budget=10 ** 5)
    assert report.d == 12 and report.d_optimal is True
    assert report.r_optimal is True
    assert all(c.passed is True for c in report.checks.values())
    assert report.notes == []


def test_desk_scale_guard_degrades_gracefully(monkeypatch):
    # C5 l = 8 variant b is [47,23,4]; with the blockwise DP over its work
    # bound the router settles d, and past its budget (k > 14) the report
    # marks d indeterminate with a note while the structural checks that
    # do not need d still run, and r-optimality takes the (r-1, delta) search
    bc = build("C5", l=8, variant="b")
    assert (bc.code.n, bc.code.k) == (47, 23)
    assert check_structure(bc.profile, scan_budget=10 ** 4).d == 4  # by the DP
    monkeypatch.setattr(lrc, "BLOCKWISE_MAX_WORK", 0)
    # a tight scan budget stands in for the default 10^8 so the test is quick
    report = check_structure(bc.profile, scan_budget=10 ** 4)
    assert report.d is None and report.d_optimal is None
    assert report.r_optimal is True
    assert report.checks["h_prime_mds"].passed is None  # needs d
    assert report.checks["rows_per_group"].passed is True
    assert report.checks["punctured_mds"].passed is True
    assert report.checks["disjointness"].passed is True
    assert report.checks["distance_cap"].passed is None  # needs d
    assert [note.split(":")[0] for note in report.notes] == ["min distance not settled"]
    assert report.all_passed  # nothing failed; some verdicts deferred
    # a search over its work budget defers r-optimality too
    monkeypatch.setattr(lrc, "LOCALITY_SEARCH_MAX_WORK", 100)
    report = check_structure(bc.profile, scan_budget=10 ** 4)
    assert report.r_optimal is None
    assert any(note.startswith("r-optimality skipped: locality search stopped")
               for note in report.notes)
    assert report.all_passed
    assert check_structure(bc.profile, scan_budget=10 ** 4, search_budget=10**18).r_optimal


def test_every_family_past_n_30_verifies_from_its_generator_alone():
    # the first instance with 30 < n <= 64 of each family, both variants:
    # the budgeted search re-finds a layout from the generator, and the
    # restructured profile gets the catalogue's exact verdicts
    checked = 0
    for fam in catalog():
        if fam.status == "nonexistent" or fam.construction is None:
            continue
        inst = next((i for i in fam.instances(64)
                     if i["n"] > 30 and i["status"] == "constructed"), None)
        if inst is None:
            continue
        for v in fam.variants or (None,):
            kw = dict(inst["params"], **({"variant": v} if v else {}))
            code = LinearCode(gen=build(fam.construction, **kw).code.generator())
            found = verify_locality(code, inst["r"], inst["delta"])
            report = check_structure(restructure(code, found), search=found)
            assert report.d == inst["d"], (fam.construction, kw)
            assert report.d_optimal and report.r_optimal and report.all_passed, (fam.construction, kw)
            checked += 1
    assert checked == 25


def test_acceptance_sweep_matches_smallest_parameters():
    sweep = acceptance_sweep()
    assert ("C1", {"l": 2, "variant": "a"}) in sweep
    assert ("C17G", {"l": 4}) in sweep and ("C17G", {"l": 5}) in sweep
    assert len(sweep) == len({(cid, tuple(sorted(kw.items()))) for cid, kw in sweep})


def test_acceptance_sweep_order_is_pinned():
    # repair_sim draws its seeded trials in sweep order, so a reorder
    # moves benchmark numbers even when the membership is unchanged
    digest = hashlib.sha256(json.dumps(acceptance_sweep()).encode()).hexdigest()
    assert digest == "6f727aa543c4511facebcb159ea52c778de74d75983555244b63cf05167a5c63"


def test_build_refuses_a_generator_whose_search_fails(monkeypatch):
    # a generator family's layout comes from the search, so a search that
    # leaves coordinates bare raises the message restructure() gives
    bc = build("C16", d=12)
    n, r, delta = bc.code.n, bc.r, bc.delta

    def fail(code, r, delta, budget=None):
        return LocalitySearch(n=code.n, r=r, delta=delta, qualifying=())

    monkeypatch.setattr(lrc, "verify_locality", fail)
    with pytest.raises(StructureError) as err:
        build("C16", d=12)
    assert str(err.value) == f"coordinates {list(range(1, n + 1))} have no ({r},{delta}) repair support"
    # a parity family's layout is its printed rows, with no search
    assert build("C6", l=3).search is None
