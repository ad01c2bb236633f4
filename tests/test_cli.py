import io
import json
import re

import pytest
from hypothesis import example, given, strategies as st

from lrc4.cli import FormatError, _built_comments, main, read_matrix, write_matrix
from lrc4.code import HEXACODE_GEN, LinearCode
from lrc4.constructions import acceptance_sweep, build, catalog
from lrc4.mat4 import Mat4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_round_trip(tmp_path):
    m = HEXACODE_GEN
    path = tmp_path / "hex.txt"
    with open(path, "w") as fh:
        write_matrix(fh, m, comments=["lrc4 generator family=hexacode"])
    text = path.read_text()
    assert text.endswith("\n")
    with open(path) as fh:
        back, meta = read_matrix(fh)
    assert back == m
    assert meta["family"] == "hexacode"


@st.composite
def matrices(draw):
    cols = draw(st.integers(0, 40))
    entries = st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
    rows = draw(st.lists(entries, max_size=6))
    return Mat4(rows) if rows else Mat4.zeros(0, cols)


@given(matrices())
@example(Mat4([[2]]))
@example(Mat4.zeros(0, 1))
@example(Mat4.zeros(2, 0))
@example(Mat4([[1, 0, 3] * 13]))
def test_matrix_round_trip_random(m):
    fh = io.StringIO()
    write_matrix(fh, m)
    back, meta = read_matrix(io.StringIO(fh.getvalue()))
    assert back == m and meta == {}


def test_matrix_format_errors():
    with pytest.raises(FormatError):
        read_matrix(io.StringIO("1 2 3\n"))
    with pytest.raises(FormatError):
        read_matrix(io.StringIO("2 2\n1 0\n"))
    with pytest.raises(FormatError):
        read_matrix(io.StringIO("1 2\n1 x\n"))
    with pytest.raises(FormatError):
        read_matrix(io.StringIO(""))
    for comment in ("# group-rows 1:2 3", "# locality r=one delta=3"):
        with pytest.raises(FormatError, match=f"malformed metadata comment '{comment}'"):
            read_matrix(io.StringIO(f"{comment}\n1 1\n1\n"))


def test_build_writes_parity_with_layout(tmp_path, capsys):
    out = tmp_path / "c1.txt"
    code, _, _ = run(capsys, "build", "--family", "C1", "--l", "2",
                     "--variant", "b", "--out", str(out))
    assert code == 0
    with open(out) as fh:
        m, meta = read_matrix(fh)
    assert m.shape == (4, 9)
    assert meta["family"] == "1" and meta["construction"] == "C1"
    assert meta["r"] == 3 and meta["delta"] == 3
    assert meta["group_rows"] == [(1, 2), (3, 4)]


def test_build_to_stdout(capsys):
    code, out, _ = run(capsys, "build", "--family", "C1", "--l", "2", "--variant", "b")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "4 9"
    assert len(lines) == 5


def test_build_verify_round_trip_json(tmp_path, capsys):
    out = tmp_path / "c1.txt"
    run(capsys, "build", "--family", "C1", "--l", "2", "--variant", "b",
        "--out", str(out))
    code, js, _ = run(capsys, "verify", "--parity", str(out), "--r", "3",
                      "--delta", "3", "--json")
    assert code == 0
    payload = json.loads(js)
    assert list(payload.keys()) == [
        "params", "locality", "bound_d", "d_optimal", "r_optimal",
        "checks", "family", "status",
    ]
    assert payload["params"] == {"n": 9, "k": 5, "d": 3}
    assert payload["locality"]["r"] == 3 and payload["locality"]["delta"] == 3
    assert payload["locality"]["l"] == 2
    for group in payload["locality"]["groups"]:
        assert group["support"] == sorted(group["support"])
    assert payload["d_optimal"] is True and payload["r_optimal"] is True
    assert list(payload["checks"].keys()) == [
        "h_prime_mds", "rows_per_group", "punctured_mds", "disjointness", "distance_cap",
    ]
    assert all(v is True for v in payload["checks"].values())
    assert payload["family"] == "1" and payload["status"] == "constructed"


def test_verify_uses_file_metadata_for_r_delta(tmp_path, capsys):
    out = tmp_path / "c6.txt"
    run(capsys, "build", "--family", "C6", "--l", "2", "--out", str(out))
    code, _, _ = run(capsys, "verify", "--parity", str(out))
    assert code == 0


def test_verify_generator_input(tmp_path, capsys):
    out = tmp_path / "c16.txt"
    run(capsys, "build", "--family", "C16", "--d", "12", "--out", str(out))
    code, js, _ = run(capsys, "verify", "--generator", str(out), "--r", "2",
                      "--delta", "3", "--json")
    assert code == 0
    payload = json.loads(js)
    assert payload["params"] == {"n": 16, "k": 3, "d": 12}


def test_verify_generator_restructuring_matches_built_profile(tmp_path, capsys):
    # a generator file carries no layout, so verify rebuilds the block
    # form from its own search and must land on the builder's report
    path = tmp_path / "g.txt"
    checked = 0
    for fam in catalog():
        if not fam.generator:
            continue
        for inst in fam.instances(64):
            bc = build(fam.construction, **inst["params"])
            with open(path, "w") as fh:
                write_matrix(fh, bc.code.generator(), _built_comments(bc, "generator"))
            code, js, err = run(capsys, "verify", "--generator", str(path), "--json")
            assert (code, err) == (0, ""), inst["params"]
            assert js == json.dumps(bc.verify().to_json_dict()) + "\n", inst["params"]
            checked += 1
    assert checked == 33



def test_verify_parity_files_of_the_sweep_match_verify(tmp_path, capsys):
    # a built parity file carries its layout; verify reads r-optimality
    # from its own locality search, verify() from the bound or
    # is_r_optimal, and the two reports must agree
    path = tmp_path / "h.txt"
    for cid, kw in acceptance_sweep():
        opts = [f"--{k}={v}" for k, v in kw.items()]
        run(capsys, "build", "--family", cid, *opts, "--as", "parity", "--out", str(path))
        code, js, err = run(capsys, "verify", "--parity", str(path), "--json")
        assert (code, err) == (0, ""), (cid, kw)
        assert js == json.dumps(build(cid, **kw).verify().to_json_dict()) + "\n", (cid, kw)

def test_verify_full_lifts_every_search_guard(tmp_path, capsys, monkeypatch):
    # C1 l = 8 is [39,23,3], past the n <= 30 bound-free locality search
    for kind in ("generator", "parity"):
        path = tmp_path / f"{kind}.txt"
        run(capsys, "build", "--family", "C1", "--l", "8", "--as", kind, "--out", str(path))
        full = run(capsys, "verify", f"--{kind}", str(path), "--full")
        assert full[0] == 0 and full[2] == "", kind
        assert "[39,23,3]" in full[1] and "r_optimal=True" in full[1]
        assert "note" not in full[1]
        # the search fits the default work budget, so no flag is needed;
        # d = 3 above the (r-1, delta) bound proves r-optimality of the
        # layout file without a search
        assert run(capsys, "verify", f"--{kind}", str(path)) == full
    # with a budget too small for the search, a generator file has no
    # layout to verify and exits 2 naming the work done; --full lifts it
    monkeypatch.setattr("lrc4.lrc.LOCALITY_SEARCH_MAX_WORK", 100)
    code, _, err = run(capsys, "verify", "--generator", str(tmp_path / "generator.txt"))
    assert code == 2 and re.search(r"stopped after \d+ column reductions and \d+ distance "
                                   r"checks, over its work budget of 100", err)
    code, out, _ = run(capsys, "verify", "--generator", str(tmp_path / "generator.txt"), "--full")
    assert code == 0 and "r_optimal=True" in out
    # with the blockwise DP over its work bound the router settles d; with
    # d unsettled (a scan budget below C(39,3), k > 14) the bound cannot
    # fire and r-optimality needs the (r-1, delta) search, here over its budget
    path = tmp_path / "parity_b.txt"
    run(capsys, "build", "--family", "C1", "--l", "8", "--variant", "b", "--as", "parity",
        "--out", str(path))
    monkeypatch.setattr("lrc4.lrc.BLOCKWISE_MAX_WORK", 0)
    monkeypatch.setattr("lrc4.code.DEFAULT_SCAN_BUDGET", 1000)
    code, out, _ = run(capsys, "verify", "--parity", str(path))
    assert code == 0
    assert "r_optimal=None" in out
    assert "note: min distance not settled" in out
    assert out.count("note: r-optimality skipped: locality search stopped") == 1
    code, out, _ = run(capsys, "verify", "--parity", str(path), "--full")
    assert code == 0
    assert "[39,23,3]" in out and "r_optimal=True" in out and "note" not in out


def test_verify_locality_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "hex.txt"
    with open(path, "w") as fh:
        write_matrix(fh, HEXACODE_GEN)
    code, js, _ = run(capsys, "verify", "--generator", str(path), "--r", "2",
                      "--delta", "4", "--json")
    assert code == 1
    payload = json.loads(js)
    assert payload["bad_coordinates"] == [1, 2, 3, 4, 5, 6]


def test_verify_of_a_search_past_the_recursion_limit_exits_2(tmp_path, capsys, monkeypatch):
    # with no group rows the file's [1100,1099,2] code is searched at
    # r = 1099: 1100 nested picks, stopped by the work budget
    path = tmp_path / "wide.txt"
    with open(path, "w") as fh:
        fh.write("# locality r=1099 delta=2\n")
        write_matrix(fh, Mat4([[1] * 1100]))
    monkeypatch.setattr("lrc4.lrc.LOCALITY_SEARCH_MAX_WORK", 10**6)
    code, out, err = run(capsys, "verify", "--parity", str(path))
    assert (code, out) == (2, "")
    assert re.fullmatch(r"lrc4: locality search stopped after \d+ column reductions and 1 "
                        r"distance checks, over its work budget of 1000000\n", err)


def test_verify_refuses_a_delta_below_2_by_the_locality_rule(tmp_path, capsys):
    # the r/delta rule comes before the layout's support-size check
    for kind, cid, opts in (("parity", "C6", ("--l", "3")), ("generator", "C16", ("--d", "5"))):
        path = tmp_path / f"{kind}.txt"
        run(capsys, "build", "--family", cid, *opts, "--as", kind, "--out", str(path))
        code, out, err = run(capsys, "verify", f"--{kind}", str(path), "--r", "3", "--delta", "1")
        assert (code, out) == (2, ""), kind
        assert err == "lrc4: need r >= 1 and delta >= 2, got r=3, delta=1\n", kind


def test_distance_subcommand(tmp_path, capsys):
    path = tmp_path / "hex.txt"
    with open(path, "w") as fh:
        write_matrix(fh, HEXACODE_GEN)
    code, out, _ = run(capsys, "distance", "--generator", str(path))
    assert code == 0 and out.strip() == "4"


def test_c17g_generator_file_is_settled_by_the_budgeted_search(tmp_path, capsys, monkeypatch):
    # [102,46,12] as a generator file carries no layout: the locality
    # search re-finds one within its work budget, with no flag, and the
    # blockwise DP settles d on it rather than the router
    path = tmp_path / "c17g.txt"
    run(capsys, "build", "--family", "C17G", "--l", "17", "--as", "generator", "--out", str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("the router ran on a code whose searched layout the DP takes")

    monkeypatch.setattr(LinearCode, "min_distance", refuse)
    code, out, err = run(capsys, "verify", "--generator", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("[102,46,12] bound_d=12 d_optimal=True r_optimal=True\n")
    assert out.count(": True") == 5 and "note" not in out
    assert run(capsys, "distance", "--generator", str(path)) == (0, "12\n", "")


def test_distance_settles_d_through_the_files_layout(tmp_path, capsys, monkeypatch):
    # C17G l = 17 is [102,46,12]: past the column scan's budget and the
    # enumeration guard, but its layout gives the blockwise DP
    path = tmp_path / "c17g.txt"
    run(capsys, "build", "--family", "C17G", "--l", "17", "--as", "parity", "--out", str(path))

    def refuse(*args, **kwargs):
        raise AssertionError("the router ran on a file with a layout the DP takes")

    with monkeypatch.context() as m:
        m.setattr(LinearCode, "min_distance", refuse)
        assert run(capsys, "distance", "--parity", str(path)) == (0, "12\n", "")
    # without its group-rows comment the same matrix goes to the router
    path = tmp_path / "c6.txt"
    run(capsys, "build", "--family", "C6", "--l", "3", "--out", str(path))
    text = path.read_text()
    bare = tmp_path / "bare.txt"
    bare.write_text("".join(l for l in text.splitlines(True) if not l.startswith("# group-rows")))
    assert run(capsys, "distance", "--parity", str(bare)) == (0, "4\n", "")
    # a layout that extract_profile rejects exits 2, as in verify
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace("# group-rows 1:2 3:4 5:6", "# group-rows 1:2 4:4 5:6"))
    assert bad.read_text() != text
    for cmd in ("distance", "verify"):
        code, out, err = run(capsys, cmd, "--parity", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("lrc4: group row ranges must tile a prefix")


def test_verify_reduces_a_loaded_matrix_once(tmp_path, capsys, monkeypatch):
    # a parity file's layout profile holds the loaded code, and a
    # generator file's restructured profile pairs the loaded generator
    # with its stacked rows: one right kernel per verify
    cases = [("parity", "C6", "--l", "3"), ("parity", "C16", "--d", "12"),
             ("generator", "C16", "--d", "12")]
    for kind, cid, *opts in cases:
        path = tmp_path / f"{kind}.txt"
        run(capsys, "build", "--family", cid, *opts, "--as", kind, "--out", str(path))
        calls = []
        real = Mat4.right_kernel

        def spy(self):
            calls.append(self.shape)
            return real(self)

        with monkeypatch.context() as m:
            m.setattr(Mat4, "right_kernel", spy)
            code, _, err = run(capsys, "verify", f"--{kind}", str(path))
        assert (code, err) == (0, ""), (kind, cid)
        assert len(calls) == 1, (kind, cid, calls)


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--n-max", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    entries = {(p["n"], p["k"], p["d"], p["r"], p["delta"]) for p in payload["params"]}
    assert (9, 5, 3, 3, 3) in entries
    assert (10, 2, 5, 1, 5) in entries
    assert payload["claims"]["claim1"]["passed"] is True
    assert payload["claims"]["counting_bounds"]["facts"]["common_point_bound"] == 17


def test_repair_subcommand_recovers(capsys):
    code, out, _ = run(capsys, "repair", "--family", "C4", "--l", "2",
                       "--erase", "1,2", "--seed", "5")
    assert code == 0
    assert "recovered" in out


def test_repair_subcommand_over_tolerance(capsys):
    code, out, _ = run(capsys, "repair", "--family", "C4", "--l", "2",
                       "--erase", "1,2,3")
    assert code == 0  # a clean local failure is the documented outcome
    assert "local failure" in out


def test_repair_random_trials(capsys):
    code, out, _ = run(capsys, "repair", "--family", "C6", "--l", "2",
                       "--trials", "25", "--seed", "3")
    assert code == 0
    assert "0 unexpected failure(s)" in out
    for trials in ("0", "-2"):
        code, out, err = run(capsys, "repair", "--family", "C1", "--l", "2",
                             "--trials", trials)
        assert code == 2 and out == ""
        assert f"--trials must be >= 1, got {trials}" in err


def test_repair_erasure_out_of_range_exits_2(capsys):
    code, out, err = run(capsys, "repair", "--family", "C4", "--l", "2", "--r", "1",
                         "--erase", "0")
    assert code == 2
    assert "recovered" not in out
    assert "out of range" in err



def test_repair_erase_list_must_parse(capsys):
    for erase in ("1,x", "1,,2", ""):
        code, out, err = run(capsys, "repair", "--family", "C1", "--l", "2", "--erase", erase)
        assert (code, out) == (2, "")
        assert err == f"lrc4: --erase needs comma-separated coordinates, got {erase!r}\n"

def test_pg_subcommand(capsys):
    code, out, _ = run(capsys, "pg", "--m", "3")
    assert code == 0 and out.strip() == "21"
    code, out, _ = run(capsys, "pg", "--m", "5", "--count-subspaces", "2")
    assert code == 0 and out.strip() == "5797"
    code, out, _ = run(capsys, "pg", "--m", "3", "--count-containing", "2", "1")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "pg", "--m", "2", "--points")
    assert code == 0 and len(out.splitlines()) == 5


def test_pg_point_count_needs_no_enumeration(capsys, monkeypatch):
    def refuse(m):
        raise AssertionError("pg --m M must not walk the 4^M vectors")

    monkeypatch.setattr("lrc4.cli.enumerate_points", refuse)
    code, out, _ = run(capsys, "pg", "--m", "20")
    assert code == 0 and out.strip() == "366503875925"
    for m in ("0", "-1"):
        code, out, err = run(capsys, "pg", "--m", m)
        assert code == 2 and out == "" and "need m >= 1" in err


def test_pg_points_capped_before_enumeration(capsys, monkeypatch):
    enumerated = []
    monkeypatch.setattr("lrc4.cli.enumerate_points", lambda m: enumerated.append(m) or [])
    for m in ("11", "20"):
        code, out, err = run(capsys, "pg", "--m", m, "--points")
        assert code == 2 and out == "" and "m <= 10" in err
    assert enumerated == []
    code, out, _ = run(capsys, "pg", "--m", "10", "--points")
    assert code == 0 and enumerated == [10]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build"])
    assert exc.value.code == 2


def test_build_range_error_exits_2(capsys):
    code, _, err = run(capsys, "build", "--family", "C1", "--l", "1")
    assert code == 2
    assert "l >= 2" in err
    code, out, err = run(capsys, "build", "--family", "C16", "--l", "3")
    assert code == 2 and out == ""
    assert "C16 takes no parameter l" in err


def test_format_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a matrix\n")
    code, _, err = run(capsys, "verify", "--parity", str(bad), "--r", "2", "--delta", "3")
    assert code == 2
    for comment in ("# group-rows 1:2 3", "# locality r=one delta=3"):
        bad.write_text(f"{comment}\n1 1\n1\n")
        code, out, err = run(capsys, "verify", "--parity", str(bad), "--r", "1", "--delta", "2")
        assert (code, out) == (2, "")
        assert err == f"lrc4: malformed metadata comment {comment!r}\n"
