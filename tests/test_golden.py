"""Golden diff: ``verify()`` reports of the acceptance sweep, the same
reports from ``lrc4 verify --json`` on each sweep code's parity and
generator files, and the ``classify --n-max 128 --json`` output,
compared with the digests that the benchmark harness checks
(``perfbench/golden.json``, read only)."""

import hashlib
import json
from pathlib import Path

from lrc4.cli import main
from lrc4.constructions import acceptance_sweep, build

GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_key(cid: str, kw: dict) -> str:
    return cid + " " + " ".join(f"{k}={v}" for k, v in sorted(kw.items()))


def test_sweep_verify_reports_match_golden():
    want = GOLDEN["sweep_verify_sha256"]
    got = {}
    for cid, kw in acceptance_sweep():
        report = build(cid, **kw).verify()
        got[sweep_key(cid, kw)] = sha256(json.dumps(report.to_json_dict(), sort_keys=True))
    assert len(got) == 77
    assert got == want


def test_sweep_files_verify_and_measure_like_golden(tmp_path, capsys):
    # every sweep code written by `lrc4 build` as a parity file (with its
    # layout) and as a generator file (without one): `verify --json`
    # gives the golden report and `distance` the catalogue d
    want = GOLDEN["sweep_verify_sha256"]
    runs = 0
    for cid, kw in acceptance_sweep():
        key = sweep_key(cid, kw)
        d = build(cid, **kw).expected.d
        opts = [f"--{k}={v}" for k, v in kw.items()]
        for kind in ("parity", "generator"):
            path = tmp_path / f"{kind}.txt"
            assert main(["build", "--family", cid, *opts, "--as", kind, "--out", str(path)]) == 0
            assert main(["verify", f"--{kind}", str(path), "--json"]) == 0, (key, kind)
            report = json.loads(capsys.readouterr().out)
            assert sha256(json.dumps(report, sort_keys=True)) == want[key], (key, kind)
            assert main(["distance", f"--{kind}", str(path)]) == 0, (key, kind)
            assert capsys.readouterr().out == f"{d}\n", (key, kind)
            runs += 1
    assert runs == 154


def test_classify_n128_json_matches_golden(capsys):
    assert main(["classify", "--n-max", "128", "--json"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == GOLDEN["classify_n128_json_sha256"]
    assert len(out.encode()) == GOLDEN["classify_n128_json_bytes"]
    assert len(json.loads(out)["params"]) == GOLDEN["classify_n128_records"]
