"""Golden diff: ``verify()`` reports of the acceptance sweep and the
``classify --n-max 128 --json`` output, compared with the digests that
the benchmark harness checks (``perfbench/golden.json``, read only)."""

import hashlib
import json
from pathlib import Path

from lrc4.cli import main
from lrc4.constructions import acceptance_sweep, build

GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "golden.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_verify_reports_match_golden():
    want = GOLDEN["sweep_verify_sha256"]
    got = {}
    for cid, kw in acceptance_sweep():
        key = cid + " " + " ".join(f"{k}={v}" for k, v in sorted(kw.items()))
        report = build(cid, **kw).verify()
        got[key] = sha256(json.dumps(report.to_json_dict(), sort_keys=True))
    assert len(got) == 77
    assert got == want


def test_classify_n128_json_matches_golden(capsys):
    assert main(["classify", "--n-max", "128", "--json"]) == 0
    out = capsys.readouterr().out
    assert sha256(out) == GOLDEN["classify_n128_json_sha256"]
    assert len(out.encode()) == GOLDEN["classify_n128_json_bytes"]
    assert len(json.loads(out)["params"]) == GOLDEN["classify_n128_records"]
