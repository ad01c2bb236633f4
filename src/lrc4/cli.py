"""Command-line surface: build, verify, distance, classify, repair, pg.

Matrix text format (bit-exact round trip):

    # comment lines start with '#' and may appear anywhere
    <rows> <cols>
    <row of space-separated symbols from {0, 1, w, W}>
    ...

with a trailing newline.  ``build`` writes structured comments (family,
parameters, locality pair and group row ranges) that ``verify`` and
``distance`` read back; ``lrc.layout_of`` takes a parity-check file's
``group-rows`` as its layout and searches for any other file's.

Coordinates, group rows and supports are 1-based everywhere, matching
the classification's [n] = {1..n} convention.

Exit codes: 0 success, 1 verification/repair failure, 2 usage or format
errors.  The minimum-distance column scan is budgeted at 10^8 subset
checks; a scan over budget falls back to codeword enumeration when
k <= 14.  The locality search is budgeted at
``lrc.LOCALITY_SEARCH_MAX_WORK`` units of work.  ``verify --full`` lifts
both budgets.  ``pg --points`` lists PG(m-1, 4) only for m <= 10.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import IO, Sequence

from . import gf4
from .code import LinearCode
from .constructions import build
from .classify import all_claim_reports, enumerate_optimal_params
from .errors import Lrc4Error, ResourceError
from .lrc import check_structure, layout_of
from .mat4 import Mat4
from .pg import count_subspaces, count_subspaces_containing, enumerate_points
from .repair import (
    ErasurePattern,
    encode,
    erasure_tolerance_ok,
    local_repair,
    random_message,
    random_tolerable_pattern,
)

# pg --points builds the whole list of (4^m - 1)/3 points before printing;
# m = 10 is 349,525 points
PG_POINTS_MAX_M = 10


class FormatError(Lrc4Error):
    """Malformed matrix file."""


def write_matrix(fh: IO[str], m: Mat4, comments: Sequence[str] = ()) -> None:
    for line in comments:
        fh.write(f"# {line}\n")
    fh.write(f"{m.rows} {m.cols}\n")
    fh.write(m.to_text())
    fh.write("\n")


def read_matrix(fh: IO[str]) -> tuple[Mat4, dict]:
    """Parse a matrix file; returns the matrix and any structured metadata."""
    meta: dict = {}
    header: tuple[int, int] | None = None
    rows: list[list[int]] = []
    for raw in fh:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _parse_meta(line, meta)
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise FormatError(f"expected '<rows> <cols>' header, got {line!r}")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise FormatError(f"bad header {line!r}") from None
            continue
        try:
            rows.append([gf4.from_symbol(s) for s in parts])
        except ValueError as e:
            raise FormatError(str(e)) from None
    if header is None:
        raise FormatError("missing '<rows> <cols>' header")
    r, c = header
    # rows of no symbols are written as empty lines, which are skipped
    want = r if c else 0
    if min(r, c) < 0 or len(rows) != want or any(len(row) != c for row in rows):
        raise FormatError(f"expected {r} rows of {c} symbols")
    m = Mat4(rows) if rows else Mat4.zeros(r, c)
    return m, meta


def _parse_meta(line: str, meta: dict) -> None:
    """Read one '#' comment line's structured metadata into ``meta``."""
    parts = line[1:].split()
    if not parts:
        return
    key = parts[0]
    try:
        if key == "lrc4":
            for tok in parts[1:]:
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
                else:
                    meta.setdefault("kind", tok)
        elif key == "locality":
            for tok in parts[1:]:
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = int(v)
        elif key == "group-rows":
            ranges = meta.setdefault("group_rows", [])
            for tok in parts[1:]:
                a, b = tok.split(":")
                ranges.append((int(a), int(b)))
    except ValueError:
        raise FormatError(f"malformed metadata comment {line!r}") from None


def _built_comments(bc, kind: str) -> list[str]:
    params = " ".join(f"{k}={v}" for k, v in sorted(bc.params.items()))
    if bc.variant:
        params += f" variant={bc.variant}"
    lines = [
        f"lrc4 {kind} family={bc.family.id} construction={bc.construction} "
        f"status={bc.family.status}",
        f"params {params}",
        f"locality r={bc.r} delta={bc.delta}",
    ]
    if kind == "parity-check":
        if bc.profile.partitioned:
            lines.append("group-rows " + " ".join(f"{g.rows[0]}:{g.rows[-1]}"
                                                  for g in bc.profile.groups))
        else:
            # the group layout lives on an augmented constraint stack, not
            # on this full-rank matrix; verify re-derives it by search
            lines.append("unpartitioned true")
    lines.append(f"expected n={bc.expected.n} k={bc.expected.k} d={bc.expected.d}")
    return lines


# ---------------------------------------------------------------------------
# subcommands


def _add_construction_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, help="construction id (C1..C19, CLS*, C17G)")
    p.add_argument("--l", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--d", type=int, help="distance selector for the chain families C16..C19")
    p.add_argument("--variant", choices=["a", "b"])


def _build_from_args(args):
    return build(args.family, l=args.l, k=args.k, delta=args.delta, r=args.r, d=args.d,
                 variant=args.variant)


def _cmd_build(args) -> int:
    bc = _build_from_args(args)
    kind = args.as_ or ("generator" if bc.family.generator else "parity")
    if kind == "parity":
        m = bc.code.parity_check()
        comments = _built_comments(bc, "parity-check")
    else:
        m = bc.code.generator()
        comments = _built_comments(bc, "generator")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_matrix(fh, m, comments)
    else:
        write_matrix(sys.stdout, m, comments)
    return 0


def _load_code(args) -> tuple[LinearCode, dict, list | None]:
    """A code file's code, metadata and ``group-rows`` (None in a generator file)."""
    path, kind = (args.parity, "parity") if args.parity else (args.generator, "generator")
    with open(path, encoding="utf-8") as fh:
        m, meta = read_matrix(fh)
    declared = {"parity-check": "parity", "generator": "generator"}.get(meta.get("kind"))
    if declared and declared != kind:
        raise FormatError(
            f"{path} declares a {meta['kind']} matrix; pass it via --{declared}"
        )
    if kind == "parity":
        return LinearCode(pchk=m), meta, meta.get("group_rows")
    return LinearCode(gen=m), meta, None


def _cmd_verify(args) -> int:
    code, meta, ranges = _load_code(args)
    r = args.r if args.r is not None else meta.get("r")
    delta = args.delta if args.delta is not None else meta.get("delta")
    if r is None or delta is None:
        raise Lrc4Error("verify: need --r and --delta (not found in file metadata)")
    budget = 10**18 if args.full else None
    profile, found = layout_of(code, r, delta, ranges, budget)
    if profile is None:
        bad = list(found.bad_coordinates)
        if args.json:
            print(json.dumps({
                "params": {"n": code.n, "k": code.k, "d": None},
                "locality": {"r": found.r, "delta": found.delta, "l": 0, "groups": []},
                "bound_d": None, "d_optimal": False, "r_optimal": None, "checks": {},
                "family": meta.get("family"), "status": meta.get("status"),
                "bad_coordinates": bad,
            }))
        else:
            print(f"locality ({found.r},{found.delta}) FAILS at coordinates {bad}")
        return 1

    report = check_structure(profile, search=found, scan_budget=budget, search_budget=budget)
    report.family = meta.get("family")
    report.status = meta.get("status")
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        d_str = report.d if report.d is not None else "not settled"
        print(f"[{report.n},{report.k},{d_str}] bound_d={report.bound_d} "
              f"d_optimal={report.d_optimal} r_optimal={report.r_optimal}")
        for name, res in report.checks.items():
            suffix = "" if res.witness is None else f" ({res.witness})"
            print(f"  {name}: {res.passed}{suffix}")
        for note in report.notes:
            print(f"  note: {note}")
    return 0 if report.all_passed else 1


def _cmd_distance(args) -> int:
    code, meta, ranges = _load_code(args)
    profile = None
    if {"r", "delta"} <= meta.keys():
        profile = layout_of(code, meta["r"], meta["delta"], ranges)[0]
    print(code.min_distance() if profile is None else profile.min_distance())
    return 0


def _cmd_classify(args) -> int:
    records = enumerate_optimal_params(args.n_max)
    claims = all_claim_reports()
    if args.json:
        print(json.dumps({
            "params": [rec.to_json_dict() for rec in records],
            "claims": {k: v.to_json_dict() for k, v in claims.items()},
        }))
    else:
        print(f"optimal quaternary (r,delta)-LRC parameters with n <= {args.n_max}:")
        for rec in records:
            print(f"  [{rec.n},{rec.k},{rec.d}] r={rec.r} delta={rec.delta} "
                  f"family ({rec.family}) {rec.status}")
        for name, rep in claims.items():
            print(f"claim check {name}: {'ok' if rep.passed else 'FAILED'} - {rep.conclusion}")
    return 0 if all(rep.passed for rep in claims.values()) else 1


def _cmd_repair(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    bc = _build_from_args(args)
    rng = random.Random(args.seed)
    erase = None
    if args.erase is not None:
        try:
            erase = ErasurePattern.of(int(t) for t in args.erase.split(","))
        except ValueError:
            raise Lrc4Error(f"--erase needs comma-separated coordinates, "
                            f"got {args.erase!r}") from None
    failures = 0
    for trial in range(args.trials):
        pattern = erase if erase is not None else random_tolerable_pattern(bc, rng)
        message = random_message(bc, rng)
        word = encode(bc, message)
        outcome = local_repair(bc, pattern.apply(word))
        tolerable = erasure_tolerance_ok(bc, pattern)
        if outcome.ok and outcome.codeword == word:
            status = "recovered"
        elif outcome.ok:
            status = "MISDECODED"
            failures += 1
        elif tolerable:
            status = "FAILED (within tolerance)"
            failures += 1
        else:
            status = "local failure (pattern exceeds delta-1 in a group)"
        if args.trials == 1 or status != "recovered":
            print(f"trial {trial}: erased {sorted(pattern.erased)} -> {status}")
            for coord, why in outcome.failures:
                print(f"  coordinate {coord}: {why}")
    print(f"{args.trials} trial(s), {failures} unexpected failure(s)")
    return 1 if failures else 0


def _cmd_pg(args) -> int:
    if args.points:
        if args.m > PG_POINTS_MAX_M:
            raise ResourceError(f"pg --points is capped at m <= {PG_POINTS_MAX_M}, got m={args.m}")
        for p in enumerate_points(args.m):
            print(" ".join(gf4.to_symbol(x) for x in p.coords))
    elif args.count_subspaces is not None:
        print(count_subspaces(args.m, args.count_subspaces))
    elif args.count_containing is not None:
        i, j = args.count_containing
        print(count_subspaces_containing(args.m, i, j))
    elif args.m < 1:
        raise ValueError("need m >= 1")
    else:
        print(count_subspaces(args.m, 1))
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lrc4",
        description="optimal quaternary (r,delta)-LRC toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="instantiate a catalogued construction")
    _add_construction_options(b)
    b.add_argument("--out")
    b.add_argument("--as", dest="as_", choices=["generator", "parity"])
    b.set_defaults(fn=_cmd_build)

    v = sub.add_parser("verify", help="verify locality, optimality and structure")
    src = v.add_mutually_exclusive_group(required=True)
    src.add_argument("--parity")
    src.add_argument("--generator")
    v.add_argument("--r", type=int)
    v.add_argument("--delta", type=int)
    v.add_argument("--full", action="store_true",
                   help="lift the scan and search work budgets (may be very slow)")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    dd = sub.add_parser("distance", help="exact minimum distance of a code file")
    src = dd.add_mutually_exclusive_group(required=True)
    src.add_argument("--parity")
    src.add_argument("--generator")
    dd.set_defaults(fn=_cmd_distance)

    c = sub.add_parser("classify", help="enumerate optimal parameters and claim checks")
    c.add_argument("--n-max", type=int, default=30)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_classify)

    rp = sub.add_parser("repair", help="simulate local erasure repair")
    _add_construction_options(rp)
    rp.add_argument("--erase", help="comma-separated 1-based coordinates")
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--trials", type=int, default=1)
    rp.set_defaults(fn=_cmd_repair)

    p = sub.add_parser("pg", help="projective geometry over GF(4)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--points", action="store_true")
    p.add_argument("--count-subspaces", type=int, metavar="I")
    p.add_argument("--count-containing", type=int, nargs=2, metavar=("I", "J"))
    p.set_defaults(fn=_cmd_pg)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = make_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (Lrc4Error, ValueError, OSError) as e:
        print(f"lrc4: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
