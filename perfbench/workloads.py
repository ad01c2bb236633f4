"""The four benchmark workloads, driven through lrc4's public API.

Each workload splits into ``prepare`` (seeded input generation, part of
set-up), ``warm_up`` (one untimed short pass), ``run_pass`` (the timed
unit of work, returning one latency per operation) and ``finish``
(untimed correctness checks that need the whole run).  Every output is
checked through ``check(ok, what)``, which counts attempted and failed
operations.

lrc4 functions are looked up on their modules at call time, never bound
by ``from ... import``, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import traceback
from statistics import median

from lrc4 import cli, code, constructions, gf4, lrc, mat4, repair

#: Exhaustive t = 11 column scan of the [24,7,12] code: every 11-subset is
#: independent, so the depth-first scan visits sum_{j=1..11} C(13+j, j)
#: prefixes whatever the column order.
DEEP_SCAN_T11_PUSHES = 4_457_399


def _op(tracer, name):
    return tracer.op(name) if tracer is not None else contextlib.nullcontext()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    name: str
    #: what one operation is, and the percentile reported as its tail: the
    #: highest with at least ten operations beyond it, where there are enough
    op_unit: str
    tail_pct: int
    #: passes a run makes even when --seconds has run out
    min_passes = 1

    def __init__(self, golden: dict, clock) -> None:
        self.golden = golden
        self.clock = clock

    def timed(self, check, what, fn, *args, **kwargs):
        """(result, seconds) of one operation; an exception is a failed check."""
        t = self.clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # one failed operation must not end the run
            elapsed = self.clock() - t
            check(False, f"{what}: {exc!r}\n{traceback.format_exc(limit=3)}")
            return None, elapsed
        return result, self.clock() - t

    def warm_up(self, inputs, check) -> None:
        self.run_pass(inputs, check)

    def finish(self, inputs, check) -> None:
        pass


class Audit30(Workload):
    """build + verify_locality + verify() of every catalogue instance, n <= 30."""

    name = "audit30"
    op_unit = "instance"
    tail_pct = 95
    # one timing of a slow instance varies by 10-20 % on a shared machine;
    # the median of two steadies the tail
    min_passes = 2
    n_max = 30

    def instances(self) -> list[tuple[str, dict, int]]:
        out, seen = [], set()
        for fam in constructions.catalog():
            if fam.status == "nonexistent" or fam.construction is None:
                continue
            for inst in fam.instances(self.n_max):
                if inst["status"] != "constructed":
                    continue
                for v in fam.variants or (None,):
                    key = (fam.construction, tuple(sorted(inst["params"].items())), v)
                    if key in seen:
                        continue
                    seen.add(key)
                    kw = dict(inst["params"])
                    if v:
                        kw["variant"] = v
                    out.append((fam.construction, kw, inst["d"]))
        return out

    def prepare(self, seed: int):
        insts = self.instances()
        random.Random(seed).shuffle(insts)
        return insts

    def _audit(self, cid, kw):
        bc = constructions.build(cid, **kw)
        found = lrc.verify_locality(bc.code, bc.r, bc.delta)
        report = bc.verify()
        return found.ok, report.d, report.all_passed

    def run_pass(self, insts, check, tracer=None, subset=None):
        lat = []
        for cid, kw, d in insts if subset is None else subset:
            with _op(tracer, "audit"):
                res, dt = self.timed(check, f"audit {cid} {kw}", self._audit, cid, kw)
            lat.append(dt)
            if res is not None:
                ok, got_d, passed = res
                check(ok and got_d == d and passed,
                      f"audit {cid} {kw}: locality ok={ok}, d={got_d} (want {d}), all_passed={passed}")
        return lat

    def warm_up(self, insts, check):
        first = {}
        for item in sorted(insts, key=lambda x: (x[0], sorted(x[1].items()))):
            first.setdefault(item[0], item)
        self.run_pass(insts, check, subset=list(first.values()))

    def finish(self, insts, check):
        check(len(insts) == self.golden["audit30_instances"],
              f"audit30: {len(insts)} instances, want {self.golden['audit30_instances']}")

    def named(self, r):
        return {
            "audit_s": (r["pass_s"], "s"),
            "audit_p50_ms": (r["op_p50_ms"], "ms"),
            "audit_p95_ms": (r["op_tail_ms"], "ms"),
        }


class DeepScan(Workload):
    """d = 12 certificate of C17G l = 4 ([24,7,12]) by the exhaustive column scan."""

    name = "deep_scan"
    op_unit = "certificate"
    tail_pct = 50  # one certificate per pass: no tail to report

    def prepare(self, seed: int):
        # a seeded monomial change (column permutation, nonzero column
        # scaling) preserves d but changes every scan's visiting order
        h = constructions.build("C17G", l=4).code.parity_check().array
        rng = random.Random(seed)
        perm = list(range(h.shape[1]))
        rng.shuffle(perm)
        hp = h[:, perm].copy()
        for j in range(hp.shape[1]):
            hp[:, j] = gf4.MUL_NP[rng.randrange(1, 4), hp[:, j]]
        return mat4.Mat4(hp)

    def run_pass(self, hp, check, tracer=None):
        with _op(tracer, "certificate"):
            pushes = tracer.counts["gf4vec.push.calls"] if tracer else 0
            t = self.clock()
            dep11, _ = self.timed(check, "scan t=11", code.has_dependent_columns, hp, 11)
            if tracer:
                pushes = tracer.counts["gf4vec.push.calls"] - pushes
            dep12, _ = self.timed(check, "scan t=12", code.has_dependent_columns, hp, 12)
            elapsed = self.clock() - t
        check(dep11 is False, f"scan t=11 returned {dep11}, want False")
        check(dep12 is True, f"scan t=12 returned {dep12}, want True")
        if tracer:
            tracer.counts["gf4vec.push.calls_t11"] += pushes
            check(pushes == DEEP_SCAN_T11_PUSHES,
                  f"scan t=11 made {pushes} pushes, want {DEEP_SCAN_T11_PUSHES}")
        return [elapsed]

    def warm_up(self, hp, check):
        dep, _ = self.timed(check, "warm-up scan t=7", code.has_dependent_columns, hp, 7)
        check(dep is False, f"warm-up scan t=7 returned {dep}, want False")

    def finish(self, hp, check):
        # k = 7, so min_distance() enumerates the 4^7 codewords: a second
        # route, independent of the column scan
        d, _ = self.timed(check, "enumeration min_distance", code.LinearCode(pchk=hp).min_distance)
        check(d == 12, f"enumeration gives d = {d}, want 12")

    def named(self, r):
        return {"deep_scan_s": (r["pass_s"], "s")}


class RepairSim(Workload):
    """Seeded local_repair trials over the acceptance sweep plus two big C17G codes."""

    name = "repair_sim"
    op_unit = "repair"
    tail_pct = 99
    trials_per_code = 100
    over_every = 10  # every 10th trial erases one symbol beyond delta - 1 in a group
    extra_codes = (("C17G", {"l": 8}), ("C17G", {"l": 17}))

    def codes(self):
        sweep = constructions.acceptance_sweep()
        built = [(cid, kw, constructions.build(cid, **kw)) for cid, kw in sweep]
        extra = [(cid, kw, constructions.build(cid, **kw)) for cid, kw in self.extra_codes]
        return built, extra

    @staticmethod
    def _over_tolerance(bc, pattern, rng):
        grp = bc.profile.groups[rng.randrange(len(bc.profile.groups))]
        erased = set(pattern.erased)
        spare = sorted(grp.support - erased)
        rng.shuffle(spare)
        while len(erased & grp.support) < bc.delta:
            erased.add(spare.pop())
        return repair.ErasurePattern(frozenset(erased))

    def prepare(self, seed: int):
        sweep, extra = self.codes()
        rng = random.Random(seed)
        trials = []
        for _, _, bc in sweep + extra:
            for i in range(self.trials_per_code):
                pattern = repair.random_tolerable_pattern(bc, rng)
                if i % self.over_every == self.over_every - 1:
                    pattern = self._over_tolerance(bc, pattern, rng)
                word = repair.encode(bc, repair.random_message(bc, rng))
                tolerable = repair.erasure_tolerance_ok(bc, pattern)
                trials.append((bc, pattern.apply(word), word, tolerable))
        rng.shuffle(trials)
        return sweep, trials

    def run_pass(self, inputs, check, tracer=None, subset=None):
        _, trials = inputs
        lat = []
        for bc, received, word, tolerable in trials if subset is None else subset:
            with _op(tracer, "repair"):
                out, dt = self.timed(check, f"repair {bc.construction} {bc.params}",
                                repair.local_repair, bc, received)
            lat.append(dt)
            if out is None:
                continue
            # the rule of `lrc4 repair`: a misdecode, or a failure on a
            # tolerable pattern, is an unexpected failure
            if out.ok:
                check(out.codeword == word, f"repair {bc.construction} {bc.params}: MISDECODED")
            else:
                check(not tolerable,
                      f"repair {bc.construction} {bc.params}: failed within tolerance: {out.failures}")
        return lat

    def warm_up(self, inputs, check):
        self.run_pass(inputs, check, subset=inputs[1][:500])

    def finish(self, inputs, check):
        # golden verify() reports of the acceptance sweep
        sweep, _ = inputs
        want = self.golden["sweep_verify_sha256"]
        check(len(sweep) == len(want), f"sweep has {len(sweep)} codes, golden has {len(want)}")
        for cid, kw, bc in sweep:
            key = sweep_key(cid, kw)
            report, _ = self.timed(check, f"verify {key}", bc.verify)
            if report is not None:
                got = sha256(json.dumps(report.to_json_dict(), sort_keys=True))
                check(got == want.get(key), f"verify {key}: report differs from golden")

    def named(self, r):
        return {
            "repairs_per_s": (r["ops_per_pass"] / r["pass_s"], "1/s"),
            "repair_p50_us": (r["op_p50_ms"] * 1e3, "us"),
            "repair_p99_us": (r["op_tail_ms"] * 1e3, "us"),
        }


def sweep_key(cid: str, kw: dict) -> str:
    return cid + " " + " ".join(f"{k}={v}" for k, v in sorted(kw.items()))


class ClassifyLarge(Workload):
    """`lrc4 classify --n-max 128 --json` in process, then blockwise d of C17G l = 4..17."""

    name = "classify_large"
    op_unit = "call"
    tail_pct = 100  # 15 calls: the tail is the slowest, the classify call
    argv = ("classify", "--n-max", "128", "--json")
    c17g_ls = range(4, 18)

    def prepare(self, seed: int):
        members = [(l, constructions.build("C17G", l=l)) for l in self.c17g_ls]
        random.Random(seed).shuffle(members)
        return members

    def _classify(self, check, tracer):
        buf = io.StringIO()
        with _op(tracer, "classify"), contextlib.redirect_stdout(buf):
            rc, dt = self.timed(check, "classify", cli.main, list(self.argv))
        out = buf.getvalue()
        check(rc == 0, f"classify exit code {rc}")
        check(sha256(out) == self.golden["classify_n128_json_sha256"]
              and len(out.encode()) == self.golden["classify_n128_json_bytes"],
              f"classify output ({len(out.encode())} bytes) differs from golden")
        try:
            doc = json.loads(out)
        except ValueError as exc:
            check(False, f"classify output is not JSON: {exc}")
            return dt
        check(len(doc["params"]) == self.golden["classify_n128_records"],
              f"classify gave {len(doc['params'])} records")
        check(all(c["passed"] for c in doc["claims"].values()) and len(doc["claims"]) == 4,
              "a classify claim report failed")
        return dt

    def _blockwise(self, members, check, tracer):
        lat = []
        for l, bc in members:
            with _op(tracer, "blockwise"):
                d, dt = self.timed(check, f"blockwise C17G l={l}", constructions.blockwise_min_distance, bc)
            lat.append(dt)
            check(d == 12, f"blockwise C17G l={l}: d = {d}, want 12")
        return lat

    def run_pass(self, members, check, tracer=None):
        return [self._classify(check, tracer)] + self._blockwise(members, check, tracer)

    def named(self, r):
        # each pass's latencies are [classify, blockwise l..., ...]
        return {
            "classify_s": (median(p[0] for p in r["pass_lats"]), "s"),
            "blockwise_s": (median(sum(p[1:]) for p in r["pass_lats"]), "s"),
        }


WORKLOADS = {w.name: w for w in (Audit30, DeepScan, RepairSim, ClassifyLarge)}
