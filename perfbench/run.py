"""lrc4 benchmark: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload audit30 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run from a checkout of the repository; the package is imported from its
``src/`` tree, nothing is installed.  A run is a closed loop with one
caller in one process and no threads: each call starts when the previous
one returns.  It sets up (fresh-interpreter imports and input generation,
each three times, plus one untimed warm-up), then repeats whole passes of
the workload for ``--seconds`` of wall time (at least the workload's
``min_passes``), checking every output.  Times are in reference seconds (see ``clock.py``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` times one plain pass and one traced pass instead, prints
the per-layer metrics and the tracing overhead, and writes every span to
``perfbench/out/``.  ``--workload all`` runs each workload in its own
process and prints every workload's metrics under their own names.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A run with any failed check reports ``"correct": false``; its timings are
still reported.  The run refuses to start (exit code 2, no result) when
the source tree is missing, when ``LRC4_MAX_SCAN`` is set, or when one of
the package's resource guards differs from the value it was measured with.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from clock import RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

#: The package's resource guards at the commit the benchmark was defined.
#: A "speed-up" that loosens one of them must fail, not improve.
GUARDS = (
    ("code", "DEFAULT_SCAN_BUDGET", 10**8),
    ("lrc", "LOCALITY_SEARCH_MAX_N", 30),
    ("code", "_MAX_ENUM_K", 14),
)

#: per-layer metrics read from the tracer's counters rather than its spans
COUNT_METRICS = (
    "gf4vec.push.calls",
    "gf4vec.push.dependent",
    "gf4vec.push.calls_t11",
    "code.codewords_enumerated",
)
#: traced counts of audit30 that must repeat exactly across runs and seeds
AUDIT_COUNTS = (
    "gf4vec.push.calls",
    "gf4vec.push.dependent",
    "lrc.punctured_distance.calls",
    "lrc.punctured_distance.passed",
)

WORKLOAD_NAMES = ("audit30", "deep_scan", "repair_sim", "classify_large")


class Refused(Exception):
    """The benchmark cannot run meaningfully here; no result is printed."""


class Checks:
    """Counts checked operations; a failed one marks the run invalid."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def preflight():
    """Import lrc4 from this checkout's src/ and verify its guards."""
    if not (SRC / "lrc4" / "__init__.py").is_file():
        raise Refused(f"no lrc4 source tree under {SRC}")
    if "LRC4_MAX_SCAN" in os.environ:
        raise Refused("LRC4_MAX_SCAN is set; the benchmark measures the default scan budget only")
    sys.path.insert(0, str(SRC))
    import lrc4
    from lrc4 import code, lrc

    if Path(lrc4.__file__).resolve().parent != (SRC / "lrc4").resolve():
        raise Refused(f"imported lrc4 from {lrc4.__file__}, not from {SRC}")
    modules = {"code": code, "lrc": lrc}
    for mod, attr, want in GUARDS:
        got = getattr(modules[mod], attr, None)
        if got != want:
            raise Refused(f"guard lrc4.{mod}.{attr} is {got!r}, the benchmark needs {want!r}")


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def import_seconds(clock) -> float:
    """Time a fresh interpreter that imports lrc4.cli (numpy included)."""
    prog = f"import sys; sys.path.insert(0, {str(SRC)!r}); import lrc4.cli"
    t = clock()
    subprocess.run([sys.executable, "-c", prog], check=True, timeout=120)
    return clock() - t


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def set_up(wl, seed: int, check: Checks, clock):
    imports, gens = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds(clock))
        gc.collect()
        t = clock()
        inputs = wl.prepare(seed)
        gens.append(clock() - t)
    t = clock()
    wl.warm_up(inputs, check)
    warm = clock() - t
    parts = {"import_s": median(imports), "inputs_s": median(gens), "warm_up_s": warm}
    return inputs, parts


def timed_pass(wl, inputs, check, clock, tracer=None):
    gc.collect()
    t = clock()
    lat = wl.run_pass(inputs, check, tracer)
    return clock() - t, lat


def run_timed(wl, seed: int, seconds: int, check: Checks, ref: RefClock) -> tuple[dict, dict]:
    clock = ref.now
    wall = time.perf_counter()
    with ref:
        inputs, setup = set_up(wl, seed, check, clock)
        passes: list[tuple[float, list[float]]] = []
        start = time.perf_counter()
        # whole passes for --seconds of wall time, at least min_passes;
        # start another only when one more as long as the last still fits
        while True:
            t = time.perf_counter()
            passes.append(timed_pass(wl, inputs, check, clock))
            t_end = time.perf_counter()
            if len(passes) >= wl.min_passes and t_end - start + (t_end - t) > seconds:
                break
        wall, ref_total = time.perf_counter() - wall, clock()
    wl.finish(inputs, check)
    # every pass repeats the same operations in the same order; an
    # operation's latency is the median of its repeats
    lats = [median(repeats) for repeats in zip(*(lat for _, lat in passes))]
    r = {
        "setup_s": sum(setup.values()),
        "pass_s": median(p for p, _ in passes),
        "op_p50_ms": median(lats) * 1e3,
        "op_tail_ms": percentile(lats, wl.tail_pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": len(passes),
        "ops_per_pass": len(passes[0][1]),
        "pass_lats": [lat for _, lat in passes],
    }
    named = {"setup_s": (r["setup_s"], "s"), **wl.named(r),
             "peak_rss_mb": (r["peak_rss_mb"], "MB")}
    print(f"clock: {wall:.3f} wall s measured as {ref_total:.3f} reference s")
    print(f"setup: {', '.join(f'{k} {v:.4f}' for k, v in setup.items())} "
          f"({SETUP_REPEATS} fresh imports and input generations, median)")
    print(f"passes: {r['passes']} of {r['ops_per_pass']} {wl.op_unit}(s); pass times "
          + " ".join(f"{p:.4f}" for p, _ in passes))
    print(f"latency: {len(lats)} operations, each the median of {len(passes)} repeat(s); "
          f"p50 and p{wl.tail_pct} ({len(lats) - math.ceil(wl.tail_pct / 100 * len(lats))} beyond it)")
    return r, named


def run_traced(wl, seed: int, check: Checks, golden: dict, ref: RefClock) -> dict:
    from spans import Tracer

    clock = ref.now
    tracer = Tracer(clock)
    with ref:
        inputs = wl.prepare(seed)
        wl.warm_up(inputs, check)
        plain_s, _ = timed_pass(wl, inputs, check, clock)
        tracer.install()
        try:
            traced_s, _ = timed_pass(wl, inputs, check, clock, tracer)
        finally:
            tracer.uninstall()
    wl.finish(inputs, check)

    totals = tracer.layer_totals()
    counts = tracer.counts
    values = {name: counts[name] for name in COUNT_METRICS}
    for name, (spans, self_s) in totals.items():
        values[f"{name}.calls"] = spans
        values[f"{name}.self_s"] = self_s
    pd_calls = values.get("lrc.punctured_distance.calls", 0)
    values["lrc.punctured_distance.pass_ratio"] = (
        counts["lrc.punctured_distance.passed"] / pd_calls if pd_calls else 0.0)
    values["trace.overhead_pct"] = (traced_s / plain_s - 1) * 100
    print(f"traced pass {traced_s:.4f} s against untraced {plain_s:.4f} s; "
          f"{len(tracer.starts)} spans")
    if wl.name == "audit30":
        observed = {**counts, **values}
        got = {k: observed.get(k, 0) for k in AUDIT_COUNTS}
        want = golden["audit30_traced_counts"]
        print(f"audit30 counts {got}: {'match' if got == want else 'DIFFER FROM'} "
              f"the reference {want}")
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.write(path, {"workload": wl.name, "seed": seed, "plain_pass_s": plain_s,
                        "traced_pass_s": traced_s})
    print(f"spans written to {path.relative_to(ROOT)}")
    return values


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise Refused(f"workload {name} exited with {proc.returncode}")
        named = json.loads(next(l for l in lines if l.startswith("named "))[6:])
        results[name] = (json.loads(lines[-1]), named)
    metrics = {}
    for name, (res, named) in results.items():
        for metric, m in named.items():
            print(f"{name:15} {metric:14} {m['value']:14.6g} {m['unit']}")
            metrics[f"{name}.{metric}"] = m
    print(json.dumps({
        "correct": all(res["correct"] for res, _ in results.values()),
        "attempted": sum(res["attempted"] for res, _ in results.values()),
        "failed": sum(res["failed"] for res, _ in results.values()),
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lrc4 benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        golden = json.loads((HERE / "golden.json").read_text())
        preflight()
        print("machine " + json.dumps(machine()))
        if args.workload == "all":
            return run_all(args)
        from workloads import WORKLOADS

        check = Checks()
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        ref = RefClock()
        wl = WORKLOADS[args.workload](golden, ref.now)
        if args.trace:
            values = run_traced(wl, args.seed, check, golden, ref)
            metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                       for m in spec["per_layer"]}  # 0: the layer never ran
        else:
            values, named = run_timed(wl, args.seed, args.seconds, check, ref)
            named["ops_attempted"] = (check.attempted, "count")
            named["ops_failed"] = (check.failed, "count")
            for metric, (value, unit) in named.items():
                print(f"  {metric:14} {value:14.6g} {unit}")
            print("named " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in named.items()}))
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except Refused as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 2
    for msg in check.messages[:20]:
        print(f"FAILED: {msg}")
    print(f"checks: {check.attempted} attempted, {check.failed} failed")
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
