"""Span tracing of lrc4's layers, installed from outside the package.

``Tracer.install`` replaces the public functions and the layer helpers
listed below with wrappers that record one span per call: its name,
start, end, parent span and the top-level benchmark operation it belongs
to.  Spans stay in memory until ``write`` dumps them at the end of the
run.  ``Eliminator.push`` is wrapped for counts only: it runs millions of
times, so a span per call would bury the work it is meant to show.

Nothing under ``src/`` is edited; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import lrc4
from lrc4 import _gf4vec, classify, cli, code, constructions, lrc, mat4, pg, repair

#: (span name, owner, attribute) of every call wrapped with a span.
SPANS = (
    ("code.has_dependent_columns", code, "has_dependent_columns"),
    ("code.min_distance", code.LinearCode, "min_distance"),
    ("code.route.enumerate", code.LinearCode, "_min_distance_enumerate"),
    ("code.route.scan", code.LinearCode, "_min_distance_scan"),
    ("lrc.verify_locality", lrc, "verify_locality"),
    ("lrc.locality_search", lrc, "_locality_search"),
    ("lrc.punctured_distance", lrc, "_punctured_distance_at_least"),
    ("lrc.structured_parity_check", lrc, "structured_parity_check"),
    ("lrc.check_structure", lrc, "check_structure"),
    ("lrc.check.h_prime_mds", lrc, "_check_h_prime"),
    ("lrc.check.rows_per_group", lrc, "_check_rows_per_group"),
    ("lrc.check.punctured_mds", lrc, "_check_punctured_mds"),
    ("lrc.check.disjointness", lrc, "_check_disjointness"),
    ("lrc.check.distance_cap", lrc, "_check_distance_cap"),
    ("mat4.rref", mat4.Mat4, "rref"),
    ("mat4.right_kernel", mat4.Mat4, "right_kernel"),
    ("mat4.matmul", mat4.Mat4, "__matmul__"),
    ("constructions.build", constructions, "build"),
    ("constructions.blockwise_min_distance", constructions, "blockwise_min_distance"),
    ("repair.local_repair", repair, "local_repair"),
    ("repair.solve_group", repair, "_solve_group"),
    ("classify.enumerate_optimal_params", classify, "enumerate_optimal_params"),
    ("classify.claim.claim1", classify, "verify_claim1"),
    ("classify.claim.claim2", classify, "verify_claim2"),
    ("classify.claim.geometric_nonexistence", classify, "verify_geometric_nonexistence"),
    ("classify.claim.counting_bounds", classify, "verify_counting_bounds"),
    ("cli.classify", cli, "_cmd_classify"),
)

#: Generators: one span per resumption, so the span covers only the time
#: spent producing items, not the consumer's work between them.  The last
#: field names the counter that sums the rows of each yielded item.
GENERATOR_SPANS = (
    ("code.codeword_chunks", code.LinearCode, "codeword_chunks", "code.codewords_enumerated"),
    ("pg.enumerate_subspaces", pg, "enumerate_subspaces", None),
)


class Tracer:
    def __init__(self, clock) -> None:
        self._clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(self._clock())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = self._clock()
        self._stack.pop()

    @contextmanager
    def op(self, name: str):
        """Mark one top-level benchmark operation; spans inside carry its id."""
        self._op = self._next_op
        self._next_op += 1
        sid = self._open(f"bench.{name}")
        try:
            yield
        finally:
            self._close(sid)
            self._op = -1

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _gen_span(self, name: str, fn, count_rows: str | None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid)
                if count_rows:
                    counts[count_rows] += len(item)
                yield item

        return wrapper

    def _punctured(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            passed = fn(*args, **kwargs)
            counts["lrc.punctured_distance.passed"] += bool(passed)
            return passed

        return wrapper

    def _push(self, fn):
        counts = self.counts

        def push(elim, v):
            grew = fn(elim, v)
            counts["gf4vec.push.calls"] += 1
            if not grew:
                counts["gf4vec.push.dependent"] += 1
            return grew

        return push

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        old = getattr(owner, attr)
        if isinstance(owner, type):
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)
            return
        # a module-level function may also be bound by name in other lrc4
        # modules (``from .x import f``); rebind every such reference
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "lrc4":
                continue
            for key, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, key, old))
                    setattr(mod, key, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in SPANS:
            fn = getattr(owner, attr)
            if name == "lrc.punctured_distance":
                fn = self._punctured(fn)
            self._replace(owner, attr, self._span(name, fn))
        for name, owner, attr, count_rows in GENERATOR_SPANS:
            self._replace(owner, attr, self._gen_span(name, getattr(owner, attr), count_rows))
        self._replace(_gf4vec.Eliminator, "push", self._push(_gf4vec.Eliminator.push))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """span name -> (spans, self seconds); self = duration minus the
        time covered by direct child spans (calls here are sequential, so
        children never overlap)."""
        child = [0.0] * len(self.starts)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[sid] - self.starts[sid]
        totals: dict[str, list] = {}
        for sid, name in enumerate(self.names):
            t = totals.setdefault(name, [0, 0.0])
            t[0] += 1
            t[1] += self.ends[sid] - self.starts[sid] - child[sid]
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def write(self, path: Path, meta: dict) -> None:
        index: dict[str, int] = {}
        for name in self.names:
            index.setdefault(name, len(index))
        t0 = self.starts[0] if self.starts else 0.0
        spans = [
            [index[n], round(s - t0, 9), round(e - t0, 9), p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "lrc4": lrc4.__file__,
                    "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": list(index),
                    "counts": dict(self.counts),
                    "spans": spans,
                },
                fh,
                separators=(",", ":"),
            )
