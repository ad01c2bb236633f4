"""Every lrc4 name the benchmark harness reads still exists.

``perfbench/spans.py`` wraps functions by (owner, attribute),
``perfbench/workloads.py`` calls ``module.attr`` on lrc4 modules looked
up at call time, and ``perfbench/run.py`` refuses to run unless each of
its ``GUARDS`` holds, so a renamed or deleted name would only show when
the benchmark runs.  These files are read here, never changed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

from lrc4 import _gf4vec

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_reads():
    """(module, attribute) of each ``module.attr`` in workloads.py whose
    module is imported from lrc4."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "lrc4" for a in node.names}
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_traced_names_exist():
    spans = load_spans()
    wrapped = [(owner, attr) for _, owner, attr in spans.SPANS]
    wrapped += [(owner, attr) for _, owner, attr, _ in spans.GENERATOR_SPANS]
    wrapped.append((_gf4vec.Eliminator, "push"))
    assert [(o, a) for o, a in wrapped if not hasattr(o, a)] == []


def test_workload_names_exist():
    reads = workload_reads()
    assert reads  # the scan itself still finds the calls
    missing = [(m, a) for m, a in sorted(reads)
               if not hasattr(importlib.import_module(f"lrc4.{m}"), a)]
    assert missing == []


def benchmark_guards():
    """``GUARDS`` of run.py, (module, attribute, value) triples, evaluated
    from its source without running the file."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["GUARDS"]]
    return eval(compile(ast.Expression(value), "run.py", "eval"), {})


def test_benchmark_guards_hold():
    guards = benchmark_guards()
    assert guards  # the scan still finds the assignment
    missing = object()
    wrong = [(m, a, want) for m, a, want in guards
             if getattr(importlib.import_module(f"lrc4.{m}"), a, missing) != want]
    assert wrong == []
