"""The benchmark's workloads name the layer functions they must reach.

perfbench/workloads.py lists, per workload, the spans "<layer>.<function>"
(largest_eigenvalue also as .small/.large) that a traced solve must contain,
and the tracer wraps only public functions defined in a layer module. A
renamed, moved or privatized function would leave its span empty; this test
catches that without running the benchmark. The file is read, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def stressed_spans():
    """(workload, span) for every name in each Workload(...)'s stresses."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            args = {kw.arg: kw.value for kw in node.keywords}
            name = ast.literal_eval(args.get("name", node.args[0]))
            stresses = ast.literal_eval(args.get("stresses", node.args[3]))
            for span in stresses:
                yield name, span


def test_every_stressed_span_is_a_public_layer_function():
    spans = list(stressed_spans())
    assert {w for w, _ in spans} == {"grid100", "rings", "tables", "da_trace"}
    for workload, span in spans:
        base = span.removesuffix(".small").removesuffix(".large")
        layer, _, name = base.partition(".")
        module = importlib.import_module(f"clusterpersist.{layer}")
        fn = vars(module).get(name)
        assert not name.startswith("_"), (workload, span)
        assert inspect.isfunction(fn), (workload, span)
        assert fn.__module__ == module.__name__, (workload, span)
