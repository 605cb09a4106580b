"""Each rule of the package has one owner in the source.

The modules are read with ast, not imported: CSV text is written only by
dataset._csv_text, and the command line states none of the sweep's
argument rules but hands its flags to persistence._check_sweep.
"""

import ast
from pathlib import Path

import clusterpersist

SRC = Path(clusterpersist.__file__).resolve().parent

# persistence_profile's parameters that the sweep rules read
SWEEP_ARGUMENTS = {"k_max", "k_min", "mode", "restarts", "seed", "sigma"}


def parsed():
    """(module file name, its tree) for every module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def enclosing_functions(tree):
    """Each node of tree mapped to the name of the function around it."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            owner[child] = child.name if isinstance(child, ast.FunctionDef) else name
            visit(child, owner[child])

    visit(tree, None)
    return owner


def test_csv_is_written_only_by_csv_text():
    writers, importers = set(), set()
    for name, tree in parsed():
        owner = enclosing_functions(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "writer":
                if getattr(node.value, "id", None) == "csv":
                    writers.add((name, owner[node]))
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                importers.add(name)
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                importers.add(name)
    assert writers == {("dataset.py", "_csv_text")}
    # dataset also reads CSV, in load_csv
    assert importers == {"dataset.py"}


def test_cli_states_no_sweep_rule():
    tree = ast.parse((SRC / "cli.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "_check_sweep" in names
    assert "_kernel_denominator" not in names
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            read = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            read |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert not read & SWEEP_ARGUMENTS, ast.unparse(node)
