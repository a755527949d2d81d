"""Module boundaries: no package module imports another one's private
names, so a representation such as canon's code format stays behind the
module that owns it; and graphs alone builds graphs edge by edge, while the
relabelled induced subgraph lives only in the tests, as a reference."""

import ast
from pathlib import Path

import avoidpairs

PACKAGE = Path(avoidpairs.__file__).parent


def private_imports(source: str) -> list[str]:
    """`module.name` for each underscore name that the source imports from
    a module of the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and not module.startswith("avoidpairs"):
            continue
        found += [f"{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = {path.name: private_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_check_sees_a_private_import():
    source = ("from __future__ import annotations\nfrom .canon import MAX_N, _encode\n"
              "from avoidpairs.graphs import _word\nfrom math import _private\n")
    assert private_imports(source) == ["canon._encode", "avoidpairs.graphs._word"]


def edge_builders(source: str) -> list[str]:
    """`add_edge` calls and `induced_subgraph` definitions in the source."""
    tree = ast.parse(source)
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return ([f"call {ast.unparse(f)}" for f in calls
             if getattr(f, "attr", getattr(f, "id", None)) == "add_edge"]
            + [f"def {node.name}" for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "induced_subgraph"])


def test_only_graphs_adds_edges_and_no_module_relabels_a_part():
    found = {path.name: edge_builders(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "graphs.py": ["call g.add_edge"]}


def test_the_check_sees_edge_builders():
    source = ("g.add_edge(0, 1)\nadd_edge(g, 1, 2)\n"
              "def induced_subgraph(g, part):\n    pass\n")
    assert edge_builders(source) == ["call g.add_edge", "call add_edge", "def induced_subgraph"]
