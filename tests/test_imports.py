"""Module boundaries: no package module imports another one's private
names, so a representation such as canon's code format stays behind the
module that owns it."""

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
