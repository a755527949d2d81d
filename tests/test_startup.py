"""Start-up cost: which modules a call executes, and the lazily resolved
package API.

A module counts as executed when it is in sys.modules as a plain
``types.ModuleType``; the CLI's LazyLoader placeholders are a subclass until
their first attribute access.  Each import set is taken in a fresh
interpreter, since this test process has long since imported everything.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import avoidpairs

SRC = pathlib.Path(avoidpairs.__file__).resolve().parents[1]
PACKAGE_MODULES = {
    f"avoidpairs.{name}"
    for name in ("criterion", "oracle", "canon", "witness", "bipartite", "pell",
                 "equidist", "exactarith")
}
PROBE = """\
import json, sys, types
{code}
print(json.dumps(sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType)))
"""


def executed_modules(code: str) -> set[str]:
    """Modules executed by `code` in a fresh interpreter, beyond what a bare
    interpreter start executes."""

    def probe(body: str) -> set[str]:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE.format(code=body)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    return probe(code) - probe("pass")


def test_parser_ready_executes_no_subcommand_module():
    executed = executed_modules("from avoidpairs.cli import build_parser\nbuild_parser()")
    assert "avoidpairs.cli" in executed
    assert executed & PACKAGE_MODULES == set()
    assert executed & {"dataclasses", "fractions"} == set()


def test_criterion_cert_executes_only_criterion_and_its_imports():
    executed = executed_modules(
        "from avoidpairs.cli import main\n"
        "assert main(['criterion', 'cert', '--m', '40', '--f', '390']) == 0"
    )
    assert "avoidpairs.criterion" in executed
    untouched = {f"avoidpairs.{name}" for name in
                 ("oracle", "canon", "witness", "bipartite", "pell", "equidist")}
    assert executed & untouched == set()


def test_import_package_executes_no_submodule():
    executed = executed_modules("import avoidpairs")
    assert {name for name in executed if name.startswith("avoidpairs.")} == set()


def test_every_export_resolves_to_its_definition():
    for name in avoidpairs.__all__:
        namespace = {}
        exec(f"from avoidpairs import {name} as obj", namespace)
        module = importlib.import_module(f"avoidpairs.{avoidpairs._MODULE_OF[name]}")
        assert namespace["obj"] is vars(module)[name], name


def test_dir_lists_exports_and_unknown_names_raise():
    assert set(avoidpairs.__all__) <= set(dir(avoidpairs))
    assert avoidpairs.__version__
    with pytest.raises(AttributeError):
        avoidpairs.no_such_name
    with pytest.raises(ImportError):
        exec("from avoidpairs import no_such_name", {})
