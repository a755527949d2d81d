"""Start-up cost: which modules a call executes, and the lazily resolved
package API.

A module counts as executed when it is in sys.modules as a plain
``types.ModuleType``; the CLI's LazyLoader placeholders are a subclass until
their first attribute access.  Each import set is taken in a fresh
interpreter, since this test process has long since imported everything,
and without site (python -S), so that modules a site hook imports at start
(typing, for one) are not hidden in the bare start's set.
"""

import functools
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
                 "equidist", "exactarith", "records")
}
PROBE = """\
import json, sys, types
{code}
print(json.dumps(sorted(n for n, m in sys.modules.items() if type(m) is types.ModuleType)))
"""


def executed_modules(code: str) -> set[str]:
    """Modules executed by `code` in a fresh interpreter, beyond what a bare
    interpreter start executes."""

    return _probe(code) - _probe("pass")


@functools.lru_cache(maxsize=None)
def _probe(body: str) -> frozenset[str]:
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(code=body)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout.splitlines()[-1]))


def test_parser_ready_executes_no_subcommand_module():
    executed = executed_modules("from avoidpairs.cli import build_parser\nbuild_parser()")
    assert "avoidpairs.cli" in executed
    assert executed & PACKAGE_MODULES == set()
    assert executed & {"dataclasses", "fractions"} == set()


# a clique K_5 plus a girth > 6 part: `witness build --n 20 --e 12 --p 6`
WITNESS_G6 = "S~{?GG???????????????????????????"
ONE_CALL_PER_SUBCOMMAND = [
    ["pell", "--count", "3"],
    ["criterion", "eval", "--m", "40", "--q", "0"],
    ["criterion", "cert", "--m", "40", "--f", "390"],
    ["criterion", "scan-t4", "--from", "5", "--to", "60"],
    ["criterion", "scan-t2", "--alpha", "1/2", "--beta", "3", "--from", "5", "--to", "60"],
    ["criterion", "scan-interval", "--m", "40"],
    ["criterion", "scan-mod23", "--from", "2", "--to", "60"],
    ["witness", "build", "--n", "30", "--e", "20", "--p", "6", "--pair", "5,5"],
    ["witness", "verify", "--graph6", "{g6}", "--pair", "5,5", "--clique-vertices", "0,1,2,3,4",
     "--p", "6"],
    ["oracle", "arrows", "--n", "6", "--e", "7", "--m", "4", "--f", "3"],
    ["oracle", "sn", "--n", "5", "--m", "3", "--f", "1"],
    ["oracle", "xcheck-cf", "--max-m", "5"],
    ["bipartite", "realize", "--m", "3", "--f", "4", "--json"],
    ["diag", "equidist", "--q", "0", "--n", "100", "--bins", "4"],
]


@pytest.mark.parametrize("argv", ONE_CALL_PER_SUBCOMMAND, ids=" ".join)
def test_no_call_executes_dataclasses_and_only_scan_t2_executes_fractions(argv, tmp_path):
    g6_path = tmp_path / "w.g6"
    g6_path.write_text(WITNESS_G6 + "\n")
    argv = [str(g6_path) if arg == "{g6}" else arg for arg in argv]
    executed = executed_modules(
        "import contextlib, io\n"
        "from avoidpairs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    assert "avoidpairs.records" in executed
    assert "dataclasses" not in executed
    assert ("fractions" in executed) == (argv[1] == "scan-t2")


def test_criterion_cert_executes_only_criterion_and_its_imports():
    executed = executed_modules(
        "from avoidpairs.cli import main\n"
        "assert main(['criterion', 'cert', '--m', '40', '--f', '390']) == 0"
    )
    assert "avoidpairs.criterion" in executed
    untouched = {f"avoidpairs.{name}" for name in
                 ("oracle", "canon", "witness", "bipartite", "pell", "equidist", "graphs")}
    assert executed & (untouched | {"typing"}) == set()


@pytest.mark.parametrize("argv", [
    ["pell", "--count", "1"],
    ["bipartite", "realize", "--m", "3", "--f", "4", "--json"],
    ["bipartite", "realize", "--m", "5", "--f", "20", "--complement"],
], ids=" ".join)
def test_pell_and_bipartite_execute_neither_exactarith_nor_criterion(argv):
    # the --fracbits default is read only by the commands that use it
    executed = executed_modules(
        "import contextlib, io\n"
        "from avoidpairs.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0"
    )
    assert f"avoidpairs.{argv[0]}" in executed
    assert executed & {"avoidpairs.exactarith", "avoidpairs.criterion"} == set()


def test_witness_build_executes_neither_oracle_nor_canon(tmp_path):
    # graph6 and its bit layout belong to graphs: neither writing nor
    # reading a witness reaches the canonical labelling
    g6 = tmp_path / "w.g6"
    for argv in (
        ["witness", "build", "--n", "30", "--e", "20", "--p", "6", "--pair", "5,5",
         "--graph6", str(g6)],
        ["witness", "verify", "--graph6", str(g6), "--pair", "5,5",
         "--clique-vertices", "0,1,2,3,4", "--p", "6"],
    ):
        executed = executed_modules(f"from avoidpairs.cli import main\nassert main({argv!r}) == 0")
        assert {"avoidpairs.witness", "avoidpairs.graphs"} <= executed, argv
        assert executed & {"avoidpairs.oracle", "avoidpairs.canon"} == set(), argv


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
