"""Command-line interface: outputs, formats, exit codes, determinism."""

import ast
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

import avoidpairs
from avoidpairs import cli, graphs, witness
from avoidpairs.cli import (
    BLOCK_LINES,
    EXIT_ASSERTION,
    EXIT_BROKEN_PIPE,
    EXIT_GUARD,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    dump_json,
    main,
)
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import from_graph6
from avoidpairs.oracle import ORACLE_MAX_M
from avoidpairs.pell import COUNT_GUARD
from helpers import offset_disjunction_records, scan_interval_record
from test_golden_stdout import GOLDEN, GOLDEN_STDERR, WITNESS_G6


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_pell_count_three(capsys):
    code, out, _ = run_cli(capsys, "pell", "--count", "3")
    assert code == EXIT_OK
    records = json_lines(out)
    assert [rec["m"] for rec in records] == [40, 221, 1276]
    assert all(rec["checks"]["passed"] for rec in records)


def test_pell_raw_stream(capsys):
    code, out, _ = run_cli(capsys, "pell", "--count", "4", "--raw")
    assert code == EXIT_OK
    assert [rec["m"] for rec in json_lines(out)] == [4, 9, 40, 221]


def test_pell_count_is_guarded(capsys):
    # the output grows as the square of the count: 4.9 MB at the bound
    code, out, _ = run_cli(capsys, "pell", "--count", str(COUNT_GUARD))
    assert code == EXIT_OK and out.count("\n") == COUNT_GUARD
    code, out, err = run_cli(capsys, "pell", "--count", str(COUNT_GUARD + 1))
    assert (code, out) == (EXIT_GUARD, "")
    assert json.loads(err) == {"error": f"pell guard: count={COUNT_GUARD + 1} exceeds "
                                        f"{COUNT_GUARD}", "kind": "guard"}


def test_criterion_eval_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "criterion", "eval", "--m", "40", "--q", "0")
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert (rec["L"], rec["R"], rec["verdict"]) == (29, 28, "L>R")
    assert rec["frac_y"]["approx"] == 0.5

    code, out, _ = run_cli(capsys, "criterion", "eval", "--m", "40", "--q", "0", "--csv")
    lines = out.splitlines()
    assert lines[0] == "m,q,Dy,Dz,L,R,verdict"
    assert lines[1] == "40,0,2809,3121,29,28,L>R"


def test_criterion_eval_csv_refuses_before_its_header(capsys):
    code, out, err = run_cli(capsys, "criterion", "eval", "--m", "3", "--q", "0", "--csv")
    assert (code, out) == (EXIT_USAGE, "")
    [line] = err.splitlines()
    record = json.loads(line)
    assert set(record) == {"error", "kind"} and record["kind"] == "domain"


def test_criterion_cert(capsys):
    code, out, _ = run_cli(capsys, "criterion", "cert", "--m", "40", "--f", "390")
    assert code == EXIT_OK and json_lines(out)[0]["certified"] is True
    code, out, _ = run_cli(capsys, "criterion", "cert", "--m", "5", "--f", "7")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and rec["certified"] is False and rec["direction"] == "complement"


def test_scan_t4_assert_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "criterion", "scan-t4", "--from", "740", "--to", "800", "--assert")
    assert code == EXIT_OK
    assert all(rec["which"] != "none" for rec in json_lines(out))

    code, _, err = run_cli(capsys, "criterion", "scan-t4", "--from", "13", "--to", "13", "--assert")
    assert code == EXIT_ASSERTION
    assert "assertion" in err


def test_scan_t4_assert_failure_streams_records_then_reports(capsys):
    code, out, err = run_cli(capsys, "criterion", "scan-t4", "--from", "5", "--to", "20", "--assert")
    assert code == EXIT_ASSERTION
    streamed = json_lines(out)
    assert [rec["m"] for rec in streamed] == [m for m in range(5, 21) if m % 4 in (0, 1)]
    *failures, error = json_lines(err)
    assert failures == [rec for rec in streamed if rec["which"] == "none"] and failures
    assert error["kind"] == "assertion"

    code, out, err = run_cli(
        capsys, "criterion", "scan-t4", "--from", "5", "--to", "20", "--assert", "--csv")
    assert code == EXIT_ASSERTION
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [str(rec["m"]) for rec in streamed]
    assert json_lines(err) == [*failures, error]


def test_scan_t4_line_matches_dump_json(capsys):
    # the range holds rows below the +/-6m envelope and rows of every verdict
    records = offset_disjunction_records(5, 2000)
    assert any(rec["L6m"] is None for rec in records)
    assert {rec["which"] for rec in records} == {"center", "offset6m", "none"}
    code, out, _ = run_cli(capsys, "criterion", "scan-t4", "--from", "5", "--to", "2000")
    assert code == EXIT_OK
    assert out.splitlines(keepends=True) == [dump_json(rec) + "\n" for rec in records]


def test_scan_t4_lines_at_the_offset_envelope(capsys):
    code, out, _ = run_cli(capsys, "criterion", "scan-t4", "--from", "33", "--to", "36")
    assert code == EXIT_OK
    assert out == (
        '{"L0":24,"L6m":null,"Lneg6m":null,"R0":23,"R6m":null,"Rneg6m":null,'
        '"m":33,"which":"center"}\n'
        '{"L0":26,"L6m":13,"Lneg6m":34,"R0":25,"R6m":14,"Rneg6m":33,'
        '"m":36,"which":"center"}\n'
    )


def cli_env(unbuffered: bool) -> dict:
    """The environment for a CLI subprocess, with PYTHONUNBUFFERED=1 (python
    -u: every stdout write goes straight to the system) or without it."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(pathlib.Path(avoidpairs.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_141_without_traceback(unbuffered):
    with subprocess.Popen(
        [sys.executable, "-m", "avoidpairs.cli", "criterion", "scan-t4",
         "--from", "740", "--to", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(unbuffered),
    ) as proc:
        assert json.loads(proc.stdout.readline())["m"] == 740
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert proc.stderr.read() == b""


class CountingStdout:
    """A stdout stand-in that counts writes and lines and hashes the text,
    keeping none of it."""

    def __init__(self):
        self.writes = 0
        self.lines = 0
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.writes += 1
        self.lines += text.count("\n")
        self.sha256.update(text.encode())
        return len(text)


def run_counted(monkeypatch, argv) -> CountingStdout:
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(argv) == EXIT_OK
    finally:
        monkeypatch.undo()
    return stdout


GOLDEN_DIGEST = {tuple(argv): digest for argv, _, digest in GOLDEN}


def test_scan_t4_writes_stdout_in_blocks(monkeypatch):
    argv = ["criterion", "scan-t4", "--from", "50000", "--to", "150000"]
    stdout = run_counted(monkeypatch, argv)
    rows = 50_001  # the m = 0, 1 (mod 4) in range
    assert stdout.writes <= math.ceil(rows / 256) + 2  # 198: blocks of 256 lines
    assert stdout.lines == rows
    assert stdout.sha256.hexdigest() == GOLDEN_DIGEST[tuple(argv)]


def test_csv_writes_stdout_in_blocks(monkeypatch):
    argv = ["criterion", "scan-t4", "--from", "5", "--to", "900", "--csv"]
    stdout = run_counted(monkeypatch, argv)
    lines = 1315  # the header and one row per (m, q): 15 at q = 0, 433 at three q
    assert stdout.writes <= math.ceil(lines / 256) + 2
    assert stdout.lines == lines
    assert stdout.sha256.hexdigest() == GOLDEN_DIGEST[tuple(argv)]


# scan-interval writes one line in many writes; its own bound is in
# test_scan_interval_streams_in_flat_memory
BLOCK_CASES = [(argv, code) for argv, code, _ in GOLDEN + GOLDEN_STDERR
               if "scan-interval" not in argv]


@pytest.mark.parametrize("argv,code", BLOCK_CASES, ids=[" ".join(argv) for argv, _ in BLOCK_CASES])
def test_every_golden_command_writes_in_blocks(monkeypatch, tmp_path, argv, code):
    g6_path = tmp_path / "w.g6"
    g6_path.write_text(WITNESS_G6 + "\n")
    argv = [str(g6_path) if arg == "{g6}" else arg for arg in argv]
    stdout, stderr = CountingStdout(), CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    try:
        assert main(argv) == code
    finally:
        monkeypatch.undo()
    assert stdout.writes == math.ceil(stdout.lines / BLOCK_LINES)
    assert stderr.writes == (code != EXIT_OK)


def stream_writers(source: str) -> dict[str, set[str]]:
    """For print, sys.stdout.write and sys.stderr.write, the names of the
    functions that call them ("<module>" outside any function)."""
    found = {"print": set(), "sys.stdout.write": set(), "sys.stderr.write": set()}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and ast.unparse(child) in found:
                found[ast.unparse(child)].add(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_write_lines_writes_stdout_and_only_main_maps_errors():
    assert stream_writers(pathlib.Path(cli.__file__).read_text()) == {
        "print": set(), "sys.stdout.write": {"write_lines"}, "sys.stderr.write": {"error", "main"}}
    # the check sees each kind of write
    assert stream_writers("def f():\n    print(1)\n    def g():\n        sys.stderr.write('')\n"
                          "sys.stdout.write('')\n") == {
        "print": {"f"}, "sys.stdout.write": {"<module>"}, "sys.stderr.write": {"g"}}


def test_scan_interval_streams_in_flat_memory(monkeypatch):
    argv = ["criterion", "scan-interval", "--m", "20000"]
    run_counted(monkeypatch, [*argv[:-1], "3"])  # loads the modules it runs
    tracemalloc.start()
    try:
        stdout = run_counted(monkeypatch, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 6999  # f = 99991501..99998499
    # the whole 0.75 MB line took a 6.3 MB peak when it was built in memory
    assert peak < 1 << 20
    assert stdout.writes <= math.ceil(rows / 256) + 3
    assert stdout.lines == 1
    assert stdout.sha256.hexdigest() == GOLDEN_DIGEST[tuple(argv)]


def test_witness_build_streams_its_record_in_flat_memory(monkeypatch, capsys):
    # the complement of K_34 plus a 9-leaf star on 600 vertices: the dense
    # record is about 0.7 MB of adjacency
    n = 600
    argv = ["witness", "build", "--n", str(n), "--e", str(binom2(n) - 570), "--p", "5",
            "--pair", "40,390"]
    run_counted(monkeypatch, [*argv[:5], "0", *argv[6:]])  # loads the modules it runs
    tracemalloc.start()
    try:
        stdout = run_counted(monkeypatch, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 14.7 MB when the record held the adjacency lists; 1.4 MB streamed
    assert peak < 4 << 20
    assert stdout.lines == 1 and stdout.writes <= math.ceil((n + 2) / BLOCK_LINES)
    code, out, _ = run_cli(capsys, *argv)
    rec = json.loads(out)
    assert out == dump_json(rec) + "\n" and rec["complemented"]
    assert hashlib.sha256(out.encode()).hexdigest() == stdout.sha256.hexdigest()
    g = from_graph6(rec["graph6"])
    assert rec["adjacency"] == [[u for u in range(n) if g.rows[v] >> u & 1] for v in range(n)]


def test_scan_interval_above_the_row_guard_is_refused_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "criterion", "scan-interval", "--m", "100000000")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_GUARD, "")
    assert json.loads(err)["kind"] == "guard"


def test_interval_rows_match_dump_json(capsys):
    # rows of all three kinds (certified, rejected direct, rejected
    # complement) and 55 all_pass intervals; the empty one at m = 2
    for m in range(1, 601):
        code, out, _ = run_cli(capsys, "criterion", "scan-interval", "--m", str(m))
        assert code == EXIT_OK
        assert out == dump_json(scan_interval_record(m)) + "\n", m


def test_failed_assert_keeps_every_row_on_stdout(capsys):
    # 448 rows: 15 below the +/-6m envelope, then a full block and a partial one
    argv = ["criterion", "scan-t4", "--from", "5", "--to", "900"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    code, asserted, _ = run_cli(capsys, *argv, "--assert")
    assert code == EXIT_ASSERTION
    assert plain.count("\n") == 448
    assert asserted == plain


def test_stdout_is_the_same_with_and_without_pythonunbuffered():
    argv = [sys.executable, "-m", "avoidpairs.cli", "criterion", "scan-t4",
            "--from", "5", "--to", "3000", "--assert"]
    runs = [subprocess.run(argv, capture_output=True, env=cli_env(unbuffered), timeout=60)
            for unbuffered in (True, False)]
    assert runs[0].returncode == runs[1].returncode == EXIT_ASSERTION
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout.count(b"\n") == 1498
    assert runs[0].stderr == runs[1].stderr


GROUP_NAMES = ["pell", "criterion", "witness", "oracle", "bipartite", "diag"]
PARSER_CASES = [
    [], ["--help"], ["nosuch"], ["--fracbits"], ["--fracbits", "x", "pell", "--count", "1"],
    ["pell"], ["pell", "--help"], ["pell", "--count", "0"],
    ["criterion"], ["criterion", "--help"], ["criterion", "nosuch"],
    ["criterion", "scan-t4", "--help"], ["criterion", "scan-t4", "--from", "x", "--to", "3"],
    ["criterion", "cert", "--m", "3", "--f", "2", "extra"],
    ["witness", "--help"], ["witness", "build"], ["witness", "verify", "--help"],
    ["oracle", "--help"], ["oracle", "sn", "--help"], ["oracle", "arrows", "--n", "x"],
    ["bipartite", "--help"], ["bipartite", "realize", "--m"],
    ["diag", "--help"], ["diag", "equidist", "--bins", "1/2"],
]


def parse_outcome(capsys, parser, argv):
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parser_for_argv_helps_and_refuses_as_the_whole_parser(capsys, argv):
    whole = parse_outcome(capsys, build_parser(GROUP_NAMES), argv)
    assert whole[0] is not None and whole[1] + whole[2]
    assert parse_outcome(capsys, build_parser(argv), argv) == whole


def test_parser_without_names_has_only_the_group_parsers():
    groups = build_parser()._subparsers._group_actions[0].choices
    assert list(groups) == GROUP_NAMES
    # each group parser holds only its -h action
    assert all(len(parser._actions) == 1 for parser in groups.values())


def test_scan_t2(capsys):
    code, out, _ = run_cli(
        capsys, "criterion", "scan-t2", "--alpha", "0", "--beta", "0",
        "--from", "39", "--to", "42",
    )
    assert code == EXIT_OK
    by_m = {rec["m"]: rec for rec in json_lines(out)}
    assert by_m[40]["status"] == "hit"
    assert by_m[42]["status"] == "skipped-nonintegral-f"


def test_scan_interval_and_mod23(capsys):
    code, out, _ = run_cli(capsys, "criterion", "scan-interval", "--m", "40")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and (rec["f_lo"], rec["f_hi"]) == (384, 396)

    code, out, _ = run_cli(capsys, "criterion", "scan-mod23", "--from", "42", "--to", "42")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and rec["center_avoidable"] is True


def test_witness_build_verify_roundtrip(capsys, tmp_path):
    g6_path = tmp_path / "w.g6"
    code, out, _ = run_cli(
        capsys, "witness", "build", "--n", "20", "--e", "12", "--p", "6",
        "--pair", "5,5", "--graph6", str(g6_path),
    )
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["verify"]["passed"] is True
    clique = ",".join(str(v) for v in rec["clique_vertices"])

    code, out, _ = run_cli(
        capsys, "witness", "verify", "--graph6", str(g6_path),
        "--pair", "5,5", "--clique-vertices", clique, "--p", "6",
    )
    assert code == EXIT_OK and json_lines(out)[0]["passed"] is True


def test_witness_graph6_round_trip_above_62_vertices(capsys, tmp_path):
    g6_path = tmp_path / "w100.g6"
    code, out, _ = run_cli(
        capsys, "witness", "build", "--n", "100", "--e", "60", "--p", "41",
        "--pair", "40,390", "--graph6", str(g6_path),
    )
    assert code == EXIT_OK
    rec = json_lines(out)[0]
    assert rec["verify"]["passed"] is True
    assert g6_path.read_text() == rec["graph6"] + "\n"
    clique = ",".join(str(v) for v in rec["clique_vertices"])

    code, out, _ = run_cli(
        capsys, "witness", "verify", "--graph6", str(g6_path),
        "--pair", "40,390", "--clique-vertices", clique, "--p", "41",
    )
    assert code == EXIT_OK and json_lines(out)[0]["passed"] is True


def test_witness_build_computes_the_part_girth_once(capsys, monkeypatch):
    # with --pair the record takes the girth from the verdict, which has it
    calls = []
    girth = graphs.girth

    def counted(*args):
        calls.append(args)
        return girth(*args)

    monkeypatch.setattr(graphs, "girth", counted)
    monkeypatch.setattr(witness, "girth", counted)
    for e in ("12", "178"):  # direct, then complemented
        for pair in ([], ["--pair", "5,5"]):
            calls.clear()
            code, out, _ = run_cli(capsys, "witness", "build", "--n", "20", "--e", e,
                                   "--p", "6", *pair)
            assert code == EXIT_OK and json_lines(out)[0]["girth_part_girth"] is None
            assert len(calls) == 1, (e, pair)


# each malformed --pair of the fuzz pool -> its error message; a witness
# build refuses it before building (this one would otherwise exit 5)
PAIR_ERRORS = {
    "-1,3": "pair order must be >= 1, got m=-1",
    "1/2": "expected a pair like 40,390, got '1/2'",
    "3,": "expected a pair like 40,390, got '3,'",
    "": "expected a pair like 40,390, got ''",
    "x,y": "expected a pair like 40,390, got 'x,y'",
}


@pytest.mark.parametrize(
    "case",
    ["missing-graph6", "non-integer-vertex", "vertex-out-of-range", "unwritable-graph6",
     *(f"--pair={value}" for value in PAIR_ERRORS)],
)
def test_witness_bad_input_exits_2_with_json_error(capsys, tmp_path, case):
    g6_path = tmp_path / "k3.g6"
    g6_path.write_text("Bw\n")  # K_3
    verify = ["witness", "verify", "--graph6", str(g6_path), "--pair", "3,1"]
    argv = {
        "missing-graph6": ["witness", "verify", "--graph6", str(tmp_path / "absent.g6"),
                           "--pair", "3,1", "--clique-vertices", "0"],
        "non-integer-vertex": verify + ["--clique-vertices", "x"],
        "vertex-out-of-range": verify + ["--clique-vertices", "9"],
        "unwritable-graph6": ["witness", "build", "--n", "10", "--e", "5", "--p", "5",
                              "--graph6", str(tmp_path / "no-such-dir" / "w.g6")],
    }.get(case, ["witness", "build", "--n", "5", "--e", "5", "--p", "5", case])
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err)["kind"] == "domain"
    if case.startswith("--pair="):
        assert err == '{"error":"%s","kind":"domain"}\n' % PAIR_ERRORS[case[7:]]


def test_witness_verify_rejects_nonzero_graph6_padding(capsys, tmp_path):
    g6_path = tmp_path / "padded.g6"
    g6_path.write_text("A`\n")  # K_2 with a padding bit set
    code, out, err = run_cli(capsys, "witness", "verify", "--graph6", str(g6_path),
                             "--pair", "3,1", "--clique-vertices", "0")
    assert code == EXIT_USAGE and out == ""
    [line] = err.splitlines()
    record = json.loads(line)
    assert set(record) == {"error", "kind"} and record["kind"] == "domain"


def test_witness_infeasible_exit_code(capsys):
    # e = binom2(5)/2 keeps the direct orientation, whose star cannot hold the extra edges
    code, out, err = run_cli(capsys, "witness", "build", "--n", "5", "--e", "5", "--p", "5")
    assert code == EXIT_INFEASIBLE
    assert json_lines(out)[0]["infeasible"] is True
    assert json.loads(err)["kind"] == "infeasible"


def test_oracle_commands(capsys):
    code, out, _ = run_cli(capsys, "oracle", "arrows", "--n", "3", "--e", "3", "--m", "2", "--f", "0")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and rec["arrows"] is False and rec["counterexample"] == "Bw"

    code, out, _ = run_cli(capsys, "oracle", "sn", "--n", "5", "--m", "2", "--f", "1")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and rec["S"] == list(range(1, 11))

    code, _, err = run_cli(capsys, "oracle", "sn", "--n", "12", "--m", "4", "--f", "3")
    assert code == EXIT_GUARD and "guard" in err

    with pytest.raises(SystemExit) as exc:  # sweeps are fixed at n <= 9, not an option
        main(["oracle", "sn", "--n", "11", "--m", "3", "--f", "1", "--sweep-guard", "11"])
    assert exc.value.code == EXIT_USAGE

    code, out, _ = run_cli(capsys, "oracle", "xcheck-cf", "--max-m", "8")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and rec["mismatches"] == []


def test_xcheck_cf_refuses_above_the_oracle_bound_before_any_pair(capsys, monkeypatch):
    decided = []
    monkeypatch.setattr(cli.oracle, "clique_forest_oracle", decided.append)
    code, out, err = run_cli(capsys, "oracle", "xcheck-cf", "--max-m", str(ORACLE_MAX_M + 1))
    assert (code, out, decided) == (EXIT_GUARD, "", [])
    assert json.loads(err)["error"].startswith(
        f"explicit oracle is exponential-free but still guarded to m <= {ORACLE_MAX_M}; ")


def test_query_above_the_labelling_limit_is_a_guard_refusal(capsys):
    # no option raises the query guard: n = 17, above the 16 vertices of
    # canonical labelling, is the guard's refusal, not a domain error of canon
    code, out, err = run_cli(capsys, "oracle", "arrows", "--n", "17", "--e", "0",
                             "--m", "3", "--f", "0")
    [line] = err.splitlines()
    assert code == EXIT_GUARD and out == "" and json.loads(line)["kind"] == "guard"


def test_oracle_queries_refuse_a_pair_above_n_before_any_guard(capsys):
    # both queries check the pair first, so a sweep above SWEEP_GUARD and a
    # query above the query guard get the same domain refusal
    for argv in (["oracle", "sn", "--n", "10", "--m", "11", "--f", "0"],
                 ["oracle", "arrows", "--n", "11", "--e", "0", "--m", "12", "--f", "0"]):
        code, out, err = run_cli(capsys, *argv)
        [line] = err.splitlines()
        assert code == EXIT_USAGE and out == "" and json.loads(line)["kind"] == "domain"


@pytest.mark.parametrize("argv", [
    ["oracle", "sn", "--n", "-1", "--m", "1", "--f", "0"],
    ["oracle", "arrows", "--n", "-2", "--e", "0", "--m", "1", "--f", "0"],
], ids=["sn", "arrows"])
def test_oracle_queries_name_a_vertex_count_below_one(capsys, argv):
    # n is refused before the pair's order is compared with it
    code, out, err = run_cli(capsys, *argv)
    [line] = err.splitlines()
    error = json.loads(line)
    assert code == EXIT_USAGE and out == "" and error["kind"] == "domain"
    assert error["error"] == f"enumeration needs n >= 1, got {argv[3]}"


def test_bipartite_realize_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "bipartite", "realize", "--m", "3", "--f", "4")
    assert code == EXIT_OK and "case 3" in out and "PASS" in out

    code, out, _ = run_cli(capsys, "bipartite", "realize", "--m", "3", "--f", "4", "--json")
    rec = json_lines(out)[0]
    assert rec["biclique"] == [2, 2] and rec["verified"] is True

    code, out, _ = run_cli(
        capsys, "bipartite", "realize", "--m", "3", "--f", "7", "--json", "--complement"
    )
    rec = json_lines(out)[0]
    assert code == EXIT_OK and rec["complemented"] is True

    code, _, err = run_cli(capsys, "bipartite", "realize", "--m", "3", "--f", "7")
    assert code == EXIT_USAGE and "domain" in err


def test_diag_equidist(capsys):
    code, out, _ = run_cli(capsys, "diag", "equidist", "--q", "0", "--n", "200", "--bins", "10")
    rec = json_lines(out)[0]
    assert code == EXIT_OK and sum(rec["histogram"]) == 200

    code, out, _ = run_cli(
        capsys, "diag", "equidist", "--q", "0", "--n", "10", "--bins", "10", "--on-m"
    )
    rec = json_lines(out)[0]
    assert rec["histogram"][5] == 10

    # more than 10,000 members of M is a guard refusal before any work
    code, out, err = run_cli(
        capsys, "diag", "equidist", "--q", "0", "--n", "10001", "--bins", "10", "--on-m"
    )
    [line] = err.splitlines()
    assert code == EXIT_GUARD and out == "" and json.loads(line)["kind"] == "guard"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "eval", "--m", "40"])  # missing --q
    assert exc.value.code == EXIT_USAGE

    code, _, err = run_cli(capsys, "criterion", "eval", "--m", "4", "--q", "0")
    assert code == EXIT_USAGE and "domain" in err

    code, _, err = run_cli(capsys, "witness", "build", "--n", "5", "--e", "99", "--p", "5")
    assert code == EXIT_USAGE

    with pytest.raises(SystemExit) as exc:  # the thread knob is gone
        main(["criterion", "scan-t4", "--from", "740", "--to", "800", "--jobs", "2"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", "eval", "--m", "40"],  # missing required option
        ["criterion", "eval", "--m", "x", "--q", "0"],  # bad type
        ["oracle", "xcheck-cf", "--from", "5"],  # unknown flag
        ["diag", "equidist", "--q", "0", "--n", "10", "--bins", "0"],  # rejected by its type
        ["nosuch"],  # unknown subcommand
    ],
)
def test_usage_errors_are_one_json_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE and out == ""
    [line] = err.splitlines()
    assert json.loads(line)["kind"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["diag", "equidist", "--q", "1", "--n", "20", "--bins", "1/2"],
        ["pell", "--count", "1.5"],
    ],
)
def test_non_integer_counts_name_the_option_not_the_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    _, err = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert json.loads(err)["kind"] == "usage"
    assert "_positive_int" not in err


def test_help_stays_plain_text(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "cert", "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == EXIT_OK and err == ""
    assert out.startswith("usage: avoidpairs criterion cert")


def test_fracbits_validation(capsys):
    code, _, err = run_cli(capsys, "--fracbits", "8", "criterion", "eval", "--m", "40", "--q", "0")
    assert code == EXIT_USAGE and "fracbits" in err
    code, out, err = run_cli(capsys, "--fracbits", "2000", "pell", "--count", "1")
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err) == {"error": "fracbits must be in [32, 1024], got 2000",
                               "kind": "domain"}


def test_json_round_trip_is_byte_identical(capsys):
    invocations = [
        ("pell", "--count", "3"),
        ("criterion", "eval", "--m", "40", "--q", "0"),
        ("criterion", "cert", "--m", "40", "--f", "390"),
        ("criterion", "scan-t4", "--from", "36", "--to", "60"),
        ("criterion", "scan-interval", "--m", "8"),
        ("criterion", "scan-mod23", "--from", "6", "--to", "10"),
        ("oracle", "arrows", "--n", "4", "--e", "3", "--m", "3", "--f", "1"),
        ("oracle", "sn", "--n", "5", "--m", "2", "--f", "0"),
        ("bipartite", "realize", "--m", "4", "--f", "5", "--json"),
        ("diag", "equidist", "--q", "0", "--n", "100", "--bins", "10"),
    ]
    for argv in invocations:
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK, argv
        for line in out.splitlines():
            assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line


def test_repeated_runs_are_identical(capsys):
    _, out1, _ = run_cli(capsys, "criterion", "scan-t4", "--from", "740", "--to", "1200")
    _, out2, _ = run_cli(capsys, "criterion", "scan-t4", "--from", "740", "--to", "1200")
    assert out1 == out2
