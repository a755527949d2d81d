"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import avoidpairs
from avoidpairs.cli import (
    EXIT_ASSERTION,
    EXIT_BROKEN_PIPE,
    EXIT_GUARD,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


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


def test_closed_stdout_exits_141_without_traceback():
    src = pathlib.Path(avoidpairs.__file__).resolve().parents[1]
    with subprocess.Popen(
        [sys.executable, "-m", "avoidpairs.cli", "criterion", "scan-t4",
         "--from", "740", "--to", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    ) as proc:
        assert json.loads(proc.stdout.readline())["m"] == 740
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
        assert proc.stderr.read() == b""


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


@pytest.mark.parametrize(
    "case",
    ["missing-graph6", "non-integer-vertex", "vertex-out-of-range", "unwritable-graph6"],
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
    }[case]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert json.loads(err)["kind"] == "domain"


def test_witness_infeasible_exit_code(capsys):
    # e = binom2(5)/2 keeps the direct orientation, whose greedy run starves
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
