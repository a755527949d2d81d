"""Seeded random argv over every subcommand: each call ends in a documented
exit code, never a traceback, and every non-zero exit ends stderr with a
JSON error that names its kind.  Subcommand modules execute only inside
their own handlers, so a bad name or import there shows up only here; one
fixed well-formed call per leaf makes sure every handler runs to its output,
whatever the random stream draws."""

import json
import random

from avoidpairs.cli import COMMANDS, main
from test_startup import ONE_CALL_PER_SUBCOMMAND, WITNESS_G6

# option value pools: (well-formed values, malformed values); graph orders
# stay <= 7, so that every oracle call is fast, and so do the oracle's pair
# orders and edge counts, so that its calls are often in their domain
JUNK = ["-3", "1.5", "1/2", "", "x"]
INT = (["-1", "0", "1", "2", "3", "4", "5", "6", "7", "40", "221"], JUNK)
N = (["-1", "0", "1", "2", "3", "4", "5", "6", "7"], JUNK)
RATIONAL = (["0", "1/2", "-3/4", "3"], ["1/0", "", "x"])
PAIR = (["3,1", "5,5", "2,0", "40,390"], ["-1,3", "1/2", "3,", "", "x,y"])
VERTICES = (["0,1", "0", ""], ["x", "9", "-1"])
FLAG = None

SPECS = {
    ("pell",): {"--count": INT, "--raw": FLAG},
    ("criterion", "eval"): {"--m": INT, "--q": INT, "--csv": FLAG},
    ("criterion", "cert"): {"--m": INT, "--f": INT},
    ("criterion", "scan-t4"): {"--from": INT, "--to": INT, "--assert": FLAG, "--csv": FLAG},
    ("criterion", "scan-t2"): {"--alpha": RATIONAL, "--beta": RATIONAL,
                               "--from": INT, "--to": INT, "--csv": FLAG},
    ("criterion", "scan-interval"): {"--m": INT},
    ("criterion", "scan-mod23"): {"--from": INT, "--to": INT},
    ("witness", "build"): {"--n": N, "--e": INT, "--p": INT, "--pair": PAIR,
                           "--graph6": "out"},
    ("witness", "verify"): {"--graph6": "in", "--pair": PAIR, "--clique-vertices": VERTICES,
                            "--complemented": FLAG, "--p": INT},
    ("oracle", "arrows"): {"--n": N, "--e": N, "--m": N, "--f": N},
    ("oracle", "sn"): {"--n": N, "--m": N, "--f": N, "--csv": FLAG},
    ("oracle", "xcheck-cf"): {"--max-m": N},
    ("bipartite", "realize"): {"--m": INT, "--f": INT, "--json": FLAG, "--complement": FLAG},
    ("diag", "equidist"): {"--q": INT, "--n": INT, "--bins": N, "--on-m": FLAG},
}


LEAVES = {(group,) if leaf is None else (group, leaf)
          for group, (_, commands) in COMMANDS.items() for leaf in commands}


def test_specs_cover_every_leaf_command():
    assert set(SPECS) == LEAVES


def test_every_leaf_runs_to_its_output(capsys, tmp_path):
    g6_path = tmp_path / "w.g6"
    g6_path.write_text(WITNESS_G6 + "\n")
    covered = set()
    for argv in ONE_CALL_PER_SUBCOMMAND:
        argv = [str(g6_path) if arg == "{g6}" else arg for arg in argv]
        assert main(argv) == 0, argv
        assert capsys.readouterr().out, argv
        covered.add(tuple(argv[:1] if None in COMMANDS[argv[0]][1] else argv[:2]))
    assert covered == LEAVES


def random_argv(rng: random.Random, paths: dict) -> list[str]:
    path = rng.choice(list(SPECS))
    argv = []
    if rng.random() < 0.1:
        argv += ["--fracbits", rng.choice(["32", "64", "2000", *JUNK])]
    argv += list(path)
    for option, pool in SPECS[path].items():
        if rng.random() < 0.05:  # a missing option
            continue
        argv.append(option)
        if pool is FLAG:
            continue
        if isinstance(pool, str):  # a graph6 file to read or write
            pool = ([paths[pool]], [paths["missing"], paths["dir"], ""])
        well_formed, malformed = pool
        argv.append(rng.choice(malformed if rng.random() < 0.1 else well_formed))
    if rng.random() < 0.05:  # an extra flag or argument
        argv += rng.choice([["--bogus"], ["extra"], ["--m"]])
    return argv


def test_random_argv_never_ends_in_a_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.g6").write_text("Bw\n")
    paths = {"in": str(tmp_path / "k3.g6"), "out": str(tmp_path / "built.g6"),
             "missing": str(tmp_path / "no-such-dir" / "w.g6"), "dir": str(tmp_path)}
    rng = random.Random(20261018)
    for _ in range(500):
        argv = random_argv(rng, paths)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # name the argv that escaped
            raise AssertionError(f"{argv}: {exc!r}") from exc
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4, 5), (argv, code, err)
        if code != 0:
            assert "kind" in json.loads(err.splitlines()[-1]), (argv, err)
