"""Self-test of the output checks: genuine outputs pass, corrupted ones fail.

Run from the repository root:  python3 perfbench/selftest.py

It makes one real call of every kind the benchmark checks (through
``python -m avoidpairs.cli``), confirms that checks.py accepts each output, then
applies one or more corruptions to each output and confirms that every
corrupted copy is flagged.  Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

from checks import check_call
from workloads import ROUNDS, SWEEP_N

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _complete_graph6(n: int) -> str:
    bits = [1] * (n * (n - 1) // 2)
    bits += [0] * (-len(bits) % 6)
    words = [int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return chr(n + 63) + "".join(chr(w + 63) for w in words)


def _flip_first_edge_bit(g6: str) -> str:
    return g6[0] + chr((ord(g6[1]) - 63 ^ 0b100000) + 63) + g6[2:]


def _set(path: list, value):
    """A corruption that sets recs[path[0]][path[1]]... to value (or value(old))."""
    def apply(recs: list) -> None:
        target = recs
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    return apply


def _each(field: str, value):
    def apply(recs: list) -> None:
        for rec in recs:
            rec[field] = value(rec[field])
    return apply


CORRUPTIONS = {
    "scan-t4": [
        ("one record with which=none", _set([3, "which"], "none")),
        ("a record dropped", lambda recs: recs.pop(5)),
        ("every L0 off by one", _each("L0", lambda v: v + 1)),
    ],
    "oracle-sn": [
        ("S element dropped", _set([0, "S"], lambda s: s[1:])),
        ("counterexamples replaced by K_n", lambda recs: recs[0]["counterexamples"].update(
            {k: _complete_graph6(SWEEP_N) for k in recs[0]["counterexamples"]})),
    ],
    "oracle-arrows": [("verdict flipped", _set([0, "arrows"], lambda v: not v))],
    "cert": [("certified flipped", _set([0, "certified"], lambda v: not v))],
    "eval": [("L off by one", _set([0, "L"], lambda v: v + 1))],
    "scan-interval": [
        ("all_pass flipped", _set([0, "all_pass"], lambda v: not v)),
        ("f_hi off by one", _set([0, "f_hi"], lambda v: v + 1)),
    ],
    "scan-mod23": [
        ("center verdicts flipped", lambda recs: [
            r["center"][0].update(realizable=not r["center"][0]["realizable"]) for r in recs]),
    ],
    "witness-build": [
        ("one edge toggled", _set([0, "graph6"], _flip_first_edge_bit)),
        ("verify failed", _set([0, "verify"], {"passed": False, "failures": ["girth"]})),
    ],
    "witness-verify": [("passed flipped", _set([0, "passed"], False))],
    "bipartite": [
        ("f off by one", _set([0, "f"], lambda v: v + 1)),
        ("extra forest edge", _set([0, "forest_edges"], lambda es: [*es, [es[-1][0] if es else 0, 0]])),
    ],
    "pell": [("y off by one", _set([1, "y"], lambda v: v + 1))],
    "equidist": [("histogram mass moved", _set([0, "histogram"],
                                             lambda h: [h[0] + 1, h[1] - 1, *h[2:]]))],
}


def sample_calls(golden: dict, workdir: str) -> list[dict]:
    calls = [
        {"kind": "scan-t4", "from": 740, "to": 5740, "check_seed": 0.5,
         "argv": ["criterion", "scan-t4", "--from", "740", "--to", "5740"]},
        # (4, 3) has both forced and non-forced edge counts
        {"kind": "oracle-sn", "n": SWEEP_N, "m": 4, "f": 3,
         "golden_S": golden["sweep"][f"{SWEEP_N},4,3"],
         "argv": ["oracle", "sn", "--n", str(SWEEP_N), "--m", "4", "--f", "3"]},
    ]
    return calls + ROUNDS["cert-mix"](random.Random(1), golden, workdir)


def main() -> int:
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)
    workdir = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "AVOID_THREADS"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    failures = 0
    checked_kinds = set()
    try:
        for call in sample_calls(golden, workdir):
            out = subprocess.run([sys.executable, "-m", "avoidpairs.cli", *call["argv"]],
                                 capture_output=True, env=env, cwd=ROOT).stdout
            problems = check_call(call, 0, out)
            print(f"{call['kind']:15s} genuine output: {'ok' if not problems else problems}")
            failures += bool(problems)
            if call["kind"] in checked_kinds:
                continue
            checked_kinds.add(call["kind"])
            if not check_call(call, 2, out):
                print(f"{call['kind']:15s} exit code 2 NOT flagged")
                failures += 1
            for label, corrupt in CORRUPTIONS[call["kind"]]:
                recs = [json.loads(line) for line in out.splitlines() if line]
                corrupt(recs)
                bad = "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs).encode()
                flagged = check_call(call, 0, bad)
                print(f"{call['kind']:15s} {label}: {'flagged' if flagged else 'NOT flagged'}")
                failures += not flagged
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    missing = set(CORRUPTIONS) - checked_kinds
    if missing:
        print(f"kinds never exercised: {sorted(missing)}")
        failures += len(missing)
    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
