"""Record the golden table of forced verdicts and S sets.

Run from the repository root:  python3 perfbench/make_golden.py

It writes perfbench/golden.json from the package in src/.  Those verdicts have
no cheap independent check, so the benchmark compares later outputs against
the recorded ones; re-record only when a change is meant to alter them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from avoidpairs import oracle  # noqa: E402
from avoidpairs.criterion import PairMF  # noqa: E402

from workloads import SWEEP_N, arrows_cases, pair_key, sweep_pairs  # noqa: E402


def main() -> None:
    sweep = {
        pair_key(SWEEP_N, m, f): list(oracle.compute_S_n(SWEEP_N, PairMF(m, f)).S)
        for m, f in sweep_pairs()
    }
    classes: dict[tuple[int, int], list] = {}
    arrows = {}
    for n, e, m, f in arrows_cases():
        if (n, e) not in classes:
            classes[n, e] = list(oracle.enumerate_graphs(n, e))
        pair = PairMF(m, f)
        # the same scan arrows_pair makes, over classes built once per (n, e)
        arrows[pair_key(n, e, m, f)] = all(oracle.arrows(g, pair) for g in classes[n, e])
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"sweep": sweep, "arrows": arrows}, fh, sort_keys=True, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
