"""Command-line frontend.

Subcommands: pell, criterion (eval | cert | scan-t4 | scan-t2 | scan-interval |
scan-mod23), witness (build | verify), oracle (arrows | sn | xcheck-cf),
bipartite (realize), diag (equidist).

JSON lines are the canonical output (sorted keys, compact separators, so a
parse/re-emit round trip is byte-identical); --csv, where offered, is a fixed
projection.  All commands are deterministic.  Exit codes: 0 ok, 2 usage or
domain error, 3 guard refusal, 4 assertion or cross-check failure,
5 infeasible witness build, 141 stdout closed early by its reader.  Every
non-zero exit but 141 ends stderr with one {"error", "kind"} JSON line.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import sys

from .errors import DomainError, GuardError, ScanAssertionError
from .graphs import from_graph6, girth, induced_subgraph, to_graph6


def _lazy(name: str):
    """The submodule avoidpairs.<name>, bound in sys.modules and on the
    package now, as an import would, but executed on its first attribute
    access (importlib.util.LazyLoader).  A call runs only the modules its
    subcommand uses, and code that looks modules up in sys.modules after
    importing this one (perfbench/tracer.py) still finds them all."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


bipartite = _lazy("bipartite")
criterion = _lazy("criterion")
equidist = _lazy("equidist")
exactarith = _lazy("exactarith")
oracle = _lazy("oracle")
pell = _lazy("pell")
witness = _lazy("witness")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_ASSERTION = 4
EXIT_INFEASIBLE = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell shows for `seq ... | head`

EPILOG = (
    "exit codes: 0 ok; 2 usage/domain error; 3 size-guard refusal; "
    "4 assertion or cross-check failure; 5 infeasible witness build; "
    "141 stdout closed early by its reader.  Every non-zero exit but 141 ends "
    'stderr with one JSON line {"error": ..., "kind": ...}, kind one of usage, '
    "domain, guard, assertion or infeasible."
)

dump_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def emit(obj, out=None) -> None:
    (out or sys.stdout).write(dump_json(obj) + "\n")


def _frac_record(frac: exactarith.FixedPointFrac) -> dict:
    return {"value": frac.value, "fracbits": frac.fracbits, "approx": float(frac)}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_fraction(text: str) -> fractions.Fraction:
    import fractions
    try:
        return fractions.Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"expected a rational like 3/40, got {text!r}") from None


def _parse_pair(text: str) -> criterion.PairMF:
    try:
        m_str, f_str = text.split(",")
        return criterion.PairMF(int(m_str), int(f_str))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"expected a pair like 40,390, got {text!r}") from None


def _parse_vertices(text: str, n: int) -> frozenset[int]:
    try:
        vertices = frozenset(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise DomainError(f"expected vertices like 0,1,2, got {text!r}") from None
    for v in sorted(vertices):
        if not 0 <= v < n:
            raise DomainError(f"vertex {v} out of range [0, {n})")
    return vertices


# ---------------------------------------------------------------------------
# pell


def cmd_pell(args) -> int:
    import dataclasses
    states = pell.pell_states() if args.raw else pell.m_states()
    for state in itertools.islice(states, args.count):
        emit({**dataclasses.asdict(state), "m": state.m,
              "checks": pell.verify_pell_state(state)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# criterion

CRITERION_CSV_HEADER = ["m", "q", "Dy", "Dz", "L", "R", "verdict"]


def _criterion_row(m: int, q: int) -> dict:
    """The exact fields of (m, q), keyed in CSV column order: radicands and
    floors only, none of eval_criterion's fixed-point roots."""
    dy, dz = criterion.radicands(m, q)
    L, R = criterion.lr_floors(dy, dz)
    return {"m": m, "q": q, "Dy": dy, "Dz": dz, "L": L, "R": R,
            "verdict": "L>R" if L > R else "L<=R"}


def _csv_writer():
    import csv
    return csv.writer(sys.stdout, lineterminator="\n")


def _write_criterion_csv(mq_pairs) -> None:
    w = _csv_writer()
    w.writerow(CRITERION_CSV_HEADER)
    for m, q in mq_pairs:
        w.writerow(_criterion_row(m, q).values())


def cmd_criterion_eval(args) -> int:
    if args.csv:
        _write_criterion_csv([(args.m, args.q)])
        return EXIT_OK
    ev = criterion.eval_criterion(args.m, args.q, args.fracbits)
    emit(
        {
            **_criterion_row(ev.m, ev.q),
            "frac_y": _frac_record(ev.frac_y),
            "d_approx": _frac_record(ev.d_approx),
        }
    )
    return EXIT_OK


def cmd_criterion_cert(args) -> int:
    pair = criterion.PairMF(args.m, args.f)
    outcome = criterion.avoidability_certificate(pair)
    emit({"m": pair.m, **criterion.cert_record(pair.f, outcome)})
    return EXIT_OK


def cmd_criterion_scan_t4(args) -> int:
    # Records stream as they are made; a failed --assert raises only after the
    # last one, and main writes the failures and the error line to stderr.
    records = criterion.scan_offset_disjunction(
        args.from_m, args.to_m, assert_all=args.assert_all
    )
    if args.csv:
        _write_criterion_csv(
            (rec["m"], k * rec["m"])
            for rec in records
            for k in ((0, 6, -6) if rec["L6m"] is not None else (0,))
        )
        return EXIT_OK
    for rec in records:
        emit(rec)
    return EXIT_OK


def cmd_criterion_scan_t2(args) -> int:
    q_of_m = criterion.AffineQ(_parse_fraction(args.alpha), _parse_fraction(args.beta))
    records = criterion.scan_affine_q(q_of_m, args.from_m, args.to_m)
    if args.csv:
        _write_criterion_csv(
            (rec["m"], sign * rec["q"])
            for rec in records
            if rec["status"] in ("hit", "miss")
            for sign in (1, -1)
        )
        return EXIT_OK
    for rec in records:
        emit(rec)
    return EXIT_OK


def cmd_criterion_scan_interval(args) -> int:
    emit(criterion.scan_interval(args.m))
    return EXIT_OK


def cmd_criterion_scan_mod23(args) -> int:
    for rec in criterion.scan_mod23(args.from_m, args.to_m):
        emit(rec)
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness


def _witness_record(w: witness.WitnessGraph) -> dict:
    part_girth = girth(induced_subgraph(w.structure_graph(), w.girth_part))
    adjacency = [
        [u for u in range(w.graph.n) if w.graph.rows[v] >> u & 1]
        for v in range(w.graph.n)
    ]
    return {
        "n": w.graph.n,
        "e": w.graph.edge_count(),
        "p": w.girth_bound,
        "complemented": w.complemented,
        "clique_vertices": sorted(w.clique_vertices),
        "girth_part_size": len(w.girth_part),
        "girth_part_girth": None if part_girth == float("inf") else part_girth,
        "graph6": to_graph6(w.graph),
        "adjacency": adjacency,
    }


def cmd_witness_build(args) -> int:
    import dataclasses
    built = witness.build_witness_or_complement(args.n, args.e, args.p)
    if isinstance(built, witness.Infeasible):
        emit({"infeasible": True, **dataclasses.asdict(built)})
        emit({"error": built.reason, "kind": "infeasible"}, out=sys.stderr)
        return EXIT_INFEASIBLE
    record = _witness_record(built)
    if args.pair is not None:
        pair = _parse_pair(args.pair)
        verdict = witness.verify_witness(built, pair)
        record["pair"] = dataclasses.asdict(pair)
        record["verify"] = {"passed": verdict.passed, "failures": list(verdict.failures)}
    if args.graph6 is not None:
        try:
            with open(args.graph6, "w") as fh:
                fh.write(record["graph6"] + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write graph6 file: {exc}") from None
    emit(record)
    return EXIT_OK


def cmd_witness_verify(args) -> int:
    import dataclasses
    try:
        with open(args.graph6) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read graph6 file: {exc}") from None
    g = from_graph6(text)
    pair = _parse_pair(args.pair)
    clique = _parse_vertices(args.clique_vertices, g.n)
    rest = frozenset(range(g.n)) - clique
    w = witness.WitnessGraph(
        graph=g,
        clique_vertices=clique,
        girth_part=rest,
        girth_bound=args.p if args.p is not None else pair.m,
        complemented=args.complemented,
    )
    verdict = witness.verify_witness(w, pair)
    emit(
        {
            "pair": dataclasses.asdict(pair),
            "passed": verdict.passed,
            "failures": list(verdict.failures),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle_arrows(args) -> int:
    import dataclasses
    pair = criterion.PairMF(args.m, args.f)
    guard = oracle.DEFAULT_QUERY_GUARD if args.query_guard is None else args.query_guard
    verdict = oracle.arrows_pair(args.n, args.e, pair, query_guard=guard)
    g = verdict.counterexample
    emit({"n": verdict.n, "e": verdict.e, "pair": dataclasses.asdict(pair),
          "arrows": verdict.arrows, "counterexample": to_graph6(g) if g else None})
    return EXIT_OK


def cmd_oracle_sn(args) -> int:
    import dataclasses
    pair = criterion.PairMF(args.m, args.f)
    report = oracle.compute_S_n(args.n, pair)
    if args.csv:
        w = _csv_writer()
        w.writerow(["e", "arrows", "counterexample"])
        in_s = set(report.S)
        for e in range(exactarith.binom2(args.n) + 1):
            w.writerow([e, e in in_s, "" if e in in_s else report.counterexamples[e]])
        return EXIT_OK
    emit(
        {
            "n": report.n,
            "pair": dataclasses.asdict(pair),
            "S": list(report.S),
            "counterexamples": {str(e): g6 for e, g6 in sorted(report.counterexamples.items())},
            "fixed_n_fraction": report.sigma_estimate,
        }
    )
    return EXIT_OK


def cmd_oracle_xcheck_cf(args) -> int:
    mismatches = []
    checked = 0
    for m in range(1, args.max_m + 1):
        for f in range(exactarith.binom2(m) + 1):
            pair = criterion.PairMF(m, f)
            search = isinstance(criterion.clique_forest_realizable(pair), criterion.Realizable)
            brute = oracle.clique_forest_oracle(pair)
            checked += 1
            if search != brute:
                mismatches.append({"m": m, "f": f, "search": search, "oracle": brute})
    emit({"max_m": args.max_m, "pairs_checked": checked, "mismatches": mismatches})
    if mismatches:
        raise ScanAssertionError(f"{len(mismatches)} clique+forest mismatches", mismatches)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bipartite


def cmd_bipartite_realize(args) -> int:
    import dataclasses
    pair = bipartite.BipartitePair(args.m, args.f)
    complemented = False
    target = pair
    if args.complement and args.f > args.m * args.m // 2:
        target = bipartite.BipartitePair(args.m, args.m * args.m - args.f)
        complemented = True
    decomp = bipartite.bipartite_realize(target)
    verdict = bipartite.verify_bipartite_decomp(decomp, target)
    if args.json:
        emit(
            {
                **dataclasses.asdict(pair),
                "complemented": complemented,
                "biclique": [decomp.x, decomp.y],
                "forest_edges": [list(edge) for edge in decomp.forest_edges],
                "case": decomp.case,
                "verified": verdict.passed,
            }
        )
    else:
        side = " of the complement" if complemented else ""
        edges = ", ".join(f"(L{li},R{rj})" for li, rj in decomp.forest_edges) or "none"
        print(f"case {decomp.case}{side}: biclique {decomp.x}x{decomp.y}; forest edges: {edges}")
        print(f"verified: {'PASS' if verdict.passed else 'FAIL ' + ','.join(verdict.failures)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diag


def cmd_diag_equidist(args) -> int:
    import dataclasses
    report = equidist.diag_equidist(
        args.q,
        args.n,
        args.bins,
        fracbits=args.fracbits,
        restrict_to_M=args.on_m,
    )
    emit(dataclasses.asdict(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors become one JSON line on stderr and exit 2; subparsers
    are made by the same class, so they inherit it."""

    def error(self, message: str):
        emit({"error": f"{self.prog}: {message}", "kind": "usage"}, out=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="avoidpairs", epilog=EPILOG)
    top.add_argument("--fracbits", type=int, default=None,
                     help="fixed-point precision for diagnostics (32..1024)")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pell", help="emit recursion states and their checks")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--raw", action="store_true",
                   help="start at s=0 instead of the filtered set M")
    p.set_defaults(handler=cmd_pell)

    c = sub.add_parser("criterion", help="exact floor criterion and scanners",
                       epilog=EPILOG)
    csub = c.add_subparsers(dest="subcommand", required=True)

    ce = csub.add_parser("eval")
    ce.add_argument("--m", type=int, required=True)
    ce.add_argument("--q", type=int, required=True)
    ce.add_argument("--csv", action="store_true")
    ce.set_defaults(handler=cmd_criterion_eval)

    cc = csub.add_parser("cert")
    cc.add_argument("--m", type=int, required=True)
    cc.add_argument("--f", type=int, required=True)
    cc.set_defaults(handler=cmd_criterion_cert)

    c4 = csub.add_parser("scan-t4")
    c4.add_argument("--from", dest="from_m", type=int, required=True)
    c4.add_argument("--to", dest="to_m", type=int, required=True)
    c4.add_argument("--assert", dest="assert_all", action="store_true")
    c4.add_argument("--csv", action="store_true")
    c4.set_defaults(handler=cmd_criterion_scan_t4)

    c2 = csub.add_parser("scan-t2")
    c2.add_argument("--alpha", required=True, help="rational, e.g. 1/2")
    c2.add_argument("--beta", required=True, help="rational, e.g. 0")
    c2.add_argument("--from", dest="from_m", type=int, required=True)
    c2.add_argument("--to", dest="to_m", type=int, required=True)
    c2.add_argument("--csv", action="store_true")
    c2.set_defaults(handler=cmd_criterion_scan_t2)

    ci = csub.add_parser("scan-interval")
    ci.add_argument("--m", type=int, required=True)
    ci.set_defaults(handler=cmd_criterion_scan_interval)

    cm = csub.add_parser("scan-mod23")
    cm.add_argument("--from", dest="from_m", type=int, required=True)
    cm.add_argument("--to", dest="to_m", type=int, required=True)
    cm.set_defaults(handler=cmd_criterion_scan_mod23)

    w = sub.add_parser("witness", help="build and verify witness graphs")
    wsub = w.add_subparsers(dest="subcommand", required=True)

    wb = wsub.add_parser("build")
    wb.add_argument("--n", type=int, required=True)
    wb.add_argument("--e", type=int, required=True)
    wb.add_argument("--p", type=int, required=True)
    wb.add_argument("--pair", help="verify against this pair, e.g. 40,390")
    wb.add_argument("--graph6", help="write the graph6 encoding to this file")
    wb.set_defaults(handler=cmd_witness_build)

    wv = wsub.add_parser("verify")
    wv.add_argument("--graph6", required=True, help="file holding one graph6 line")
    wv.add_argument("--pair", required=True)
    wv.add_argument("--clique-vertices", required=True,
                    help="comma-separated vertex list (may be empty: '')")
    wv.add_argument("--complemented", action="store_true")
    wv.add_argument("--p", type=int, default=None,
                    help="girth bound (defaults to the pair's m)")
    wv.set_defaults(handler=cmd_witness_verify)

    o = sub.add_parser("oracle", help="brute-force enumeration oracles")
    osub = o.add_subparsers(dest="subcommand", required=True)

    oa = osub.add_parser("arrows")
    oa.add_argument("--n", type=int, required=True)
    oa.add_argument("--e", type=int, required=True)
    oa.add_argument("--m", type=int, required=True)
    oa.add_argument("--f", type=int, required=True)
    oa.add_argument("--query-guard", dest="query_guard", type=_positive_int)
    oa.set_defaults(handler=cmd_oracle_arrows)

    on = osub.add_parser("sn")
    on.add_argument("--n", type=int, required=True)
    on.add_argument("--m", type=int, required=True)
    on.add_argument("--f", type=int, required=True)
    on.add_argument("--csv", action="store_true")
    on.set_defaults(handler=cmd_oracle_sn)

    ox = osub.add_parser("xcheck-cf")
    ox.add_argument("--max-m", dest="max_m", type=int, default=12)
    ox.set_defaults(handler=cmd_oracle_xcheck_cf)

    b = sub.add_parser("bipartite", help="biclique-plus-forest constructions")
    bsub = b.add_subparsers(dest="subcommand", required=True)

    br = bsub.add_parser("realize")
    br.add_argument("--m", type=int, required=True)
    br.add_argument("--f", type=int, required=True)
    br.add_argument("--json", action="store_true")
    br.add_argument("--complement", action="store_true",
                    help="realize (m, m^2 - f) when f is above floor(m^2/2)")
    br.set_defaults(handler=cmd_bipartite_realize)

    d = sub.add_parser("diag", help="equidistribution diagnostics")
    dsub = d.add_subparsers(dest="subcommand", required=True)

    de = dsub.add_parser("equidist")
    de.add_argument("--q", type=int, required=True)
    de.add_argument("--n", type=int, required=True, help="sample count")
    de.add_argument("--bins", type=_positive_int, required=True)
    de.add_argument("--on-m", dest="on_m", action="store_true",
                    help="sample over the set M instead of the stride-4 sequence")
    de.set_defaults(handler=cmd_diag_equidist)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.fracbits is None:
            args.fracbits = exactarith.DEFAULT_FRACBITS
        elif not 32 <= args.fracbits <= 1024:
            raise DomainError(f"fracbits must be in [32, 1024], got {args.fracbits}")
        return args.handler(args)
    except DomainError as exc:
        emit({"error": str(exc), "kind": "domain"}, out=sys.stderr)
        return EXIT_USAGE
    except GuardError as exc:
        emit({"error": str(exc), "kind": "guard"}, out=sys.stderr)
        return EXIT_GUARD
    except ScanAssertionError as exc:
        for rec in exc.failures:
            emit(rec, out=sys.stderr)
        emit({"error": str(exc), "kind": "assertion"}, out=sys.stderr)
        return EXIT_ASSERTION
    except BrokenPipeError:
        # The reader closed stdout (`... | head`).  Point fd 1 at the null
        # device so the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
