"""Command-line frontend.

Subcommands: pell, criterion (eval | cert | scan-t4 | scan-t2 | scan-interval |
scan-mod23), witness (build | verify), oracle (arrows | sn | xcheck-cf),
bipartite (realize), diag (equidist).

JSON lines are the canonical output (sorted keys, compact separators, so a
parse/re-emit round trip is byte-identical); --csv, where offered, is a fixed
projection.  All commands are deterministic.  A cmd_* handler only returns
its stdout lines, after the checks that may refuse it, so a refusal leaves
stdout empty; one that fails after its record is a generator that raises
once its lines are out.  main alone writes them (write_lines) and maps
errors to exit codes (FAILURES): 0 ok, 2 usage or domain error, 3 guard
refusal, 4 assertion or cross-check failure, 5 infeasible witness build,
141 stdout closed early by its reader.  Every non-zero exit but 141 ends
stderr with one {"error", "kind"} JSON line, in one write.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import sys

from .errors import DomainError, GuardError, InfeasibleError, ScanAssertionError


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
graphs = _lazy("graphs")
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


def json_line(obj) -> str:
    return dump_json(obj) + "\n"


# Lines per stdout write in write_lines.  Under python -u or PYTHONUNBUFFERED
# sys.stdout passes every write straight to the system, so a write per line
# is a system call per line.  Over 50,001 scan-t4 rows, 256-line blocks cost
# 0.1 MB of peak RSS and 4096-line blocks 1.5 MB (15.3 MB without blocks).
BLOCK_LINES = 256


def write_lines(lines) -> None:
    """Write an iterable of lines to stdout, BLOCK_LINES lines per write;
    the one stdout writer.  If `lines` raises (a failed --assert, after its
    last row), the lines it made before still go out, then the exception
    propagates: list.extend keeps the items it took before its iterator
    raised."""
    lines = iter(lines)
    block = []
    while True:
        try:
            block.extend(itertools.islice(lines, BLOCK_LINES))
        finally:
            if block:
                sys.stdout.write("".join(block))
        if len(block) < BLOCK_LINES:
            return
        block.clear()


# One scan-t4 row (criterion.SCAN_T4_FIELDS, dump_json's sorted key order)
# as its JSON line: a bound str.__mod__, applied to the row tuple itself, with
# %s in every slot.  Safe because every floor is an int and "which" is a
# plain ASCII word, so no value needs escaping; None floors, below
# criterion.OFFSET_M, are replaced by "null" before a row reaches it.
# test_scan_t4_line_matches_dump_json keeps it equal to dump_json.
_SCAN_T4_LINE = (
    '{"L0":%s,"L6m":%s,"Lneg6m":%s,"R0":%s,"R6m":%s,"Rneg6m":%s,"m":%s,"which":"%s"}\n'
).__mod__


# One scan-interval result (criterion.cert_row) as ",{...}", one bound
# format per verdict with the keys of criterion.CERT_FIELDS in dump_json's
# sorted order.  %s is safe for the same reason as in _SCAN_T4_LINE: the
# values are ints and "direct" or "complement".
# test_interval_rows_match_dump_json keeps them equal to dump_json.
_INTERVAL_ROW = {
    True: (',{"L_complement":%s,"L_direct":%s,"R_complement":%s,"R_direct":%s,'
           '"certified":true,"f":%s}').__mod__,
    False: (',{"certified":false,"direction":"%s","f":%s,"forest_edges":%s,'
            '"forest_vertices":%s,"x":%s}').__mod__,
}


def _fracbits(args) -> int:
    """--fracbits, or exactarith's default; only the commands that use it
    read it, so no other executes exactarith for it."""
    return exactarith.DEFAULT_FRACBITS if args.fracbits is None else args.fracbits


def _frac_record(frac: exactarith.FixedPointFrac) -> dict:
    return {"value": frac.value, "fracbits": frac.fracbits, "approx": float(frac)}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
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
        m, f = int(m_str), int(f_str)
    except ValueError:
        raise DomainError(f"expected a pair like 40,390, got {text!r}") from None
    return criterion.PairMF(m, f)


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


def cmd_pell(args):
    return (
        json_line({**state._asdict(), "m": state.m, "checks": pell.verify_pell_state(state)})
        for state in pell.first_states(args.count, args.raw)
    )


# ---------------------------------------------------------------------------
# criterion

CRITERION_CSV_HEADER = ["m", "q", "Dy", "Dz", "L", "R", "verdict"]


def _criterion_row(m: int, q: int, dy: int, dz: int, L: int, R: int) -> dict:
    """The exact fields of (m, q), keyed in CSV column order: radicands and
    floors only, none of eval_criterion's fixed-point roots."""
    return {"m": m, "q": q, "Dy": dy, "Dz": dz, "L": L, "R": R,
            "verdict": "L>R" if L > R else "L<=R"}


def _csv_lines(header, rows):
    """header and rows as CSV lines.  A plain join suffices: every field is
    an int, a bool, "", "L>R", "L<=R" or a graph6 string (bytes 63-126),
    none of which holds a comma, a quote or a line break, so no field needs
    quoting."""
    return (",".join(map(str, row)) + "\n" for row in itertools.chain((header,), rows))


def _criterion_csv_lines(mqlr):
    """CSV lines of a scanner's (m, q, L, R): the scanner has checked the
    envelope and taken the floors, so only the radicands are computed."""
    def row(m: int, q: int, L: int, R: int):
        return _criterion_row(m, q, *criterion.radicands(m, q), L, R).values()

    return _csv_lines(CRITERION_CSV_HEADER, itertools.starmap(row, mqlr))


def cmd_criterion_eval(args):
    ev = criterion.eval_criterion(args.m, args.q, _fracbits(args))
    row = _criterion_row(ev.m, ev.q, ev.Dy, ev.Dz, ev.L, ev.R)
    if args.csv:
        return _csv_lines(CRITERION_CSV_HEADER, [row.values()])
    return [json_line({**row, "frac_y": _frac_record(ev.frac_y),
                       "d_approx": _frac_record(ev.d_approx)})]


def cmd_criterion_cert(args):
    pair = criterion.PairMF(args.m, args.f)
    outcome = criterion.avoidability_certificate(pair)
    return [json_line({"m": pair.m, **criterion.cert_record(pair.f, outcome)})]


def _scan_t4_head(rows):
    # rows without offset floors all come first; up to the first row with
    # them, None floors are written as null
    for row in rows:
        yield _SCAN_T4_LINE(tuple("null" if v is None else v for v in row))
        if row[1] is not None:
            return


def cmd_criterion_scan_t4(args):
    # a failed --assert raises from the scanner only after its last row
    rows = criterion.scan_offset_disjunction(args.from_m, args.to_m, assert_all=args.assert_all)
    if args.csv:
        # q = 0, 6m, -6m take the floors at i and i + 3 (SCAN_T4_FIELDS)
        return _criterion_csv_lines(
            (row[6], k * row[6], row[i], row[i + 3])
            for row in rows
            for k, i in (((0, 0), (6, 1), (-6, 2)) if row[1] is not None else ((0, 0),))
        )
    # from the row after the head on, the fixed format writes every row
    return itertools.chain(_scan_t4_head(rows), map(_SCAN_T4_LINE, rows))


def cmd_criterion_scan_t2(args):
    q_of_m = criterion.AffineQ(_parse_fraction(args.alpha), _parse_fraction(args.beta))
    records = criterion.scan_affine_q(q_of_m, args.from_m, args.to_m)
    if args.csv:
        return _criterion_csv_lines(
            (rec["m"], sign * rec["q"], rec["L_" + side], rec["R_" + side])
            for rec in records
            if rec["status"] in ("hit", "miss")
            for sign, side in ((1, "pos"), (-1, "neg"))
        )
    return map(json_line, records)


def cmd_criterion_scan_interval(args):
    f_lo, f_hi, all_pass, rows = criterion.scan_interval(args.m)
    # "results" is the last key, so the record with no results ends in "]}"
    head = dump_json({"all_pass": all_pass, "empty": f_lo is None, "f_hi": f_hi,
                      "f_lo": f_lo, "m": args.m, "results": []})[:-2]
    lines = (_INTERVAL_ROW[certified](fields) for certified, fields in rows)
    # every row starts with its comma but the first; an empty interval has none
    first = next(lines, ",")[1:]
    return itertools.chain((head, first), lines, ("]}\n",))


def cmd_criterion_scan_mod23(args):
    return map(json_line, criterion.scan_mod23(args.from_m, args.to_m))


# ---------------------------------------------------------------------------
# witness


def _witness_record(w: witness.WitnessGraph, part_girth) -> dict:
    """The witness build record without "adjacency", its first key, which
    _adjacency_items writes row by row."""
    return {
        "n": w.graph.n,
        "e": w.graph.edge_count(),
        "p": w.girth_bound,
        "complemented": w.complemented,
        "clique_vertices": sorted(w.clique_vertices),
        "girth_part_size": len(w.girth_part),
        "girth_part_girth": None if part_girth == float("inf") else part_girth,
        "graph6": graphs.to_graph6(w.graph),
    }


def _adjacency_items(g: graphs.Graph):
    """The items of the record's "adjacency" list, each row's neighbours
    read from its bits: the row in binary, reversed, with "0" made a zero
    byte, selects the labels of the set bits (itertools.compress)."""
    labels = [str(u) for u in range(g.n)]
    for v, row in enumerate(g.rows):
        bits = format(row, "b")[::-1].encode().replace(b"0", b"\0")
        yield ("," if v else "") + "[" + ",".join(itertools.compress(labels, bits)) + "]"


def cmd_witness_build(args):
    pair = None if args.pair is None else _parse_pair(args.pair)
    built = witness.build_witness_or_complement(args.n, args.e, args.p)
    if isinstance(built, witness.Infeasible):
        yield json_line({"infeasible": True, **built._asdict()})
        raise InfeasibleError(built.reason)
    # the verdict has measured the part's girth; without one, measure it here
    verdict = pair and witness.verify_witness(built, pair)
    record = _witness_record(built, verdict.part_girth if pair else
                             graphs.girth(built.structure_graph(), built.girth_part))
    if pair:
        record["pair"] = pair._asdict()
        record["verify"] = {"passed": verdict.passed, "failures": list(verdict.failures)}
    if args.graph6 is not None:
        try:
            with open(args.graph6, "w") as fh:
                fh.write(record["graph6"] + "\n")
        except OSError as exc:
            raise DomainError(f"cannot write graph6 file: {exc}") from None
    # written as scan-interval's line is, so the list is never held whole
    yield '{"adjacency":['
    yield from _adjacency_items(built.graph)
    yield "]," + json_line(record)[1:]


def cmd_witness_verify(args):
    try:
        with open(args.graph6) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read graph6 file: {exc}") from None
    g = graphs.from_graph6(text)
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
    return [json_line({"pair": pair._asdict(), "passed": verdict.passed,
                       "failures": list(verdict.failures)})]


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle_arrows(args):
    pair = criterion.PairMF(args.m, args.f)
    verdict = oracle.arrows_pair(args.n, args.e, pair)
    g = verdict.counterexample
    return [json_line({"n": verdict.n, "e": verdict.e, "pair": pair._asdict(),
                       "arrows": verdict.arrows,
                       "counterexample": graphs.to_graph6(g) if g else None})]


def cmd_oracle_sn(args):
    pair = criterion.PairMF(args.m, args.f)
    report = oracle.compute_S_n(args.n, pair)
    if args.csv:
        in_s = set(report.S)
        return _csv_lines(["e", "arrows", "counterexample"], (
            [e, e in in_s, "" if e in in_s else report.counterexamples[e]]
            for e in range(exactarith.binom2(args.n) + 1)
        ))
    return [json_line({
        "n": report.n,
        "pair": pair._asdict(),
        "S": list(report.S),
        "counterexamples": {str(e): g6 for e, g6 in sorted(report.counterexamples.items())},
        "fixed_n_fraction": report.sigma_estimate,
    })]


def cmd_oracle_xcheck_cf(args):
    checked, mismatches = oracle.xcheck_clique_forest(args.max_m)
    yield json_line({"max_m": args.max_m, "pairs_checked": checked, "mismatches": mismatches})
    if mismatches:
        raise ScanAssertionError(f"{len(mismatches)} clique+forest mismatches", mismatches)


# ---------------------------------------------------------------------------
# bipartite


def cmd_bipartite_realize(args):
    pair = bipartite.BipartitePair(args.m, args.f)
    complemented = False
    target = pair
    if args.complement and args.f > args.m * args.m // 2:
        target = bipartite.BipartitePair(args.m, args.m * args.m - args.f)
        complemented = True
    decomp = bipartite.bipartite_realize(target)
    verdict = bipartite.verify_bipartite_decomp(decomp, target)
    if args.json:
        return [json_line({
            **pair._asdict(),
            "complemented": complemented,
            "biclique": [decomp.x, decomp.y],
            "forest_edges": [list(edge) for edge in decomp.forest_edges],
            "case": decomp.case,
            "verified": verdict.passed,
        })]
    side = " of the complement" if complemented else ""
    edges = ", ".join(f"(L{li},R{rj})" for li, rj in decomp.forest_edges) or "none"
    return [f"case {decomp.case}{side}: biclique {decomp.x}x{decomp.y}; forest edges: {edges}\n",
            f"verified: {'PASS' if verdict.passed else 'FAIL ' + ','.join(verdict.failures)}\n"]


# ---------------------------------------------------------------------------
# diag


def cmd_diag_equidist(args):
    report = equidist.diag_equidist(
        args.q,
        args.n,
        args.bins,
        fracbits=_fracbits(args),
        restrict_to_M=args.on_m,
    )
    return [json_line(report._asdict())]


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """Usage errors become one JSON line on stderr and exit 2; subparsers
    are made by the same class, so they inherit it."""

    def error(self, message: str):
        sys.stderr.write(json_line({"error": f"{self.prog}: {message}", "kind": "usage"}))
        raise SystemExit(EXIT_USAGE)


# Option specs, (flag, add_argument keywords), named once where commands share them.
REQUIRED_INT = {"type": int, "required": True}
E, F, M, N, Q = (("--" + name, REQUIRED_INT) for name in "efmnq")
FROM = ("--from", {"dest": "from_m", **REQUIRED_INT})
TO = ("--to", {"dest": "to_m", **REQUIRED_INT})
FLAG = {"action": "store_true"}
CSV = ("--csv", FLAG)
TOP_OPTIONS = (("--fracbits", {"type": int, "default": None,
                               "help": "fixed-point precision for diagnostics (32..1024)"}),)

# group -> (help, {leaf: (handler, options)}); pell's one leaf is None, the
# group parser itself.  Handlers and option types are this module's own
# functions, so building a parser executes no subcommand module.
COMMANDS = {
    "pell": ("emit recursion states and their checks", {
        None: (cmd_pell, (("--count", {"type": _positive_int, "required": True}),
                          ("--raw", {**FLAG, "help": "start at s=0 instead of the filtered set M"}))),
    }),
    "criterion": ("exact floor criterion and scanners", {
        "eval": (cmd_criterion_eval, (M, Q, CSV)),
        "cert": (cmd_criterion_cert, (M, F)),
        "scan-t4": (cmd_criterion_scan_t4,
                    (FROM, TO, ("--assert", {"dest": "assert_all", **FLAG}), CSV)),
        "scan-t2": (cmd_criterion_scan_t2,
                    (("--alpha", {"required": True, "help": "rational, e.g. 1/2"}),
                     ("--beta", {"required": True, "help": "rational, e.g. 0"}), FROM, TO, CSV)),
        "scan-interval": (cmd_criterion_scan_interval, (M,)),
        "scan-mod23": (cmd_criterion_scan_mod23, (FROM, TO)),
    }),
    "witness": ("build and verify witness graphs", {
        "build": (cmd_witness_build,
                  (N, E, ("--p", REQUIRED_INT),
                   ("--pair", {"help": "verify against this pair, e.g. 40,390"}),
                   ("--graph6", {"help": "write the graph6 encoding to this file"}))),
        "verify": (cmd_witness_verify,
                   (("--graph6", {"required": True, "help": "file holding one graph6 line"}),
                    ("--pair", {"required": True}),
                    ("--clique-vertices", {"required": True,
                                           "help": "comma-separated vertex list (may be empty: '')"}),
                    ("--complemented", FLAG),
                    ("--p", {"type": int, "help": "girth bound (defaults to the pair's m)"}))),
    }),
    "oracle": ("brute-force enumeration oracles", {
        "arrows": (cmd_oracle_arrows, (N, E, M, F)),
        "sn": (cmd_oracle_sn, (N, M, F, CSV)),
        "xcheck-cf": (cmd_oracle_xcheck_cf, (("--max-m", {"type": int, "default": 12}),)),
    }),
    "bipartite": ("biclique-plus-forest constructions", {
        "realize": (cmd_bipartite_realize, (M, F, ("--json", FLAG), ("--complement", {
            **FLAG, "help": "realize (m, m^2 - f) when f is above floor(m^2/2)"}))),
    }),
    "diag": ("equidistribution diagnostics", {
        "equidist": (cmd_diag_equidist, (Q, ("--n", {**REQUIRED_INT, "help": "sample count"}),
                                         ("--bins", {"type": _positive_int, "required": True}),
                                         ("--on-m", {**FLAG, "help": "sample over the set M "
                                                     "instead of the stride-4 sequence"}))),
    }),
}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for `argv`.  Every top-level command gets its parser, so
    top-level help and usage errors are whole, but only the commands named
    in `argv` get their arguments and subcommands; parse_args(argv) can
    reach no other.  With no names it is the top and group parsers alone."""
    named = set(argv)
    top = _Parser(prog="avoidpairs", epilog=EPILOG)
    # (parser, handler, options); a subparser's defaults override the top's None
    filled = [(top, None, TOP_OPTIONS)]
    groups = top.add_subparsers(dest="command", required=True)
    for group, (help_text, leaves) in COMMANDS.items():
        parser = groups.add_parser(group, help=help_text, epilog=EPILOG)
        if group in named and None in leaves:
            filled.append((parser, *leaves[None]))
        elif group in named:
            sub = parser.add_subparsers(dest="subcommand", required=True)
            filled += [(sub.add_parser(leaf), *spec) for leaf, spec in leaves.items()]
    for parser, handler, options in filled:
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(handler=handler)
    return top


# each error a handler or its lines may raise -> (exit code, "kind" of its
# JSON error line); a ScanAssertionError's failure records go before that line
FAILURES = {
    DomainError: (EXIT_USAGE, "domain"),
    GuardError: (EXIT_GUARD, "guard"),
    ScanAssertionError: (EXIT_ASSERTION, "assertion"),
    InfeasibleError: (EXIT_INFEASIBLE, "infeasible"),
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        if args.fracbits is not None and not 32 <= args.fracbits <= 1024:
            raise DomainError(f"fracbits must be in [32, 1024], got {args.fracbits}")
        write_lines(args.handler(args))
        return EXIT_OK
    except tuple(FAILURES) as exc:
        code, kind = next(v for cls, v in FAILURES.items() if isinstance(exc, cls))
        records = [*getattr(exc, "failures", ()), {"error": str(exc), "kind": kind}]
        sys.stderr.write("".join(map(json_line, records)))
        return code
    except BrokenPipeError:
        # The reader closed stdout (`... | head`).  Point fd 1 at the null
        # device so the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
