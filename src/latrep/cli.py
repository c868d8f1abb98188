"""Command-line front end.

Subcommands: invariants, jordan, localrep, isotropy, minimum, represent,
extend, genus, check, scan.  Exit codes: 0 computed, 1 hypotheses fail or
target not represented, 2 input error, 3 undecided local certificate,
4 internal failure (traceback and a JSON error record on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .enumeration import (Embedding, extend_representation,
                          find_representations, lattice_minimum)
from .genus import enumerate_genus
from .localrep import (REPRESENTABLE, UNDECIDED, represents_locally_everywhere,
                       represents_over_Zp)
from .matrices import IntMatrix, det, load_gram
from .padic import (Place, REAL, is_isotropic, jordan_decomposition,
                    space_invariants)
from .reports import check_theorem_hypotheses, report_emit, scan_family

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_UNDECIDED = 3
EXIT_INTERNAL = 4

J_HELP = ("bound on ord_q(det T).  Note the off-by-one between the two "
          "standard phrasings: the divisibility form 'q^j does not divide "
          "det(T)' is equivalent to ord_q(det T) <= j-1; this tool uses the "
          "valuation form ord_q(det T) <= j throughout.")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _load_matrix(path) -> IntMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return IntMatrix(json.load(fh))


def cmd_invariants(args) -> int:
    S = load_gram(args.gram)
    inv = space_invariants(S)
    _emit({"schema_version": 1,
           "rank": inv.rank,
           "det": det(S),
           "det_class": inv.det_class,
           "signature": list(inv.signature),
           "hasse": {str(v): e for v, e in inv.hasse}})
    return EXIT_OK


def cmd_jordan(args) -> int:
    S = load_gram(args.gram)
    split = jordan_decomposition(S, args.p)
    comps = []
    for comp in split.components:
        entry = {"scale": comp.scale, "rank": comp.rank,
                 "unit_block": [list(r) for r in comp.unit_block.entries]}
        if comp.even is not None:
            entry["even"] = comp.even
        comps.append(entry)
    _emit({"schema_version": 1, "prime": args.p, "components": comps})
    return EXIT_OK


def cmd_localrep(args) -> int:
    S = load_gram(args.gram)
    T = load_gram(args.target)
    if args.p is not None:
        certs = {Place.finite(args.p):
                 represents_over_Zp(S, T, args.p, args.c)}
    else:
        certs = represents_locally_everywhere(S, T, args.c)
    _emit({"schema_version": 1, "certificates":
           [cert.to_dict() for _, cert in sorted(certs.items())]})
    statuses = {cert.status for cert in certs.values()}
    if UNDECIDED in statuses:
        return EXIT_UNDECIDED
    return EXIT_OK if statuses == {REPRESENTABLE} else EXIT_FAIL


def cmd_isotropy(args) -> int:
    S = load_gram(args.gram)
    inv = space_invariants(S)
    place = REAL if args.q == 0 else Place.finite(args.q)
    iso = is_isotropic(inv, place)
    _emit({"schema_version": 1, "place": str(place), "isotropic": iso})
    return EXIT_OK


def cmd_minimum(args) -> int:
    S = load_gram(args.gram)
    _emit({"schema_version": 1, "minimum": lattice_minimum(S)})
    return EXIT_OK


def cmd_represent(args) -> int:
    S = load_gram(args.gram)
    T = load_gram(args.target)
    embs = find_representations(S, T, args.c, limit=args.limit)
    _emit({"schema_version": 1,
           "count": len(embs),
           "representations": [e.to_dict() for e in embs]})
    return EXIT_OK if embs else EXIT_FAIL


def cmd_extend(args) -> int:
    S = load_gram(args.gram)
    T_M = load_gram(args.target)
    glue = _load_matrix(args.glue)
    X = _load_matrix(args.sigma)
    from .matrices import gram_of_columns
    sigma = Embedding.build(S, gram_of_columns(S, X), X)
    tau = extend_representation(S, sigma, T_M, glue)
    _emit({"schema_version": 1,
           "extended": tau is not None,
           "tau": None if tau is None else tau.to_dict()})
    return EXIT_OK if tau is not None else EXIT_FAIL


def cmd_genus(args) -> int:
    S = load_gram(args.gram)
    record = enumerate_genus(S, args.p, class_cap=args.cap,
                             aux_prime=args.aux_prime)
    _emit(record.to_dict())
    return EXIT_OK


def cmd_check(args) -> int:
    S = load_gram(args.gram)
    T = load_gram(args.target)
    report = check_theorem_hypotheses(S, T, args.q, args.j, args.c, args.C)
    sys.stdout.buffer.write(report_emit(report, args.format))
    if report.undecided:
        return EXIT_UNDECIDED
    ok = (report.rank_check and report.condition_i_ok and report.condition_ii_ok
          and report.condition_iii_ok and report.globally_represented)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_scan(args) -> int:
    S = load_gram(args.gram)
    result = scan_family(S, args.family, args.q, args.j, args.c,
                         args.neighbor_prime, class_cap=args.cap,
                         max_rows=args.max_rows, start=args.start)
    sys.stdout.buffer.write(report_emit(result, args.format))
    return EXIT_UNDECIDED if result.undecided else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latrep",
        description="Exact arithmetic for integral quadratic forms: local "
                    "representability, genus enumeration, representation "
                    "search and local-global scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, target=False, formats=("json",)):
        p.add_argument("--gram", required=True, help="Gram matrix file "
                       "(first line n then n rows, or a JSON array of arrays)")
        if target:
            p.add_argument("--target", required=True,
                           help="target Gram matrix file, same format")
        p.add_argument("--format", default="json", choices=formats,
                       help="output format (default json)")

    p = sub.add_parser("invariants", help="rational space invariants")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("jordan", help="p-adic Jordan splitting")
    common(p)
    p.add_argument("-p", type=int, required=True, help="prime")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("localrep", help="local representability certificates")
    common(p, target=True)
    p.add_argument("-p", type=int, default=None,
                   help="single prime (default: all relevant places)")
    p.add_argument("-c", type=int, default=1, help="imprimitivity bound")
    p.set_defaults(func=cmd_localrep)

    p = sub.add_parser("isotropy", help="isotropy of the space at a place")
    common(p)
    p.add_argument("-q", type=int, required=True,
                   help="prime, or 0 for the real place")
    p.set_defaults(func=cmd_isotropy)

    p = sub.add_parser("minimum", help="lattice minimum")
    common(p)
    p.set_defaults(func=cmd_minimum)

    p = sub.add_parser("represent", help="global representation search")
    common(p, target=True)
    p.add_argument("-c", type=int, default=1, help="imprimitivity bound")
    p.add_argument("--limit", type=int, default=1,
                   help="stop after this many representations, at least 1 "
                        "(default 1)")
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("extend", help="extend a representation of a sublattice")
    common(p, target=True)
    p.add_argument("--sigma", required=True,
                   help="JSON matrix: the known representation of the sublattice")
    p.add_argument("--glue", required=True,
                   help="JSON matrix: sublattice basis in target coordinates")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("genus", help="genus enumeration via p-neighbors")
    common(p)
    p.add_argument("-p", type=int, required=True,
                   help="odd neighbor prime not dividing det")
    p.add_argument("--cap", type=int, default=64, help="class cap")
    p.add_argument("--aux-prime", type=int, default=None,
                   help="second neighbor prime to probe for more classes")
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("check", help="evaluate the theorem hypotheses on (S, T)")
    common(p, target=True)
    p.add_argument("-q", type=int, required=True, help="distinguished prime")
    p.add_argument("-j", type=int, required=True, help=J_HELP)
    p.add_argument("-c", type=int, default=1, help="imprimitivity bound")
    p.add_argument("-C", type=int, default=0,
                   help="minimum threshold for condition (iii); user-supplied, "
                        "no effective value is computable")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="family scan for the empirical constant")
    common(p, formats=("json", "csv"))
    p.add_argument("--family", required=True,
                   help="family spec: rank1:B or diag2:B")
    p.add_argument("-q", type=int, required=True, help="distinguished prime")
    p.add_argument("-j", type=int, required=True, help=J_HELP)
    p.add_argument("-c", type=int, default=1, help="imprimitivity bound")
    p.add_argument("--neighbor-prime", type=int, required=True,
                   help="prime for the genus enumeration")
    p.add_argument("--cap", type=int, default=64, help="genus class cap")
    p.add_argument("--max-rows", type=int, default=None,
                   help="paginate: emit at most this many rows")
    p.add_argument("--start", type=int, default=0,
                   help="paginate: resume token from a previous run")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:
        # a failed internal check must not read as "not represented"
        traceback.print_exc(file=sys.stderr)
        sys.stderr.write(json.dumps({"schema_version": 1, "error": "internal",
                                     "type": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
