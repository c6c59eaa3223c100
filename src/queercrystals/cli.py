"""Command-line front end.

Subcommands:
  graph       build a crystal graph (vector crystal, tensor power, or
              staircase shape) and emit DOT or JSON
  verify      run a verifier and emit a JSON report; exit 1 on failure
  conjecture  survey highest-weight vectors of B(lam) (x) B (descriptive)

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import errno
import os
import sys

from .errors import StructureError, VerificationError
from .qrep.checks import residue_check, verify_comult_odd, verify_relations
from .serialize import graph_to_dot, graph_to_json, report_to_json
from .tableaux import check_strict_partition, crystal_of_shape
from .theorems import (explore_conjecture, tensor_power_graph, vector_crystal,
                       verify_decomposition, verify_highest_weight_formula,
                       verify_reading_independence,
                       verify_unique_highest_weight)


def _parse_shape(text: str, parser: argparse.ArgumentParser, n: int) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
        return check_strict_partition(parts, n)
    except ValueError as exc:
        parser.error(f"invalid shape {text!r}: {exc}")


def _emit(text: str, path: str | None,
          parser: argparse.ArgumentParser) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"cannot write {path!r}: {exc.strerror}")


def _check_output(path: str | None, parser: argparse.ArgumentParser) -> None:
    """Reject an -o PATH that cannot become a file before any work is done:
    a directory in its place, or a missing parent directory.  The file
    itself is neither opened nor truncated here."""
    if not path:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    else:
        return
    parser.error(f"cannot write {path!r}: {os.strerror(code)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queercrystals",
        description="Crystal combinatorics of the quantum queer superalgebra")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph", help="emit a crystal graph")
    what = g.add_mutually_exclusive_group(required=True)
    what.add_argument("--vector", action="store_true",
                      help="the letter crystal B")
    what.add_argument("--tensor", type=int, metavar="N",
                      help="all of B tensored N times")
    what.add_argument("--shape", metavar="PARTS",
                      help="strict partition, e.g. 3,1")
    g.add_argument("-n", "--rank", type=int, required=True)
    g.add_argument("--format", choices=("dot", "json"), default="dot")
    g.add_argument("-o", "--output", metavar="PATH")
    g.set_defaults(handler=cmd_graph, subparser=g)

    v = sub.add_parser("verify", help="run a verifier, emit a JSON report")
    which = v.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", choices=("b", "c", "e3"),
                       help="b: unique highest weight; c: highest-weight "
                            "formula; e3: tensor decomposition")
    which.add_argument("--reading-independence", action="store_true",
                       help="row vs column reading on all fillings")
    which.add_argument("--qrep", choices=("relations", "comult", "residue"),
                       help="exact-arithmetic checks on tensor powers of V")
    v.add_argument("--shape", metavar="PARTS")
    v.add_argument("-n", "--rank", type=int, required=True)
    v.add_argument("-N", "--power", type=int,
                   help="tensor power for --qrep relations/residue "
                        "(default 2)")
    v.add_argument("-o", "--output", metavar="PATH")
    v.set_defaults(handler=cmd_verify, subparser=v)

    c = sub.add_parser("conjecture",
                       help="survey highest-weight vectors of B(lam) (x) B")
    c.add_argument("--shape", metavar="PARTS", required=True)
    c.add_argument("-n", "--rank", type=int, required=True)
    c.add_argument("--max-depth", type=int, default=None)
    c.add_argument("-o", "--output", metavar="PATH")
    c.set_defaults(handler=cmd_conjecture, subparser=c)
    return parser


def cmd_graph(args, parser) -> int:
    n = args.rank
    if args.vector:
        graph = vector_crystal(n)
    elif args.tensor is not None:
        graph = tensor_power_graph(n, args.tensor)
    else:
        parts = _parse_shape(args.shape, parser, n)
        graph = crystal_of_shape(parts, n)
    if args.format == "dot":
        _emit(graph_to_dot(graph), args.output, parser)
    else:
        _emit(report_to_json(graph_to_json(graph)), args.output, parser)
    return 0


def cmd_verify(args, parser) -> int:
    n = args.rank
    if args.power is not None and args.qrep not in ("relations", "residue"):
        parser.error("-N/--power applies only to --qrep relations/residue")
    N = 2 if args.power is None else args.power
    if args.theorem or args.reading_independence:
        if not args.shape:
            parser.error("--shape is required for this check")
        parts = _parse_shape(args.shape, parser, n)
        if args.theorem == "b":
            rep = verify_unique_highest_weight(parts, n)
        elif args.theorem == "c":
            rep = verify_highest_weight_formula(parts, n)
        elif args.theorem == "e3":
            rep = verify_decomposition(parts, n)
        else:
            rep = verify_reading_independence(parts, n)
    else:
        if args.shape:
            parser.error("--shape does not apply to --qrep checks")
        if args.qrep == "relations":
            rep = verify_relations(n, N)
        elif args.qrep == "comult":
            rep = verify_comult_odd(n)
        else:
            rep = residue_check(n, N)
    _emit(report_to_json(rep), args.output, parser)
    return 0 if rep["passed"] else 1


def cmd_conjecture(args, parser) -> int:
    parts = _parse_shape(args.shape, parser, args.rank)
    rep = explore_conjecture(parts, args.rank, args.max_depth)
    _emit(report_to_json(rep), args.output, parser)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # usage errors are reported with the subcommand's own usage line
    _check_output(args.output, args.subparser)
    try:
        return args.handler(args, args.subparser)
    except ValueError as exc:
        # the library rejects out-of-range arguments before doing any work
        args.subparser.error(str(exc))
    except (VerificationError, StructureError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
