"""Command-line front end.

Subcommands cover every solver, the bounds report, the worst-case
generator, the brute-force oracles and factorization. Results print as
stable `key = value` lines, or as a single self-describing JSON document
with `--json`; all integers in JSON are decimal strings, so nothing is
ever truncated. Exit codes: 0 solved/feasible, 2 proven infeasible,
3 undetermined (capped search), 1 usage or input errors.

Every subcommand takes one path through `_run`: the handler fills one
document (instance, status, result) and `_run` emits it once, in either
format, and maps its status to the exit code. A `CapExceeded` from any
solver ends the run as undetermined with its reason; worst-case and
factor print a plain-text rendering unless `--json` is given. An argv
that starts with a subcommand's name is parsed by that subcommand's
parser alone; any other argv, or one that leaves arguments over, goes
through the top-level parser, so every usage error keeps its text.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
from .diophsolve import SolutionReport, solve_sparse_lattice
from .errors import CapExceeded, Error, ParseError
from .fileio import (
    format_matrix,
    parse_inline_matrix,
    parse_inline_vector,
    parse_matrix_text,
    parse_vector_text,
)
from .intlinalg import IntMatrix, _reduce, hnf_basis
from .numtheory import factorize
from .oracle import DEFAULT_COORD_CAP, icr_scan, min_support_exact
from .semigroup import (
    DEFAULT_B_CAP,
    solve_knapsack_mixed,
    solve_knapsack_positive,
    solve_semigroup_posspan,
    sparsity_bounds,
)
from .sparsify import first_nonsingular_basis, sparsify, worst_case_instance

B_CAP_ENV = "SPARSEDIOPH_B_CAP"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNDETERMINED = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; exit code 2 is reserved here
    # for proven infeasibility, so usage errors must map to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _s(v) -> str:
    return str(int(v))


def _vec(values) -> list[str]:
    return list(map(str, values))


def _mat(A: IntMatrix) -> dict:
    return {
        "rows": _s(A.rows),
        "cols": _s(A.cols),
        "entries": [_vec(A.row(i)) for i in range(A.rows)],
    }


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2) for str, bool, None, list and dict
    values (string keys), with every string on the C encoder: a non-None
    indent makes json.dumps use its pure-Python one."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        # Vector entries, most of a document, skip the recursive call.
        items = [encode_basestring_ascii(v) if type(v) is str else _json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _emit(doc: dict, as_json: bool, out):
    if as_json:
        out.write(_json(doc) + "\n")
        return

    def emit_value(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                emit_value(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            for i, row in enumerate(value):
                out.write(f"{key}[{i}] = {' '.join(map(str, row))}\n")
        elif isinstance(value, list):
            out.write(f"{key} = {' '.join(map(str, value))}\n")
        else:
            out.write(f"{key} = {value}\n")

    emit_value("", doc)


def _read_ascii(path) -> str:
    """The text of an input file; a byte outside ASCII is a ParseError at
    its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # "?" stands in for the bad byte, so its line is always the last one.
        lines = (data[:exc.start].decode("ascii") + "?").splitlines()
        raise ParseError(f"expected ASCII, got byte 0x{data[exc.start]:02x}",
                         len(lines), len(lines[-1]), path)


def _load_matrix(args) -> IntMatrix:
    if getattr(args, "matrix_file", None):
        return parse_matrix_text(_read_ascii(args.matrix_file), source=args.matrix_file)
    return parse_inline_matrix(args.matrix, source="--matrix")


def _load_rhs(args):
    if getattr(args, "rhs_file", None):
        return parse_vector_text(_read_ascii(args.rhs_file), source=args.rhs_file)
    return parse_inline_vector(args.rhs, source="--rhs")


def _load_tau(args):
    """--tau as parsed, or None for the solvers' default basis."""
    if args.tau is None:
        return None
    return parse_inline_vector(args.tau, source="--tau")


def _report(doc: dict, A: IntMatrix, b, report: SolutionReport | None) -> None:
    """Fill status, result and verified from a solver's report; None
    means proven infeasible."""
    if report is None:
        doc["status"] = "infeasible"
        return
    # Regardless of which solver produced x, recheck A x = b here before
    # anything is printed.
    lhs = A.mat_vec(report.x)
    verified = {
        "lhs_equals_rhs": list(lhs) == [int(v) for v in b],
        "support_within_bound": report.support_size <= report.bound,
    }
    if not all(verified.values()):
        raise AssertionError("solver returned an invalid solution")
    doc["status"] = "solved"
    doc["result"] = {
        "x": _vec(report.x),
        "support": _s(report.support_size),
        "bound": _s(report.bound),
        "bound_name": report.bound_name,
    }
    if not report.bound_exact:
        doc["result"]["bound_exact"] = False
    doc["verified"] = verified


def _add_matrix_args(p: _Parser, rhs: bool = False):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix-file", metavar="PATH", help="matrix file (`m n` header)")
    group.add_argument("--matrix", metavar="ROWS", help="inline matrix, rows separated by ';'")
    if rhs:
        rgroup = p.add_mutually_exclusive_group(required=True)
        rgroup.add_argument("--rhs-file", metavar="PATH", help="right-hand side vector file")
        rgroup.add_argument("--rhs", metavar="INTS", help="inline right-hand side")


def build_parser() -> _Parser:
    # --help shows every paragraph of the module docstring but the last,
    # which is about the code.
    parser = _Parser(prog="sparsedioph", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Subcommand name -> its parser, for `_parse`.
    parser._commands = sub.choices

    p = sub.add_parser("sparsify", help="sparsify the generating set of a lattice")
    _add_matrix_args(p)
    p.add_argument("--tau", metavar="INTS", help="1-based basis columns (default: first nonsingular)")

    p = sub.add_parser("solve-dioph", help="sparse integer solution of A x = b")
    _add_matrix_args(p, rhs=True)
    p.add_argument("--tau", metavar="INTS")

    p = sub.add_parser("solve-semigroup",
                       help="sparse nonnegative solution; a lift needs positively spanning columns")
    _add_matrix_args(p, rhs=True)
    p.add_argument("--tau", metavar="INTS")

    p = sub.add_parser("knapsack", help="sparse nonnegative knapsack solution")
    p.add_argument("--a", required=True, metavar="INTS", help="weights")
    p.add_argument("--b", required=True, type=int, metavar="INT")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--positive", action="store_true", help="all weights positive")
    mode.add_argument("--mixed", action="store_true", help="weights of both signs")
    p.add_argument("--b-cap", type=int, default=None, metavar="INT",
                   help=f"cap on b/gcd (default ${B_CAP_ENV} or {DEFAULT_B_CAP})")

    p = sub.add_parser("bounds", help="evaluate all sparsity bounds for an instance")
    _add_matrix_args(p)
    p.add_argument("--tau", metavar="INTS")
    p.add_argument("--extreme-ray", type=int, default=None, metavar="INDEX",
                   help="1-based column to use for the pointed-cone bound")

    p = sub.add_parser("worst-case", help="instance with tight sparsification bound")
    p.add_argument("--m", required=True, type=int, metavar="INT")
    p.add_argument("--delta", required=True, type=int, metavar="INT")

    p = sub.add_parser("oracle", help="exact minimum support by brute force")
    _add_matrix_args(p, rhs=True)
    p.add_argument("--k-max", type=int, default=None, metavar="INT")
    p.add_argument("--coord-cap", type=int, default=DEFAULT_COORD_CAP, metavar="INT")

    p = sub.add_parser("icr-scan", help="lower bound on the integer Caratheodory rank")
    p.add_argument("--a", required=True, metavar="INTS")
    p.add_argument("--b-max", required=True, type=int, metavar="INT")

    p = sub.add_parser("factor", help="prime factorization")
    p.add_argument("z", type=int)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> _Parser:
    # Building the parser costs ~30 times what parsing does; one per
    # process serves every run, since parse_args keeps no state.
    return build_parser()


def _parse(argv):
    """parse_args of the top-level parser, with one argparse pass when
    argv[0] names a subcommand and its parser leaves nothing over."""
    parser = _parser()
    sub = parser._commands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _cmd_sparsify(args, doc):
    A = _load_matrix(args)
    cert = sparsify(A, _load_tau(args))
    doc["instance"] = {"matrix": _mat(A), "tau": _vec(cert.tau)}
    doc["status"] = "solved"
    doc["result"] = {
        "gamma": _vec(cert.gamma),
        "size": _s(len(cert.gamma)),
        "bound": _s(cert.bound),
        "delta": _s(cert.delta),
    }
    if not cert.bound_exact:
        doc["result"]["bound_exact"] = False
    # Recheck here, whatever sparsify did, that gamma spans the lattice of
    # A: every other column reduces to zero on gamma's HNF basis.
    columns = A.to_columns()
    kept = hnf_basis([columns[j - 1] for j in cert.gamma], A.rows)
    others = (col for j, col in enumerate(columns, 1) if j not in cert.gamma)
    if any(any(_reduce(kept, col)) for col in others):
        raise AssertionError("sparsify returned columns that change the lattice")
    doc["verified"] = {"lattice_fingerprint_match": True}


def _cmd_solve(args, doc):
    A = _load_matrix(args)
    b = _load_rhs(args)
    tau = _load_tau(args)
    solve = solve_semigroup_posspan if args.command == "solve-semigroup" else solve_sparse_lattice
    report = solve(A, b, tau)
    if report is not None:
        tau = report.tau
    elif tau is None:
        # An infeasible solve returns no report; echo the default tau.
        tau = first_nonsingular_basis(A)
    doc["instance"] = {"matrix": _mat(A), "rhs": _vec(b), "tau": _vec(tau)}
    _report(doc, A, b, report)


def _cmd_knapsack(args, doc):
    a = parse_inline_vector(args.a, source="--a")
    doc["instance"] = {
        "a": _vec(a),
        "b": _s(args.b),
        "mode": "positive" if args.positive else "mixed",
    }
    if args.positive:
        cap = args.b_cap
        if cap is None:
            raw = os.environ.get(B_CAP_ENV, str(DEFAULT_B_CAP))
            try:
                cap = int(raw, 10)
            except ValueError:
                raise ParseError(
                    f"expected an integer, got {raw!r}", 1, 1, f"${B_CAP_ENV}"
                )
        report = solve_knapsack_positive(a, args.b, b_cap=cap)
    else:
        report = solve_knapsack_mixed(a, args.b)
    _report(doc, IntMatrix.row_vector(a), (args.b,), report)


def _cmd_bounds(args, doc):
    A = _load_matrix(args)
    report = sparsity_bounds(A, _load_tau(args), args.extreme_ray)
    doc["instance"] = {"matrix": _mat(A), "tau": _vec(report.tau)}

    def opt(v):
        return _s(v) if v is not None else None

    doc["status"] = "solved"
    doc["result"] = {
        "adno_bound": _s(report.adno_bound),
        "thm1_semigroup_bound": _s(report.thm1_semigroup_bound),
        "pointed_cone_bound": opt(report.pointed_cone_bound),
        "pointed_cone_note": "bound only, non-constructive",
        "knapsack_bound": opt(report.knapsack_bound),
        "gcd": _s(report.gcd_A),
    }
    if not report.thm1_bound_exact:
        doc["result"]["thm1_bound_exact"] = False


def _cmd_worst_case(args, doc) -> str:
    doc["instance"] = {"m": _s(args.m), "delta": _s(args.delta)}
    A = worst_case_instance(args.m, args.delta)
    doc["status"] = "solved"
    doc["result"] = {"matrix": _mat(A)}
    return format_matrix(A)


def _cmd_oracle(args, doc):
    A = _load_matrix(args)
    b = _load_rhs(args)
    k_max = args.k_max if args.k_max is not None else A.cols
    complete = A.rows == 1 and k_max >= A.cols
    doc["instance"] = {"matrix": _mat(A), "rhs": _vec(b)}
    doc["regime"] = {
        "k_max": _s(k_max),
        "coord_cap": _s(args.coord_cap),
        "complete": complete,
    }
    found = min_support_exact(A, b, k_max=k_max, coord_cap=args.coord_cap)
    if found is None:
        doc["status"] = "infeasible"
    else:
        doc["status"] = "solved"
        doc["result"] = {"min_support": _s(found)}


def _cmd_icr_scan(args, doc):
    a = parse_inline_vector(args.a, source="--a")
    doc["instance"] = {"a": _vec(a), "b_max": _s(args.b_max)}
    value = icr_scan(a, args.b_max)
    doc["status"] = "solved"
    doc["result"] = {"icr_lower_bound": _s(value)}


def _cmd_factor(args, doc) -> str:
    doc["instance"] = {"z": _s(args.z)}
    fact = factorize(args.z)
    doc["status"] = "solved"
    doc["result"] = {"factors": [[_s(p), _s(s)] for p, s in fact.factors]}
    text = " * ".join(f"{p}^{s}" if s > 1 else str(p) for p, s in fact.factors)
    return (text or "1") + "\n"


# Each handler fills doc with instance, status and, when there is one,
# result; worst-case and factor also return their plain-text rendering.
_COMMANDS = {
    "sparsify": _cmd_sparsify,
    "solve-dioph": _cmd_solve,
    "solve-semigroup": _cmd_solve,
    "knapsack": _cmd_knapsack,
    "bounds": _cmd_bounds,
    "worst-case": _cmd_worst_case,
    "oracle": _cmd_oracle,
    "icr-scan": _cmd_icr_scan,
    "factor": _cmd_factor,
}

_EXIT_CODES = {
    "solved": EXIT_OK,
    "infeasible": EXIT_INFEASIBLE,
    "undetermined": EXIT_UNDETERMINED,
}


def run(argv, out=None, err=None) -> int:
    # Inputs and answers may pass Python's 4300-digit int/str limit; lift
    # it for this call only, so in-process callers keep their setting.
    # 0 means no limit, which is also all a build without the limit has.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv, out, err)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv, out, err) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    doc = {"command": args.command}
    try:
        try:
            text = _COMMANDS[args.command](args, doc)
        except CapExceeded as exc:
            text = None
            doc["status"] = "undetermined"
            doc["reason"] = str(exc)
        if text is None or args.json:
            _emit(doc, args.json, out)
        else:
            out.write(text)
    except (ParseError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_ERROR
    except Error as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_ERROR
    return _EXIT_CODES[doc["status"]]


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
