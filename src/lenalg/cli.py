"""Command-line surface.

Exit codes follow a pipeline-friendly contract: for `check` and `oracle`,
0 means verdict yes, 1 means verdict no, 2 means error; `verify-cert`
returns 0/1 for valid/invalid certificates; everything else returns 0 on
success and 2 on error, a closed stdout included.  `--json` switches every
command but `make`, whose documents are already JSON, to machine-readable
reports.  `documents` writes every report, JSON and text.

`--budget` caps the enumerations of `oracle`, `length` and `verify-cert` and
the power sweep of `identities` (default LENALG_BUDGET or 10^7).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .constructors import (
    fixture_names,
    make_bilinear_jordan,
    make_direct_sum_of_fields,
    make_fixture,
    make_matrix_algebra,
)
from .decide import decide_length_one, oracle_length_one
from .documents import (
    algebra_length_report,
    identities_report,
    oracle_report,
    parse_document,
    render_document,
    render_report,
    report_text,
    set_length_report,
    verify_report_dict,
)
from .errors import LenalgError, ScalarSyntaxError
from .fields import make_field
from .generate import MODES, generate_length_one
from .identities import (
    IdentityVerdict,
    is_associative,
    is_commutative,
    is_flexible,
    is_jordan,
    is_power_associative_upto,
)
from .length import length_of_algebra, length_of_set


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_report(report, A, as_json):
    sys.stdout.write(render_report(report, A) if as_json else report_text(report, A.field))


def _parse_scalars(field, token, flag):
    """The comma-separated scalars of `token`; a bad one is an error naming `flag`."""
    try:
        return tuple(field.parse(x) for x in token.split(","))
    except ValueError as exc:
        raise ScalarSyntaxError(flag, str(exc)) from None


def _at_least(low):
    """argparse type: an integer no smaller than `low`."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _parse_set_spec(A, spec):
    """Vectors from "e2;e3" (1-based basis indices) or "0,1,0;0,0,1"."""
    field = A.field
    vectors = []
    for token in spec.split(";"):
        token = token.strip()
        if not token:
            continue
        if token.startswith("e") and token[1:].isascii() and token[1:].isdigit():
            idx = int(token[1:])
            if not 1 <= idx <= A.dim:
                raise LenalgError(f"basis index out of range: {token}")
            vectors.append(A.basis_vector(idx - 1))
        else:
            parts = token.count(",") + 1
            if parts != A.dim:
                raise LenalgError(
                    f"vector {token!r} has {parts} entries, need {A.dim}")
            vectors.append(_parse_scalars(field, token, "--set"))
    return vectors


def _cmd_check(args):
    doc = parse_document(_read_source(args.file))
    report = decide_length_one(doc.algebra)
    _write_report(report, doc.algebra, args.json)
    return 0 if report.value else 1


def _cmd_oracle(args):
    A = parse_document(_read_source(args.file)).algebra
    res = oracle_length_one(A, budget=args.budget)
    _write_report(oracle_report(A, res), A, args.json)
    if not args.json:
        print("pairs checked:", res.pairs_checked)
    return 0 if res.is_length_one else 1


def _cmd_length_set(args):
    A = parse_document(_read_source(args.file)).algebra
    vectors = _parse_set_spec(A, args.set)
    _write_report(set_length_report(vectors, length_of_set(A, vectors)), A, args.json)
    return 0


def _cmd_length(args):
    A = parse_document(_read_source(args.file)).algebra
    res = length_of_algebra(A, budget=args.budget)
    _write_report(algebra_length_report(res), A, args.json)
    return 0


def _cmd_identities(args):
    A = parse_document(_read_source(args.file)).algebra
    report = decide_length_one(A)
    results = {"commutative": is_commutative(A), "associative": is_associative(A),
               "flexible": is_flexible(A)}
    if A.field.characteristic() != 2:
        results["jordan"] = is_jordan(A)
    # length one proves power-associativity (see the `identities` docstring)
    results[f"power-associative(<={args.degree})"] = (
        IdentityVerdict("power-associative", True,
                        {"kind": "length-one", "max_degree": args.degree})
        if report.value else is_power_associative_upto(A, args.degree, budget=args.budget))
    sys.stdout.write(identities_report(A, report, results, args.json))
    return 0


def _cmd_make(args):
    field = make_field(args.field) if args.field else None
    name = args.constructor
    if name == "bilinear-jordan":
        if field is None or not args.gram:
            raise LenalgError("bilinear-jordan needs --field and --gram")
        gram = [_parse_scalars(field, row, "--gram")
                for row in args.gram.split(";")]
        try:
            A = make_bilinear_jordan(field, gram)
        except ValueError as exc:
            raise LenalgError(f"--gram: {exc}") from None
    elif name == "matrix":
        if field is None or args.n is None:
            raise LenalgError("matrix needs --field and --n")
        A = make_matrix_algebra(field, args.n)
    elif name == "direct-sum":
        if field is None or args.k is None:
            raise LenalgError("direct-sum needs --field and --k")
        A = make_direct_sum_of_fields(field, args.k)
    elif name == "fixture":
        if not args.name:
            raise LenalgError("fixture needs --name (one of: "
                              + ", ".join(fixture_names()) + ")")
        A = make_fixture(args.name, field=field)
    else:  # random-l1: argparse's choices admit no other name
        if field is None or args.dim is None:
            raise LenalgError("random-l1 needs --field, --dim and --mode")
        A = generate_length_one(field, args.dim, args.seed, args.mode,
                                hide=args.hide)
    metadata = {"constructor": name}
    if args.name:
        metadata["name"] = args.name
    _write_output(render_document(A, metadata), args.output)
    return 0


def _cmd_verify_cert(args):
    ok = verify_report_dict(_read_source(args.file), budget=args.budget)
    if args.json:
        sys.stdout.write(json.dumps({"certificate_valid": ok}) + "\n")
    else:
        print("certificate:", "valid" if ok else "INVALID")
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every call;
    each parse fills a fresh namespace, so no argument outlives its call."""
    parser = argparse.ArgumentParser(
        prog="lenalg",
        description="Exact length-one decisions, lengths, and identity checks "
                    "for structure-constant algebras.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget_help=None):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")
        if budget_help is not None:
            p.add_argument("--budget", type=_at_least(0), default=None, help=budget_help)

    enumeration = "enumeration work cap (default: LENALG_BUDGET or 10^7)"

    p = sub.add_parser("check", help="decide length one with a certificate")
    p.add_argument("file", help="algebra document (JSON), or - for stdin")
    common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="independent pair-span check (exact)")
    p.add_argument("file")
    common(p, enumeration)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("length-set", help="length of a generating set")
    p.add_argument("file")
    p.add_argument("--set", required=True,
                   help="semicolon-separated vectors; entries are comma-separated "
                        "scalars, or e<k> for the k-th basis vector (1-based)")
    common(p)
    p.set_defaults(func=_cmd_length_set)

    p = sub.add_parser("length", help="exact algebra length (finite fields)")
    p.add_argument("file")
    common(p, enumeration)
    p.set_defaults(func=_cmd_length)

    p = sub.add_parser("identities",
                       help="commutative / associative / flexible / jordan / "
                            "power-associative checks")
    p.add_argument("file")
    p.add_argument("--degree", type=_at_least(3), default=6,
                   help="power-associativity degree bound (default 6)")
    common(p, enumeration)
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("make", help="emit an algebra document")
    p.add_argument("constructor",
                   choices=["bilinear-jordan", "matrix", "direct-sum",
                            "fixture", "random-l1"])
    p.add_argument("--field", help='field shorthand: Q, F2, F3, F5, GF4, ...')
    p.add_argument("--gram", help='rows "1,0;0,-1" for bilinear-jordan')
    p.add_argument("--n", type=_at_least(1), help="matrix size")
    p.add_argument("--k", type=_at_least(1), help="number of direct summands")
    p.add_argument("--name", help="fixture name (see README) or document name")
    p.add_argument("--dim", type=int, help="dimension for random-l1")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=list(MODES), default="special")
    p.add_argument("--hide", action="store_true",
                   help="conjugate by a seeded random basis change")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_make)

    p = sub.add_parser("verify-cert")  # deliberately undocumented in --help text
    p.add_argument("file", help="a report produced with --json")
    common(p, enumeration)
    p.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except LenalgError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error[FileNotFound]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
