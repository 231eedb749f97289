"""Command-line front end.

One subcommand per library operation, reading the shared JSON/text
formats from files or stdin and writing JSON (or text) reports to
stdout or --out.  Exit codes: 0 success or property holds, 1 a checked
property is false, 2 invalid input or a failed write, 3 numerical
failure.  ``main(argv)`` is the in-process entry and returns the code;
``run()`` is the process entry (``sympectra``, ``python -m sympectra``)
and exits with it.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

from .errors import DomainError, NumericalError
from .io import (dumps, frame_obj, matrix_obj, parse_frame, parse_matrix,
                 parse_vector, read_input, render_text, write_output)
from .majorization import MAJORIZATION_TOL, majorize, weak_supermajorize
from .means import parse_mean
from .schur_horn import (horn_symplectic_realize, kyfan_minimizer,
                         kyfan_search, schur_check)
from .spectral import symplectic_diag, symplectic_eigenvalues, williamson
from .symplectic import (DEFAULT_TOL, complete_to_symplectic, expanding_sum,
                         random_pd, random_symplectic, s_pinching)

__all__ = ["main", "run"]


def _matrix_in(args):
    return parse_matrix(read_input(args.infile))


# Each handler returns its report; ``main`` writes it and exits 1 when the
# report holds a false "verdict" or a nonzero "violations" count.
def _cmd_eig(args) -> dict:
    return {"delta": symplectic_eigenvalues(_matrix_in(args), args.tol)}


def _cmd_williamson(args) -> dict:
    fact = williamson(_matrix_in(args), args.tol)
    return {"delta": fact.delta, "W": matrix_obj(fact.W),
            "residual": fact.residual}


def _cmd_diag_m(args) -> dict:
    return {"diag_m": symplectic_diag(_matrix_in(args), parse_mean(args.mean))}


def _cmd_schur_check(args) -> dict:
    rep = schur_check(_matrix_in(args), parse_mean(args.mean), args.tol)
    return {"verdict": rep.verdict, "diag_m": rep.diag_m,
            "delta": rep.delta, "slacks": rep.report.k_slacks}


def _cmd_realize(args) -> dict:
    x = parse_vector(read_input(args.x))
    y = parse_vector(read_input(args.y))
    return matrix_obj(horn_symplectic_realize(x, y, parse_mean(args.mean), args.tol))


def _cmd_kyfan_min(args) -> dict:
    res = kyfan_minimizer(_matrix_in(args), args.k, parse_mean(args.mean), args.tol)
    return {"k": res.k, "min_value": res.min_value,
            "delta_partial": res.delta_partial_sum,
            "frame": frame_obj(res.minimizer)}


def _cmd_kyfan_search(args) -> dict:
    rep = kyfan_search(_matrix_in(args), args.k, parse_mean(args.mean),
                       budget=args.budget, seed=args.seed, tol=args.tol)
    return {"k": rep.k, "best_value": rep.best_value,
            "delta_partial": rep.delta_partial_sum,
            "violations": rep.violations, "n_samples": rep.n_samples,
            "frame": frame_obj(rep.best_frame)}


def _cmd_pinch(args) -> dict:
    try:
        partition = [int(tok) for tok in args.partition.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad --partition {args.partition!r}: "
                          "expected comma-separated integers") from exc
    return matrix_obj(s_pinching(_matrix_in(args), partition))


def _cmd_boxplus(args) -> dict:
    paths = args.infile if args.infile else [None]
    return matrix_obj(expanding_sum([parse_matrix(read_input(p)) for p in paths]))


def _cmd_complete_frame(args) -> dict:
    X = parse_frame(read_input(args.infile))
    return matrix_obj(complete_to_symplectic(X, args.tol))


def _cmd_major_check(args) -> dict:
    x = parse_vector(read_input(args.x))
    y = parse_vector(read_input(args.y))
    check = majorize if args.kind == "majorize" else weak_supermajorize
    rep = check(x, y, args.tol)
    return {"verdict": rep.verdict, "slacks": rep.k_slacks,
            "total_gap": rep.total_gap}


def _cmd_random(args) -> dict:
    return matrix_obj(args.sampler(args.n, seed=args.seed, spread=args.spread))


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but help for stdout is written as a report is
    (``write_output``), so a failed write raises DomainError where argparse
    would drop it and exit 0; messages for stderr keep argparse's path."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            write_output(message, None)
        else:
            super()._print_message(message, file)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sympectra",
        description="Symplectic eigenvalues, Williamson factorization, "
                    "majorization checks, and diagonal realization.",
        epilog="Matrix JSON: {\"n\": <half-order>, \"rows\": [[...], ...]}; "
               "vectors are plain JSON arrays; whitespace text (one row per "
               "line) is accepted on input.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", default=None,
                       help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output format (default json)")
        return p

    def opt_in(p, help_text="input matrix path (default stdin)"):
        p.add_argument("--in", dest="infile", default=None, help=help_text)

    def opt_tol(p, default=DEFAULT_TOL):
        p.add_argument("--tol", type=float, default=default,
                       help=f"tolerance (default {default:g})")

    def opt_mean(p):
        p.add_argument("--mean", default="geometric",
                       help="arithmetic|geometric|harmonic|min|max|power:<p> "
                            "(default geometric)")

    def opt_xy(p):
        p.add_argument("--x", required=True, help="path to the x vector")
        p.add_argument("--y", required=True, help="path to the y vector")

    def opt_seed(p):
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    p = add("eig", _cmd_eig, "ascending symplectic eigenvalues of a PD matrix")
    opt_in(p); opt_tol(p)

    p = add("williamson", _cmd_williamson,
            "Williamson factorization A = W (D+D) W^T")
    opt_in(p); opt_tol(p)

    p = add("diag-m", _cmd_diag_m, "mean-paired symplectic diagonal of A")
    opt_in(p); opt_mean(p)

    p = add("schur-check", _cmd_schur_check,
            "weak supermajorization of diag_M(A) by delta(A); exit 1 if false")
    opt_in(p); opt_mean(p); opt_tol(p)

    p = add("realize", _cmd_realize,
            "build PD A with diag_M(A) = x and delta(A) = sorted y")
    opt_xy(p); opt_mean(p); opt_tol(p)

    p = add("kyfan-min", _cmd_kyfan_min,
            "exact minimizing frame for the k-partial eigenvalue sum")
    opt_in(p); opt_mean(p); opt_tol(p)
    p.add_argument("--k", type=int, required=True, help="frame half-width")

    p = add("kyfan-search", _cmd_kyfan_search,
            "randomized lower-bound scan; exit 1 if any violation found")
    opt_in(p); opt_mean(p); opt_tol(p); opt_seed(p)
    p.add_argument("--k", type=int, required=True, help="frame half-width")
    p.add_argument("--budget", type=int, default=10_000,
                   help="number of sampled frames (default 10000)")

    p = add("pinch", _cmd_pinch, "project A onto a block-partition pattern")
    opt_in(p)
    p.add_argument("--partition", required=True,
                   help="comma-separated block sizes summing to n, e.g. 2,1")

    p = add("boxplus", _cmd_boxplus,
            "expanding (interleaved direct) sum of matrices")
    p.add_argument("--in", dest="infile", action="append", default=None,
                   help="input matrix path; repeat per block (default stdin)")

    p = add("complete-frame", _cmd_complete_frame,
            "extend a 2n-by-2k symplectic frame to a full symplectic matrix")
    opt_in(p, "input frame path (default stdin)"); opt_tol(p)

    p = add("major-check", _cmd_major_check,
            "majorization comparison of two vectors; exit 1 if false")
    opt_xy(p); opt_tol(p, MAJORIZATION_TOL)
    p.add_argument("--kind", choices=("weak-super", "majorize"),
                   default="weak-super",
                   help="preorder to test (default weak-super)")

    for name, sampler, what, spread in (
            ("random-pd", random_pd, "PD", "conditioning control"),
            ("random-symplectic", random_symplectic, "symplectic",
             "distance-from-identity control")):
        p = add(name, _cmd_random, f"seeded random {what} matrix of order 2n")
        p.set_defaults(sampler=sampler)
        p.add_argument("--n", type=int, required=True, help="half-order")
        opt_seed(p)
        p.add_argument("--spread", type=float, default=1.0,
                       help=f"{spread} (default 1.0)")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
        text = render_text(report) if args.format == "text" else dumps(report)
        write_output(text, args.out)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 1 if report.get("verdict") is False or report.get("violations") else 0


def run() -> None:
    """Exit with ``main()``'s code, sparing shutdown's garbage collection.

    ``gc.freeze()`` moves the import heap to the permanent generation, which
    shutdown's collections never walk.  A stdout that refused the output
    (``main`` has said so) is pointed at the null device, so the flush at
    shutdown cannot fail again."""
    code = main()
    gc.freeze()
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
