"""Command line front end.

Subcommands
-----------
``run``                 validate and execute scenario files, print reports
``validate``            run the physicality checks only
``witness-antilattice`` order-classify a pair of PSD matrices and, when they
                        are incomparable, print the two-lower-bounds witness
``version``             print the package version

Exit codes: 0 success, 1 standard output closed before the report was
written, 2 unreadable or malformed input (syntax, schema, unknown flags),
3 semantically invalid input, failed validation checks or arithmetic that
leaves the float range, 4 conditioning on a zero-probability outcome,
5 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    ConvexOpError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    ZeroProbabilityError,
)
from .lattice import anti_lattice_witness
from .quantum import from_matrix, make_quantum_space
from .scenario import (
    _cone_check,
    parse_scenario,
    parse_witness_file,
    render_report,
    render_validation,
    render_witness,
    run_scenario,
    validate_scenario,
)
from .spaces import DEFAULT_TOL

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_INPUT = 2
EXIT_INVALID = 3
EXIT_CONDITIONING = 4
EXIT_INTERNAL = 5


def _float_in(low: float, high: float, rule: str):
    """Argparse type for a float in ``[low, high]``; any other value, NaN
    included, is a usage error (exit 2)."""

    def parse(text: str) -> float:
        value = float(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = "float"  # argparse names it in "invalid float value"
    return parse


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tol",
        type=_float_in(0.0, sys.float_info.max, "finite and nonnegative"),
        default=DEFAULT_TOL,
        help="numerical tolerance for checks (default %(default)g)",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the report to PATH instead of standard output",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the report on standard output",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexop",
        description="Run and validate declarative measurement scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="validate and execute scenario files")
    run_parser.add_argument("scenario", nargs="+", help="scenario file(s)")
    _common_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    val_parser = sub.add_parser("validate", help="run the physicality checks only")
    val_parser.add_argument("scenario", nargs="+", help="scenario file(s)")
    _common_flags(val_parser)
    val_parser.set_defaults(handler=_cmd_validate)

    wit_parser = sub.add_parser(
        "witness-antilattice",
        help="classify a pair of PSD matrices; witness incomparability",
    )
    wit_parser.add_argument("input", help="file with matrices 'A' and 'B'")
    wit_parser.add_argument(
        "--grid-step",
        type=_float_in(0.02, 2.0, "in [0.02, 2]"),
        default=0.05,
        help="relative step of the dominator grid search (default %(default)g)",
    )
    _common_flags(wit_parser)
    wit_parser.set_defaults(handler=_cmd_witness)

    ver_parser = sub.add_parser("version", help="print the package version")
    ver_parser.set_defaults(handler=_cmd_version)

    return parser


def _emit(text: str, args) -> None:
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
    elif not getattr(args, "quiet", False):
        sys.stdout.write(text)


def _cmd_run(args) -> int:
    for path in args.scenario:
        doc = parse_scenario(path)
        try:
            report = run_scenario(doc, args.tol)
        except ScenarioValidationError as exc:
            if exc.checks:
                _emit(render_validation(exc.checks), args)
            raise
        _emit(render_report(report), args)
    return EXIT_OK


def _cmd_validate(args) -> int:
    all_passed = True
    for path in args.scenario:
        checks = validate_scenario(parse_scenario(path), args.tol)
        _emit(render_validation(checks), args)
        if any(not c.passed for c in checks):
            all_passed = False
    if not all_passed:
        print("error: validation checks failed", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def _cmd_witness(args) -> int:
    a, b = parse_witness_file(args.input)
    # each matrix is checked for positivity in its own space first, so a
    # non-PSD B is reported before a size mismatch with A; from_matrix in
    # A's space then reports the mismatch
    ea, eb = (from_matrix(make_quantum_space(m.shape[0]), m) for m in (a, b))
    for name, x in (("A", ea), ("B", eb)):
        check = _cone_check(x, name, args.tol)
        if not check.passed:
            raise ScenarioValidationError(f"{name}: not positive semidefinite ({check.detail})")
    if eb.space.psd_dim != ea.space.psd_dim:
        eb = from_matrix(ea.space, b)
    result = anti_lattice_witness(ea, eb, tol=args.tol, grid_step=args.grid_step)
    _emit(render_witness(result), args)
    return EXIT_OK


def _cmd_version(args) -> int:
    print(f"convexop {__version__}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    files = getattr(args, "scenario", None)
    if getattr(args, "report", None) and files is not None and len(files) > 1:
        parser.error("--report requires a single input file")
    try:
        # arithmetic on a file's numbers that leaves the float range stops the
        # run, so no inf or NaN is carried into a report
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: drop what is left, so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    except (ScenarioSyntaxError, ScenarioSchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except ConvexOpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except FloatingPointError as exc:
        print(f"error: the input's numbers leave the float range: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
