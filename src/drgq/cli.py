"""Command-line interface.

Exit codes: 0 success, 2 usage or precondition failure, 3 input not
distance-regular where one was required, 4 numerical failure, 5 a certified
mathematical claim failed on a concrete instance.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from . import __version__
from .catalogue import CATALOGUE, CHECK_NAMES, CLAIMS, make_bundle, run_catalogue
from .errors import MathAssertionError, NumericalError
from .families import FAMILY_KINDS, FamilySpec, FamilySpecError
from .graph6 import load_graph6_file
from .graphs import Graph
from .intersection import NotDRG
from .qpoly import FULL_MODE_LIMIT
from .report import SECTIONS, render_pretty, run_analysis, to_json
from .tolerances import DEFAULT_TOLERANCES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_DRG = 3
EXIT_NUMERICAL = 4
EXIT_MATH = 5


LOG_LEVELS = ("debug", "info", "warning", "error")


class UsageError(Exception):
    pass


def configure_logging(level: str) -> None:
    """Send the package's log records at ``level`` and above to stderr.  The
    CLI owns the package logger's handlers, so a repeated call replaces them."""
    logger = logging.getLogger(__package__)
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level.upper())


def load_source(source: str) -> tuple[Graph, Optional[FamilySpec], str]:
    """A family spec like odd:3, or a path to a graph6 file.  Text that names
    a known family and no file fails with the family's own error."""
    try:
        spec = FamilySpec.parse(source)
        return spec.build(), spec, str(spec)
    except FamilySpecError:
        if not os.path.exists(source):
            if source.strip().partition(":")[0] in FAMILY_KINDS:
                raise
            raise UsageError(f"cannot interpret {source!r}: not a family spec and no such file")
    graphs = load_graph6_file(source)
    if len(graphs) != 1:
        raise UsageError(f"{source} holds {len(graphs)} graphs; give a file with exactly one")
    return graphs[0], None, source


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_analyze(args) -> int:
    g, family, source = load_source(args.source)
    tol = DEFAULT_TOLERANCES.with_override(args.tolerance)
    report = run_analysis(g, source, family, tol=tol, mode=args.mode,
                          seed=args.seed, jobs=args.jobs, only=args.only)
    _emit(args, render_pretty(report) if args.pretty else to_json(report))
    # a non-DRG's report carries intersection.is_drg = False whatever --only says
    if args.require_drg and report.get("intersection", {}).get("is_drg") is False:
        return EXIT_NOT_DRG
    return EXIT_OK


# verify suite -> registry claim
SUITES = {"thm1": "last_two", "ck": "tail", "census": "census",
          "qpoly-consistency": "qpoly_consistency"}
# what a claim needs of its target when the registry finds it does not apply
APPLIES_TO = {"last_two": "diameter d >= 3", "census": "an odd:<d> target with d >= 3"}


def cmd_verify(args) -> int:
    g, family, name = load_source(args.target)
    tol = DEFAULT_TOLERANCES.with_override(args.tolerance)
    b = make_bundle(g, name, family, tol=tol, mode=args.mode, seed=args.seed)
    if isinstance(b, NotDRG):
        print(f"{name}: {b}", file=sys.stderr)
        return EXIT_NOT_DRG
    claim_name = SUITES[args.suite]
    claim = CLAIMS[claim_name](b)
    if claim is None:
        raise UsageError(f"{name}: the {claim_name} claim needs {APPLIES_TO[claim_name]}")
    if not claim.hypothesis_holds:
        raise UsageError(f"{name}: {claim.detail}")
    print(f"{'pass' if claim.passed else 'FAIL'} {name}: {claim.detail}")
    return EXIT_OK if claim.passed else EXIT_MATH


def cmd_catalogue(args) -> int:
    tol = DEFAULT_TOLERANCES.with_override(args.tolerance)
    rows = run_catalogue(only=args.only, tol=tol, mode=args.mode, seed=args.seed)
    if args.json:
        payload = [{"graph": r.graph, "check": r.check, "passed": r.passed,
                    "detail": r.detail, "seconds": round(r.seconds, 3)} for r in rows]
        print(json.dumps(payload, indent=2))
    else:
        for row in rows:
            print(row.format())
        failed = sum(1 for r in rows if not r.passed)
        print(f"\n{len(rows) - failed}/{len(rows)} checks passed "
              f"({', '.join(CATALOGUE)})")
    return EXIT_OK if all(r.passed for r in rows) else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drgq",
        description="Analyze distance-regular graphs: spectra, Q-polynomial "
                    "verdicts, and subconstituent connectivity certificates.")
    parser.add_argument("--version", action="version", version=f"drgq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance", type=float, default=None,
                       help="override residual tolerances (matrix base and balanced-set relative)")
        p.add_argument("--mode", choices=("auto", "full", "sampled"), default="auto",
                       help=f"balanced-set sweep mode (auto: full up to {FULL_MODE_LIMIT} vertices)")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
        p.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                       help="show the package's log messages at this level and above on stderr")

    pa = sub.add_parser("analyze", help="run the full pipeline on one graph")
    pa.add_argument("source", help="family spec (odd:3, johnson:6,3, petersen, ...) or graph6 file")
    fmt = pa.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, help="JSON output (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable output")
    pa.add_argument("--out", default=None, help="write output to a file instead of stdout")
    pa.add_argument("--require-drg", action="store_true",
                    help="exit 3 when the input is not distance-regular")
    pa.add_argument("--only", choices=SECTIONS,
                    default=None, help="emit a single report section")
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run one certification suite against a target")
    pv.add_argument("suite", choices=tuple(SUITES),
                    help="thm1: last-two-spheres connectivity; ck: dual sign-change tail "
                         "connectivity; census: odd-graph outer-sphere components; "
                         "qpoly-consistency: three-decider agreement")
    pv.add_argument("target", help="family spec or graph6 file")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("catalogue", help="run the whole verification catalogue")
    pc.add_argument("--only", choices=CHECK_NAMES, default=None, help="run one check only")
    pc.add_argument("--json", action="store_true", help="machine-readable rows")
    common(pc)
    pc.set_defaults(func=cmd_catalogue)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        if args.seed < 0:
            raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MathAssertionError as exc:
        print(f"mathematical assertion failed: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
