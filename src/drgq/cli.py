"""Command-line interface.

Exit codes: 0 success, 2 usage or precondition failure, 3 input not
distance-regular where one was required, 4 numerical failure, 5 a certified
mathematical claim failed on a concrete instance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import ceil
from typing import Optional

from . import __version__
from .catalogue import CATALOGUE, CHECK_NAMES, run_catalogue
from .connectivity import (dual_sign_change_index, odd_component_census,
                           sweep_last_two, sweep_tail)
from .errors import DisconnectedGraphError, MathAssertionError, NumericalError
from .families import FamilySpec, FamilySpecError
from .graph6 import load_graph6_file
from .graphs import Graph, distance_data
from .intersection import NotDRG, check_distance_regular
from .report import render_pretty, run_analysis, to_json
from .spectral import compute_spectral_data
from .qpoly import qpoly_report
from .tolerances import DEFAULT_TOLERANCES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_DRG = 3
EXIT_NUMERICAL = 4
EXIT_MATH = 5


class UsageError(Exception):
    pass


def load_source(source: str) -> tuple[Graph, Optional[FamilySpec], str]:
    """A family spec like odd:3, or a path to a graph6 file."""
    try:
        spec = FamilySpec.parse(source)
        return spec.build(), spec, str(spec)
    except FamilySpecError:
        pass
    if not os.path.exists(source):
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
    if args.require_drg and not report.get("intersection", {}).get("is_drg", False):
        return EXIT_NOT_DRG
    return EXIT_OK


def _require_drg_bundle(source: str, args):
    g, family, name = load_source(source)
    dd = distance_data(g)
    res = check_distance_regular(g, dd)
    if isinstance(res, NotDRG):
        print(f"{name}: {res}", file=sys.stderr)
        sys.exit(EXIT_NOT_DRG)
    tol = DEFAULT_TOLERANCES.with_override(args.tolerance)
    sd = compute_spectral_data(dd, res, tol)
    return g, family, name, dd, res, sd, tol


def cmd_verify(args) -> int:
    g, family, name, dd, ia, sd, tol = _require_drg_bundle(args.target, args)

    if args.suite == "thm1":
        if ia.d < 3:
            raise UsageError(f"{name} has diameter {ia.d}; the last-two check needs d >= 3")
        qp = qpoly_report(dd, ia, sd, mode=args.mode, seed=args.seed, tol=tol, jobs=args.jobs)
        if not qp.is_qpoly:
            raise UsageError(f"{name} is not Q-polynomial; the last-two claim does not apply")
        ok, flags = sweep_last_two(g, dd, args.jobs)
        if not ok:
            bad = [i for i, f in enumerate(flags) if not f]
            print(f"FAIL {name}: last two spheres disconnected at vertices {bad[:10]}")
            return EXIT_MATH
        print(f"pass {name}: last two spheres connected at all {g.n} vertices")
        return EXIT_OK

    if args.suite == "ck":
        s = dual_sign_change_index(sd.dual[1], tol.dual_zero_snap)
        if 2 * s < ia.d:
            print(f"FAIL {name}: sign change s={s} below half the diameter {ia.d}")
            return EXIT_MATH
        ok, flags = sweep_tail(g, dd, s, args.jobs)
        if not ok:
            bad = [i for i, f in enumerate(flags) if not f]
            print(f"FAIL {name}: tail from {s} disconnected at vertices {bad[:10]}")
            return EXIT_MATH
        print(f"pass {name}: s={s} >= {ceil(ia.d / 2)}, tail connected at all {g.n} vertices")
        return EXIT_OK

    if args.suite == "census":
        if family is None or family.kind != "odd":
            raise UsageError("census only applies to odd:<d> targets")
        rec = odd_component_census(family.params[0], all_vertices=True)
        print(f"pass {name}: {rec.count} components of size {rec.expected_size} at all "
              f"{rec.vertices_checked} vertices (isomorphism certificates: {rec.iso_components})")
        return EXIT_OK

    if args.suite == "qpoly-consistency":
        qp = qpoly_report(dd, ia, sd, mode=args.mode, seed=args.seed, tol=tol, jobs=args.jobs)
        if not qp.consistent:
            print(f"FAIL {name}: deciders disagree")
            for line in qp.disagreements:
                print(f"  {line}")
            return EXIT_MATH
        print(f"pass {name}: three deciders agree; Q-polynomial candidates "
              f"{qp.qpoly_candidates or 'none'}")
        return EXIT_OK

    raise UsageError(f"unknown suite {args.suite!r}")


def cmd_catalogue(args) -> int:
    tol = DEFAULT_TOLERANCES.with_override(args.tolerance)
    rows = run_catalogue(only=args.only, tol=tol, mode=args.mode,
                         seed=args.seed, jobs=args.jobs)
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
                       help="balanced-set sweep mode (auto: full up to 200 vertices)")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--jobs", type=int, default=1, help="worker thread cap")

    pa = sub.add_parser("analyze", help="run the full pipeline on one graph")
    pa.add_argument("source", help="family spec (odd:3, johnson:6,3, petersen, ...) or graph6 file")
    fmt = pa.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True, help="JSON output (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable output")
    pa.add_argument("--out", default=None, help="write output to a file instead of stdout")
    pa.add_argument("--require-drg", action="store_true",
                    help="exit 3 when the input is not distance-regular")
    pa.add_argument("--only", choices=("intersection", "spectral", "qpoly", "connectivity"),
                    default=None, help="emit a single report section")
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify", help="run one certification suite against a target")
    pv.add_argument("suite", choices=("thm1", "ck", "census", "qpoly-consistency"),
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
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FamilySpecError, DisconnectedGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
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
