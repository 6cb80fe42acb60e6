"""End-to-end analysis pipeline and JSON report assembly.

Reports use a fixed key order and only contain values reproducible from the
recorded settings, so the same input and flags produce byte-identical output
apart from the timing block.
"""

from __future__ import annotations

import json
import time
from math import ceil
from typing import Optional

from . import __version__
from .catalogue import CLAIMS, Bundle, make_bundle
from .families import FamilySpec
from .graphs import Graph
from .intersection import NotDRG
from .qpoly import resolve_mode
from .tolerances import DEFAULT_TOLERANCES, Tolerances

SECTIONS = ("intersection", "spectral", "qpoly", "connectivity")


def run_analysis(g: Graph, source: str, family: Optional[FamilySpec] = None,
                 tol: Tolerances = DEFAULT_TOLERANCES, mode: str = "auto",
                 seed: int = 0, jobs: int = 1,
                 only: Optional[str] = None) -> dict:
    """Full pipeline: distances, regularity, classification, spectra,
    Q-polynomial verdicts, connectivity certificates.  The verdicts come
    from the claim registry in ``catalogue``.

    Stops after the regularity section when the graph is not
    distance-regular; the report then carries the witness.  With ``only``
    it stops once that section is built.  ``jobs`` is accepted and ignored,
    and echoed into the settings block.
    """
    if only is not None and only not in SECTIONS:
        raise ValueError(f"unknown section {only!r}; expected one of {', '.join(SECTIONS)}")
    timings: dict[str, float] = {}
    report: dict = {
        "tool": {"name": "drgq", "version": __version__},
        "graph": {
            "source": source,
            "family": str(family) if family is not None else None,
            "n": g.n,
            "edges": g.num_edges,
        },
        "settings": {
            "tolerance_matrix_base": tol.matrix_eps_base,
            "tolerance_balanced": tol.balanced_rel,
            "mode": resolve_mode(g.n, mode),
            "seed": seed,
            "jobs": jobs,
        },
    }

    b = make_bundle(g, source, family, tol=tol, mode=mode, seed=seed, timings=timings)
    if isinstance(b, NotDRG):
        report["intersection"] = {
            "is_drg": False,
            "witness": {
                "h": b.h, "i": b.i, "j": b.j,
                "pair_a": list(b.pair_a), "count_a": b.count_a,
                "pair_b": list(b.pair_b), "count_b": b.count_b,
            },
        }
    else:
        for section, body in _sections(b, timings):
            if only in (None, section):
                report[section] = body
            if section == only:
                break
    report["timings"] = timings
    return report


def _sections(b: Bundle, timings: dict):
    """The report sections of a DRG in SECTIONS order, each built when the caller asks."""
    ia, sd = b.ia, b.sd
    yield "intersection", {
        "is_drg": True,
        "d": ia.d,
        "k": ia.k,
        "b": list(ia.b),
        "c": list(ia.c),
        "a": list(ia.a),
        "sphere_sizes": list(ia.sphere_sizes),
        "classification": {
            "bipartite": b.flags.bipartite,
            "antipodal": b.flags.antipodal,
            "primitive": b.flags.primitive,
        },
    }
    yield "spectral", {
        "theta": sd.theta.tolist(),
        "mult": list(sd.mult),
        "dual": sd.dual.tolist(),
        "eq2_max_residual": CLAIMS["inner_product"](b).worst,
    }

    t0 = time.perf_counter()
    qp = b.qpoly
    timings["qpoly"] = time.perf_counter() - t0
    yield "qpoly", {
        "verdicts": [qp.balanced[e].qpoly for e in range(1, ia.d + 1)],
        "orderings": qp.span_orderings,
        "worst_residual": qp.worst_residual,
        "mode": resolve_mode(b.graph.n, b.mode),
        "seed": b.seed,
        "consistent": CLAIMS["qpoly_consistency"](b).passed,
    }

    t0 = time.perf_counter()
    connectivity: dict = {}
    thm1 = CLAIMS["last_two"](b)
    connectivity["thm1"] = ({"applicable": False} if thm1 is None else
                            {"all_connected": all(thm1.flags), "per_gamma": thm1.flags})
    tail = CLAIMS["tail"](b)
    connectivity["ck"] = {
        "s": tail.s,
        "s_lower_bound": ceil(ia.d / 2),
        "tail_all_connected": all(tail.flags),
    }
    census = CLAIMS["census"](b)
    if census is not None:
        rec = census.census
        connectivity["census"] = {
            "d": rec.d,
            "count": rec.count,
            "component_size": rec.expected_size,
            "iso_certified": rec.iso_certified,
        }
    timings["connectivity"] = time.perf_counter() - t0
    yield "connectivity", connectivity


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2, allow_nan=False)


def render_pretty(report: dict) -> str:
    """Human-readable rendering of an analysis report."""
    lines = []
    gmeta = report["graph"]
    lines.append(f"graph: {gmeta['source']} (n={gmeta['n']}, edges={gmeta['edges']})")
    inter = report.get("intersection")
    if inter is not None:
        if not inter["is_drg"]:
            w = inter["witness"]
            lines.append("not distance-regular")
            lines.append(f"  witness: pairs {tuple(w['pair_a'])} and {tuple(w['pair_b'])} at distance "
                         f"{w['h']} count {w['count_a']} vs {w['count_b']} for (i,j)=({w['i']},{w['j']})")
            return "\n".join(lines)
        arr = "{" + ",".join(map(str, inter["b"])) + ";" + ",".join(map(str, inter["c"])) + "}"
        cls = inter["classification"]
        kind = "primitive" if cls["primitive"] else \
            " and ".join(nm for nm in ("bipartite", "antipodal") if cls[nm])
        lines.append(f"distance-regular: d={inter['d']}, k={inter['k']}, array {arr}, {kind}")
    spec = report.get("spectral")
    if spec is not None:
        theta = ", ".join(f"{t:g}" for t in spec["theta"])
        mult = ", ".join(str(m) for m in spec["mult"])
        lines.append(f"spectrum: theta = ({theta}) with multiplicities ({mult})")
    qp = report.get("qpoly")
    if qp is not None:
        if qp["orderings"]:
            lines.append(f"Q-polynomial: orderings {qp['orderings']} "
                         f"(worst residual bound {qp['worst_residual']:.2e}, mode {qp['mode']})")
        else:
            lines.append(f"not Q-polynomial (mode {qp['mode']})")
        lines.append(f"decider consistency: {'ok' if qp['consistent'] else 'DISAGREE'}")
    conn = report.get("connectivity")
    if conn is not None:
        thm1 = conn["thm1"]
        if thm1.get("applicable", True):
            lines.append(f"last-two-spheres connected at every vertex: {thm1['all_connected']}")
        ck = conn["ck"]
        lines.append(f"dual sign change at s={ck['s']} (lower bound {ck['s_lower_bound']}); "
                     f"tail connected at every vertex: {ck['tail_all_connected']}")
        if "census" in conn:
            c = conn["census"]
            lines.append(f"outer-sphere census: {c['count']} components of size {c['component_size']}"
                         f" (isomorphism certified: {c['iso_certified']})")
    return "\n".join(lines)
