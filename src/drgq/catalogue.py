"""The analysis pipeline, the claim registry and the verification catalogue.

``make_bundle`` runs the pipeline on one graph: distances, regularity,
classification and spectra, with the Q-polynomial deciders left lazy.  Each
certified claim is one registry function over a bundle; ``analyze``,
``verify`` and ``catalogue`` all read their verdicts from it.  Claims never
assume vertex transitivity: anything quantified over base vertices iterates
over all of them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import memory
from .connectivity import (CensusRecord, dual_sign_change_index, odd_component_census,
                           shell_connected, sweep_last_two, sweep_tail)
from .errors import MathAssertionError
from .families import FamilySpec
from .graphs import DistanceData, Graph, distance_data
from .intersection import (ClassificationFlags, IntersectionData, NotDRG,
                           check_distance_regular, classify)
from .qpoly import QPolyReport, qpoly_report
from .spectral import SpectralData, compute_spectral_data, idempotent_products
from .tolerances import DEFAULT_TOLERANCES, Tolerances

CATALOGUE = (
    "petersen", "cycle:6", "hamming:3,2", "hamming:3,3", "hamming:4,2",
    "johnson:6,3", "johnson:7,3", "folded_cube:5", "folded_cube:7",
    "odd:3", "odd:4", "odd:5",
)

# residual bars used by the acceptance battery
EQ2_BOUND = 1e-8
IDEMPOTENT_BOUND = 1e-8
DUAL_ORACLE_BOUND = 1e-8


@dataclass
class Bundle:
    name: str
    family: Optional[FamilySpec]
    graph: Graph
    dd: DistanceData
    ia: IntersectionData
    flags: ClassificationFlags
    sd: SpectralData
    tol: Tolerances
    mode: str
    seed: int
    _qpoly: Optional[QPolyReport] = field(default=None, repr=False)

    @property
    def qpoly(self) -> QPolyReport:
        """The three Q-polynomial deciders, run on first use only."""
        if self._qpoly is None:
            self._qpoly = qpoly_report(self.dd, self.ia, self.sd, mode=self.mode,
                                       seed=self.seed, tol=self.tol)
        return self._qpoly


def make_bundle(g: Graph, name: str, family: Optional[FamilySpec] = None,
                tol: Tolerances = DEFAULT_TOLERANCES, mode: str = "auto", seed: int = 0,
                timings: Optional[dict] = None) -> Union[Bundle, NotDRG]:
    """The pipeline up to the spectra, or the witness that g is not distance-regular.

    Seconds spent on distances, the regularity check and the spectra are
    recorded in ``timings`` when given.  Raises ValueError when the memory
    model refuses the input's size and diameter.
    """
    timings = {} if timings is None else timings
    t0 = time.perf_counter()
    dd = distance_data(g)
    timings["distance"] = time.perf_counter() - t0
    memory.require(f"the analysis of {g.n} vertices at diameter {dd.diameter}",
                   memory.analysis_bytes(g.n))
    t0 = time.perf_counter()
    ia = check_distance_regular(g, dd)
    timings["drg_check"] = time.perf_counter() - t0
    if isinstance(ia, NotDRG):
        return ia
    flags = classify(ia)
    t0 = time.perf_counter()
    sd = compute_spectral_data(dd, ia, tol)
    timings["spectral"] = time.perf_counter() - t0
    return Bundle(name, family, g, dd, ia, flags, sd, tol, mode, seed)


def build_bundle(spec_text: str, tol: Tolerances = DEFAULT_TOLERANCES,
                 mode: str = "auto", seed: int = 0) -> Bundle:
    spec = FamilySpec.parse(spec_text)
    res = make_bundle(spec.build(), str(spec), spec, tol=tol, mode=mode, seed=seed)
    if isinstance(res, NotDRG):
        raise MathAssertionError(f"catalogue member {spec_text} failed regularity: {res}")
    return res


# ---------------------------------------------------------------------------
# The claim registry.  Each claim returns None when it does not apply to the
# bundle.  A failed verdict is either a Claim with passed False, carrying the
# data it was computed from, or a MathAssertionError naming the first
# counterexample; analyze and verify let the error end the run (exit 5),
# the catalogue turns it into a failed row.
# ---------------------------------------------------------------------------

@dataclass
class Claim:
    """One claim's verdict on one bundle, with the data the front ends report."""

    check: str
    passed: bool
    detail: str
    flags: Optional[list[bool]] = None       # per base vertex (last_two, tail)
    s: Optional[int] = None                  # dual sign-change index (tail)
    census: Optional[CensusRecord] = None
    worst: Optional[float] = None            # worst residual against the claim's bound
    hypothesis_holds: bool = True            # False: the input lacks the claim's hypothesis


def _is_odd(b: Bundle) -> bool:
    return b.family is not None and b.family.kind == "odd"


def _sweep_detail(flags: list[bool]) -> str:
    bad = [i for i, f in enumerate(flags) if not f]
    return f"disconnected at {bad[:5]}" if bad else f"connected at all {len(flags)} vertices"


def last_two(b: Bundle) -> Optional[Claim]:
    """The paper's theorem: for Q-polynomial d >= 3, the last two spheres
    are connected at every vertex.  The sweep runs whatever the Q-polynomial
    verdict, since the analysis report carries it for every d >= 3 input."""
    if b.ia.d < 3:
        return None
    ok, flags = sweep_last_two(b.graph, b.dd)
    if not b.qpoly.is_qpoly:
        return Claim("last_two", False, "not Q-polynomial, so the claim does not apply",
                     flags=flags, hypothesis_holds=False)
    return Claim("last_two", ok, _sweep_detail(flags), flags=flags)


def census(b: Bundle) -> Optional[Claim]:
    """Odd graphs: the outer sphere splits into the predicted components."""
    if not _is_odd(b) or b.ia.d < 3:
        return None
    rec = odd_component_census(b.graph, b.dd)
    return Claim("census", True,
                 f"{rec.count} components of size {rec.expected_size}, "
                 f"iso x{rec.iso_components}, {rec.vertices_checked} vertices", census=rec)


def inner_split(b: Bundle) -> Optional[Claim]:
    """Odd graphs: spheres 1 and 2 together induce a disconnected subgraph."""
    if not _is_odd(b) or b.family.params[0] not in (3, 4):
        return None
    connected = np.flatnonzero(shell_connected(b.graph, b.dd, 1, 2))
    if connected.size:
        raise MathAssertionError(f"spheres 1-2 connected at vertex {connected[0]}")
    return Claim("inner_split", True, f"disconnected at all {b.graph.n} vertices")


def sphere_valency(b: Bundle) -> Optional[Claim]:
    """Odd graphs: p^h_{1h} vanishes below the diameter, equals ceil((d+1)/2) at
    it.  The certified p^d_{1d} is the degree of every vertex of every outer
    sphere within it."""
    if not _is_odd(b):
        return None
    d = b.ia.d
    expect = (d + 2) // 2
    for h in range(1, d):
        if b.ia.intersection_number(h, 1, h) != 0:
            raise MathAssertionError(f"p^{h}_(1,{h}) nonzero")
    if b.ia.intersection_number(d, 1, d) != expect:
        raise MathAssertionError(f"p^{d}_(1,{d}) != {expect}")
    return Claim("sphere_valency", True, f"outer sphere {expect}-regular at all vertices")


def folded_spheres(b: Bundle) -> Optional[Claim]:
    """Folded cubes: spheres 1 and 2 are edgeless, since a_1 = a_2 = 0, and
    spheres 2..d connected."""
    if b.family is None or b.family.kind != "folded_cube" or b.ia.d < 3:
        return None
    for i in (1, 2):
        if b.ia.a[i] != 0:
            raise MathAssertionError(f"a_{i} = {b.ia.a[i]}: sphere {i} of every vertex has edges")
    disconnected = np.flatnonzero(~shell_connected(b.graph, b.dd, 2, b.ia.d))
    if disconnected.size:
        raise MathAssertionError(f"spheres 2..{b.ia.d} disconnected at {disconnected[0]}")
    return Claim("folded_spheres", True, "spheres 1,2 edgeless; outer union connected")


def inner_product(b: Bundle) -> Claim:
    """<E_j x, E_j y> = dual_j[dist(x, y)] / n, that is E_j^2 = E_j, read from
    the residual that certified the projectors."""
    worst = b.sd.idempotency_residual
    return Claim("inner_product", worst < EQ2_BOUND, f"max residual {worst:.2e}", worst=worst)


def qpoly_consistency(b: Bundle) -> Claim:
    qp = b.qpoly
    if not qp.consistent:
        return Claim("qpoly_consistency", False,
                     "deciders disagree: " + "; ".join(qp.disagreements))
    return Claim("qpoly_consistency", True,
                 f"deciders agree; qpoly candidates {qp.qpoly_candidates} "
                 f"(worst residual {qp.worst_residual:.2e})", worst=qp.worst_residual)


def idempotents(b: Bundle) -> Claim:
    """Orthogonality E_i E_j = delta_ij E_i, completeness sum_j E_j = I and
    E_0 = J/n, read in d+1 coordinates from the certified p-tensor: every
    distance class is nonempty, so the largest coordinate of a difference
    is its largest entry.  The traces are the multiplicities by construction."""
    dual, n = b.sd.dual, b.ia.n
    target = np.eye(b.ia.d + 1)[:, :, None] * dual[:, None, :] / n
    identity = np.eye(b.ia.d + 1)[0]
    worst = max(float(np.abs(idempotent_products(dual, b.ia.p, n) - target).max()),
                float(np.abs(dual.sum(axis=0) / n - identity).max()),
                float(np.abs(dual[0] / n - 1.0 / n).max()))
    return Claim("idempotents", worst < IDEMPOTENT_BOUND,
                 f"max residual {worst:.2e}", worst=worst)


def tail(b: Bundle) -> Claim:
    """From the dual sign change s >= d/2 outward, the spheres are connected
    at every vertex.  The sweep runs even when 2s < d, since the analysis
    report carries it."""
    s = dual_sign_change_index(b.sd.dual[1], b.tol.dual_zero_snap)
    ok, flags = sweep_tail(b.graph, b.dd, s)
    if 2 * s < b.ia.d:
        return Claim("tail", False, f"s={s} below half the diameter {b.ia.d}", flags=flags, s=s)
    return Claim("tail", ok, f"s={s}, {_sweep_detail(flags)}", flags=flags, s=s)


def dual_oracle(b: Bundle) -> Claim:
    """The duals come from the three-term recurrence, so comparing them with
    it is vacuous; their certificate against the graph is the eigen residual
    max_j ||A E_j - theta_j E_j|| of the projectors they assemble."""
    worst = b.sd.eigen_residual
    return Claim("dual_oracle", worst < DUAL_ORACLE_BOUND,
                 f"max eigen residual {worst:.2e}", worst=worst)


PER_GRAPH_CHECKS = (
    last_two, census, inner_split, sphere_valency, folded_spheres,
    inner_product, qpoly_consistency, idempotents, tail, dual_oracle,
)
CLAIMS = {check.__name__: check for check in PER_GRAPH_CHECKS}
CHECK_NAMES = tuple(CLAIMS)
# the claims that read the Q-polynomial deciders (Bundle.qpoly)
QPOLY_CLAIMS = ("last_two", "qpoly_consistency")


@dataclass
class CheckRow:
    graph: str
    check: str
    passed: bool
    detail: str
    seconds: float

    def format(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"{self.graph:<14} {self.check:<18} {status:<5} {self.seconds:7.2f}s  {self.detail}"


def run_catalogue(specs=CATALOGUE, only: Optional[str] = None,
                  tol: Tolerances = DEFAULT_TOLERANCES, mode: str = "auto",
                  seed: int = 0) -> list[CheckRow]:
    """Every applicable claim on every member; a claim that raises
    MathAssertionError is a failed row."""
    if only is not None and only not in CHECK_NAMES:
        raise ValueError(f"unknown check {only!r}; expected one of {', '.join(CHECK_NAMES)}")
    rows = []
    for spec_text in specs:
        bundle = build_bundle(spec_text, tol=tol, mode=mode, seed=seed)
        if only is None or only in QPOLY_CLAIMS:
            bundle.qpoly  # the deciders' time belongs to the bundle, not to the first row using them
        # the entries of PER_GRAPH_CHECKS may be wrapped, so names come from
        # CHECK_NAMES, which lists them in the same order
        for name, check in zip(CHECK_NAMES, PER_GRAPH_CHECKS):
            if only is not None and name != only:
                continue
            t0 = time.perf_counter()
            try:
                claim = check(bundle)
            except MathAssertionError as exc:
                claim = Claim(name, False, str(exc).splitlines()[0])
            if claim is not None:
                rows.append(CheckRow(bundle.name, claim.check, claim.passed, claim.detail,
                                     time.perf_counter() - t0))
    return rows
