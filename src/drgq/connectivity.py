"""Subconstituent structure and connectivity certification.

Certifies, instance by instance, the connectivity statements this tool
exists to check: the union of the last two subconstituents is connected
for Q-polynomial inputs, the tail from the dual-sequence sign change on
is connected, and the d-th subconstituent of the odd graphs splits into
the predicted number of bipartite-double components.  The checks cover
every base vertex; vertex transitivity is never assumed.

One kernel, ``shell_connected``, decides for every base vertex gamma at
once whether the spheres lo..hi about gamma induce a connected subgraph.
It holds a label per (vertex, base vertex) pair, masked by the shell, and
alternates neighbor-minimum steps with pointer jumping (Shiloach-Vishkin
style) until no label changes; each shell component then carries its
smallest vertex.  The per-vertex functions (``last_two_connected``,
``tail_connected``, ``union_subconstituent``) remain as the reference the
tests compare it against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from math import comb
from typing import Optional

import numpy as np

from .errors import MathAssertionError
from .families import disjoint_subset_graph, odd_graph
from .graphs import (DistanceData, Graph, are_isomorphic, bipartite_double,
                     connected_components, distance_data, induced_subgraph,
                     two_coloring)

log = logging.getLogger(__name__)


def subconstituent(g: Graph, dd: DistanceData, gamma: int, i: int) -> Graph:
    """Induced subgraph on the sphere of radius i about gamma."""
    if not 0 <= i <= dd.diameter:
        raise IndexError(f"subconstituent index {i} outside 0..{dd.diameter}")
    return induced_subgraph(g, dd.sphere(gamma, i)).graph


def union_subconstituent(g: Graph, dd: DistanceData, gamma: int,
                         lo: int, hi: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the union of spheres lo..hi (original labels returned)."""
    members = np.nonzero((dd.dist[gamma] >= lo) & (dd.dist[gamma] <= hi))[0]
    sub, verts = induced_subgraph(g, members)
    return sub, verts


def last_two_connected(g: Graph, dd: DistanceData, gamma: int
                       ) -> tuple[bool, list[list[int]]]:
    """Connectivity of the subgraph on the two outermost spheres about gamma.

    Components are reported in original vertex labels.
    """
    d = dd.diameter
    if d < 2:
        raise ValueError(f"needs diameter at least 2, got {d}")
    sub, verts = union_subconstituent(g, dd, gamma, d - 1, d)
    comps = connected_components(sub)
    mapped = [[verts[v] for v in comp] for comp in comps]
    return len(comps) == 1, mapped


def dual_sign_change_index(dual: np.ndarray, zero_snap: float = 1e-9) -> int:
    """The unique s with dual[s-1] > 0 and dual[s] <= 0.

    Values within ``zero_snap`` of zero are snapped to zero before the sign
    test (and logged).  Raises MathAssertionError when the sign pattern has
    no crossing or more than one, since a unique crossing is guaranteed for
    the second-largest-eigenvalue idempotent of any distance-regular graph.
    """
    seq = np.asarray(dual, dtype=np.float64).copy()
    near_zero = np.abs(seq) <= zero_snap * max(1.0, abs(seq[0]))
    if near_zero.any():
        log.info("snapping dual values %s to zero before the sign test",
                 np.nonzero(near_zero)[0].tolist())
        seq[near_zero] = 0.0
    if seq[0] <= 0:
        raise MathAssertionError(f"dual sequence must start positive, got {seq[0]}")
    crossings = [s for s in range(1, seq.size) if seq[s - 1] > 0 and seq[s] <= 0]
    if len(crossings) != 1:
        raise MathAssertionError(
            f"dual sequence {seq.tolist()} has {len(crossings)} sign crossings, expected exactly 1")
    return crossings[0]


def tail_connected(g: Graph, dd: DistanceData, gamma: int, s: int) -> bool:
    """Connectivity of the subgraph induced on all spheres from radius s outward."""
    if not 0 <= s <= dd.diameter:
        raise IndexError(f"tail start {s} outside 0..{dd.diameter}")
    sub, _ = union_subconstituent(g, dd, gamma, s, dd.diameter)
    return len(connected_components(sub)) == 1


def shell_connected(g: Graph, dd: DistanceData, lo: int, hi: int) -> np.ndarray:
    """Per base vertex gamma, whether the spheres lo..hi about gamma induce a
    connected subgraph (an empty shell counts as disconnected).

    Exhaustive over base vertices: row v, column gamma of the label array
    holds the smallest vertex known to share v's component in gamma's shell,
    and n off the shell.  Row n holds n, so a jump from an off-shell entry
    stays off it.  A round gathers over the padded neighbor array, n^2 times
    the maximum degree: n * 2m on the regular graphs the sweeps run on.
    """
    if not 0 <= lo <= hi <= dd.diameter:
        raise IndexError(f"shell {lo}..{hi} outside 0..{dd.diameter}")
    n = g.n
    nbr = g.neighbor_array()
    inside = (dd.dist >= lo) & (dd.dist <= hi)  # symmetric, so [v, gamma] too
    off_shell = np.where(inside, 0, n).astype(np.int32)
    labels = np.full((n + 1, n), n, dtype=np.int32)
    np.copyto(labels[:n], np.arange(n, dtype=np.int32)[:, None], where=inside)
    gathered = np.empty((n, n), dtype=np.int32)
    while True:
        new = labels.copy()
        body = new[:n]
        for col in range(nbr.shape[1]):
            np.minimum(body, np.take(labels, nbr[:, col], axis=0, out=gathered), out=body)
        np.maximum(body, off_shell, out=body)
        new = np.take_along_axis(new, new, axis=0)
        if np.array_equal(new, labels):
            break
        labels = new
    # one root, the component's smallest vertex, per shell component
    roots = labels[:n] == np.arange(n)[:, None]
    return roots.sum(axis=0) == 1


def sweep_last_two(g: Graph, dd: DistanceData) -> tuple[bool, list[bool]]:
    """last_two_connected at every base vertex; reports are indexed by vertex."""
    d = dd.diameter
    if d < 2:
        raise ValueError(f"needs diameter at least 2, got {d}")
    flags = shell_connected(g, dd, d - 1, d).tolist()
    return all(flags), flags


def sweep_tail(g: Graph, dd: DistanceData, s: int) -> tuple[bool, list[bool]]:
    """tail_connected at every base vertex."""
    flags = shell_connected(g, dd, s, dd.diameter).tolist()
    return all(flags), flags


# ---------------------------------------------------------------------------
# Odd-graph component census.
# ---------------------------------------------------------------------------

@dataclass
class CensusRecord:
    d: int
    expected_count: int
    expected_size: int
    sphere_size: int
    count: int
    component_sizes: list[int]
    component_degree: int        # common within-sphere valency of every component
    iso_certified: bool          # some component certified (a failed one raises)
    iso_components: int          # how many components were certified
    iso_skipped: bool            # True when components were too big to certify
    bipartite_halves_ok: bool
    vertices_checked: int
    failures: list[str] = field(default_factory=list)


def _odd_core(r: int) -> Graph:
    # r-subsets of a (2r+1)-set with disjointness adjacency; r = 1 gives the
    # triangle, which the census needs even though it is below the public
    # odd-graph parameter floor
    return disjoint_subset_graph(2 * r + 1, r, f"odd-core:{r}")


def odd_component_census(d: int, all_vertices: bool = True, iso_cap: int = 64,
                         graph: Optional[Graph] = None,
                         dd: Optional[DistanceData] = None) -> CensusRecord:
    """Census of the components of the d-th subconstituent of the odd graph.

    Checks the component count binom(2m, m)/2 and the common component size
    2 binom(2r+1, r); when components are small enough, certifies each one
    isomorphic to the bipartite double of the order-r odd-graph core.  The
    record reports the lexicographically first base vertex; with
    ``all_vertices`` every base vertex is verified (isomorphism included,
    unless the ambient graph is large, in which case isomorphism runs only
    at the first vertex).  ``graph`` and ``dd`` are the odd graph of order
    d and its distances when the caller already holds them; otherwise they
    are built here.

    Raises MathAssertionError when any assertion fails.
    """
    if d < 3:
        raise ValueError(f"census needs d >= 3, got {d}")
    g = odd_graph(d) if graph is None else graph
    dd = distance_data(g) if dd is None else dd
    m = d // 2 if d % 2 == 0 else (d + 1) // 2
    r = d // 2 if d % 2 == 0 else (d - 1) // 2
    expected_count = comb(2 * m, m) // 2
    expected_size = 2 * comb(2 * r + 1, r)
    expected_sphere = comb(d, m) * comb(d + 1, m)

    expected_degree = (d + 2) // 2  # the outer sphere's regular valency
    iso_possible = expected_size <= iso_cap
    iso_every_vertex = iso_possible and g.n <= 200
    reference = bipartite_double(_odd_core(r)) if iso_possible else None

    gammas = range(g.n) if all_vertices else range(1)
    failures: list[str] = []
    first_sizes: list[int] = []
    first_count = 0
    iso_done = 0
    halves_ok = True

    for gamma in gammas:
        sphere = dd.sphere(gamma, d)
        if sphere.size != expected_sphere:
            failures.append(f"gamma={gamma}: sphere size {sphere.size} != {expected_sphere}")
            continue
        sub, _ = induced_subgraph(g, sphere)
        comps = connected_components(sub)
        sizes = sorted(len(c) for c in comps)
        if gamma == 0:
            first_count = len(comps)
            first_sizes = sizes
        if len(comps) != expected_count:
            failures.append(f"gamma={gamma}: {len(comps)} components, expected {expected_count}")
        if set(sizes) != {expected_size}:
            failures.append(f"gamma={gamma}: component sizes {sizes}, expected all {expected_size}")
            continue
        for ci, comp in enumerate(comps):
            comp_graph = induced_subgraph(sub, comp).graph
            degrees = set(comp_graph.degrees())
            if degrees != {expected_degree}:
                failures.append(
                    f"gamma={gamma} component {ci}: degrees {sorted(degrees)}, "
                    f"expected {expected_degree}-regular")
            coloring = two_coloring(comp_graph)
            if coloring is None or coloring.count(0) != coloring.count(1):
                halves_ok = False
                failures.append(f"gamma={gamma} component {ci}: not bipartite with equal halves")
            if reference is not None and (iso_every_vertex or gamma == 0):
                ok, _ = are_isomorphic(comp_graph, reference, cap=iso_cap)
                if not ok:
                    failures.append(
                        f"gamma={gamma} component {ci}: not isomorphic to the bipartite double")
                else:
                    iso_done += 1

    record = CensusRecord(
        d=d, expected_count=expected_count, expected_size=expected_size,
        sphere_size=expected_sphere, count=first_count, component_sizes=first_sizes,
        component_degree=expected_degree,
        iso_certified=iso_done > 0,
        iso_components=iso_done, iso_skipped=not iso_possible,
        bipartite_halves_ok=halves_ok, vertices_checked=len(list(gammas)),
        failures=failures)
    if failures:
        raise MathAssertionError(
            "odd-graph census failed:\n  " + "\n  ".join(failures[:20]))
    return record
