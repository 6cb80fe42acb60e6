"""Subconstituent structure and connectivity certification.

Certifies, instance by instance, the connectivity statements this tool
exists to check: the union of the last two subconstituents is connected
for Q-polynomial inputs, the tail from the dual-sequence sign change on
is connected, and the d-th subconstituent of the odd graphs splits into
the predicted number of bipartite-double components.  The checks cover
every base vertex; vertex transitivity is never assumed.

One kernel, ``shell_labels``, labels the components of a shell about
every base vertex of a block at once.  It holds a label per (vertex, base
vertex) pair, masked by the shell, and alternates neighbor-minimum steps
with pointer jumping (Shiloach-Vishkin style) until no label changes; each
shell component then carries its smallest vertex.  Columns are independent,
so every claim walks blocks of base vertices (``shell_blocks``) and no label
array grows with n squared.  ``shell_connected`` counts the roots for every
connectivity sweep, and the odd-graph census reads its component counts,
sizes and bipartitions from the same labels, on g and on its bipartite
double.  The per-vertex functions
(``last_two_connected``, ``tail_connected``, ``union_subconstituent``)
remain as the reference the tests compare it against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import MathAssertionError
# odd_graph is unused here, but the benchmark worker times it under this name
from .families import disjoint_subset_graph, odd_graph  # noqa: F401
from .graphs import (ISO_VERTEX_CAP, DistanceData, Graph, are_isomorphic,
                     bipartite_double, connected_components, induced_subgraph)

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
    return induced_subgraph(g, members)


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


# label entries per block of base-vertex columns: a block's labels, and the
# census's bipartite lift of them, stay a few hundred KiB whatever n is
LABEL_BLOCK_ENTRIES = 1 << 15


def shell_labels(nbr: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Component labels of shells, one shell per column of ``inside``.

    ``nbr`` is a padded neighbor array (``Graph.neighbor_array``) and
    ``inside[v, c]`` says whether v lies in shell c.  Entry [v, c] of the
    result is the smallest vertex of v's component in shell c, and n (the
    row count) off it.  Row n of the working array holds n, so a jump from an
    off-shell entry stays off it.  A round gathers over the neighbor array,
    rows times columns times the maximum degree.
    """
    n, width = inside.shape
    off_shell = np.where(inside, 0, n).astype(np.int32)
    labels = np.full((n + 1, width), n, dtype=np.int32)
    np.copyto(labels[:n], np.arange(n, dtype=np.int32)[:, None], where=inside)
    gathered = np.empty((n, width), dtype=np.int32)
    while True:
        new = labels.copy()
        body = new[:n]
        for col in range(nbr.shape[1]):
            np.minimum(body, np.take(labels, nbr[:, col], axis=0, out=gathered), out=body)
        np.maximum(body, off_shell, out=body)
        new = np.take_along_axis(new, new, axis=0)
        if np.array_equal(new, labels):
            return labels[:n]
        labels = new


def shell_blocks(dist: np.ndarray, lo: int, hi: int):
    """(start, inside) per block of LABEL_BLOCK_ENTRIES base-vertex columns:
    inside[v, c] says v lies in spheres lo..hi about start + c (dist symmetric)."""
    n = dist.shape[0]
    width = max(1, LABEL_BLOCK_ENTRIES // n)
    for start in range(0, n, width):
        block = dist[:, start:start + width]
        yield start, (block >= lo) & (block <= hi)


def shell_connected(g: Graph, dd: DistanceData, lo: int, hi: int) -> np.ndarray:
    """Per base vertex gamma, whether the spheres lo..hi about gamma induce a
    connected subgraph (an empty shell counts as disconnected).

    Exhaustive over base vertices, one ``shell_blocks`` block at a time: a
    shell is connected when exactly one vertex is its own ``shell_labels``
    label.  On the regular graphs the sweeps run on a round costs n * 2m.
    """
    if not 0 <= lo <= hi <= dd.diameter:
        raise IndexError(f"shell {lo}..{hi} outside 0..{dd.diameter}")
    nbr, vertex = g.neighbor_array(), np.arange(g.n)[:, None]
    flags = np.empty(g.n, dtype=bool)
    for start, inside in shell_blocks(dd.dist, lo, hi):
        # one root, the component's smallest vertex, per shell component
        roots = shell_labels(nbr, inside) == vertex
        flags[start:start + inside.shape[1]] = roots.sum(axis=0) == 1
    return flags


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


def _odd_core(r: int) -> Graph:
    # r-subsets of a (2r+1)-set with disjointness adjacency; r = 1 gives the
    # triangle, which the census needs even though it is below the public
    # odd-graph parameter floor
    return disjoint_subset_graph(2 * r + 1, r, f"odd-core:{r}")


def odd_component_census(g: Graph, dd: DistanceData) -> CensusRecord:
    """Census of the components of the d-th subconstituent of the odd graph
    g of order d = dd.diameter, at every base vertex.

    Checks the component count binom(2m, m)/2, the common component size
    2 binom(2r+1, r), the within-sphere valency and that every component is
    bipartite with equal halves.  Components come from ``shell_labels`` on
    the spheres of each ``shell_blocks`` block; bipartiteness from the same
    kernel on the bipartite double of g with the doubled mask: a component
    is bipartite iff its root's two copies lie in different lifted
    components, and its halves are equal iff the root's lift holds as many
    layer-0 as layer-1 vertices.  When components are at most
    ``ISO_VERTEX_CAP`` vertices, each is certified isomorphic to the
    bipartite double of the order-r odd-graph core: at every base vertex
    when n <= 200, otherwise at vertex 0.  The record reports vertex 0.

    Raises MathAssertionError naming the first failures.
    """
    d = dd.diameter
    if d < 3:
        raise ValueError(f"census needs d >= 3, got {d}")
    n = g.n
    m, r = (d + 1) // 2, d // 2
    expected_count = comb(2 * m, m) // 2
    expected_size = 2 * comb(2 * r + 1, r)
    expected_sphere = comb(d, m) * comb(d + 1, m)
    expected_degree = (d + 2) // 2  # the outer sphere's regular valency
    iso_possible = expected_size <= ISO_VERTEX_CAP
    iso_every_vertex = iso_possible and n <= 200
    reference = bipartite_double(_odd_core(r)) if iso_possible else None

    vertex = np.arange(n)
    nbr = g.neighbor_array()
    own = vertex[:, None]  # bipartite_double(g).neighbor_array(): v ~ n + w, n + v ~ w
    real = nbr != own  # the padding repeats the row's own vertex
    lift_nbr = np.vstack([np.where(real, nbr + n, own), np.where(real, nbr, own + n)])
    failures: list[str] = []
    first_count, first_sizes, iso_done = 0, [], 0

    for start, inside in shell_blocks(dd.dist, d, d):
        labels = shell_labels(nbr, inside)
        lifts = shell_labels(lift_nbr, np.vstack([inside, inside]))
        degrees = (inside[nbr] & real[:, :, None]).sum(axis=1)
        for c in range(inside.shape[1]):
            gamma = start + c
            sphere_size = int(inside[:, c].sum())
            if sphere_size != expected_sphere:
                failures.append(f"gamma={gamma}: sphere size {sphere_size} != {expected_sphere}")
                continue
            comp = labels[:, c]
            roots = np.flatnonzero(comp == vertex)  # components by smallest vertex
            sizes = sorted(np.bincount(comp, minlength=n + 1)[roots].tolist())
            if gamma == 0:
                first_count, first_sizes = roots.size, sizes
            if roots.size != expected_count:
                failures.append(
                    f"gamma={gamma}: {roots.size} components, expected {expected_count}")
            if set(sizes) != {expected_size}:
                failures.append(
                    f"gamma={gamma}: component sizes {sizes}, expected all {expected_size}")
                continue
            off_degree = set(comp[inside[:, c] & (degrees[:, c] != expected_degree)].tolist())
            lift = lifts[:, c]
            lift_root = lift[roots]
            layer0 = np.bincount(lift[:n], minlength=2 * n + 1)[lift_root]
            layer1 = np.bincount(lift[n:], minlength=2 * n + 1)[lift_root]
            halves = ((lift_root != lift[n + roots]) & (layer0 == layer1)).tolist()
            for ci, root in enumerate(roots.tolist()):
                if root in off_degree:
                    found = sorted(set(degrees[comp == root, c].tolist()))
                    failures.append(
                        f"gamma={gamma} component {ci}: degrees {found}, "
                        f"expected {expected_degree}-regular")
                if not halves[ci]:
                    failures.append(
                        f"gamma={gamma} component {ci}: not bipartite with equal halves")
                if reference is not None and (iso_every_vertex or gamma == 0):
                    comp_graph = induced_subgraph(g, np.flatnonzero(comp == root)).graph
                    if are_isomorphic(comp_graph, reference)[0]:
                        iso_done += 1
                    else:
                        failures.append(
                            f"gamma={gamma} component {ci}: not isomorphic to the bipartite double")

    record = CensusRecord(
        d=d, expected_count=expected_count, expected_size=expected_size,
        sphere_size=expected_sphere, count=first_count, component_sizes=first_sizes,
        component_degree=expected_degree,
        iso_certified=iso_done > 0,
        iso_components=iso_done, iso_skipped=not iso_possible,
        bipartite_halves_ok=True, vertices_checked=n)  # a failure raises below
    if failures:
        raise MathAssertionError(
            "odd-graph census failed:\n  " + "\n  ".join(failures[:20]))
    return record
