"""Subconstituent structure and connectivity certification.

Certifies, instance by instance, the connectivity statements this tool
exists to check: the union of the last two subconstituents is connected
for Q-polynomial inputs, the tail from the dual-sequence sign change on
is connected, and the d-th subconstituent of the odd graphs splits into
the predicted number of bipartite-double components.  The checks cover
every base vertex; vertex transitivity is never assumed.

Every connectivity sweep reads ``shell_connected``, a flood over all base
vertices at once: bit gamma of row v says v lies in gamma's shell, each
shell is seeded at its smallest vertex, and ``graphs.flood``, the
all-source BFS's OR rounds over closed neighborhoods, masked by the
shells, runs until no bit changes, so 64 base vertices share each word.
The odd-graph census needs component labels, counts, sizes and
bipartitions, so it alone runs ``shell_labels``: for every base vertex of a
block (``shell_blocks``) it alternates neighbor-minimum steps with pointer
jumping (Shiloach-Vishkin style) until no label changes, so each shell
component carries its smallest vertex, and it reads a block's counts from
offset bincounts of one labelling of ``graphs.bipartite_double(g)``,
certifying isomorphism with one ``graphs.isomorphic_components`` call per
block, at every base vertex up to ``ISO_SEARCH_VERTICES`` sphere vertices
in all.  The
flood holds four bit-packed arrays of n^2 / 8 bytes each; the census's
labels stay a few hundred KiB per block whatever n is.
``subconstituent`` and ``union_subconstituent`` build the per-vertex
subgraphs the acceptance battery compares the sweeps against.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import MathAssertionError
# odd_graph is unused here, but the benchmark worker times it under this name
from .families import odd_graph, subset_graph  # noqa: F401
from .graphs import (ISO_VERTEX_CAP, DistanceData, Graph, bipartite_double, flood,
                     induced_subgraph, isomorphic_components)
from .tolerances import DEFAULT_TOLERANCES

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


def dual_sign_change_index(dual: np.ndarray,
                           zero_snap: float = DEFAULT_TOLERANCES.dual_zero_snap) -> int:
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


# n times the sphere size up to which the census certifies every base vertex
ISO_SEARCH_VERTICES = 1 << 14
# distance entries read per block: the census labels a block of base-vertex
# columns, so its labels and their bipartite lift stay a few hundred KiB
# whatever n is, and the flood packs its shell masks a block of rows at a time
BLOCK_ENTRIES = 1 << 15


def shell_labels(nbr: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Component labels of shells, one shell per column of ``inside``.

    ``nbr`` is a padded neighbor array (``Graph.neighbor_array``) and
    ``inside[v, c]`` says whether v lies in shell c.  Entry [v, c] of the
    result is the smallest vertex of v's component in shell c, and n (the
    row count) off it.  Row n of the working array holds n, so a jump from an
    off-shell entry stays off it.  A round gathers the labels at each
    neighbor column in turn, rows times columns times the maximum degree.
    """
    n, width = inside.shape
    off_shell = np.where(inside, 0, n).astype(np.int32)
    labels = np.full((n + 1, width), n, dtype=np.int32)
    np.copyto(labels[:n], np.arange(n, dtype=np.int32)[:, None], where=inside)
    while True:
        new = labels.copy()
        body = new[:n]
        for col in range(nbr.shape[1]):
            np.minimum(body, labels[nbr[:, col]], out=body)
        np.maximum(body, off_shell, out=body)
        new = np.take_along_axis(new, new, axis=0)
        if np.array_equal(new, labels):
            return labels[:n]
        labels = new


def shell_blocks(dist: np.ndarray, lo: int, hi: int):
    """(start, inside) per block of BLOCK_ENTRIES base-vertex columns:
    inside[v, c] says v lies in spheres lo..hi about start + c (dist symmetric)."""
    n = dist.shape[0]
    width = max(1, BLOCK_ENTRIES // n)
    for start in range(0, n, width):
        block = dist[:, start:start + width]
        yield start, (block >= lo) & (block <= hi)


def shell_connected(g: Graph, dd: DistanceData, lo: int, hi: int) -> np.ndarray:
    """Per base vertex gamma, whether the spheres lo..hi about gamma induce a
    connected subgraph (an empty shell counts as disconnected).

    Exhaustive over base vertices, all at once.  Bit gamma of row v of an
    n x ceil(n/64) word array says v lies in gamma's shell; since ``dist`` is
    symmetric, row v is packed from dist[v], BLOCK_ENTRIES entries at a time.
    Each shell is seeded at its smallest vertex and flooded (``flood``, ANDed
    with the shells) until no bit changes; a shell is connected when the
    flood reached all of it.  A round costs (2m + n) n / 64 words, as a level
    of the all-source BFS does.
    """
    if not 0 <= lo <= hi <= dd.diameter:
        raise IndexError(f"shell {lo}..{hi} outside 0..{dd.diameter}")
    n = g.n
    inside = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    seeds, nonempty = np.empty(n, dtype=np.intp), np.empty(n, dtype=bool)
    rows = max(1, BLOCK_ENTRIES // n)
    for a in range(0, n, rows):
        block = dd.dist[a:a + rows]
        shell = (block >= lo) & (block <= hi)  # row gamma is gamma's shell
        inside.view(np.uint8)[a:a + rows, :-(-n // 8)] = np.packbits(shell, axis=1)
        seeds[a:a + rows] = shell.argmax(axis=1)
        nonempty[a:a + rows] = shell.any(axis=1)
    reached = np.zeros_like(inside)
    bases = np.flatnonzero(nonempty)
    # bases sharing a seed share its bytes, so the bits go in unbuffered
    np.bitwise_or.at(reached.view(np.uint8), (seeds[bases], bases // 8),
                     (0x80 >> (bases % 8)).astype(np.uint8))  # np.packbits bit order
    for _ in flood(g, reached, inside):
        pass
    reached ^= inside  # the shell bits the flood missed
    missed = np.bitwise_or.reduce(reached, axis=0)  # one bit per base
    return nonempty & ~np.unpackbits(missed.view(np.uint8), count=n).view(bool)


def sweep_last_two(g: Graph, dd: DistanceData) -> tuple[bool, list[bool]]:
    """Whether the last two spheres about each base vertex induce a connected
    subgraph; reports are indexed by vertex."""
    d = dd.diameter
    if d < 2:
        raise ValueError(f"needs diameter at least 2, got {d}")
    flags = shell_connected(g, dd, d - 1, d).tolist()
    return all(flags), flags


def sweep_tail(g: Graph, dd: DistanceData, s: int) -> tuple[bool, list[bool]]:
    """Whether the spheres s..d about each base vertex induce a connected subgraph."""
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
    return subset_graph(2 * r + 1, r, 0)


def _column_counts(keys: np.ndarray, n: int) -> np.ndarray:
    """Entry [k, c]: how many entries of column c of ``keys`` (values 0..n)
    equal k < n, from one bincount of keys + c (n + 1)."""
    cols = keys.shape[1]
    flat = (keys + np.arange(cols) * (n + 1)).ravel()
    return np.bincount(flat, minlength=cols * (n + 1)).reshape(cols, n + 1)[:, :n].T


def odd_component_census(g: Graph, dd: DistanceData) -> CensusRecord:
    """Census of the components of the d-th subconstituent of the odd graph
    g of order d = dd.diameter, at every base vertex.

    Checks the component count binom(2m, m)/2, the common component size
    2 binom(2r+1, r), the within-sphere valency and that every component is
    bipartite with equal halves, from one ``shell_labels`` run per
    ``shell_blocks`` block on ``bipartite_double(g)``, the block's mask on
    both copies: a component C lifts to C+ and C-, or to X+ Y- and Y+ X-
    when bipartite with halves X and Y, so the smaller of v's two lifted
    labels is min C (every + index is below every - index), and C is
    bipartite with equal halves iff its root's lift holds exactly half of
    C's layer-0 copies.  A block's sizes and halves come from one offset
    bincount (``_column_counts``), and Python visits only the flagged base
    vertices.  When components are at most ``ISO_VERTEX_CAP`` vertices,
    each is certified isomorphic to the bipartite double of the order-r
    odd-graph core, a block's components in one ``isomorphic_components``
    call: at every base vertex when n times the sphere size is at most
    ``ISO_SEARCH_VERTICES``, otherwise at vertex 0.  The record reports vertex 0.

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
    iso_every_vertex = iso_possible and n * expected_sphere <= ISO_SEARCH_VERTICES
    reference = bipartite_double(_odd_core(r)) if iso_possible else None

    vertex, nbr = np.arange(n), g.neighbor_array()
    # the padding repeats the row's own vertex; degrees sum over neighbour columns
    real = (nbr != vertex[:, None]).T[:, :, None].view(np.uint8)
    degree_type = np.min_scalar_type(nbr.shape[1])
    lift_nbr = bipartite_double(g).neighbor_array()
    failures: list[str] = []
    iso_done = 0

    for start, inside in shell_blocks(dd.dist, d, d):
        lifts = shell_labels(lift_nbr, np.vstack([inside, inside]))
        labels = np.minimum(np.minimum(lifts[:n], lifts[n:]), n)  # off the shell both are 2n
        degrees = np.take(inside.view(np.uint8), nbr.T, axis=0)
        degrees &= real
        degrees = degrees.sum(axis=0, dtype=degree_type)
        off_degree = inside & (degrees != expected_degree)
        roots = labels == vertex[:, None]  # components by smallest vertex
        sphere_sizes, counts = inside.sum(axis=0), roots.sum(axis=0)
        # a root r = min C labels its own lift, which holds v+ iff v is in r's
        # half, or for every v of C when C is not bipartite; counting
        # 2 label + that gives C's size and what r's lift holds of it at once
        split = _column_counts(2 * labels + (lifts[:n] == labels), 2 * n)
        sizes = split[0::2] + split[1::2]
        sized = ((sizes == expected_size) | ~roots).all(axis=0) & (counts > 0)
        checked = (sphere_sizes == expected_sphere) & sized
        halves = 2 * split[1::2] == sizes  # bipartite with equal halves
        not_iso = np.zeros_like(roots)
        covered = checked & (iso_every_vertex | (start + np.arange(inside.shape[1]) == 0))
        if reference is not None and covered.any():
            cols = np.flatnonzero(covered)
            # covered vertices ordered by column, component and vertex, so row
            # k of members is the k-th (column, root) in row-major order
            col_of, members = np.nonzero(labels[:, cols].T < n)
            key = labels[members, cols[col_of]] + col_of * (n + 1)
            members = members[np.argsort(key, kind="stable")].reshape(-1, expected_size)
            iso = isomorphic_components(g, members, reference)
            iso_done += int(iso.sum())
            comp_col, comp_root = np.nonzero(roots[:, cols].T)
            not_iso[comp_root[~iso], cols[comp_col[~iso]]] = True
        flagged = roots & (~halves | not_iso)
        bad = ~checked | (counts != expected_count) | (flagged | off_degree).any(axis=0)
        for c in np.flatnonzero(bad).tolist():
            gamma = start + c
            if sphere_sizes[c] != expected_sphere:
                failures.append(f"gamma={gamma}: sphere size {sphere_sizes[c]} != {expected_sphere}")
                continue
            if counts[c] != expected_count:
                failures.append(
                    f"gamma={gamma}: {counts[c]} components, expected {expected_count}")
            if not sized[c]:
                found = sorted(sizes[roots[:, c], c].tolist())
                failures.append(
                    f"gamma={gamma}: component sizes {found}, expected all {expected_size}")
                continue
            rank = np.cumsum(roots[:, c]) - 1
            off_roots = set(labels[off_degree[:, c], c].tolist())
            for root in sorted(off_roots.union(np.flatnonzero(flagged[:, c]).tolist())):
                ci = rank[root]
                if root in off_roots:
                    found = sorted(set(degrees[labels[:, c] == root, c].tolist()))
                    failures.append(
                        f"gamma={gamma} component {ci}: degrees {found}, "
                        f"expected {expected_degree}-regular")
                if not halves[root, c]:
                    failures.append(
                        f"gamma={gamma} component {ci}: not bipartite with equal halves")
                if not_iso[root, c]:
                    failures.append(
                        f"gamma={gamma} component {ci}: not isomorphic to the bipartite double")
        del lifts, labels, degrees, split, sizes  # freed before the next block's labelling

    if failures:
        raise MathAssertionError(
            "odd-graph census failed:\n  " + "\n  ".join(failures[:20]))
    # every vertex, vertex 0 included, matched the expected figures
    return CensusRecord(
        d=d, expected_count=expected_count, expected_size=expected_size,
        sphere_size=expected_sphere, count=expected_count,
        component_sizes=[expected_size] * expected_count,
        component_degree=expected_degree,
        iso_certified=iso_done > 0,
        iso_components=iso_done, iso_skipped=not iso_possible,
        bipartite_halves_ok=True, vertices_checked=n)
