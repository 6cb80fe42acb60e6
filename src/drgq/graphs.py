"""Core graph representation and combinatorial primitives.

Graphs are simple and undirected, with vertices 0..n-1 and adjacency held
once, as read-only sorted CSR rows that every stage reads in place.
All-pairs distances come from one level-synchronous BFS run from every
source at once: ``flood``, seeded with every vertex's own bit in a
bit-packed n x n array, adds the pairs at distance L in round L, and its
final row 0 names the vertices 0 cannot reach.  A round ORs rows over every
closed neighborhood of the CSR chunks, (2m + n) n / 64 word operations
whatever the degrees; the connectivity sweeps' shell flood is the same
generator, masked by the shells.  Distances are stored one byte per entry,
which keeps the largest catalogue members cheap to hold in memory, and they
are the only n x n form of the distance classes: a check that needs the
pairs at distance h takes ``dist == h``.  A graph of diameter above 255 is
refused rather than wrapped, and the memory model is consulted before
anything of size n x n is allocated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import memory
from .errors import DisconnectedGraphError, MathAssertionError
from .memory import UNPACK_ENTRIES

ISO_VERTEX_CAP = 64
MAX_DISTANCE = 255  # distances are stored one byte per entry


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph on 0..n-1 in CSR form: ``neighbors(v)``
    is the sorted row ``indices[indptr[v]:indptr[v + 1]]``; both arrays are read-only."""

    n: int
    indptr: np.ndarray   # n + 1 row offsets
    indices: np.ndarray  # 2m neighbours, row by row

    def __post_init__(self):
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> Iterable[tuple[int, int]]:
        u, v = _rows(self), self.indices
        return zip(u[u < v].tolist(), v[u < v].tolist())

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def neighbor_array(self) -> np.ndarray:
        """n x max(1, maximum degree) array of neighbors, each row padded with
        its own vertex; a kernel that takes a minimum or a union over a row
        is unchanged by the padding."""
        degrees = np.diff(self.indptr)
        width = max(1, int(degrees.max()))
        if (degrees == width).all():
            return self.indices.reshape(self.n, width)
        nbr = np.repeat(np.arange(self.n)[:, None], width, axis=1)
        nbr[_rows(self), np.arange(self.indices.size) - np.repeat(self.indptr[:-1], degrees)] = self.indices
        return nbr


def _rows(g: Graph) -> np.ndarray:
    """The row, that is the vertex, of each entry of ``g.indices``."""
    return np.repeat(np.arange(g.n), np.diff(g.indptr))


def _lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbours as a list, for the searches that walk rows in Python."""
    flat, ptr = g.indices.tolist(), g.indptr.tolist()
    return [flat[a:b] for a, b in zip(ptr, ptr[1:])]


def from_sorted_pairs(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The one constructor of the CSR form: the graph on 0..n-1 whose adjacency
    pairs are (u[e], v[e]), both directions of every edge, sorted by u and then v."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(u, minlength=n))])
    return Graph(n, indptr, np.asarray(v, dtype=np.intp))


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs, symmetrizing and
    deduplicating.  Raises ValueError naming the first edge, in input order,
    with an endpoint outside 0..n-1 or both endpoints equal."""
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    pairs = np.array(list(edges) or np.empty((0, 2), np.intp))
    if pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,):
        raise ValueError("edges must be (u, v) pairs of integer vertex indices")
    u, v = pairs.T.astype(np.int64)
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    bad = np.flatnonzero(outside | (u == v))
    if bad.size:
        (a, b), e = pairs[bad[0]].tolist(), bad[0]
        raise ValueError(f"edge ({a},{b}) has an endpoint outside 0..{n - 1}" if outside[e]
                         else f"loop edge ({a},{b}) is not allowed")
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    return from_sorted_pairs(n, *np.divmod(keys[np.diff(keys, prepend=-1) != 0], n))  # each pair once


@dataclass
class DistanceData:
    """All-pairs distances, the one representation of the distance classes.

    ``dist`` is symmetric with zero diagonal, one byte per entry; the pairs
    at distance h are ``dist == h``.
    """

    dist: np.ndarray
    diameter: int

    def sphere(self, gamma: int, i: int) -> np.ndarray:
        """Vertex indices at distance exactly i from gamma."""
        return np.nonzero(self.dist[gamma] == i)[0]


def neighborhood_chunks(g: Graph) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Closed neighborhoods (v, then its neighbors) as CSR row chunks
    (a, b, starts, members) of at most n entries each, so gathering an
    n-vector per entry costs (2m + n) n however the degrees are spread."""
    indptr = g.indptr + np.arange(g.n + 1)
    indices = np.insert(g.indices, g.indptr[:-1], np.arange(g.n))  # v, then its neighbors
    chunks, a = [], 0
    while a < g.n:
        b = max(a + 1, int(np.searchsorted(indptr, indptr[a] + g.n, side="right")) - 1)
        chunks.append((a, b, indptr[a:b] - indptr[a], indices[indptr[a]:indptr[b]]))
        a = b
    return chunks


def flood(g: Graph, reached: np.ndarray, inside: Optional[np.ndarray] = None):
    """Grow the bit-packed sets ``reached`` in place to a fixed point by OR
    rounds over closed neighborhoods, ANDed with ``inside`` when given (which
    must hold ``reached``), and yield each round's new bits in a buffer the
    next round reuses; a round costs (2m + n) words per column."""
    chunks = neighborhood_chunks(g)
    nxt = np.empty_like(reached)
    while True:
        for a, b, starts, members in chunks:
            np.bitwise_or.reduceat(np.take(reached, members, axis=0), starts, axis=0, out=nxt[a:b])
        if inside is not None:
            nxt &= inside
        nxt ^= reached  # v's own row is in the OR, so the new bits are left
        if not nxt.any():
            return
        reached |= nxt
        yield nxt


def distance_data(g: Graph) -> DistanceData:
    """All-pairs distances: the flood seeded with every vertex's own bit,
    whose round L adds the pairs at distance L.

    Raises ValueError when the memory model refuses the BFS or, naming the
    first source and its eccentricity, when a distance exceeds MAX_DISTANCE
    (the largest one byte holds), and then DisconnectedGraphError naming
    vertex 0 and the first vertex it cannot reach.
    """
    n = g.n
    memory.require(f"all-pairs distances on {n} vertices",
                   memory.distance_bytes(n, 2 * g.num_edges + n))
    reached = np.zeros((n, -(-n // 64)), dtype=np.uint64)  # 64 vertices per word
    v = np.arange(n)
    reached.view(np.uint8)[v, v // 8] = 0x80 >> (v % 8)  # np.packbits bit order
    dist, level, src = np.zeros((n, n), dtype=np.uint8), 0, None
    rows = max(1, UNPACK_ENTRIES // n)
    for level, new in enumerate(flood(g, reached), 1):
        if level <= MAX_DISTANCE:
            for s in range(0, n, rows):  # unpack the level's mask one row block at a time
                bits = np.unpackbits(new[s:s + rows].view(np.uint8), axis=1, count=n)
                bits *= level  # a pair lies at one level, so OR writes that level
                dist[s:s + rows] |= bits
                del bits  # freed before the next block or flood round allocates
            continue
        if src is None:  # the first source with a vertex beyond MAX_DISTANCE
            src = int(np.flatnonzero(new.any(axis=1))[0])
        if new[src].any():  # the last round that adds to its row is its eccentricity
            ecc = level
    if src is not None:
        raise ValueError(f"diameter is at least {ecc} (vertex {src} has eccentricity {ecc}); "
                         f"distances above {MAX_DISTANCE} are not supported")
    missing = np.flatnonzero(np.unpackbits(reached[0].view(np.uint8), count=n) == 0)
    if missing.size:
        raise DisconnectedGraphError(0, int(missing[0]))
    return DistanceData(dist, level)


class InducedSubgraph(NamedTuple):
    graph: Graph
    vertices: tuple[int, ...]  # new index -> original vertex


def induced_subgraph(g: Graph, vertex_set: Iterable[int]) -> InducedSubgraph:
    """Subgraph on ``vertex_set`` with vertices relabeled 0..|S|-1 in sorted order."""
    verts = sorted(set(int(v) for v in vertex_set))
    if not verts:
        raise ValueError("cannot take the subgraph induced by an empty vertex set")
    if verts[0] < 0 or verts[-1] >= g.n:
        raise ValueError("vertex set contains indices outside the graph")
    index = np.full(g.n, -1)
    index[verts] = np.arange(len(verts))  # increasing, so rows stay sorted
    u, v = index[_rows(g)], index[g.indices]
    inner = (u >= 0) & (v >= 0)
    return InducedSubgraph(from_sorted_pairs(len(verts), u[inner], v[inner]), tuple(verts))


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member."""
    nbrs, seen, comps = _lists(g), bytearray(g.n), []
    for start in range(g.n):
        if not seen[start]:
            seen[start] = 1
            comp = [start]
            for u in comp:  # the list grows while it is walked: a breadth-first search
                for w in nbrs[u]:
                    if not seen[w]:
                        seen[w] = 1
                        comp.append(w)
            comps.append(sorted(comp))
    return comps


def bipartite_double(g: Graph) -> Graph:
    """Two copies v+ (=v) and v- (=n+v); v+ is adjacent to w- iff v ~ w."""
    return Graph(2 * g.n, np.concatenate([g.indptr, g.indptr[1:] + g.indices.size]),
                 np.concatenate([g.indices + g.n, g.indices]))


# ---------------------------------------------------------------------------
# Isomorphism testing: colour refinement of both graphs in one palette, then
# backtracking along a breadth-first order of g, each vertex tried only at
# the same-coloured neighbours of its anchor's image.  A colour means the
# same in g and h, so an isomorphism preserves it.  Intended for small
# components (census certification); refuses above the cap.  The census
# certifies a block's components with ``isomorphic_components``: a degree
# screen, then the same anchored search in lockstep over all of them, without
# colours or backtracking, and ``are_isomorphic`` only where it dead-ends.
# ---------------------------------------------------------------------------

def _joint_colors(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Stable colours of g and h, refined together from the degrees."""
    neighbors = _lists(g) + [[g.n + w for w in nb] for nb in _lists(h)]
    colors = [len(nb) for nb in neighbors]
    classes = len(set(colors))
    while True:
        signatures = [(colors[v], tuple(sorted(colors[w] for w in nb)))
                      for v, nb in enumerate(neighbors)]
        palette: dict = {}
        colors = [palette.setdefault(sig, len(palette)) for sig in signatures]
        if len(palette) == classes:
            return colors[:g.n], colors[g.n:]
        classes = len(palette)


def _verify_mapping(g: Graph, h: Graph, perm: list[int]) -> bool:
    p = np.array(perm)  # a bijection taking g's adjacency pairs onto h's, sorted as h's are
    return sorted(perm) == list(range(g.n)) and np.array_equal(
        np.sort(p[_rows(g)] * h.n + p[g.indices]), _rows(h) * h.n + h.indices)


def are_isomorphic(g: Graph, h: Graph) -> tuple[bool, Optional[list[int]]]:
    """Decide isomorphism; on success also return a witness permutation.

    The witness ``perm`` maps g-vertices to h-vertices and is re-verified by
    direct edge comparison before being returned.  Raises ValueError when
    either graph exceeds the vertex cap (backtracking is only meant for
    census-sized components).
    """
    if g.n > ISO_VERTEX_CAP or h.n > ISO_VERTEX_CAP:
        raise ValueError(f"isomorphism search refused above {ISO_VERTEX_CAP} vertices")
    cg, ch = _joint_colors(g, h)
    if Counter(cg) != Counter(ch):
        return False, None
    gl, hl = _lists(g), _lists(h)
    hsets = [set(nb) for nb in hl]
    # g's vertices in breadth-first order, one component after another: each
    # but a component's first has an earlier neighbour, its anchor, and an
    # isomorphism maps it next to its anchor's image
    order: list[int] = []
    anchor = [-1] * g.n
    placed = bytearray(g.n)
    for root in range(g.n):
        if placed[root]:
            continue
        placed[root] = 1
        comp = [root]
        for u in comp:  # grows while it is walked, as connected_components' does
            for w in gl[u]:
                if not placed[w]:
                    placed[w] = 1
                    anchor[w] = u
                    comp.append(w)
        order += comp

    perm = [-1] * g.n
    used = bytearray(h.n)

    def extend(pos: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        mapped = [perm[w] for w in gl[v] if perm[w] >= 0]
        pool = range(h.n) if anchor[v] < 0 else hl[perm[anchor[v]]]
        for t in pool:
            if used[t] or ch[t] != cg[v] or not all(x in hsets[t] for x in mapped):
                continue
            # reverse direction: every used h-neighbor of t must be the image
            # of a g-neighbor of v; counting both sides enforces it
            if sum(used[x] for x in hl[t]) != len(mapped):
                continue
            perm[v] = t
            used[t] = 1
            if extend(pos + 1):
                return True
            perm[v] = -1
            used[t] = 0
        return False

    if extend(0):
        if not _verify_mapping(g, h, perm):
            raise MathAssertionError(f"isomorphism search returned {perm}, which is not an "
                                     f"isomorphism")
        return True, list(perm)
    return False, None


def _verify_mappings(local: np.ndarray, adj: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Per row of ``perm``, whether it is a bijection onto 0..s-1 that maps
    every edge of its component (``local``, padded with s) to an edge of the
    reference (``adj``, whose row and column s are empty): an isomorphism,
    since the rows checked have the reference's degrees and so its edge count."""
    comps, s = perm.shape
    bijective = (np.sort(perm, axis=1) == np.arange(s)).all(axis=1)
    ends = np.hstack([perm, np.full((comps, 1), s)])[np.arange(comps)[:, None, None], local]
    return bijective & (adj[perm[:, :, None], ends] | (local == s)).all(axis=(1, 2))


def isomorphic_components(g: Graph, members: np.ndarray, h: Graph) -> np.ndarray:
    """Per row of ``members``, a (components, h.n) array of sorted vertex sets
    of g, whether the subgraph of g it induces is isomorphic to h.

    The rows are relabelled through an index map into (components x size x
    degree) neighbour arrays.  A row whose sorted in-component degrees
    differ from h's is not isomorphic to it; on the others
    are_isomorphic's anchored search runs in lockstep: the root goes to h's
    vertex 0, and each later vertex of a breadth-first order to the first
    feasible neighbour of its anchor's image, with no backtracking.  Every
    map found is verified edge by edge.  A row whose search dead-ends goes
    to are_isomorphic, which stays the complete decider.  Raises ValueError
    above the vertex cap, as are_isomorphic does.
    """
    s = h.n
    if s > ISO_VERTEX_CAP:
        raise ValueError(f"isomorphism search refused above {ISO_VERTEX_CAP} vertices")
    comps = members.shape[0]
    row = np.arange(comps)[:, None]
    index = np.full((comps, g.n), s)  # a member's position in its row, s off it
    index[row, members] = np.arange(s)
    local = index[row[:, :, None], g.neighbor_array()[members]]
    local[local == np.arange(s)[:, None]] = s  # the padding is the vertex itself
    local.sort(axis=2)  # each row's neighbours, then the padding s
    hdeg = np.diff(h.indptr)
    width = max(1, int(hdeg.max()))
    same = (np.sort((local < s).sum(axis=2), axis=1) == np.sort(hdeg)).all(axis=1)
    local = local[same, :, :width]
    hnbr = np.vstack([h.neighbor_array(), np.full(width, s)])  # row s is padding
    hnbr[hnbr == np.arange(s + 1)[:, None]] = s  # h's neighbours padded with s, not v
    adj = np.zeros((s + 1, s + 1), dtype=bool)
    adj[_rows(h), h.indices] = True

    # breadth-first orders and anchors, one vertex of every component per step
    live = local.shape[0]
    r, col = np.arange(live), np.arange(live)[:, None]
    order, anchor = np.zeros((live, s), dtype=np.intp), np.zeros((live, s), dtype=np.intp)
    seen = np.zeros((live, s + 1), dtype=bool)
    seen[:, [0, s]] = True
    tail = np.ones(live, dtype=np.intp)
    for k in range(s):
        u, nb = order[:, k], local[r, order[:, k]]
        new = ~seen[col, nb]
        rows = np.nonzero(new)[0]
        order[rows, (tail[:, None] + np.cumsum(new, axis=1) - 1)[new]] = nb[new]
        anchor[rows, nb[new]] = u[rows]
        seen[rows, nb[new]] = True
        tail += new.sum(axis=1)

    perm = np.full((live, s + 1), -1)  # -1 unmapped; column s stays -1 for the padding
    perm[:, 0] = 0
    used = np.zeros((live, s + 1), dtype=bool)
    used[:, 0] = True
    alive = tail == s  # a disconnected row leaves its order short
    for k in range(1, s):
        v = order[:, k]
        pool = hnbr[perm[r, anchor[r, v]]]  # an unmapped anchor reads the padding row
        images = perm[col, local[r, v]]
        fits = (pool < s) & ~used[col, pool]
        fits &= (adj[pool[:, :, None], images[:, None, :]] | (images[:, None, :] < 0)).all(axis=2)
        fits &= used[col[:, :, None], hnbr[pool]].sum(axis=2) == (images >= 0).sum(axis=1)[:, None]
        alive &= fits.any(axis=1)
        t = pool[r, fits.argmax(axis=1)]
        perm[r, v] = t
        used[r, t] = True
    perm = perm[:, :s]
    if not _verify_mappings(local[alive], adj, perm[alive]).all():
        raise MathAssertionError("lockstep isomorphism search returned a map that is not an "
                                 "isomorphism")
    result = np.zeros(comps, dtype=bool)  # rows of other degrees stay False
    result[np.flatnonzero(same)[alive]] = True
    for c in np.flatnonzero(same)[~alive].tolist():
        result[c] = are_isomorphic(induced_subgraph(g, members[c]).graph, h)[0]
    return result
