"""Core graph representation and combinatorial primitives.

Graphs are simple and undirected, with vertices 0..n-1 and adjacency kept
as sorted neighbor tuples (dense matrices and the padded neighbor array are
derived on demand).  All-pairs distances come from one level-synchronous BFS
run from every source at once: the frontier is a bit-packed n x n array,
and each level ORs frontier rows over the neighbor lists, so a level costs
(2m + n) n / 64 word operations whatever the degrees.  Distances are
stored one byte per entry, which keeps the largest catalogue members cheap
to hold in memory, and they are the only n x n form of the distance
classes: a check that needs the pairs at distance h takes ``dist == h``.  A
graph of diameter above 255 is refused rather than wrapped, and the memory
model is consulted before anything of size n x n is allocated.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import memory
from .errors import DisconnectedGraphError, MathAssertionError

ISO_VERTEX_CAP = 64
MAX_DISTANCE = 255  # distances are stored one byte per entry


@dataclass
class Graph:
    """Immutable simple undirected graph.

    ``neighbors[v]`` is a sorted tuple of the vertices adjacent to ``v``.
    ``vertex_labels`` optionally carries human-readable names (subset or
    word labels for family graphs); it never participates in algorithms.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    label: Optional[str] = None
    vertex_labels: Optional[tuple[str, ...]] = None

    @property
    def num_edges(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def degrees(self) -> list[int]:
        return [len(nb) for nb in self.neighbors]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors[u]
        # neighbor tuples are sorted; binary search beats linear scan on hubs
        lo, hi = 0, len(nb)
        while lo < hi:
            mid = (lo + hi) // 2
            if nb[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        return lo < len(nb) and nb[lo] == v

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.uint8)
        for u in range(self.n):
            a[u, self.neighbors[u]] = 1
        return a

    def neighbor_array(self) -> np.ndarray:
        """n x max(1, maximum degree) array of neighbors, each row padded with
        its own vertex; a kernel that takes a minimum or a union over a row
        is unchanged by the padding."""
        width = max(1, max(self.degrees()))
        nbr = np.repeat(np.arange(self.n)[:, None], width, axis=1)
        for v, nb in enumerate(self.neighbors):
            nbr[v, :len(nb)] = nb
        return nbr


def build_graph(n: int, edges: Iterable[tuple[int, int]], label: Optional[str] = None,
                vertex_labels: Optional[Sequence[str]] = None) -> Graph:
    """Build a Graph from an edge list, symmetrizing and deduplicating.

    Raises ValueError on an out-of-range endpoint or a loop edge.
    """
    if n <= 0:
        raise ValueError(f"vertex count must be positive, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u},{v}) is not allowed")
        adj[u].add(v)
        adj[v].add(u)
    labels = tuple(vertex_labels) if vertex_labels is not None else None
    if labels is not None and len(labels) != n:
        raise ValueError("vertex_labels length must equal n")
    return Graph(n, tuple(tuple(sorted(s)) for s in adj), label, labels)


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from a single source; unreachable vertices get -1."""
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[source] = 0
    queue = deque([source])
    nb = g.neighbors
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in nb[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


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

    def sphere_sizes(self, gamma: int) -> list[int]:
        return [int((self.dist[gamma] == i).sum()) for i in range(self.diameter + 1)]


def _closed_neighborhoods(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices) in which row v lists v, then its neighbors."""
    indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum([len(nb) + 1 for nb in g.neighbors], out=indptr[1:])
    indices = np.fromiter((w for v, nb in enumerate(g.neighbors) for w in (v, *nb)),
                          dtype=np.intp, count=int(indptr[-1]))
    return indptr, indices


def distance_data(g: Graph) -> DistanceData:
    """All-pairs distances by one BFS from every source at once.

    Raises DisconnectedGraphError naming vertex 0 and the first vertex it
    cannot reach, ValueError when the memory model refuses the BFS, and
    ValueError naming the first source with a distance above MAX_DISTANCE,
    the largest one byte holds, and its eccentricity.
    """
    n = g.n
    unreachable = np.flatnonzero(bfs_distances(g, 0) < 0)
    if unreachable.size:
        raise DisconnectedGraphError(0, int(unreachable[0]))
    memory.require(f"all-pairs distances on {n} vertices",
                   memory.distance_bytes(n, 2 * g.num_edges + n))
    indptr, indices = _closed_neighborhoods(g)
    # row chunks whose neighborhoods hold at most n entries in all, so one
    # level gathers 2m + n packed rows however the degrees are spread
    chunks = []
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(indptr, indptr[a] + n, side="right")) - 1)
        chunks.append((a, b, indptr[a:b] - indptr[a], indices[indptr[a]:indptr[b]]))
        a = b
    # frontier row x, bit-packed 64 vertices per word, is the set of vertices
    # at the current level from x; the next level from v is the union of the
    # frontier rows of v's neighbors, less visited vertices (v's own row adds
    # only visited ones)
    words = -(-n // 64)
    frontier = np.zeros((n, words), dtype=np.uint64)
    v = np.arange(n)
    frontier.view(np.uint8)[v, v // 8] = 0x80 >> (v % 8)  # np.packbits bit order
    unvisited = ~frontier
    nxt = np.empty_like(frontier)
    gathered = np.empty_like(frontier)
    dist = np.zeros((n, n), dtype=np.uint8)
    level = 0
    while True:
        for a, b, starts, nbrs in chunks:
            block = np.take(frontier, nbrs, axis=0, out=gathered[:len(nbrs)])
            np.bitwise_or.reduceat(block, starts, axis=0, out=nxt[a:b])
        nxt &= unvisited
        if not nxt.any():
            break
        level += 1
        if level > MAX_DISTANCE:
            src = int(np.flatnonzero(nxt.any(axis=1))[0])
            ecc = int(bfs_distances(g, src).max())
            raise ValueError(f"diameter is at least {ecc} (vertex {src} has eccentricity {ecc}); "
                             f"distances above {MAX_DISTANCE} are not supported")
        dist[np.unpackbits(nxt.view(np.uint8), axis=1, count=n).view(bool)] = level
        unvisited ^= nxt
        frontier, nxt = nxt, frontier
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
    index = {v: i for i, v in enumerate(verts)}
    nbrs = []
    for v in verts:
        nbrs.append(tuple(index[w] for w in g.neighbors[v] if w in index))
    labels = None
    if g.vertex_labels is not None:
        labels = tuple(g.vertex_labels[v] for v in verts)
    return InducedSubgraph(Graph(len(verts), tuple(nbrs), g.label, labels), tuple(verts))


def connected_components(g: Graph) -> list[list[int]]:
    """Maximal connected vertex sets, each sorted, ordered by smallest member."""
    seen = bytearray(g.n)
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors[u]:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def two_coloring(g: Graph) -> Optional[list[int]]:
    """A proper 2-coloring as a 0/1 list, or None when an odd cycle exists."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            cu = color[u]
            for w in g.neighbors[u]:
                if color[w] < 0:
                    color[w] = 1 - cu
                    queue.append(w)
                elif color[w] == cu:
                    return None
    return color


def bipartite_double(g: Graph) -> Graph:
    """Two copies v+ (=v) and v- (=n+v); v+ is adjacent to w- iff v ~ w."""
    n = g.n
    edges = []
    for u, w in g.edges():
        edges.append((u, n + w))
        edges.append((w, n + u))
    labels = None
    if g.vertex_labels is not None:
        labels = tuple(f"{s}+" for s in g.vertex_labels) + tuple(f"{s}-" for s in g.vertex_labels)
    return build_graph(2 * n, edges, label=None if g.label is None else f"double({g.label})",
                       vertex_labels=labels)


# ---------------------------------------------------------------------------
# Isomorphism testing: colour refinement of both graphs in one palette, then
# backtracking within colour classes.  A colour means the same in g and h,
# so an isomorphism preserves it.  Intended for small components (census
# certification); refuses above the cap.
# ---------------------------------------------------------------------------

def _joint_colors(g: Graph, h: Graph) -> tuple[list[int], list[int]]:
    """Stable colours of g and h, refined together from the degrees."""
    colors = g.degrees() + h.degrees()
    neighbors = g.neighbors + tuple(tuple(g.n + w for w in nb) for nb in h.neighbors)
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
    if sorted(perm) != list(range(g.n)):
        return False
    for u in range(g.n):
        mapped = sorted(perm[w] for w in g.neighbors[u])
        if mapped != list(h.neighbors[perm[u]]):
            return False
    return True


def are_isomorphic(g: Graph, h: Graph, cap: int = ISO_VERTEX_CAP
                   ) -> tuple[bool, Optional[list[int]]]:
    """Decide isomorphism; on success also return a witness permutation.

    The witness ``perm`` maps g-vertices to h-vertices and is re-verified by
    direct edge comparison before being returned.  Raises ValueError when
    either graph exceeds the vertex cap (backtracking is only meant for
    census-sized components).
    """
    if g.n > cap or h.n > cap:
        raise ValueError(f"isomorphism search refused above {cap} vertices")
    cg, ch = _joint_colors(g, h)
    if Counter(cg) != Counter(ch):
        return False, None
    hclasses: dict[int, list[int]] = {}
    for v, c in enumerate(ch):
        hclasses.setdefault(c, []).append(v)
    candidates = [hclasses[c] for c in cg]

    # order: smallest candidate set first, then prefer vertices adjacent to
    # already-placed ones so adjacency constraints bite early
    order: list[int] = []
    placed = [False] * g.n
    for _ in range(g.n):
        best, best_key = -1, None
        for v in range(g.n):
            if placed[v]:
                continue
            anchored = any(placed[w] for w in g.neighbors[v])
            key = (not anchored, len(candidates[v]), v)
            if best_key is None or key < best_key:
                best, best_key = v, key
        order.append(best)
        placed[best] = True

    perm = [-1] * g.n
    used = [False] * h.n

    def extend(pos: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        for t in candidates[v]:
            if used[t]:
                continue
            ok = True
            for w in g.neighbors[v]:
                pw = perm[w]
                if pw >= 0 and not h.has_edge(t, pw):
                    ok = False
                    break
            if ok:
                # reverse direction: every used h-neighbor of t must be the
                # image of a g-neighbor of v; counting both sides enforces it
                deg_mapped = sum(1 for w in g.neighbors[v] if perm[w] >= 0)
                adj_mapped = sum(1 for x in h.neighbors[t] if used[x])
                if deg_mapped != adj_mapped:
                    ok = False
            if ok:
                perm[v] = t
                used[t] = True
                if extend(pos + 1):
                    return True
                perm[v] = -1
                used[t] = False
        return False

    if extend(0):
        if not _verify_mapping(g, h, perm):
            raise MathAssertionError(f"isomorphism search returned {perm}, which is not an "
                                     f"isomorphism")
        return True, list(perm)
    return False, None
