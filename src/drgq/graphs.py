"""Core graph representation and combinatorial primitives.

Graphs are simple and undirected, with vertices 0..n-1 and adjacency kept
as sorted neighbor tuples (dense matrices are derived on demand).  All-pairs
distances come from per-source BFS and are stored one byte per entry, which
keeps the largest catalogue members cheap to hold in memory; a graph of
diameter above 255 is refused rather than wrapped.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

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
    dist = np.full(g.n, -1, dtype=np.int16)
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
    """All-pairs distances plus the derived distance-class matrices.

    ``dist`` is symmetric with zero diagonal, one byte per entry.
    ``distance_matrices[h]`` is the 0/1 matrix of pairs at distance h;
    the matrices are entrywise disjoint and sum to the all-ones matrix.
    """

    dist: np.ndarray
    diameter: int
    distance_matrices: list[np.ndarray] = field(repr=False)

    def sphere(self, gamma: int, i: int) -> np.ndarray:
        """Vertex indices at distance exactly i from gamma."""
        return np.nonzero(self.dist[gamma] == i)[0]

    def sphere_sizes(self, gamma: int) -> list[int]:
        return [int((self.dist[gamma] == i).sum()) for i in range(self.diameter + 1)]


def distance_data(g: Graph) -> DistanceData:
    """All-pairs BFS.

    Raises DisconnectedGraphError naming an unreachable pair, and ValueError
    as soon as some distance exceeds MAX_DISTANCE, the largest one byte holds.
    """
    n = g.n
    dist = np.zeros((n, n), dtype=np.uint8)
    for src in range(n):
        row = bfs_distances(g, src)
        unreachable = np.nonzero(row < 0)[0]
        if unreachable.size:
            raise DisconnectedGraphError(src, int(unreachable[0]))
        ecc = int(row.max())
        if ecc > MAX_DISTANCE:
            raise ValueError(f"diameter is at least {ecc} (vertex {src} has eccentricity {ecc}); "
                             f"distances above {MAX_DISTANCE} are not supported")
        dist[src] = row
    diameter = int(dist.max())
    mats = [(dist == h).astype(np.uint8) for h in range(diameter + 1)]
    return DistanceData(dist, diameter, mats)


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


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


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
# Isomorphism testing: distance-partition refinement, then backtracking.
# Intended for small components (census certification); refuses above the cap.
# ---------------------------------------------------------------------------

def _distance_profiles(g: Graph) -> list[tuple]:
    """Per-vertex invariant: histogram of BFS distances (with an unreachable bucket)."""
    profiles = []
    for v in range(g.n):
        row = bfs_distances(g, v)
        hist: dict[int, int] = {}
        for dv in row.tolist():
            hist[dv] = hist.get(dv, 0) + 1
        profiles.append(tuple(sorted(hist.items())))
    return profiles


def _refine_colors(g: Graph, init: list) -> list[int]:
    """Iterative neighborhood color refinement until the partition stabilizes."""
    palette: dict = {}
    colors = []
    for key in init:
        if key not in palette:
            palette[key] = len(palette)
        colors.append(palette[key])
    while True:
        sigs = []
        for v in range(g.n):
            sigs.append((colors[v], tuple(sorted(colors[w] for w in g.neighbors[v]))))
        palette = {}
        new = []
        for key in sigs:
            if key not in palette:
                palette[key] = len(palette)
            new.append(palette[key])
        if new == colors:
            return colors
        colors = new


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
    if g.n != h.n or g.num_edges != h.num_edges:
        return False, None
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False, None

    cg = _refine_colors(g, [(d, p) for d, p in zip(g.degrees(), _distance_profiles(g))])
    ch = _refine_colors(h, [(d, p) for d, p in zip(h.degrees(), _distance_profiles(h))])
    # refined color classes must match as multisets; relabel h's colors to g's
    # by matching class signatures (degree histograms within each class)
    def class_sig(graph, colors, c):
        members = [v for v in range(graph.n) if colors[v] == c]
        return (len(members), tuple(sorted(graph.degree(v) for v in members)))

    gsig = sorted(class_sig(g, cg, c) for c in set(cg))
    hsig = sorted(class_sig(h, ch, c) for c in set(ch))
    if gsig != hsig:
        return False, None

    # candidate targets per g-vertex: h-vertices whose refined class looks alike
    hclasses: dict = {}
    for v in range(h.n):
        hclasses.setdefault(class_sig(h, ch, ch[v]), []).append(v)
    candidates = [hclasses.get(class_sig(g, cg, cg[v]), []) for v in range(g.n)]
    if any(not c for c in candidates):
        return False, None

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
