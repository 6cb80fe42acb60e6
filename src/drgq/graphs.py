"""Core graph representation and combinatorial primitives.

Graphs are simple and undirected, with vertices 0..n-1 and adjacency kept
as sorted neighbor tuples (the padded neighbor array is derived on demand).
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

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import memory
from .errors import DisconnectedGraphError, MathAssertionError

ISO_VERTEX_CAP = 64
MAX_DISTANCE = 255  # distances are stored one byte per entry


@dataclass
class Graph:
    """Immutable simple undirected graph on the vertices 0..n-1.

    ``neighbors[v]`` is a sorted tuple of the vertices adjacent to ``v``.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def num_edges(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def degrees(self) -> list[int]:
        return [len(nb) for nb in self.neighbors]

    def edges(self) -> Iterable[tuple[int, int]]:
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors[u]
        i = bisect_left(nb, v)  # neighbor tuples are sorted
        return i < len(nb) and nb[i] == v

    def neighbor_array(self) -> np.ndarray:
        """n x max(1, maximum degree) array of neighbors, each row padded with
        its own vertex; a kernel that takes a minimum or a union over a row
        is unchanged by the padding."""
        width = max(1, max(self.degrees()))
        nbr = np.repeat(np.arange(self.n)[:, None], width, axis=1)
        for v, nb in enumerate(self.neighbors):
            nbr[v, :len(nb)] = nb
        return nbr


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
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
    return Graph(n, tuple(tuple(sorted(s)) for s in adj))


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


def neighborhood_chunks(g: Graph) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Closed neighborhoods (v, then its neighbors) as CSR row chunks
    (a, b, starts, members) of at most n entries each, so gathering an
    n-vector per entry costs (2m + n) n however the degrees are spread."""
    indptr = np.zeros(g.n + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, g.neighbors), dtype=np.intp, count=g.n) + 1, out=indptr[1:])
    nbrs = np.fromiter(chain.from_iterable(g.neighbors), dtype=np.intp, count=int(indptr[-1]) - g.n)
    indices = np.insert(nbrs, indptr[:-1] - np.arange(g.n), np.arange(g.n))  # v, then its neighbors
    chunks = []
    a = 0
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
    nxt, gathered = np.empty_like(reached), np.empty_like(reached)
    while True:
        for a, b, starts, members in chunks:
            block = np.take(reached, members, axis=0, out=gathered[:len(members)])
            np.bitwise_or.reduceat(block, starts, axis=0, out=nxt[a:b])
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
    dist, level = np.zeros((n, n), dtype=np.uint8), 0
    for level, new in enumerate(flood(g, reached), 1):
        if level > MAX_DISTANCE:
            src = int(np.flatnonzero(new.any(axis=1))[0])
            ecc = int(bfs_distances(g, src).max())
            raise ValueError(f"diameter is at least {ecc} (vertex {src} has eccentricity {ecc}); "
                             f"distances above {MAX_DISTANCE} are not supported")
        dist[np.unpackbits(new.view(np.uint8), axis=1, count=n).view(bool)] = level
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
    index = {v: i for i, v in enumerate(verts)}
    nbrs = []
    for v in verts:
        nbrs.append(tuple(index[w] for w in g.neighbors[v] if w in index))
    return InducedSubgraph(Graph(len(verts), tuple(nbrs)), tuple(verts))


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


def bipartite_double(g: Graph) -> Graph:
    """Two copies v+ (=v) and v- (=n+v); v+ is adjacent to w- iff v ~ w."""
    n = g.n
    return Graph(2 * n, tuple(tuple(n + w for w in nb) for nb in g.neighbors) + g.neighbors)


# ---------------------------------------------------------------------------
# Isomorphism testing: colour refinement of both graphs in one palette, then
# backtracking along a breadth-first order of g, each vertex tried only at
# the same-coloured neighbours of its anchor's image.  A colour means the
# same in g and h, so an isomorphism preserves it.  Intended for small
# components (census certification); refuses above the cap.
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
        queue = deque([root])
        while queue:
            u = queue.popleft()
            order.append(u)
            for w in g.neighbors[u]:
                if not placed[w]:
                    placed[w] = 1
                    anchor[w] = u
                    queue.append(w)

    perm = [-1] * g.n
    used = bytearray(h.n)

    def extend(pos: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        mapped = [perm[w] for w in g.neighbors[v] if perm[w] >= 0]
        pool = range(h.n) if anchor[v] < 0 else h.neighbors[perm[anchor[v]]]
        for t in pool:
            if used[t] or ch[t] != cg[v] or not all(h.has_edge(t, x) for x in mapped):
                continue
            # reverse direction: every used h-neighbor of t must be the image
            # of a g-neighbor of v; counting both sides enforces it
            if sum(used[x] for x in h.neighbors[t]) != len(mapped):
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
