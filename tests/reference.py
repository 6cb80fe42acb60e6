"""Reference helpers the tests compare the package against: plain
per-vertex graph code with no counterpart in the package's pipeline, and
the older kernels the package replaced (the depth-first Krein ordering
search, the pair-loop subset graph and the reduceat regularity check)."""

from collections import deque
from itertools import combinations
from typing import Optional, Union

import numpy as np

from drgq.connectivity import union_subconstituent
from drgq.graphs import (DistanceData, Graph, build_graph, connected_components,
                         neighborhood_chunks)
from drgq.intersection import NotDRG


def adjacency_matrix(g: Graph) -> np.ndarray:
    """The dense 0/1 adjacency matrix, read from the neighbor tuples."""
    a = np.zeros((g.n, g.n), dtype=np.uint8)
    for u in range(g.n):
        a[u, g.neighbors[u]] = 1
    return a


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


def last_two_connected(g: Graph, dd: DistanceData, gamma: int
                       ) -> tuple[bool, list[list[int]]]:
    """Connectivity of the subgraph on the two outermost spheres about gamma,
    with its components in original vertex labels."""
    d = dd.diameter
    if d < 2:
        raise ValueError(f"needs diameter at least 2, got {d}")
    sub, verts = union_subconstituent(g, dd, gamma, d - 1, d)
    comps = connected_components(sub)
    mapped = [[verts[v] for v in comp] for comp in comps]
    return len(comps) == 1, mapped


def tail_connected(g: Graph, dd: DistanceData, gamma: int, s: int) -> bool:
    """Connectivity of the subgraph induced on all spheres from radius s outward."""
    if not 0 <= s <= dd.diameter:
        raise IndexError(f"tail start {s} outside 0..{dd.diameter}")
    sub, _ = union_subconstituent(g, dd, gamma, s, dd.diameter)
    return len(connected_components(sub)) == 1


def krein_orderings_dfs(q: np.ndarray) -> list[list[int]]:
    """Orderings whose first-slice pattern is irreducible tridiagonal, by
    backtracking: per candidate c, every permutation sigma with sigma(0) = 0
    and sigma(1) = c such that q^c on sigma is zero beyond the first
    off-diagonal and positive on it, the zero constraints pruning the path."""
    d = q.shape[0] - 1
    eps = 1e-7 * max(1.0, float(q.max()))
    out = []
    for c in range(1, d + 1):
        found: list[list[int]] = []

        def extend(path: list[int]) -> None:
            if len(path) == d + 1:
                found.append(list(path))
                return
            for y in range(1, d + 1):
                if y in path:
                    continue
                if q[c, path[-1], y] <= eps:
                    continue
                if any(q[c, path[a], y] > eps for a in range(len(path) - 1)):
                    continue
                path.append(y)
                extend(path)
                path.pop()

        if q[c, 0, c] > eps:
            extend([0, c])
        out.extend(found)
    return out


def subset_graph_pairs(ground: int, k: int, meet: int) -> Graph:
    """k-subsets of a ground set, adjacent when they share exactly ``meet``
    elements, by testing every pair of bit masks."""
    masks = [sum(1 << x for x in s) for s in combinations(range(ground), k)]
    n = len(masks)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (masks[i] & masks[j]).bit_count() == meet]
    return build_graph(n, edges)


def regularity_reduceat(g: Graph, dd: DistanceData) -> Union[NotDRG, np.ndarray]:
    """The regularity check as n x n count arrays: per pair (x, y), the
    neighbours of x nearer to y and those farther, summed over each closed
    neighbourhood by reduceat, then tested one distance class at a time.
    Returns the first violation in (h, j) order or the matrix p1[h, j] = p^h_1j."""
    d, dist = dd.diameter, dd.dist
    degree = np.array(g.degrees(), dtype=np.min_scalar_type(max(g.degrees())))
    below, above = np.empty_like(dist, dtype=degree.dtype), np.empty_like(dist, dtype=degree.dtype)
    for a, b, starts, members in neighborhood_chunks(g):
        near = dist[members]
        owner = np.repeat(dist[a:b], np.diff(starts, append=len(members)), axis=0)
        np.add.reduceat(near < owner, starts, axis=0, dtype=degree.dtype, out=below[a:b])
        np.add.reduceat(near > owner, starts, axis=0, dtype=degree.dtype, out=above[a:b])
    p1 = np.zeros((d + 1, d + 1), dtype=np.int64)
    for h in range(d + 1):
        in_class = dist == h
        lower, upper = below[in_class], above[in_class]
        if lower.size == 0:
            continue
        level = np.repeat(degree, in_class.sum(axis=1)) - lower - upper
        for j, vals in ((h - 1, lower), (h, level), (h + 1, upper)):
            if not 0 <= j <= d:
                continue
            kdiff = int(np.argmax(vals != vals[0]))
            if vals[kdiff] != vals[0]:
                (x0, y0), (x1, y1) = np.argwhere(in_class)[[0, kdiff]].tolist()
                return NotDRG(h, 1, j, (x0, y0), int(vals[0]), (x1, y1), int(vals[kdiff]))
            p1[h, j] = vals[0]
    return p1
