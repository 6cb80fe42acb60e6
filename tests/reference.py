"""Reference helpers the tests compare the package against: plain
per-vertex graph code with no counterpart in the package's pipeline, and
the depth-first Krein ordering search the package's walk replaced."""

from collections import deque
from typing import Optional

import numpy as np

from drgq.connectivity import union_subconstituent
from drgq.graphs import DistanceData, Graph, connected_components


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
