"""Reference graph helpers the tests compare the package against: plain
per-vertex code with no counterpart in the package's pipeline."""

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
