"""Distance-regularity verification and intersection numbers.

The constancy property behind the numbers p^h_ij is checked exhaustively:
the (i,j) product of distance-class matrices counts, at entry (x,y), the
vertices at distance i from x and j from y, so a graph is distance-regular
exactly when each such product is constant on every distance class.  On
failure the witness names two same-distance pairs whose counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import MathAssertionError
from .graphs import DistanceData, Graph, two_coloring


@dataclass
class NotDRG:
    """Witness of a distance-regularity violation.

    Pairs ``pair_a`` and ``pair_b`` are both at distance h, but they see
    different numbers of vertices at distance i from the first endpoint and
    j from the second.  Reported violation is the lexicographically first
    in (h, i, j, pair) order.
    """

    h: int
    i: int
    j: int
    pair_a: tuple[int, int]
    count_a: int
    pair_b: tuple[int, int]
    count_b: int

    def __str__(self) -> str:
        return (f"not distance-regular: pairs {self.pair_a} and {self.pair_b} are both at "
                f"distance {self.h} but see {self.count_a} vs {self.count_b} vertices at "
                f"distances ({self.i},{self.j}) from their endpoints")


@dataclass
class IntersectionData:
    """The full p^h_ij tensor plus the intersection array it collapses to."""

    d: int
    k: int
    n: int
    p: np.ndarray            # shape (d+1, d+1, d+1), p[h, i, j]
    b: tuple[int, ...]       # b_0 .. b_{d-1}
    c: tuple[int, ...]       # c_1 .. c_d
    sphere_sizes: tuple[int, ...]  # k_0 .. k_d

    @property
    def a(self) -> tuple[int, ...]:
        bb = self.b + (0,)
        cc = (0,) + self.c
        return tuple(self.k - bb[i] - cc[i] for i in range(self.d + 1))

    def intersection_number(self, h: int, i: int, j: int) -> int:
        for name, idx in (("h", h), ("i", i), ("j", j)):
            if not 0 <= idx <= self.d:
                raise IndexError(f"index {name}={idx} outside 0..{self.d}")
        return int(self.p[h, i, j])

    def intersection_array(self) -> str:
        return "{" + ",".join(map(str, self.b)) + ";" + ",".join(map(str, self.c)) + "}"


@dataclass
class ClassificationFlags:
    bipartite: bool
    antipodal: bool

    @property
    def primitive(self) -> bool:
        return not self.bipartite and not self.antipodal


def check_distance_regular(g: Graph, dd: DistanceData) -> Union[IntersectionData, NotDRG]:
    """Verify the pair-count constancy for every (h, i, j); exhaustive, not sampled."""
    d = dd.diameter
    n = g.n
    if d == 0:
        raise ValueError("a single-vertex graph has no intersection data")
    masks = [m.astype(bool) for m in dd.distance_matrices]
    amats = [m.astype(np.float64) for m in dd.distance_matrices]

    p = np.zeros((d + 1, d + 1, d + 1), dtype=np.int64)
    first = None  # the smallest violating (h, i, j), i <= j, and its counts on class h
    for i in range(d + 1):
        for j in range(i, d + 1):
            counts = amats[i] @ amats[j]  # entry (x,y) = |distance-i ball around x hit by distance-j around y|
            for h in range(d + 1):
                vals = counts[masks[h]]
                if vals.size == 0:
                    continue
                lo, hi = vals.min(), vals.max()
                if lo == hi:
                    p[h, i, j] = p[h, j, i] = int(lo)
                elif first is None or (h, i, j) < first[0]:
                    first = ((h, i, j), vals)

    if first is not None:
        (h, i, j), vals = first
        pairs = np.argwhere(masks[h])  # row-major order = lexicographic pairs = order of vals
        kdiff = int(np.nonzero(vals != vals[0])[0][0])
        (x0, y0), (x1, y1) = pairs[[0, kdiff]].tolist()
        return NotDRG(h, i, j, (x0, y0), int(vals[0]), (x1, y1), int(vals[kdiff]))

    k = int(p[0, 1, 1])
    sphere_sizes = tuple(int(p[0, i, i]) for i in range(d + 1))
    b = tuple(int(p[i, 1, i + 1]) for i in range(d))
    c = tuple(int(p[i, 1, i - 1]) for i in range(1, d + 1))
    # a connected graph of diameter d that passed the constancy check cannot
    # have a stalled distance partition, but check it anyway
    if any(x <= 0 for x in b) or any(x <= 0 for x in c):
        raise MathAssertionError(f"degenerate intersection array b={b} c={c}")
    return IntersectionData(d, k, n, p, b, c, sphere_sizes)


def is_antipodal(dd: DistanceData) -> bool:
    """Whether 'equal or at maximal distance' is an equivalence relation."""
    d = dd.diameter
    dist = dd.dist
    for x in range(dist.shape[0]):
        far = np.nonzero(dist[x] == d)[0]
        if far.size <= 1:
            continue
        block = dist[np.ix_(far, far)]
        off = block[~np.eye(far.size, dtype=bool)]
        if off.size and (off != d).any():
            return False
    return True


def classify(g: Graph, dd: DistanceData) -> ClassificationFlags:
    """Bipartite via 2-coloring, antipodal via the executable relation test."""
    return ClassificationFlags(bipartite=two_coloring(g) is not None,
                               antipodal=is_antipodal(dd))
