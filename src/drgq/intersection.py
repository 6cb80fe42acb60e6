"""Distance-regularity verification and intersection numbers.

A connected graph is distance-regular when, for every pair (x, y) at
distance h, the numbers of neighbours of x at distance h-1, h and h+1 from
y depend on h alone (Brouwer, Cohen and Neumaier, Distance-Regular Graphs,
1989, 4.1).  Each neighbour lies at one of those distances, so two exact
counts per pair, gathered over the BFS's closed-neighbourhood chunks,
decide the check: those nearer to y and those farther, the level count
being deg(x) less both; every other p^h_1j is 0.  On failure the witness
names two same-distance pairs whose counts differ.  The p^h_ij tensor then
follows by A_1 A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}, in exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import MathAssertionError
from .graphs import DistanceData, Graph, neighborhood_chunks


@dataclass
class NotDRG:
    """Witness of a distance-regularity violation.

    Pairs ``pair_a`` and ``pair_b`` are both at distance h, but they see
    different numbers of vertices at distance i from the first endpoint and
    j from the second.  The check counts neighbours only, so i = 1; the
    reported violation is the first in (h, j) order, and its pairs are the
    first pair of class h and the first one whose count differs from it, in
    row-major order.
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


@dataclass
class ClassificationFlags:
    bipartite: bool
    antipodal: bool

    @property
    def primitive(self) -> bool:
        return not self.bipartite and not self.antipodal


def check_distance_regular(g: Graph, dd: DistanceData) -> Union[IntersectionData, NotDRG]:
    """Verify the neighbour-count constancy for every (h, j); exhaustive, not sampled."""
    d, dist = dd.diameter, dd.dist
    if d == 0:
        raise ValueError("a single-vertex graph has no intersection data")
    # per pair (x, y), the neighbours of x nearer to y and those farther, in
    # the narrowest unsigned dtype that holds the largest degree
    degree = np.array(g.degrees(), dtype=np.min_scalar_type(max(g.degrees())))
    below, above = np.empty_like(dist, dtype=degree.dtype), np.empty_like(dist, dtype=degree.dtype)
    for a, b, starts, members in neighborhood_chunks(g):
        near = dist[members]
        owner = np.repeat(dist[a:b], np.diff(starts, append=len(members)), axis=0)
        np.add.reduceat(near < owner, starts, axis=0, dtype=degree.dtype, out=below[a:b])
        np.add.reduceat(near > owner, starts, axis=0, dtype=degree.dtype, out=above[a:b])
    del near, owner  # the last chunk's temporaries go before the classes are formed
    p1 = np.zeros((d + 1, d + 1), dtype=np.int64)  # p1[h, j] = p^h_1j
    for h in range(d + 1):
        in_class = dist == h
        lower, upper = below[in_class], above[in_class]
        if lower.size == 0:
            continue
        # a neighbour of x lies at distance h - 1, h or h + 1 from y; the
        # class lists its pairs row-major, so row x holds in_class[x].sum()
        level = np.repeat(degree, in_class.sum(axis=1)) - lower - upper
        for j, vals in ((h - 1, lower), (h, level), (h + 1, upper)):
            if not 0 <= j <= d:
                continue
            kdiff = int(np.argmax(vals != vals[0]))
            if vals[kdiff] != vals[0]:
                (x0, y0), (x1, y1) = np.argwhere(in_class)[[0, kdiff]].tolist()
                return NotDRG(h, 1, j, (x0, y0), int(vals[0]), (x1, y1), int(vals[kdiff]))
            p1[h, j] = vals[0]

    b = tuple(int(p1[i, i + 1]) for i in range(d))
    c = tuple(int(p1[i, i - 1]) for i in range(1, d + 1))
    # a connected graph of diameter d that passed the constancy check cannot
    # have a stalled distance partition, but check it anyway
    if any(x <= 0 for x in b) or any(x <= 0 for x in c):
        raise MathAssertionError(f"degenerate intersection array b={b} c={c}")
    # L_i[h, j] = p^h_ij is the matrix of multiplication by A_i on the basis A_j
    layers = [np.eye(d + 1, dtype=np.int64), p1]
    for i in range(1, d):
        nxt = p1 @ layers[i] - p1[i, i] * layers[i] - b[i - 1] * layers[i - 1]
        layers.append(nxt // c[i])
    p = np.stack(layers, axis=1)
    sphere_sizes = tuple(int(p[0, i, i]) for i in range(d + 1))
    return IntersectionData(d, b[0], g.n, p, b, c, sphere_sizes)


def classify(ia: IntersectionData) -> ClassificationFlags:
    """Bipartite when every a_h vanishes; antipodal when the vertices at
    distance d from x other than y are all at distance d from y, that is
    p^d_dd = k_d - 1, which makes 'equal or at distance d' an equivalence."""
    d = ia.d
    return ClassificationFlags(bipartite=not any(ia.a),
                               antipodal=int(ia.p[d, d, d]) == ia.sphere_sizes[d] - 1)
