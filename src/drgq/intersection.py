"""Distance-regularity verification and intersection numbers.

A connected graph is distance-regular when, for every pair (x, y) at
distance h, the numbers of neighbours of x at distance h-1, h and h+1 from
y depend on h alone (Brouwer, Cohen and Neumaier, Distance-Regular Graphs,
1989, 4.1).  So two exact counts per pair decide the check: the neighbours
nearer to y and those farther, the level count being k less both.  An
irregular graph fails on its degrees alone; in a k-regular one, each chunk
of closed neighbourhoods is a fixed-width block summed over its k
neighbours and tested against its classes' first pairs, with no n x n
count array.  On failure the witness names two same-distance pairs whose
counts differ.  The p^h_ij tensor then follows by
A_1 A_i = b_{i-1} A_{i-1} + a_i A_i + c_{i+1} A_{i+1}, in exact integers.
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
    d, dist, n = dd.diameter, dd.dist, g.n
    if d == 0:
        raise ValueError("a single-vertex graph has no intersection data")
    degrees = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=n)
    k, x = int(degrees[0]), int(np.argmax(degrees != degrees[0]))
    if degrees[x] != k:  # the class-0 pair (x, x) sees deg(x) neighbours farther
        return NotDRG(0, 1, 1, (0, 0), k, (x, x), int(degrees[x]))
    # per class, its first pair in row-major order and that pair's counts of
    # neighbours nearer and farther, in the narrowest unsigned dtype holding k
    ref = np.zeros((2, d + 1), dtype=np.min_scalar_type(k))
    opener, differs = {}, {}  # h -> its first pair; (h, j) -> the first pair off ref
    width = max(1, n // (k + 1))  # the rows of a chunk of at most n entries
    near, side = np.empty((width, k, n), dtype=dist.dtype), np.empty((width, k, n), dtype=bool)
    counts = np.empty((2, width, n), dtype=ref.dtype)
    for a, b, _, members in neighborhood_chunks(g):
        rows, cls = b - a, dist[a:b]
        # every closed neighbourhood has k + 1 members, v first; every index
        # taken is in range, so mode="clip" only spares take a buffered copy
        np.take(dist, members.reshape(rows, k + 1)[:, 1:], axis=0, out=near[:rows], mode="clip")
        for i, compare in enumerate((np.less, np.greater)):
            compare(near[:rows], cls[:, None], out=side[:rows])
            np.add.reduce(side[:rows].view(np.uint8), axis=1, dtype=ref.dtype, out=counts[i, :rows])
        for h in [h for h in range(d + 1) if h not in opener]:
            x, y = divmod(int(np.argmax(cls == h)), n)
            if cls[x, y] == h:  # the earliest chunk holding class h
                opener[h], ref[:, h] = (a + x, y), counts[:, x, y]
        off = counts[:, :rows] != np.take(ref, cls, axis=1, mode="clip")
        # where the nearer count agrees, the level count is off exactly where
        # the farther one is, so a class's first cell off is (h, h - 1) or (h, h)
        for shift, mask in ((-1, off[0]), (0, off.any(axis=0))):
            at = np.flatnonzero(mask)
            classes, first = np.unique(cls.flat[at], return_index=True)
            for h, p in zip(classes.tolist(), at[first].tolist()):
                differs.setdefault((h, h + shift), (a + p // n, p % n))
    if differs:
        h, j = min(differs)
        pair_a, pair_b = opener[h], differs[h, j]
        count_a, count_b = (int(np.count_nonzero(dist[list(g.neighbors[x]), y] == j))
                            for x, y in (pair_a, pair_b))
        return NotDRG(h, 1, j, pair_a, count_a, pair_b, count_b)
    nearer, farther = ref.astype(np.int64)  # c_h and b_h
    b, c = tuple(farther[:-1].tolist()), tuple(nearer[1:].tolist())
    # a connected graph of diameter d that passed the constancy check cannot
    # have a stalled distance partition, but check it anyway
    if any(x <= 0 for x in b) or any(x <= 0 for x in c):
        raise MathAssertionError(f"degenerate intersection array b={b} c={c}")
    # p1[h, j] = p^h_1j
    p1 = np.diag(nearer[1:], -1) + np.diag(k - nearer - farther) + np.diag(farther[:-1], 1)
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
