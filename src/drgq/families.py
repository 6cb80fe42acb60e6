"""Deterministic constructors for the named graph families.

Every constructor orders vertices by the lexicographic order of their
natural names (subsets, words) and then works with integer indices only;
a Graph keeps no names.  Same parameters always produce byte-identical
adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .graphs import Graph, build_graph

MAX_VERTICES = 100_000


class FamilySpecError(ValueError):
    """Unparseable or invalid family specification."""


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus integer parameters, e.g. odd:3 or johnson:6,3."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise FamilySpecError(f"unknown family {self.kind!r} (expected one of {', '.join(FAMILY_KINDS)})")
        arity = FAMILY_KINDS[self.kind][0]
        if len(self.params) != arity:
            raise FamilySpecError(f"{self.kind} takes {arity} parameter(s), got {len(self.params)}")

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        text = text.strip()
        if ":" in text:
            kind, _, rest = text.partition(":")
            try:
                params = tuple(int(p) for p in rest.split(","))
            except ValueError:
                raise FamilySpecError(f"non-integer parameter in {text!r}") from None
        else:
            kind, params = text, ()
        return cls(kind, params)

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"

    def build(self) -> Graph:
        return FAMILY_KINDS[self.kind][1](*self.params)


def build_family(text: str) -> Graph:
    return FamilySpec.parse(text).build()


def _check_size(n_vertices: int) -> None:
    if n_vertices > MAX_VERTICES:
        raise FamilySpecError(f"family would have {n_vertices} vertices, above the {MAX_VERTICES} ceiling")


def subset_graph(ground: int, k: int, meet: int) -> Graph:
    """k-subsets of a ground set, adjacent when they share exactly ``meet`` elements."""
    _check_size(comb(ground, k))
    masks = [sum(1 << x for x in s) for s in combinations(range(ground), k)]
    n = len(masks)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (masks[i] & masks[j]).bit_count() == meet]
    return build_graph(n, edges)


def odd_graph(d: int) -> Graph:
    """d-subsets of a (2d+1)-set, adjacent when disjoint; diameter d, valency d+1."""
    if d < 2:
        raise FamilySpecError(f"odd graph parameter must be at least 2, got {d}")
    return subset_graph(2 * d + 1, d, 0)


def johnson_graph(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when the intersection has size k-1."""
    if not n > k >= 1:
        raise FamilySpecError(f"johnson parameters need n > k >= 1, got n={n}, k={k}")
    return subset_graph(n, k, k - 1)


def hamming_graph(d: int, q: int) -> Graph:
    """Words of length d over a q-letter alphabet, adjacent at Hamming distance 1."""
    if d < 1 or q < 2:
        raise FamilySpecError(f"hamming parameters need d >= 1 and q >= 2, got d={d}, q={q}")
    _check_size(q ** d)
    words = list(product(range(q), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    edges = []
    for i, w in enumerate(words):
        for pos in range(d):
            for a in range(w[pos] + 1, q):  # only "upward" changes, avoids duplicates
                other = w[:pos] + (a,) + w[pos + 1:]
                edges.append((i, index[other]))
    return build_graph(len(words), edges)


def folded_cube(n: int) -> Graph:
    """The n-cube with antipodal vertices identified, for odd n >= 5.

    One word per antipodal pair is kept (the one starting with 0); edges are
    the Hamming-distance-1 pairs plus the distance-(n-1) pairs that fold onto
    the removed copies.
    """
    if n < 5 or n % 2 == 0:
        raise FamilySpecError(f"folded cube dimension must be odd and >= 5, got {n}")
    _check_size(2 ** (n - 1))
    words = [w for w in product((0, 1), repeat=n) if w[0] == 0]
    index = {w: i for i, w in enumerate(words)}
    full = (1,) * n
    edges = set()
    for i, w in enumerate(words):
        for pos in range(n):
            other = w[:pos] + (1 - w[pos],) + w[pos + 1:]
            if other[0] == 1:
                other = tuple(f - c for f, c in zip(full, other))
            j = index[other]
            if i < j:
                edges.add((i, j))
    return build_graph(len(words), sorted(edges))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise FamilySpecError(f"cycle needs at least 3 vertices, got {n}")
    _check_size(n)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return build_graph(n, edges)


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise FamilySpecError(f"complete graph needs at least 2 vertices, got {n}")
    return subset_graph(n, 1, 0)


def petersen_graph() -> Graph:
    """Classic outer-pentagon / inner-pentagram construction."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph(10, edges)


# kind -> (parameter count, builder)
FAMILY_KINDS = {
    "odd": (1, odd_graph),
    "johnson": (2, johnson_graph),
    "hamming": (2, hamming_graph),
    "folded_cube": (1, folded_cube),
    "cycle": (1, cycle_graph),
    "complete": (1, complete_graph),
    "petersen": (0, petersen_graph),
}
