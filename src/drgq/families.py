"""Deterministic constructors for the named graph families.

Vertices are k-subsets of a ground set (``subset_graph``: odd, Johnson,
complete) or words of Z_q^d adjacent along a set of translations
(``translation_graph``: Hamming, folded cube, cycle), in the lexicographic
order of those names; a Graph keeps no names.  Only ``petersen_graph`` is an
edge list.  Same parameters always produce byte-identical adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb
from typing import Iterable

import numpy as np

from .graphs import Graph, build_graph, from_sorted_pairs

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
    n = comb(ground, k)
    _check_size(n)
    # products of 0/1 incidence rows count shared elements: at most ground, so exact in float32
    incidence = np.zeros((n, ground), dtype=np.float32)
    incidence[np.arange(n).repeat(k), list(chain.from_iterable(combinations(range(ground), k)))] = 1
    pairs = []
    rows = max(1, (1 << 16) // n)  # 2^16 products per block
    for a in range(0, n, rows):
        shared = incidence[a:a + rows] @ incidence.T
        np.fill_diagonal(shared[:, a:], -1)  # a subset is not its own neighbor
        u, v = np.nonzero(shared == meet)  # row-major, so sorted
        pairs.append((u + a, v))
    return from_sorted_pairs(n, *map(np.concatenate, zip(*pairs)))


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


def translation_graph(q: int, d: int, steps: Iterable[int]) -> Graph:
    """The words of Z_q^d in lexicographic order, so vertex v is v written in
    base q, with v adjacent to v + s for each distinct nonzero step s (a word,
    named by its index as a vertex is).  The steps must be closed under
    negation, as every family's are, or the adjacency is not symmetric."""
    n = q ** d
    _check_size(n)
    place = q ** np.arange(d - 1, -1, -1)  # digit weights, the first letter most significant
    # letters in the narrowest unsigned type that holds the sum of two
    words = (np.arange(n)[:, None] // place % q).astype(np.min_scalar_type(2 * q - 2))
    step_words = words[sorted({s % n for s in steps} - {0})]
    ends = np.empty((n, len(step_words)), dtype=np.intp)
    for k, s in enumerate(step_words):  # one step at a time: no n x |S| x d array
        ends[:, k] = (words + s) % q @ place
    ends.sort(axis=1)
    return from_sorted_pairs(n, np.arange(n).repeat(len(step_words)), ends.ravel())


def hamming_graph(d: int, q: int) -> Graph:
    """Words of length d over a q-letter alphabet, adjacent at Hamming distance 1."""
    if d < 1 or q < 2:
        raise FamilySpecError(f"hamming parameters need d >= 1 and q >= 2, got d={d}, q={q}")
    return translation_graph(q, d, (a * q ** pos for pos in range(d) for a in range(1, q)))


def folded_cube(n: int) -> Graph:
    """The n-cube with antipodal vertices identified, for odd n >= 5: the words
    starting with 0, named by their last n-1 letters, adjacent along the unit steps
    and the all-ones word (flipping the first letter, then complementing)."""
    if n < 5 or n % 2 == 0:
        raise FamilySpecError(f"folded cube dimension must be odd and >= 5, got {n}")
    return translation_graph(2, n - 1, chain((1 << pos for pos in range(n - 1)), [(1 << (n - 1)) - 1]))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise FamilySpecError(f"cycle needs at least 3 vertices, got {n}")
    return translation_graph(n, 1, (1, -1))


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
