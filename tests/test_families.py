"""Family constructors: counts, degrees, diameters, determinism, regularity."""

import tracemalloc
from itertools import combinations, product

import pytest

from drgq.catalogue import CATALOGUE
from drgq.families import (FamilySpec, FamilySpecError, build_family,
                           complete_graph, cycle_graph, folded_cube,
                           hamming_graph, johnson_graph, odd_graph,
                           petersen_graph)
from drgq.graphs import are_isomorphic, distance_data
from drgq.intersection import IntersectionData, check_distance_regular
from reference import (cycle_graph_edges, folded_cube_words, hamming_graph_words,
                       neighbor_lists, subset_graph_pairs)


def profile(g):
    dd = distance_data(g)
    degs = set(g.degrees())
    assert len(degs) == 1
    return g.n, degs.pop(), dd.diameter


@pytest.mark.parametrize("spec,expected", [
    ("odd:2", (10, 3, 2)),
    ("odd:3", (35, 4, 3)),
    ("odd:4", (126, 5, 4)),
    ("johnson:6,3", (20, 9, 3)),
    ("johnson:7,3", (35, 12, 3)),
    ("hamming:3,2", (8, 3, 3)),
    ("hamming:3,3", (27, 6, 3)),
    ("folded_cube:5", (16, 5, 2)),
    ("folded_cube:7", (64, 7, 3)),
    ("cycle:6", (6, 2, 3)),
    ("complete:4", (4, 3, 1)),
    ("petersen", (10, 3, 2)),
])
def test_order_valency_diameter(spec, expected):
    assert profile(build_family(spec)) == expected


@pytest.mark.parametrize("spec", [
    "odd:3", "johnson:6,3", "hamming:3,2", "hamming:3,3", "folded_cube:5",
    "folded_cube:7", "cycle:6", "complete:4", "petersen",
])
def test_every_family_is_distance_regular(spec):
    g = build_family(spec)
    result = check_distance_regular(g, distance_data(g))
    assert isinstance(result, IntersectionData)


def test_johnson_of_one_subsets_is_complete():
    ok, _ = are_isomorphic(johnson_graph(4, 1), complete_graph(4))
    assert ok


def test_hamming_length_one_is_complete():
    ok, _ = are_isomorphic(hamming_graph(1, 5), complete_graph(5))
    assert ok


def test_petersen_is_odd_2():
    ok, perm = are_isomorphic(petersen_graph(), odd_graph(2))
    assert ok and perm is not None


def test_odd_and_johnson_share_vertex_count():
    for d in (2, 3, 4):
        assert odd_graph(d).n == johnson_graph(2 * d + 1, d).n


def test_odd_outer_sphere_matches_johnson_mid_sphere():
    # with the shared lexicographic subset order, the vertices farthest
    # from a base vertex under disjointness adjacency are exactly those at
    # the lemma's middle distance in the corresponding intersection graph
    for d in (3, 4, 5):
        odd = odd_graph(d)
        johnson = johnson_graph(2 * d + 1, d)
        subsets = [set(s) for s in combinations(range(2 * d + 1), d)]
        assert odd.n == johnson.n == len(subsets)
        for i, a in enumerate(subsets):  # vertex i of both graphs is subsets[i]
            assert odd.neighbors(i).tolist() == [j for j, b in enumerate(subsets) if not a & b]
            assert johnson.neighbors(i).tolist() == [
                j for j, b in enumerate(subsets) if len(a & b) == d - 1]
        dd_odd = distance_data(odd)
        dd_johnson = distance_data(johnson)
        m = d // 2 if d % 2 == 0 else (d + 1) // 2
        for gamma in (0, odd.n // 2, odd.n - 1):
            far = set(dd_odd.sphere(gamma, d).tolist())
            mid = set(dd_johnson.sphere(gamma, m).tolist())
            assert far == mid


# (ground, k, meet) of each family built as a subset graph
SUBSET_PARAMS = {"odd": lambda d: (2 * d + 1, d, 0), "johnson": lambda n, k: (n, k, k - 1),
                 "complete": lambda n: (n, 1, 0)}


@pytest.mark.parametrize("spec", [s for s in CATALOGUE if s.split(":")[0] in SUBSET_PARAMS]
                         + ["complete:5", "johnson:12,6"])
def test_subset_graph_matches_pair_loop(spec):
    fs = FamilySpec.parse(spec)
    g, pairs = fs.build(), subset_graph_pairs(*SUBSET_PARAMS[fs.kind](*fs.params))
    assert g.n == pairs.n and neighbor_lists(g) == neighbor_lists(pairs)


# every Hamming graph on at most 4,096 words, up to the 64-letter alphabet of
# length 2 (the word loop builds K_q in q^2 steps, so longer alphabets are left out)
TRANSLATION_SPECS = ([f"hamming:{d},{q}" for d in range(1, 13) for q in range(2, 65) if q ** d <= 4096]
                     + [f"folded_cube:{n}" for n in range(5, 14, 2)]
                     + [f"cycle:{n}" for n in (3, 4, 40, 201, 510)])
WORD_LOOPS = {"hamming": hamming_graph_words, "folded_cube": folded_cube_words,
              "cycle": cycle_graph_edges}


@pytest.mark.parametrize("spec", TRANSLATION_SPECS)
def test_translation_families_match_word_loops(spec):
    fs = FamilySpec.parse(spec)
    assert neighbor_lists(fs.build()) == neighbor_lists(WORD_LOOPS[fs.kind](*fs.params))


def test_folded_cube_labels_and_determinism():
    g1 = folded_cube(5)
    g2 = folded_cube(5)
    assert neighbor_lists(g1) == neighbor_lists(g2)
    # vertex i is the i-th word starting with 0, adjacent to the words at
    # Hamming distance 1 and to those whose complement is at distance 1
    words = [w for w in product((0, 1), repeat=5) if w[0] == 0]
    assert g1.n == len(words)
    for i, w in enumerate(words):
        assert g1.neighbors(i).tolist() == [
            j for j, x in enumerate(words) if sum(a != b for a, b in zip(w, x)) in (1, 4)]


def test_constructors_deterministic():
    for spec in ("odd:3", "johnson:6,3", "hamming:3,3", "petersen"):
        assert neighbor_lists(build_family(spec)) == neighbor_lists(build_family(spec))


@pytest.mark.parametrize("call,err", [
    (lambda: odd_graph(1), "at least 2"),
    (lambda: johnson_graph(3, 3), "n > k"),
    (lambda: hamming_graph(0, 2), "d >= 1"),
    (lambda: hamming_graph(3, 1), "q >= 2"),
    (lambda: folded_cube(6), "odd"),
    (lambda: folded_cube(3), "odd"),
    (lambda: cycle_graph(2), "at least 3"),
    (lambda: complete_graph(1), "at least 2"),
    (lambda: odd_graph(11), "ceiling"),
])
def test_parameter_validation(call, err):
    with pytest.raises(FamilySpecError, match=err):
        call()


@pytest.mark.parametrize("call", [
    lambda: hamming_graph(40, 2),
    lambda: folded_cube(41),
    lambda: cycle_graph(10**12),
], ids=["hamming", "folded_cube", "cycle"])
def test_translation_families_refuse_above_ceiling(call):
    with pytest.raises(FamilySpecError, match="ceiling"):
        call()


def test_built_graph_holds_only_its_arrays():
    # the CSR arrays are the only adjacency form; a second one, such as tuples of
    # Python ints at about 43 bytes per entry, would hold five times as much
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = hamming_graph(16, 2)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * (g.indptr.nbytes + g.indices.nbytes)


class TestFamilySpec:
    def test_parse_and_str(self):
        for text in ("odd:3", "johnson:6,3", "hamming:3,2", "folded_cube:7",
                     "cycle:6", "complete:4", "petersen"):
            assert str(FamilySpec.parse(text)) == text

    def test_unknown_kind(self):
        with pytest.raises(FamilySpecError, match="unknown family"):
            FamilySpec.parse("moebius:7")

    def test_arity_mismatch(self):
        with pytest.raises(FamilySpecError, match="parameter"):
            FamilySpec.parse("odd:3,4")
        with pytest.raises(FamilySpecError, match="parameter"):
            FamilySpec.parse("petersen:5")

    def test_non_integer(self):
        with pytest.raises(FamilySpecError, match="non-integer"):
            FamilySpec.parse("odd:x")
