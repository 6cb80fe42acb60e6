"""Distance-regularity checking, the p-tensor, and classification flags."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from drgq.catalogue import CATALOGUE
from drgq.errors import DisconnectedGraphError, MathAssertionError
from drgq.families import (build_family, complete_graph, cycle_graph,
                           hamming_graph, odd_graph, petersen_graph)
from drgq.graphs import DistanceData, build_graph, distance_data
from drgq.intersection import (IntersectionData, NotDRG, check_distance_regular,
                               classify)
from reference import regularity_reduceat


def analyze(g):
    dd = distance_data(g)
    return dd, check_distance_regular(g, dd)


def brute_force_count(dd, x, y, i, j):
    """Definition-level oracle for one pair: count common sphere members."""
    return int(np.sum((dd.dist[x] == i) & (dd.dist[y] == j)))


class TestCheckDistanceRegular:
    def test_petersen_array(self):
        _, ia = analyze(petersen_graph())
        assert isinstance(ia, IntersectionData)
        assert (ia.b, ia.c) == ((3, 2), (1, 1))
        assert ia.d == 2 and ia.k == 3 and ia.n == 10

    def test_cycle6_array(self):
        _, ia = analyze(cycle_graph(6))
        assert (ia.b, ia.c) == ((2, 1, 1), (1, 1, 2))

    def test_path_rejected_with_degree_witness(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        dd, res = analyze(g)
        assert isinstance(res, NotDRG)
        # irregularity shows up as a diagonal-count mismatch
        assert res.h == 0 and (res.i, res.j) == (1, 1)
        assert {res.count_a, res.count_b} == {1, 2}
        # witness is sound: re-count from the definition
        assert brute_force_count(dd, *res.pair_a, res.i, res.j) == res.count_a
        assert brute_force_count(dd, *res.pair_b, res.i, res.j) == res.count_b

    def test_regular_but_not_drg(self):
        # 3-regular prism (C3 x K2) is vertex-transitive yet not distance-regular
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                            (0, 3), (1, 4), (2, 5)])
        dd, res = analyze(g)
        assert isinstance(res, NotDRG)
        assert brute_force_count(dd, *res.pair_a, res.i, res.j) == res.count_a
        assert brute_force_count(dd, *res.pair_b, res.i, res.j) == res.count_b
        assert res.count_a != res.count_b

    def test_degenerate_array_raises(self):
        # distances that claim both vertices of K2 lie at distance 2 pass the
        # constancy check but give b_0 = 0, which no connected graph has
        dist = np.array([[0, 2], [2, 0]], dtype=np.uint8)
        dd = DistanceData(dist, 2)
        with pytest.raises(MathAssertionError, match="degenerate"):
            check_distance_regular(complete_graph(2), dd)

    @pytest.mark.parametrize("spec", CATALOGUE + ("hamming:8,2",))
    def test_tensor_matches_definition_on_sampled_pairs(self, spec):
        g = build_family(spec)
        dd, ia = analyze(g)
        rng = random.Random(5)
        for _ in range(50):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            h = int(dd.dist[x, y])
            i, j = rng.randint(0, ia.d), rng.randint(0, ia.d)
            assert ia.intersection_number(h, i, j) == brute_force_count(dd, x, y, i, j)


def edge_switched(g, rnd, switches):
    """g after ``switches`` degree-preserving swaps {a,b},{c,e} -> {a,e},{c,b}."""
    edges = set(g.edges())
    for _ in range(switches):
        (a, b), (c, e) = rnd.sample(sorted(edges), 2)
        if len({a, b, c, e}) < 4 or (min(a, e), max(a, e)) in edges \
                or (min(c, b), max(c, b)) in edges:
            continue
        edges -= {(a, b), (c, e)}
        edges |= {(min(a, e), max(a, e)), (min(c, b), max(c, b))}
    return build_graph(g.n, edges)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.sampled_from(("petersen", "cycle:6", "hamming:3,2", "johnson:6,3",
                        "folded_cube:5", "odd:3")),
       st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_rejection_witness_is_first_neighbour_count(spec, switches, rnd):
    g = edge_switched(build_family(spec), rnd, switches)
    try:
        dd, res = analyze(g)
    except DisconnectedGraphError:
        assume(False)
    assume(isinstance(res, NotDRG))
    assert res.i == 1 and res.count_a != res.count_b
    assert dd.dist[res.pair_a] == dd.dist[res.pair_b] == res.h
    assert brute_force_count(dd, *res.pair_a, 1, res.j) == res.count_a
    assert brute_force_count(dd, *res.pair_b, 1, res.j) == res.count_b
    # pair_a opens class h and pair_b is its first pair, row-major, to differ
    pairs = [tuple(p) for p in np.argwhere(dd.dist == res.h).tolist()]
    assert pairs[0] == res.pair_a
    before = pairs[:pairs.index(res.pair_b)]
    assert all(brute_force_count(dd, x, y, 1, res.j) == res.count_a for x, y in before)
    # no smaller (h, 1, j) cell is violated
    for h in range(res.h + 1):
        cls = np.argwhere(dd.dist == h).tolist()
        for j in range(dd.diameter + 1 if h < res.h else res.j):
            assert len({brute_force_count(dd, x, y, 1, j) for x, y in cls}) == 1


def dense_reference(g, dd):
    """The check as dense products: entry (x, y) of A A_j counts the
    neighbours of x at distance j from y, and the first (h, j) whose counts
    are not constant on class h, in row-major pair order, is the witness.
    A passing graph gets its full tensor from the products A_i A_j."""
    d = dd.diameter
    classes = [(dd.dist == h).astype(np.int64) for h in range(d + 1)]
    for h in range(d + 1):
        pairs = np.argwhere(classes[h])
        for j in range(d + 1):
            vals = (classes[1] @ classes[j])[classes[h] == 1]
            if (vals != vals[0]).any():
                kdiff = int(np.argmax(vals != vals[0]))
                return NotDRG(h, 1, j, tuple(pairs[0].tolist()), int(vals[0]),
                              tuple(pairs[kdiff].tolist()), int(vals[kdiff]))
    p = np.zeros((d + 1,) * 3, dtype=np.int64)
    for i in range(d + 1):
        for j in range(d + 1):
            product = classes[i] @ classes[j]
            for h in range(d + 1):
                vals = product[classes[h] == 1]
                assert (vals == vals[0]).all()
                p[h, i, j] = vals[0]
    return p


def tree_with_chords(n, chords, rnd):
    edges = [(rnd.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rnd.sample(range(n), 2)) for _ in range(chords if n > 1 else 0)]
    return build_graph(n, edges)


def wheel(rim):
    """Hub 0 on a rim cycle 1..rim: the hub's closed neighbourhood, n
    entries, fills a chunk alone."""
    return build_graph(rim + 1, [(0, v) for v in range(1, rim + 1)]
                       + [(v, v % rim + 1) for v in range(1, rim + 1)])


def star(leaves):
    return build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def shuffled_path(n, rnd):
    """A path under a random labelling, so its edges cross chunk boundaries."""
    order = list(range(n))
    rnd.shuffle(order)
    return build_graph(n, list(zip(order, order[1:])))


def assert_matches_dense_reference(g):
    dd, res = analyze(g)
    ref = dense_reference(g, dd)
    if isinstance(ref, NotDRG):
        assert res == ref
    else:
        assert isinstance(res, IntersectionData) and (res.p == ref).all()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(("tree", "wheel", "star", "path")), st.integers(min_value=2, max_value=40),
       st.integers(min_value=0, max_value=6), st.randoms(use_true_random=False))
def test_counts_match_dense_products_on_irregular_graphs(kind, n, chords, rnd):
    g = {"tree": lambda: tree_with_chords(n, chords, rnd), "wheel": lambda: wheel(max(3, n)),
         "star": lambda: star(n), "path": lambda: shuffled_path(n, rnd)}[kind]()
    assert_matches_dense_reference(g)


@pytest.mark.parametrize("g", [wheel(4), wheel(39), wheel(300), star(200), cycle_graph(9),
                               petersen_graph()],
                         ids=["wheel5", "wheel40", "wheel301", "star200", "cycle9", "petersen"])
def test_counts_match_dense_products(g):
    # the wheel of 301 vertices has a hub of degree 300, so its counts are uint16
    assert_matches_dense_reference(g)


def circulant(n, k):
    """The k-regular circulant on n vertices (n k even): v is joined to the
    k // 2 nearest vertices on each side, and to v + n / 2 when k is odd."""
    steps = list(range(1, k // 2 + 1)) + ([n // 2] if k % 2 else [])
    return build_graph(n, [(v, (v + s) % n) for v in range(n) for s in steps])


def assert_matches_both_oracles(g):
    """The check against the dense products and the reduceat kernel: the
    same witness, or the same tensor (the kernel gives its p^h_1j slice)."""
    try:
        dd, res = analyze(g)
    except DisconnectedGraphError:
        assume(False)
    dense, kernel = dense_reference(g, dd), regularity_reduceat(g, dd)
    if isinstance(dense, NotDRG):
        assert res == dense == kernel
    else:
        assert isinstance(res, IntersectionData)
        assert (res.p == dense).all() and (res.p[:, 1, :] == kernel).all()


# n = 14, 13 and 22 are not multiples of k + 1, so the last chunk is short
@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=1, max_value=50),
       st.integers(min_value=0, max_value=40), st.randoms(use_true_random=False))
@example(3, 10, 0, random.Random(0))
@example(4, 8, 30, random.Random(1))
@example(5, 16, 30, random.Random(2))
def test_check_matches_oracles_on_random_regular_graphs(k, extra, switches, rnd):
    n = k + 1 + extra
    n += n * k % 2
    assert_matches_both_oracles(edge_switched(circulant(n, k), rnd, switches))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(("hamming:4,2", "hamming:3,3", "johnson:7,3", "johnson:8,3", "odd:4",
                        "folded_cube:7")),
       st.integers(min_value=0, max_value=6), st.randoms(use_true_random=False))
def test_check_matches_oracles_on_edge_switched_families(spec, switches, rnd):
    assert_matches_both_oracles(edge_switched(build_family(spec), rnd, switches))


def cocktail_party(n):
    """K_n less a perfect matching, v matched with v + n / 2."""
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if v != u + n // 2])


def test_cocktail_party_counts_are_uint16():
    # k = 298 > 255, so the counts are uint16
    _, ia = analyze(cocktail_party(300))
    assert (ia.b, ia.c, ia.sphere_sizes) == ((298, 1), (1, 298), (1, 298, 1))
    assert_matches_both_oracles(cocktail_party(300))


def test_cycle_complement_rejected_with_uint16_counts():
    # the complement of C_300 is 297-regular of diameter 2 but not strongly
    # regular: non-adjacent pairs two steps apart on the cycle share more
    g = build_graph(300, [(u, v) for u in range(300) for v in range(u + 2, 300)
                          if (u, v) != (0, 299)])
    _, res = analyze(g)
    assert isinstance(res, NotDRG) and res.h > 0
    assert_matches_both_oracles(g)


def test_check_peak_on_johnson_12_6():
    g = build_family("johnson:12,6")
    dd = distance_data(g)
    tracemalloc.start()
    try:
        check_distance_regular(g, dd)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_700_000


class TestIntersectionData:
    def test_valency_is_p011(self):
        for spec in ("petersen", "odd:3", "hamming:3,2"):
            g = build_family(spec)
            _, ia = analyze(g)
            assert ia.intersection_number(0, 1, 1) == ia.k == len(g.neighbors(0))

    def test_triangle_violations_vanish(self):
        _, ia = analyze(odd_graph(3))
        for h in range(ia.d + 1):
            for i in range(ia.d + 1):
                for j in range(ia.d + 1):
                    if abs(i - j) > h or i + j < h:
                        assert ia.intersection_number(h, i, j) == 0

    def test_odd_graph_inner_p1h_values(self):
        for d in (3, 4):
            _, ia = analyze(odd_graph(d))
            for h in range(1, d):
                assert ia.intersection_number(h, 1, h) == 0
            assert ia.intersection_number(d, 1, d) == (d + 2) // 2

    def test_index_out_of_range(self):
        _, ia = analyze(petersen_graph())
        with pytest.raises(IndexError):
            ia.intersection_number(0, 3, 0)

    def test_symmetry_identity(self):
        # k_h p^h_ij = k_i p^i_hj for every index triple
        for spec in ("petersen", "cycle:6", "odd:3", "hamming:3,3"):
            _, ia = analyze(build_family(spec))
            ks = ia.sphere_sizes
            for h in range(ia.d + 1):
                for i in range(ia.d + 1):
                    for j in range(ia.d + 1):
                        assert ks[h] * ia.p[h, i, j] == ks[i] * ia.p[i, h, j]

    def test_row_sums_give_sphere_sizes(self):
        _, ia = analyze(build_family("folded_cube:5"))
        for h in range(ia.d + 1):
            for i in range(ia.d + 1):
                assert ia.p[h, i, :].sum() == ia.sphere_sizes[i]

    def test_array_consistency(self):
        _, ia = analyze(cycle_graph(6))
        assert ia.b == (2, 1, 1) and ia.c == (1, 1, 2)
        assert ia.a == (0, 0, 0, 0)
        assert all(x > 0 for x in ia.b) and all(x > 0 for x in ia.c)


def reference_flags(g, dd):
    """Bipartite by the parity 2-colouring from vertex 0; antipodal when the
    relation 'equal or at distance d' is transitive."""
    parity = dd.dist[0] % 2
    bipartite = all(parity[u] != parity[v] for u, v in g.edges())
    rel = ((dd.dist == 0) | (dd.dist == dd.diameter)).astype(np.int64)
    antipodal = bool(((rel @ rel > 0) <= (rel > 0)).all())
    return bipartite, antipodal


class TestClassify:
    def test_cube_bipartite_antipodal(self):
        _, ia = analyze(hamming_graph(3, 2))
        flags = classify(ia)
        assert flags.bipartite and flags.antipodal and not flags.primitive

    def test_petersen_primitive(self):
        _, ia = analyze(petersen_graph())
        flags = classify(ia)
        assert not flags.bipartite and not flags.antipodal and flags.primitive

    def test_cycle6_bipartite_antipodal(self):
        _, ia = analyze(cycle_graph(6))
        flags = classify(ia)
        assert flags.bipartite and flags.antipodal

    def test_odd_graphs_primitive(self):
        for d in (2, 3, 4):
            _, ia = analyze(odd_graph(d))
            assert classify(ia).primitive

    def test_folded_cube7_primitive(self):
        _, ia = analyze(build_family("folded_cube:7"))
        flags = classify(ia)
        assert not flags.bipartite and not flags.antipodal

    def test_complete_graph_antipodal_not_bipartite(self):
        _, ia = analyze(complete_graph(4))
        flags = classify(ia)
        assert flags.antipodal and not flags.bipartite

    @pytest.mark.parametrize("spec", CATALOGUE + ("cycle:7", "complete:5"))
    def test_matches_reference(self, spec):
        g = build_family(spec)
        dd, ia = analyze(g)
        flags = classify(ia)
        assert (flags.bipartite, flags.antipodal) == reference_flags(g, dd)
