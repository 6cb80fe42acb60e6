"""Distance-regularity checking, the p-tensor, and classification flags."""

import random

import numpy as np
import pytest

from drgq.errors import MathAssertionError
from drgq.families import (build_family, complete_graph, cycle_graph,
                           hamming_graph, odd_graph, petersen_graph)
from drgq.graphs import DistanceData, build_graph, distance_data
from drgq.intersection import (IntersectionData, NotDRG, check_distance_regular,
                               classify)


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
        assert ia.intersection_array() == "{3,2;1,1}"
        assert ia.d == 2 and ia.k == 3 and ia.n == 10

    def test_cycle6_array(self):
        _, ia = analyze(cycle_graph(6))
        assert ia.intersection_array() == "{2,1,1;1,1,2}"

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

    def test_tensor_matches_definition_on_sampled_pairs(self):
        g = build_family("johnson:6,3")
        dd, ia = analyze(g)
        rng = random.Random(5)
        for _ in range(50):
            x, y = rng.randrange(g.n), rng.randrange(g.n)
            h = int(dd.dist[x, y])
            i, j = rng.randint(0, ia.d), rng.randint(0, ia.d)
            assert ia.intersection_number(h, i, j) == brute_force_count(dd, x, y, i, j)


class TestIntersectionData:
    def test_valency_is_p011(self):
        for spec in ("petersen", "odd:3", "hamming:3,2"):
            g = build_family(spec)
            _, ia = analyze(g)
            assert ia.intersection_number(0, 1, 1) == ia.k == g.degree(0)

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


class TestClassify:
    def test_cube_bipartite_antipodal(self):
        g = hamming_graph(3, 2)
        dd, ia = analyze(g)
        flags = classify(g, dd)
        assert flags.bipartite and flags.antipodal and not flags.primitive

    def test_petersen_primitive(self):
        g = petersen_graph()
        dd, _ = analyze(g)
        flags = classify(g, dd)
        assert not flags.bipartite and not flags.antipodal and flags.primitive

    def test_cycle6_bipartite_antipodal(self):
        g = cycle_graph(6)
        dd, _ = analyze(g)
        flags = classify(g, dd)
        assert flags.bipartite and flags.antipodal

    def test_odd_graphs_primitive(self):
        for d in (2, 3, 4):
            g = odd_graph(d)
            dd, _ = analyze(g)
            assert classify(g, dd).primitive

    def test_folded_cube7_primitive(self):
        g = build_family("folded_cube:7")
        dd, _ = analyze(g)
        flags = classify(g, dd)
        assert not flags.bipartite and not flags.antipodal

    def test_complete_graph_antipodal_not_bipartite(self):
        g = complete_graph(4)
        dd, _ = analyze(g)
        flags = classify(g, dd)
        assert flags.antipodal and not flags.bipartite
