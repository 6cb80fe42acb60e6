"""Graph core: construction, distances, components, doubles, isomorphism.

networkx serves as the independent oracle for distances and isomorphism.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drgq import graphs
from drgq.catalogue import CATALOGUE
from drgq.errors import DisconnectedGraphError, MathAssertionError
from drgq.families import FamilySpec, complete_graph, cycle_graph, petersen_graph
from drgq.graphs import (are_isomorphic, bipartite_double, build_graph, connected_components,
                         distance_data, induced_subgraph)
from reference import adjacency_matrix, bfs_distances, two_coloring


def relabelled(g, seed):
    relabel = list(range(g.n))
    random.Random(seed).shuffle(relabel)
    return build_graph(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])


def two_cycles(length):
    return build_graph(2 * length, [(c + i, c + (i + 1) % length)
                                    for c in (0, length) for i in range(length)])


def assert_witness(g, h, perm):
    """perm is a bijection carrying g's edges exactly onto h's, edge by edge."""
    assert sorted(perm) == list(range(h.n))
    assert {frozenset((perm[u], perm[v])) for u, v in g.edges()} == {frozenset(e) for e in h.edges()}


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def tree_plus_chords(n, seed, isolated):
    """A seeded random tree plus chords on the vertices outside ``isolated``,
    which keep no edge."""
    rng = np.random.default_rng(seed)
    live = [v for v in range(n) if v not in isolated]
    tree = [(live[int(rng.integers(i))], live[i]) for i in range(1, len(live))]
    chords = [(live[a], live[b]) for a, b in rng.integers(len(live), size=(len(live) // 4, 2))
              if a != b]
    return build_graph(n, tree + chords)


def with_examples(graphs):
    """Run a hypothesis test on each of ``graphs`` as well as on its draws."""
    def decorate(test):
        for g in graphs:
            test = example(g=g)(test)
        return test
    return decorate


@st.composite
def connected_graphs(draw, max_n=18):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=40))
    spine = [(i - 1, i) for i in range(1, n)]  # guarantees connectivity
    return build_graph(n, spine + extra)


@st.composite
def arbitrary_graphs(draw, max_n=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return build_graph(n, edges)


@st.composite
def disconnected_graphs(draw, max_n=16):
    """Two drawn graphs side by side, relabelled by a drawn permutation, so
    at least two components."""
    a, b = draw(arbitrary_graphs(max_n=max_n // 2)), draw(arbitrary_graphs(max_n=max_n // 2))
    order = draw(st.permutations(range(a.n + b.n)))
    edges = [*a.edges(), *((a.n + u, a.n + v) for u, v in b.edges())]
    return build_graph(a.n + b.n, [(order[u], order[v]) for u, v in edges])


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.degrees() == [2, 2, 2]
        assert g.num_edges == 3

    def test_cycle5(self):
        g = cycle_graph(5)
        assert g.n == 5 and all(d == 2 for d in g.degrees())

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            build_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_graph(2, [(0, 5)])

    def test_deduplicated_and_symmetric(self):
        g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1
        assert g.neighbors[0] == (1,) and g.neighbors[1] == (0,)


class TestDistanceData:
    def test_cycle6_spheres(self):
        g = cycle_graph(6)
        dd = distance_data(g)
        assert dd.diameter == 3
        for gamma in range(6):
            assert np.bincount(dd.dist[gamma]).tolist() == [1, 2, 2, 1]

    def test_petersen(self):
        dd = distance_data(petersen_graph())
        assert dd.diameter == 2
        for gamma in range(10):
            assert len(dd.sphere(gamma, 2)) == 6

    def test_diameter_above_byte_refused(self):
        # diameter 260: one byte per distance would wrap dist[0, 260] to 4
        with pytest.raises(ValueError, match="diameter is at least 260"):
            distance_data(cycle_graph(520))

    def test_eccentricity_named_above_byte(self):
        # a 400-vertex path with vertex 0 at position 50: the first source past
        # 255 is 0, and its eccentricity, 349, is below the diameter, 399
        order = list(range(1, 51)) + [0] + list(range(51, 400))
        g = build_graph(400, zip(order, order[1:]))
        assert bfs_distances(g, 0).max() == 349
        with pytest.raises(ValueError, match=r"at least 349 \(vertex 0 has eccentricity 349\)"):
            distance_data(g)

    def test_disconnected_rejected(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        with pytest.raises(DisconnectedGraphError) as exc:
            distance_data(g)
        assert "unreachable" in str(exc.value)

    def test_disconnected_pair_names_vertex_0(self):
        # vertex 0 lies in the larger component {0, 2, 4}: the pair is still
        # vertex 0 and the first vertex it cannot reach
        g = build_graph(5, [(0, 2), (2, 4), (1, 3)])
        with pytest.raises(DisconnectedGraphError) as exc:
            distance_data(g)
        assert (exc.value.u, exc.value.v) == (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(disconnected_graphs())
    def test_disconnected_pair_matches_networkx(self, g):
        # the flood's final row 0 lacks exactly the vertices outside 0's component
        outside = set(range(g.n)) - nx.node_connected_component(to_nx(g), 0)
        with pytest.raises(DisconnectedGraphError) as exc:
            distance_data(g)
        assert (exc.value.u, exc.value.v) == (0, min(outside))

    @pytest.mark.parametrize("spec", CATALOGUE + ("johnson:10,5", "hamming:8,2"))
    def test_matches_per_source_bfs(self, spec):
        g = FamilySpec.parse(spec).build()
        dd = distance_data(g)
        reference = np.array([bfs_distances(g, src) for src in range(g.n)])
        assert dd.dist.dtype == np.uint8 and (dd.dist == reference).all()
        assert dd.diameter == reference.max()

    @pytest.mark.parametrize("g", [
        # a hub of degree n - 1: its closed neighborhood fills a gather chunk alone
        build_graph(300, [(0, i) for i in range(1, 300)] + [(i, i % 299 + 1) for i in range(1, 300)]),
        # a hub with long arms: many levels, degrees 1, 2 and 12
        build_graph(241, [(0 if i % 20 == 1 else i - 1, i) for i in range(1, 241)]),
        # paths across the 64-vertex word boundaries of the packed frontier
        *(build_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 63, 64, 65, 129)),
    ])
    def test_irregular_matches_per_source_bfs(self, g):
        dd = distance_data(g)
        reference = np.array([bfs_distances(g, src) for src in range(g.n)])
        assert (dd.dist == reference).all() and dd.diameter == reference.max()
        assert sum(dd.dist == h for h in range(dd.diameter + 1)).min() == 1

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("spec", ["odd:3", "johnson:7,3", "hamming:4,2"])
    def test_level_mask_row_blocks(self, monkeypatch, spec, rows):
        # each level is unpacked a row block at a time: 1 and 7 rows per block,
        # where 7 leaves hamming:4,2 (n = 16) a short last block
        g = FamilySpec.parse(spec).build()
        monkeypatch.setattr(graphs, "UNPACK_ENTRIES", rows * g.n)
        dd = distance_data(g)
        reference = np.array([bfs_distances(g, src) for src in range(g.n)])
        assert (dd.dist == reference).all() and dd.diameter == reference.max()

    def test_bfs_distances_beyond_int16(self):
        # a 16-bit distance wraps at 32768, and the wrapped negative value
        # reads as unvisited
        n = 33_000
        dist = bfs_distances(build_graph(n, [(i, i + 1) for i in range(n - 1)]), 0)
        assert dist[-1] == n - 1 and (dist >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_matches_networkx(self, g):
        dd = distance_data(g)
        lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
        for u in range(g.n):
            for v in range(g.n):
                assert dd.dist[u, v] == lengths[u][v]

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_metric_invariants(self, g):
        dd = distance_data(g)
        dist = dd.dist.astype(int)
        assert (dist == dist.T).all()
        assert (np.diag(dist) == 0).all()
        # adjacency exactly at distance one
        adj = adjacency_matrix(g)
        assert ((dist == 1) == (adj == 1)).all()
        # triangle inequality, all triples at once
        assert (dist[:, :, None] + dist[None, :, :] >= dist[:, None, :]).all()
        # neighbors differ by at most one in distance to anyone
        for u, v in g.edges():
            assert (np.abs(dist[u] - dist[v]) <= 1).all()

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs())
    def test_distance_classes_partition(self, g):
        dd = distance_data(g)
        total = np.zeros((g.n, g.n), dtype=int)
        for h in range(dd.diameter + 1):
            total += dd.dist == h
        assert (total == 1).all()
        for gamma in range(g.n):
            assert np.bincount(dd.dist[gamma]).sum() == g.n


class TestInducedSubgraph:
    def test_k4_minus_vertex(self):
        sub, verts = induced_subgraph(complete_graph(4), [0, 2, 3])
        assert sub.n == 3 and sub.num_edges == 3
        assert verts == (0, 2, 3)

    def test_cycle6_neighborhood_is_edgeless(self):
        g = cycle_graph(6)
        dd = distance_data(g)
        sub, _ = induced_subgraph(g, dd.sphere(0, 1))
        assert sub.n == 2 and sub.num_edges == 0

    def test_petersen_second_sphere_connected(self):
        g = petersen_graph()
        dd = distance_data(g)
        sub, _ = induced_subgraph(g, dd.sphere(0, 2))
        assert sub.n == 6
        assert len(connected_components(sub)) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), [])


class TestComponents:
    def test_triangle(self):
        assert connected_components(complete_graph(3)) == [[0, 1, 2]]

    def test_edgeless(self):
        g = build_graph(4, [])
        assert connected_components(g) == [[0], [1], [2], [3]]

    @settings(max_examples=40, deadline=None)
    @given(arbitrary_graphs())
    def test_partition_and_no_cross_edges(self, g):
        comps = connected_components(g)
        flat = sorted(v for c in comps for v in c)
        assert flat == list(range(g.n))
        owner = {}
        for idx, comp in enumerate(comps):
            for v in comp:
                owner[v] = idx
        for u, v in g.edges():
            assert owner[u] == owner[v]


class TestBipartiteDouble:
    def test_triangle_gives_hexagon(self):
        dbl = bipartite_double(complete_graph(3))
        ok, perm = are_isomorphic(dbl, cycle_graph(6))
        assert ok and perm is not None

    def test_petersen_gives_desargues(self):
        dbl = bipartite_double(petersen_graph())
        assert dbl.n == 20
        assert set(dbl.degrees()) == {3}
        assert two_coloring(dbl) is not None
        assert len(connected_components(dbl)) == 1
        desargues = build_graph(20, list(nx.desargues_graph().edges()))
        ok, _ = are_isomorphic(dbl, desargues)
        assert ok

    def test_bipartite_input_splits(self):
        dbl = bipartite_double(cycle_graph(4))
        assert len(connected_components(dbl)) == 2

    @settings(max_examples=40, deadline=None)
    @given(arbitrary_graphs())
    @with_examples([FamilySpec.parse(spec).build() for spec in CATALOGUE]
                   + [tree_plus_chords(n, n, isolated) for n, isolated in
                      ((2, (1,)), (20, (0,)), (33, (5, 32)), (65, (0, 17, 18, 64)))])
    def test_always_bipartite_with_doubled_counts(self, g):
        # the edge rule: v ~ n + w and n + v ~ w for every edge v ~ w
        n = g.n
        rule = [e for v, w in g.edges() for e in ((v, n + w), (n + v, w))]
        dbl = bipartite_double(g)
        assert dbl == build_graph(2 * n, rule)
        assert dbl.n == 2 * g.n
        assert dbl.num_edges == 2 * g.num_edges
        assert two_coloring(dbl) is not None


class TestIsomorphism:
    def test_self_iso(self):
        g = petersen_graph()
        ok, perm = are_isomorphic(g, g)
        assert ok and perm == list(range(10))

    def test_degree_mismatch(self):
        k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
        ok, perm = are_isomorphic(cycle_graph(6), k33)
        assert not ok and perm is None

    def test_same_degrees_not_isomorphic(self):
        # two 6-vertex 2-regular graphs: one hexagon vs two triangles; colour
        # refinement cannot split them, so backtracking must refute
        two_triangles = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        ok, _ = are_isomorphic(cycle_graph(6), two_triangles)
        assert not ok

    def test_cap_enforced(self):
        big = cycle_graph(70)
        with pytest.raises(ValueError, match="refused"):
            are_isomorphic(big, big)

    def test_failed_witness_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "_verify_mapping", lambda g, h, perm: False)
        with pytest.raises(MathAssertionError, match="not an isomorphism"):
            are_isomorphic(petersen_graph(), petersen_graph())

    @pytest.mark.parametrize("spec", ["hamming:6,2", "folded_cube:7"])
    def test_relabelled_family_at_cap(self, spec):
        g = FamilySpec.parse(spec).build()
        assert g.n == graphs.ISO_VERTEX_CAP
        h = relabelled(g, 1)
        ok, perm = are_isomorphic(g, h)
        assert ok
        assert_witness(g, h, perm)

    def test_long_cycle_against_two_short_cycles(self):
        # every vertex of both is 2-regular with 2-regular neighbours, so colour
        # refinement leaves one class and the search alone must refute
        c64, c32s = cycle_graph(64), two_cycles(32)
        cg, ch = graphs._joint_colors(c64, c32s)
        assert set(cg) == set(ch) == {cg[0]}
        assert are_isomorphic(c64, c32s) == (False, None)
        assert are_isomorphic(c32s, c64) == (False, None)

    def test_two_components_against_relabelling(self):
        # the second component's first vertex has no anchor, so it is tried at
        # every unused vertex of its colour
        g = two_cycles(32)
        h = relabelled(g, 2)
        ok, perm = are_isomorphic(g, h)
        assert ok
        assert_witness(g, h, perm)

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=12), st.randoms(use_true_random=False))
    def test_relabeling_detected_with_verified_witness(self, g, rnd):
        relabel = list(range(g.n))
        rnd.shuffle(relabel)
        h = build_graph(g.n, [(relabel[u], relabel[v]) for u, v in g.edges()])
        ok, perm = are_isomorphic(g, h)
        assert ok
        # witness check: adjacency preserved both ways
        hset = {frozenset(e) for e in h.edges()}
        assert {frozenset((perm[u], perm[v])) for u, v in g.edges()} == hset
        # the relation is symmetric
        assert are_isomorphic(h, g)[0]

    @settings(max_examples=30, deadline=None)
    @given(arbitrary_graphs(max_n=10))
    def test_agrees_with_networkx_on_perturbations(self, g):
        pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
        if not pairs:
            return
        u, v = pairs[len(pairs) // 2]
        edges = set(map(tuple, map(sorted, g.edges())))
        edges.symmetric_difference_update({(u, v)})
        h = build_graph(g.n, sorted(edges))
        ok, _ = are_isomorphic(g, h)
        assert ok == nx.is_isomorphic(to_nx(g), to_nx(h))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(arbitrary_graphs(max_n=10), st.data())
    def test_agrees_with_networkx_on_relabelled_switches(self, g, data):
        # a random relabelling, then degree-preserving switches ab, cd -> ac, bd:
        # the degree sequence never tells the pair apart
        relabel = data.draw(st.permutations(range(g.n)), label="relabel")
        edges = {frozenset((relabel[u], relabel[v])) for u, v in g.edges()}
        for _ in range(data.draw(st.integers(0, 6), label="switches")):
            if len(edges) < 2:
                break
            pairs = sorted(tuple(sorted(x)) for x in edges)
            (a, b), (c, e) = data.draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2,
                                                unique=True))
            if data.draw(st.booleans()):
                c, e = e, c
            new = {frozenset((a, c)), frozenset((b, e))}
            if len({a, b, c, e}) == 4 and not new & edges:
                edges -= {frozenset((a, b)), frozenset((c, e))}
                edges |= new
        h = build_graph(g.n, [tuple(x) for x in edges])
        assert sorted(g.degrees()) == sorted(h.degrees())
        ok, perm = are_isomorphic(g, h)
        assert ok == nx.is_isomorphic(to_nx(g), to_nx(h))
        if ok:
            assert {frozenset((perm[u], perm[v])) for u, v in g.edges()} == edges
