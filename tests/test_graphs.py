"""Graph core: construction, distances, components, doubles, isomorphism.

networkx serves as the independent oracle for distances and isomorphism.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drgq import connectivity, graphs
from drgq.catalogue import CATALOGUE
from drgq.errors import DisconnectedGraphError, MathAssertionError
from drgq.families import FamilySpec, complete_graph, cycle_graph, petersen_graph
from drgq.graphs import (are_isomorphic, bipartite_double, build_graph, connected_components,
                         distance_data, induced_subgraph, isomorphic_components)
from reference import adjacency_matrix, bfs_distances, neighbor_lists, two_coloring


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


@st.composite
def relabelled_switches(draw, g):
    """g under a drawn relabelling, then up to six degree-preserving switches
    ab, cd -> ac, bd."""
    relabel = draw(st.permutations(range(g.n)))
    edges = {frozenset((relabel[u], relabel[v])) for u, v in g.edges()}
    for _ in range(draw(st.integers(0, 6))):
        if len(edges) < 2:
            break
        pairs = sorted(tuple(sorted(x)) for x in edges)
        (a, b), (c, e) = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2,
                                       unique=True))
        if draw(st.booleans()):
            c, e = e, c
        new = {frozenset((a, c)), frozenset((b, e))}
        if len({a, b, c, e}) == 4 and not new & edges:
            edges -= {frozenset((a, b)), frozenset((c, e))}
            edges |= new
    return build_graph(g.n, [tuple(x) for x in edges])


@st.composite
def references_and_components(draw, max_n=10):
    """A regular reference, a circulant C_n(S) after relabelling and switches,
    and up to four relabelled and switched copies of it."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1))
    circulant = build_graph(n, [(v, (v + s) % n) for v in range(n) for s in steps])
    h = draw(relabelled_switches(circulant))
    return h, draw(st.lists(relabelled_switches(h), min_size=1, max_size=4))


def interleaved_union(parts):
    """Graphs of one size on interleaved vertex sets (vertex u of part c
    becomes u k + c for k parts), and those sets, one sorted row each: row c
    induces part c with its labels kept."""
    k, s = len(parts), parts[0].n
    g = build_graph(k * s, [(u * k + c, v * k + c) for c, p in enumerate(parts)
                            for u, v in p.edges()])
    return g, np.arange(k * s).reshape(s, k).T


# the triangular prism and a relabelling of it on which the lockstep search
# dead-ends: it sends vertex 1, the partner of 0 across the matching, to a
# triangle mate of 0, and then finds no image for vertex 3
PRISM = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)])
PRISM_DEAD_END = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5),
                                 (4, 5)])
# a relabelling the search certifies only with its reverse check, which
# skips an image whose used neighbours are not all images of neighbours
PRISM_STEERED = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
                                (4, 5)])


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
        assert g.neighbors(0).tolist() == [1] and g.neighbors(1).tolist() == [0]

    # each message as the set-based builder worded it; the first bad edge in
    # input order is named, whichever check it fails
    @pytest.mark.parametrize("edges,message", [
        ([(0, 1), (2, 2), (0, 7)], "loop edge (2,2) is not allowed"),
        ([(0, 1), (0, 7), (2, 2)], "edge (0,7) has an endpoint outside 0..2"),
        ([(5, 5)], "edge (5,5) has an endpoint outside 0..2"),
        ([(-1, 2)], "edge (-1,2) has an endpoint outside 0..2"),
        ([(1, 2), (0, -3)], "edge (0,-3) has an endpoint outside 0..2"),
        ([(3, 0)], "edge (3,0) has an endpoint outside 0..2"),
    ])
    def test_first_bad_edge_named(self, edges, message):
        with pytest.raises(ValueError) as exc:
            build_graph(3, edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [0, -1])
    def test_vertex_count_must_be_positive(self, n):
        with pytest.raises(ValueError) as exc:
            build_graph(n, [])
        assert str(exc.value) == f"vertex count must be positive, got {n}"

    @pytest.mark.parametrize("edges", [[(0.5, 1)], [(0, 1, 2)], [(0, 1), (1,)], [(2 ** 70, 1)]])
    def test_non_pairs_rejected(self, edges):
        with pytest.raises(ValueError):
            build_graph(3, edges)

    def test_iterables_and_arrays_accepted(self):
        path = [(0, 1), (1, 2), (2, 3)]
        assert list(build_graph(4, ((v, v + 1) for v in range(3))).edges()) == path
        assert list(build_graph(4, np.array(path)).edges()) == path
        cycle = build_graph(5, nx.cycle_graph(5).edges())  # a networkx EdgeView
        assert list(cycle.edges()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert (g.n, g.num_edges, g.degrees(), list(g.edges())) == (1, 0, [0], [])


class TestGraphForm:
    def test_arrays_read_only(self):
        g = petersen_graph()
        for arr in (g.indptr, g.indices, g.neighbors(0), g.neighbor_array()):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_accessor_types(self):
        g = build_graph(4, [(2, 0), (0, 1), (1, 2), (0, 3)])
        assert g.degrees() == [3, 2, 2, 1] and all(type(k) is int for k in g.degrees())
        assert type(g.num_edges) is int and g.num_edges == 4
        edges = list(g.edges())
        assert edges == [(0, 1), (0, 2), (0, 3), (1, 2)]
        assert all(type(x) is int for e in edges for x in e)
        assert g.has_edge(2, 1) is True and g.has_edge(3, 1) is False
        assert g.neighbors(0).tolist() == [1, 2, 3]
        assert g.neighbor_array().tolist() == [[1, 2, 3], [0, 2, 1], [0, 1, 2], [0, 3, 3]]


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

    def test_diameter_of_a_byte(self):
        # diameter 255, the largest level one byte holds
        g = cycle_graph(510)
        dd = distance_data(g)
        reference = np.array([bfs_distances(g, src) for src in range(g.n)])
        assert dd.diameter == 255 and (dd.dist == reference).all()

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
        ruled = build_graph(2 * n, rule)
        assert dbl.n == ruled.n and neighbor_lists(dbl) == neighbor_lists(ruled)
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
        # the degree sequence never tells the pair apart
        h = data.draw(relabelled_switches(g))
        assert sorted(g.degrees()) == sorted(h.degrees())
        ok, perm = are_isomorphic(g, h)
        assert ok == nx.is_isomorphic(to_nx(g), to_nx(h))
        if ok:
            assert_witness(g, h, perm)


class TestIsomorphicComponents:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(references_and_components())
    @example((PRISM, [PRISM_DEAD_END, PRISM_STEERED, PRISM]))
    def test_agrees_with_networkx_on_relabelled_switches(self, pair):
        h, parts = pair
        g, members = interleaved_union(parts)
        expected = [nx.is_isomorphic(to_nx(p), to_nx(h)) for p in parts]
        assert isomorphic_components(g, members, h).tolist() == expected

    @staticmethod
    def _hand_offs(monkeypatch):
        """The graphs handed to are_isomorphic from now on, in call order."""
        asked = []
        monkeypatch.setattr(graphs, "are_isomorphic",
                            lambda g, h: (asked.append(g), are_isomorphic(g, h))[1])
        return asked

    def test_dead_end_hands_off_to_are_isomorphic(self, monkeypatch):
        asked = self._hand_offs(monkeypatch)
        g, members = interleaved_union([PRISM, PRISM_DEAD_END, PRISM_STEERED])
        assert isomorphic_components(g, members, PRISM).tolist() == [True] * 3
        assert [neighbor_lists(x) for x in asked] == [neighbor_lists(PRISM_DEAD_END)]

    def test_other_degrees_answered_without_hand_off(self, monkeypatch):
        # a path and a chorded hexagon have the hexagon's size but not its
        # degrees (the chord's ends have more neighbours than its neighbour
        # arrays hold), so they are refused in place; two triangles have its
        # degrees, and the search from vertex 0 cannot reach them all
        path = build_graph(6, [(v, v + 1) for v in range(5)])
        chorded = build_graph(6, [*cycle_graph(6).edges(), (2, 5)])
        two_triangles = two_cycles(3)
        asked = self._hand_offs(monkeypatch)
        g, members = interleaved_union([cycle_graph(6), path, chorded, two_triangles])
        assert (isomorphic_components(g, members, cycle_graph(6)).tolist()
                == [True, False, False, False])
        assert [neighbor_lists(x) for x in asked] == [neighbor_lists(two_triangles)]

    def test_census_components_need_no_hand_off(self, monkeypatch):
        # odd:4's outer-sphere components against the census's reference, both
        # labelled in subset order: no search dead-ends.  Against the doubled
        # Petersen graph's own labelling, every one of them does.
        g = FamilySpec.parse("odd:4").build()
        dd = distance_data(g)
        rows = []
        for gamma in range(g.n):
            sphere = dd.sphere(gamma, 4)
            rows += [sphere[c] for c in connected_components(induced_subgraph(g, sphere).graph)]
        asked = self._hand_offs(monkeypatch)
        census_reference = bipartite_double(connectivity._odd_core(2))
        assert isomorphic_components(g, np.array(rows), census_reference).all()
        assert asked == []
        assert isomorphic_components(g, np.array(rows[:6]),
                                     bipartite_double(petersen_graph())).all()
        assert len(asked) == 6

    def test_failed_verification_raises(self, monkeypatch):
        monkeypatch.setattr(graphs, "_verify_mappings", lambda local, adj, perm: perm[:, 0] < 0)
        g, members = interleaved_union([PRISM])
        with pytest.raises(MathAssertionError, match="not an isomorphism"):
            isomorphic_components(g, members, PRISM)

    def test_cap_enforced(self):
        big = cycle_graph(70)
        with pytest.raises(ValueError, match="refused"):
            isomorphic_components(big, np.arange(70)[None], big)
