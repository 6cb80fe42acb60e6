"""Subconstituent structure, sign-change index, tails, and the census."""

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drgq import connectivity
from drgq.connectivity import (dual_sign_change_index, odd_component_census,
                               shell_connected, subconstituent, sweep_last_two,
                               sweep_tail, union_subconstituent)
from drgq.errors import MathAssertionError
from drgq.families import build_family, cycle_graph, petersen_graph
from drgq.graphs import (ISO_VERTEX_CAP, DistanceData, are_isomorphic, bipartite_double,
                         build_graph, connected_components, distance_data,
                         induced_subgraph)
from drgq.qpoly import FULL_MODE_LIMIT
from reference import last_two_connected, tail_connected, two_coloring


@pytest.fixture(scope="module")
def odd3(bundles):
    return bundles["odd:3"]


class TestSubconstituent:
    def test_odd3_outer_sphere_two_regular(self, odd3):
        for gamma in (0, 7, 34):
            sub = subconstituent(odd3.graph, odd3.dd, gamma, 3)
            assert sub.n == 18
            assert set(sub.degrees()) == {2}

    def test_odd3_inner_spheres_edgeless(self, odd3):
        for gamma in (0, 12):
            for i in (1, 2):
                assert subconstituent(odd3.graph, odd3.dd, gamma, i).num_edges == 0

    def test_folded_cube_first_sphere_edgeless(self, bundles):
        b = bundles["folded_cube:7"]
        assert subconstituent(b.graph, b.dd, 0, 1).num_edges == 0

    def test_index_out_of_range(self, odd3):
        with pytest.raises(IndexError):
            subconstituent(odd3.graph, odd3.dd, 0, 4)


class TestLastTwoConnected:
    def test_cube_star_around_antipode(self, bundles):
        b = bundles["hamming:3,2"]
        for gamma in range(b.graph.n):
            ok, comps = last_two_connected(b.graph, b.dd, gamma)
            assert ok and len(comps) == 1 and len(comps[0]) == 4

    def test_odd3_connected_despite_split_outer_sphere(self, odd3):
        ok, flags = sweep_last_two(odd3.graph, odd3.dd)
        assert ok and len(flags) == 35
        # the contrast: the outer sphere alone splits into three pieces
        sub = subconstituent(odd3.graph, odd3.dd, 0, 3)
        assert len(connected_components(sub)) == 3

    def test_odd3_inner_pair_disconnected(self, odd3):
        for gamma in range(odd3.graph.n):
            sub, _ = union_subconstituent(odd3.graph, odd3.dd, gamma, 1, 2)
            assert len(connected_components(sub)) > 1

    def test_components_partition_vertex_union(self, odd3):
        _, comps = last_two_connected(odd3.graph, odd3.dd, 5)
        members = sorted(v for comp in comps for v in comp)
        expected = sorted(np.nonzero(odd3.dd.dist[5] >= 2)[0].tolist())
        assert members == expected


@st.composite
def trees_plus_edges(draw, max_n=14):
    """Connected graphs, mostly irregular: a random tree plus random chords."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    tree = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chords = draw(st.lists(st.sampled_from(pairs), max_size=n)) if pairs else []
    return build_graph(n, tree + chords)


def _per_vertex_shell_flags(g, dd, lo, hi):
    flags = []
    for gamma in range(g.n):
        if not ((dd.dist[gamma] >= lo) & (dd.dist[gamma] <= hi)).any():
            flags.append(False)  # an empty shell has no component
            continue
        sub, _ = union_subconstituent(g, dd, gamma, lo, hi)
        flags.append(len(connected_components(sub)) == 1)
    return flags


def _seeded_tree_plus_chords(n, seed):
    rng = np.random.default_rng(seed)
    tree = [(int(rng.integers(v)), v) for v in range(1, n)]
    chords = [(int(u), int(w)) for u, w in rng.integers(n, size=(n // 8, 2)) if u != w]
    return build_graph(n, tree + chords)


def _spider(legs):
    # a hub, 0, and legs hub - 2k+1 - 2k+2: the shell 2..4 about a leaf holds
    # the hub and every other leg, so it is connected; about a middle vertex
    # or the hub it splits, and about the hub the shell 3..4 is empty
    return build_graph(2 * legs + 1, [e for k in range(legs)
                                      for e in ((0, 2 * k + 1), (2 * k + 1, 2 * k + 2))])


# the per-base flags fill 64-bit words: one short of a word, one word, one
# bit over, and two words and a bit
WORD_EDGE_GRAPHS = {f"tree_chords_{n}": _seeded_tree_plus_chords(n, n) for n in (63, 64, 65, 129)}
WORD_EDGE_GRAPHS["spider_129"] = _spider(64)


class TestShellKernel:
    @staticmethod
    def _assert_matches_reference(g, dd, shells):
        expected = {(lo, hi): _per_vertex_shell_flags(g, dd, lo, hi) for lo, hi in shells}
        # blocks of 1 and of 7 rows or base vertices (the last one partial), then one block
        for entries in (g.n, 7 * g.n, connectivity.BLOCK_ENTRIES):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(connectivity, "BLOCK_ENTRIES", entries)
                for (lo, hi), flags in expected.items():
                    assert shell_connected(g, dd, lo, hi).tolist() == flags, (entries, lo, hi)

    @staticmethod
    def _all_shells(dd):
        return [(lo, hi) for lo in range(dd.diameter + 1) for hi in range(lo, dd.diameter + 1)]

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(trees_plus_edges())
    @example(build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]))
    def test_matches_per_vertex_reference(self, g):
        dd = distance_data(g)
        self._assert_matches_reference(g, dd, self._all_shells(dd))

    @pytest.mark.parametrize("name", WORD_EDGE_GRAPHS)
    def test_word_boundaries_match_per_vertex_reference(self, name):
        g = WORD_EDGE_GRAPHS[name]
        dd = distance_data(g)
        shells = self._all_shells(dd)
        self._assert_matches_reference(g, dd, shells)
        # some shell is empty at some base, and some shell is connected at
        # some bases and split at others
        assert any(not ((dd.dist[gamma] >= lo) & (dd.dist[gamma] <= hi)).any()
                   for lo, hi in shells for gamma in range(g.n))
        assert any(0 < shell_connected(g, dd, lo, hi).sum() < g.n for lo, hi in shells)

    @pytest.mark.parametrize("spec", ("johnson:12,6", "odd:5"))
    def test_flood_peak_below_distances(self, spec):
        # the flood's four bit-packed arrays are n^2 / 2 bytes; the one-byte
        # distances predate tracing, and 1 MiB covers the CSR chunks and masks
        g = build_family(spec)
        dd = distance_data(g)
        tracemalloc.start()
        try:
            shell_connected(g, dd, dd.diameter - 1, dd.diameter)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= g.n ** 2 + (1 << 20)

    def test_shell_outside_diameter_rejected(self, odd3):
        with pytest.raises(IndexError):
            shell_connected(odd3.graph, odd3.dd, 2, 4)


class TestSignChangeIndex:
    def test_petersen(self, bundles):
        dual = bundles["petersen"].sd.dual[1]
        assert np.allclose(dual, [5, 5 / 3, -5 / 3], atol=1e-9)
        assert dual_sign_change_index(dual) == 2

    def test_monotone_sequence(self):
        assert dual_sign_change_index(np.array([4.0, 1.5, -0.5, -2.0])) == 2
        assert dual_sign_change_index(np.array([3.0, -1.0, -2.0])) == 1

    def test_zero_snapping_logged(self, caplog):
        seq = np.array([14.0, 7.0, 5e-16, -2.33])
        with caplog.at_level(logging.INFO, logger="drgq.connectivity"):
            assert dual_sign_change_index(seq) == 2
        assert any("snapping" in rec.message for rec in caplog.records)

    def test_no_crossing_rejected(self):
        with pytest.raises(MathAssertionError, match="crossings"):
            dual_sign_change_index(np.array([3.0, 2.0, 1.0]))

    def test_multiple_crossings_rejected(self):
        with pytest.raises(MathAssertionError, match="crossings"):
            dual_sign_change_index(np.array([3.0, -1.0, 2.0, -2.0]))

    def test_nonpositive_start_rejected(self):
        with pytest.raises(MathAssertionError, match="start positive"):
            dual_sign_change_index(np.array([-3.0, 1.0]))

    def test_catalogue_lower_bound(self, bundles):
        for name, b in bundles.items():
            s = dual_sign_change_index(b.sd.dual[1])
            assert 1 <= s <= b.ia.d
            assert 2 * s >= b.ia.d, f"{name}: s={s} below d/2"


class TestTail:
    def test_whole_graph_trivially_connected(self, odd3):
        assert tail_connected(odd3.graph, odd3.dd, 0, 0)

    def test_outer_sphere_alone_fails_for_odd3(self, odd3):
        # shows the check is not vacuous: at s = d the tail is just the
        # outer sphere, which the census says is disconnected
        assert not tail_connected(odd3.graph, odd3.dd, 0, 3)

    def test_sweep(self, odd3):
        ok, flags = sweep_tail(odd3.graph, odd3.dd, 2)
        assert ok and all(flags)

    def test_out_of_range(self, odd3):
        with pytest.raises(IndexError):
            tail_connected(odd3.graph, odd3.dd, 0, 9)


def _doctored(dd, gamma, pairs):
    """Distances with sphere-d membership about gamma swapped, symmetrically,
    between each (inside, outside) pair: the sphere keeps its size."""
    dist = dd.dist.copy()
    for u, w in pairs:
        du, dw = dist[gamma, u], dist[gamma, w]
        dist[gamma, u] = dist[u, gamma] = dw
        dist[gamma, w] = dist[w, gamma] = du
    return DistanceData(dist, dd.diameter)


def _per_vertex_census(g, dd, clean):
    """The census one base vertex at a time, from the induced sphere, its
    connected components and their two-colourings: the record expected from
    ``odd_component_census`` and its failure lines.  ``clean`` is the record
    of the undoctored graph, which carries the expected figures."""
    d = dd.diameter
    reference = bipartite_double(connectivity._odd_core(d // 2))
    failures = []
    first = (0, [])
    iso = 0
    halves_ok = True
    for gamma in range(g.n):
        sphere = dd.sphere(gamma, d)
        if sphere.size != clean.sphere_size:
            failures.append(f"gamma={gamma}: sphere size {sphere.size} != {clean.sphere_size}")
            continue
        sub, _ = induced_subgraph(g, sphere)
        comps = connected_components(sub)
        sizes = sorted(len(c) for c in comps)
        if gamma == 0:
            first = (len(comps), sizes)
        if len(comps) != clean.expected_count:
            failures.append(
                f"gamma={gamma}: {len(comps)} components, expected {clean.expected_count}")
        if set(sizes) != {clean.expected_size}:
            failures.append(f"gamma={gamma}: component sizes {sizes}, "
                            f"expected all {clean.expected_size}")
            continue
        for ci, comp in enumerate(comps):
            comp_graph = induced_subgraph(sub, comp).graph
            degrees = set(comp_graph.degrees())
            if degrees != {clean.component_degree}:
                failures.append(f"gamma={gamma} component {ci}: degrees {sorted(degrees)}, "
                                f"expected {clean.component_degree}-regular")
            coloring = two_coloring(comp_graph)
            if coloring is None or coloring.count(0) != coloring.count(1):
                halves_ok = False
                failures.append(f"gamma={gamma} component {ci}: not bipartite with equal halves")
            if not clean.iso_skipped and (g.n <= FULL_MODE_LIMIT or gamma == 0):
                if are_isomorphic(comp_graph, reference)[0]:
                    iso += 1
                else:
                    failures.append(
                        f"gamma={gamma} component {ci}: not isomorphic to the bipartite double")
    record = dataclasses.replace(clean, count=first[0], component_sizes=first[1],
                                 iso_components=iso, iso_certified=iso > 0,
                                 bipartite_halves_ok=halves_ok)
    return record, failures


def _assert_census_matches(g, dd, clean):
    expected, failures = _per_vertex_census(g, dd, clean)
    if not failures:
        assert odd_component_census(g, dd) == expected
        return
    with pytest.raises(MathAssertionError) as exc:
        odd_component_census(g, dd)
    assert str(exc.value).splitlines() == (["odd-graph census failed:"]
                                           + ["  " + f for f in failures[:20]])


class TestCensus:
    def test_d3_record(self, odd3):
        rec = odd_component_census(odd3.graph, odd3.dd)
        assert (rec.count, rec.expected_size, rec.sphere_size) == (3, 6, 18)
        assert rec.component_sizes == [6, 6, 6]
        assert rec.iso_certified and rec.iso_components == rec.vertices_checked * 3
        assert rec.bipartite_halves_ok
        assert not rec.iso_skipped

    def test_d3_reference_is_hexagon(self, odd3):
        # the certified reference doubles the triangle, i.e. a 6-cycle
        sub = subconstituent(odd3.graph, odd3.dd, 0, 3)
        comp = connected_components(sub)[0]
        comp_graph = induced_subgraph(sub, comp).graph
        ok, _ = are_isomorphic(comp_graph, cycle_graph(6))
        assert ok

    def test_d4_components_double_the_petersen(self, bundles):
        b = bundles["odd:4"]
        rec = odd_component_census(b.graph, b.dd)
        assert (rec.count, rec.expected_size) == (3, 20)
        sub = subconstituent(b.graph, b.dd, 0, 4)
        comp = connected_components(sub)[0]
        comp_graph = induced_subgraph(sub, comp).graph
        ok, _ = are_isomorphic(comp_graph, bipartite_double(petersen_graph()))
        assert ok

    @pytest.mark.parametrize("spec", ("odd:3", "odd:4"))
    @pytest.mark.parametrize("block", (1, 7))
    def test_blocks_match_one_block(self, bundles, monkeypatch, spec, block):
        b = bundles[spec]
        monkeypatch.setattr(connectivity, "BLOCK_ENTRIES", b.graph.n ** 2)
        whole = odd_component_census(b.graph, b.dd)
        monkeypatch.setattr(connectivity, "BLOCK_ENTRIES", block * b.graph.n)
        assert odd_component_census(b.graph, b.dd) == whole

    @staticmethod
    def _assert_double_labels_match(g, inside):
        # the census's labels of g, read from one labelling of its bipartite double
        n = g.n
        lifts = connectivity.shell_labels(bipartite_double(g).neighbor_array(),
                                          np.vstack([inside, inside]))
        labels = np.minimum(np.minimum(lifts[:n], lifts[n:]), n)
        assert np.array_equal(labels, connectivity.shell_labels(g.neighbor_array(), inside))

    @pytest.mark.parametrize("spec", ("odd:3", "odd:4", "odd:5"))
    def test_double_labels_match_shell_labels(self, bundles, spec):
        b = bundles[spec]
        for _, inside in connectivity.shell_blocks(b.dd.dist, b.dd.diameter, b.dd.diameter):
            self._assert_double_labels_match(b.graph, inside)

    def test_double_labels_match_on_doctored_shells(self, bundles):
        # random shells of the Petersen graph hold odd cycles, bipartite
        # pieces and isolated vertices; the first is the whole graph
        inside = np.random.default_rng(11).random((10, 64)) < 0.7
        inside[:, 0] = True
        self._assert_double_labels_match(bundles["petersen"].graph, inside)

    def test_d_too_small(self, bundles):
        b = bundles["petersen"]
        with pytest.raises(ValueError):
            odd_component_census(b.graph, b.dd)

    def test_components_above_the_cap_skip_certification(self):
        # odd:6 components have 70 vertices, too many for backtracking; the
        # size, degree and bipartite evidence is still verified everywhere
        g = build_family("odd:6")
        rec = odd_component_census(g, distance_data(g))
        assert rec.expected_size == 70 > ISO_VERTEX_CAP
        assert rec.iso_skipped and rec.iso_components == 0
        assert not rec.iso_certified
        assert rec.count == 10 and rec.component_sizes == [70] * 10
        assert rec.component_degree == 4 and rec.bipartite_halves_ok
        assert rec.vertices_checked == g.n == 1716

    @settings(derandomize=True, deadline=None, max_examples=10)
    @given(st.sampled_from(("odd:3", "odd:4")), st.data())
    def test_doctored_spheres_match_per_vertex_reference(self, bundles, spec, data):
        b = bundles[spec]
        d = b.dd.diameter
        gamma = data.draw(st.integers(0, b.graph.n - 1), label="gamma")
        inside = b.dd.sphere(gamma, d).tolist()
        outside = [v for v in range(b.graph.n) if v != gamma and b.dd.dist[gamma, v] != d]
        us = data.draw(st.lists(st.sampled_from(inside), min_size=1, max_size=3, unique=True))
        ws = data.draw(st.lists(st.sampled_from(outside), min_size=len(us), max_size=len(us),
                                unique=True))
        doctored = _doctored(b.dd, gamma, list(zip(us, ws)))
        assert doctored.sphere(gamma, d).size == len(inside)
        _assert_census_matches(b.graph, doctored, odd_component_census(b.graph, b.dd))

    @pytest.mark.parametrize("spec", ("odd:3", "odd:4"))
    @pytest.mark.parametrize("same_colour", (True, False))
    def test_chord_matches_per_vertex_reference(self, bundles, spec, same_colour):
        # a chord inside one outer-sphere component of vertex 0, with the
        # distances of the graph without it: the component's degrees go
        # wrong, and a chord between same-coloured vertices makes it odd
        b = bundles[spec]
        clean = odd_component_census(b.graph, b.dd)
        sub, verts = induced_subgraph(b.graph, b.dd.sphere(0, b.dd.diameter))
        comp = connected_components(sub)[0]
        colour = two_coloring(induced_subgraph(sub, comp).graph)
        u = comp[0]
        w = next(x for i, x in enumerate(comp) if x != u and not sub.has_edge(u, x)
                 and (colour[i] == colour[0]) == same_colour)
        g = build_graph(b.graph.n, [*b.graph.edges(), (verts[u], verts[w])])
        with pytest.raises(MathAssertionError, match="gamma=0 component 0: degrees"):
            odd_component_census(g, b.dd)
        _assert_census_matches(g, b.dd, clean)

    def test_wrong_reference_not_isomorphic(self, odd3, monkeypatch):
        # the path on three vertices in place of the triangle: its double has
        # the six vertices of a component but not its edges
        clean = odd_component_census(odd3.graph, odd3.dd)
        monkeypatch.setattr(connectivity, "_odd_core", lambda r: build_graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(MathAssertionError, match="not isomorphic to the bipartite double"):
            odd_component_census(odd3.graph, odd3.dd)
        _assert_census_matches(odd3.graph, odd3.dd, clean)
