"""Subconstituent structure, sign-change index, tails, and the census."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drgq.connectivity import (dual_sign_change_index, last_two_connected,
                               odd_component_census, shell_connected, subconstituent,
                               sweep_last_two, sweep_tail, tail_connected,
                               union_subconstituent)
from drgq.errors import MathAssertionError
from drgq.families import build_family, cycle_graph, petersen_graph
from drgq.graphs import (are_isomorphic, bipartite_double, build_graph,
                         connected_components, distance_data)


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


class TestShellKernel:
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(trees_plus_edges())
    @example(build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]))
    def test_matches_per_vertex_reference(self, g):
        dd = distance_data(g)
        for lo in range(dd.diameter + 1):
            for hi in range(lo, dd.diameter + 1):
                assert (shell_connected(g, dd, lo, hi).tolist()
                        == _per_vertex_shell_flags(g, dd, lo, hi)), (lo, hi)

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


class TestCensus:
    def test_d3_record(self):
        rec = odd_component_census(3, all_vertices=False)
        assert (rec.count, rec.expected_size, rec.sphere_size) == (3, 6, 18)
        assert rec.component_sizes == [6, 6, 6]
        assert rec.iso_certified and rec.iso_components == 3
        assert rec.bipartite_halves_ok
        assert not rec.iso_skipped

    def test_d3_reference_is_hexagon(self, odd3):
        # the certified reference doubles the triangle, i.e. a 6-cycle
        sub = subconstituent(odd3.graph, odd3.dd, 0, 3)
        comp = connected_components(sub)[0]
        from drgq.graphs import induced_subgraph
        comp_graph = induced_subgraph(sub, comp).graph
        ok, _ = are_isomorphic(comp_graph, cycle_graph(6))
        assert ok

    def test_d4_components_double_the_petersen(self):
        rec = odd_component_census(4, all_vertices=False)
        assert (rec.count, rec.expected_size) == (3, 20)
        b = build_family("odd:4")
        dd = distance_data(b)
        sub = subconstituent(b, dd, 0, 4)
        comp = connected_components(sub)[0]
        from drgq.graphs import induced_subgraph
        comp_graph = induced_subgraph(sub, comp).graph
        ok, _ = are_isomorphic(comp_graph, bipartite_double(petersen_graph()))
        assert ok

    def test_d_too_small(self):
        with pytest.raises(ValueError):
            odd_component_census(2)

    def test_cap_below_component_size_skips_certification(self):
        # size/degree/bipartite evidence still verified when components are
        # too big for backtracking
        rec = odd_component_census(3, all_vertices=False, iso_cap=4)
        assert rec.iso_skipped and rec.iso_components == 0
        assert not rec.iso_certified
        assert rec.count == 3 and rec.component_degree == 2
        assert rec.bipartite_halves_ok

