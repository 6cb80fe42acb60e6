"""Acceptance battery: one test per criterion, tolerances pinned inline.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Everything quantified over base vertices iterates over all of
them; nothing exploits vertex transitivity.
"""

import random

import numpy as np
import pytest

from drgq.connectivity import (dual_sign_change_index, odd_component_census,
                               subconstituent, sweep_last_two, sweep_tail,
                               union_subconstituent)
from drgq.families import cycle_graph, petersen_graph
from drgq.graphs import (are_isomorphic, bipartite_double, build_graph,
                         connected_components, distance_data, induced_subgraph)
from drgq.intersection import NotDRG, check_distance_regular
from drgq.qpoly import balanced_set_check
from drgq.spectral import inner_product_residual

D3_MEMBERS = ("cycle:6", "hamming:3,2", "hamming:3,3", "hamming:4,2",
              "johnson:6,3", "johnson:7,3", "folded_cube:7",
              "odd:3", "odd:4", "odd:5")


def test_criterion_01_last_two_spheres_connected(bundles):
    certified = 0
    for name, b in bundles.items():
        if b.ia.d < 3 or not b.qpoly.is_qpoly:
            continue
        certified += 1
        ok, flags = sweep_last_two(b.graph, b.dd)
        bad = [gamma for gamma, f in enumerate(flags) if not f]
        assert ok, f"{name}: last two spheres disconnected at {bad}"
        assert len(flags) == b.graph.n
    assert certified == len(D3_MEMBERS)  # every d>=3 member is Q-polynomial
    print(f"\ncriterion 1 last-two connectivity: PASS "
          f"({certified} graphs, every vertex)")


def test_criterion_02_odd_graph_census(bundles):
    expected = {3: (3, 6), 4: (3, 20), 5: (10, 20)}
    for d, (count, size) in expected.items():
        b = bundles[f"odd:{d}"]
        rec = odd_component_census(b.graph, b.dd)
        assert rec.count == count and rec.component_sizes == [size] * count
        assert rec.vertices_checked == bundles[f"odd:{d}"].graph.n
        assert rec.bipartite_halves_ok
        if d in (3, 4):
            # isomorphism certified for every component at every vertex
            assert rec.iso_components == rec.vertices_checked * count
            assert rec.iso_certified
        else:
            assert rec.iso_components == count  # certified at the first vertex

    # the certified references are the criterion's named graphs
    for d, reference in ((3, cycle_graph(6)), (3, bipartite_double(cycle_graph(3))),
                         (4, bipartite_double(petersen_graph()))):
        b = bundles[f"odd:{d}"]
        sub = subconstituent(b.graph, b.dd, 0, d)
        for comp in connected_components(sub):
            ok, _ = are_isomorphic(induced_subgraph(sub, comp).graph, reference)
            assert ok
    print("criterion 2 odd-graph census: PASS (counts 3/3/10, sizes 6/20/20, "
          "doubles certified)")


def test_criterion_03_inner_pair_disconnected(bundles):
    for name in ("odd:3", "odd:4"):
        b = bundles[name]
        for gamma in range(b.graph.n):
            sub, _ = union_subconstituent(b.graph, b.dd, gamma, 1, 2)
            assert len(connected_components(sub)) > 1, f"{name}, vertex {gamma}"
    print("criterion 3 sharpness contrast: PASS (spheres 1-2 split at every vertex)")


def test_criterion_04_odd_graph_intersection_numbers(bundles):
    for d in (3, 4, 5):
        b = bundles[f"odd:{d}"]
        target = (d + 2) // 2  # ceil((d+1)/2)
        for h in range(1, d):
            assert b.ia.intersection_number(h, 1, h) == 0
        assert b.ia.intersection_number(d, 1, d) == target
        for gamma in range(b.graph.n):
            degs = set(subconstituent(b.graph, b.dd, gamma, d).degrees())
            assert degs == {target}, f"odd:{d} vertex {gamma}: {degs}"
    print("criterion 4 intersection-number claims: PASS (outer valency 2/3/3)")


def test_criterion_05_folded_cube_subconstituents(bundles):
    b = bundles["folded_cube:7"]
    for gamma in range(b.graph.n):
        for i in (1, 2):
            assert subconstituent(b.graph, b.dd, gamma, i).num_edges == 0
        sub, _ = union_subconstituent(b.graph, b.dd, gamma, 2, 3)
        assert len(connected_components(sub)) == 1
    print("criterion 5 folded-cube subconstituents: PASS (64 vertices)")


def test_criterion_06_inner_product_identity(bundles):
    worst = 0.0
    for b in bundles.values():
        for j in range(b.ia.d + 1):
            worst = max(worst, inner_product_residual(
                b.sd.idempotent(j), b.sd.dual[j], b.dd))
    assert worst < 1e-8
    print(f"criterion 6 projection inner products: PASS (max residual {worst:.2e})")


def test_criterion_07_three_way_consistency(bundles):
    for name, b in bundles.items():
        qp = b.qpoly
        assert qp.consistent, f"{name}: {qp.disagreements}"
        span_starts = {o[1] for o in qp.span_orderings}
        krein_starts = {o[1] for o in qp.krein_orderings}
        for e in range(1, b.ia.d + 1):
            triple = (qp.balanced[e].qpoly, e in span_starts, e in krein_starts)
            assert len(set(triple)) == 1, f"{name} idempotent {e}: {triple}"
    print("criterion 7 decider consistency: PASS (all graphs, all idempotents)")


def test_criterion_08_idempotent_algebra(bundles):
    worst = 0.0
    for name, b in bundles.items():
        ems = [b.sd.idempotent(j) for j in range(b.ia.d + 1)]
        n, d = b.graph.n, b.ia.d
        running = np.zeros((n, n))
        for i in range(d + 1):
            running += ems[i]
            for j in range(d + 1):
                target = ems[i] if i == j else 0.0
                worst = max(worst, float(np.abs(ems[i] @ ems[j] - target).max()))
        worst = max(worst, float(np.abs(running - np.eye(n)).max()))
        worst = max(worst, float(np.abs(ems[0] - 1.0 / n).max()))
        for j in range(d + 1):
            trace = float(np.trace(ems[j]))
            assert abs(trace - round(trace)) <= 1e-6 * n
            assert round(trace) == b.sd.mult[j]
    assert worst < 1e-8
    print(f"criterion 8 idempotent algebra: PASS (max residual {worst:.2e})")


def test_criterion_09_sign_change_tail(bundles):
    for name, b in bundles.items():
        dual = b.sd.dual[1]
        s = dual_sign_change_index(dual, b.tol.dual_zero_snap)
        # inline oracle: scan for the quoted sign pattern and its uniqueness
        snapped = np.where(np.abs(dual) <= 1e-9 * max(1.0, abs(dual[0])), 0.0, dual)
        matches = [t for t in range(1, b.ia.d + 1)
                   if snapped[t - 1] > 0 and snapped[t] <= 0]
        assert matches == [s], f"{name}: sign pattern gives {matches}"
        assert 2 * s >= b.ia.d, f"{name}: s={s} below half of d={b.ia.d}"
        ok, flags = sweep_tail(b.graph, b.dd, s)
        assert ok and len(flags) == b.graph.n, f"{name}: tail from {s} disconnected"
    print("criterion 9 sign-change tail connectivity: PASS (all graphs, every vertex)")


def test_criterion_10_dual_sequence_oracle(bundles):
    worst = 0.0
    for b in bundles.values():
        bb, cc, aa, k = b.ia.b, b.ia.c, b.ia.a, b.ia.k
        for j in range(b.ia.d + 1):
            theta = float(b.sd.theta[j])
            u = [1.0, theta / k]
            for i in range(1, b.ia.d):
                u.append(((theta - aa[i]) * u[i] - cc[i - 1] * u[i - 1]) / bb[i])
            oracle = b.sd.mult[j] * np.array(u[:b.ia.d + 1])
            scale = max(1.0, float(np.abs(oracle).max()))
            worst = max(worst, float(np.abs(b.sd.dual[j] - oracle).max()) / scale)
    assert worst < 1e-8
    print(f"criterion 10 dual-sequence oracle: PASS (max relative error {worst:.2e})")


def test_criterion_11_negative_paths(bundles):
    # a path graph is rejected with a sound witness
    path = build_graph(3, [(0, 1), (1, 2)])
    dd = distance_data(path)
    verdict = check_distance_regular(path, dd)
    assert isinstance(verdict, NotDRG)
    for pair, count in ((verdict.pair_a, verdict.count_a),
                        (verdict.pair_b, verdict.count_b)):
        recount = int(np.sum((dd.dist[pair[0]] == verdict.i)
                             & (dd.dist[pair[1]] == verdict.j)))
        assert recount == count
    assert verdict.count_a != verdict.count_b

    # a seeded random non-regular connected graph is rejected the same way
    rng = random.Random(11)
    n = 12
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35]
    g = build_graph(n, edges)
    dd = distance_data(g)  # connected for this seed
    assert len(set(g.degrees())) > 1  # and not regular
    verdict = check_distance_regular(g, dd)
    assert isinstance(verdict, NotDRG)
    recount_a = int(np.sum((dd.dist[verdict.pair_a[0]] == verdict.i)
                           & (dd.dist[verdict.pair_a[1]] == verdict.j)))
    recount_b = int(np.sum((dd.dist[verdict.pair_b[0]] == verdict.i)
                           & (dd.dist[verdict.pair_b[1]] == verdict.j)))
    assert (recount_a, recount_b) == (verdict.count_a, verdict.count_b)
    assert recount_a != recount_b

    # colliding dual values trip the membership guard, matching the
    # ordering-recovery verdict for the same idempotent
    b = bundles["hamming:4,2"]
    res = balanced_set_check(b.dd, b.ia, b.sd, 2)
    assert not res.qpoly and res.duplicate_dual_index == 4
    assert 2 not in {o[1] for o in b.qpoly.span_orderings}
    print("criterion 11 negative paths: PASS (witnesses recounted from scratch)")
