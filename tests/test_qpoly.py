"""Balanced-set sweep, ordering recovery, Krein oracle, and their agreement.

Brute-force re-computation from raw definitions backs every assertion that
matters: instance sums are rebuilt from sphere intersections, never through
the production sweep's vectorized path.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from drgq import qpoly
from drgq.errors import NumericalError
from drgq.qpoly import (SAMPLE_INSTANCES, _ordering_for_candidate, balanced_set_check,
                        krein_orderings, krein_parameters, qpoly_orderings,
                        qpoly_report, resolve_mode)


@pytest.fixture(scope="module")
def small(bundles):
    return {k: bundles[k] for k in
            ("petersen", "cycle:6", "hamming:3,2", "hamming:4,2", "odd:3")}


def brute_sides(b, e, x, y, i, j):
    """Both sides of the balanced identity, straight from the definition."""
    dist = b.dd.dist
    emat = b.sd.idempotent(e)
    dual = b.sd.dual[e]
    h = int(dist[x, y])
    in_both = np.nonzero((dist[x] == i) & (dist[y] == j))[0]
    swapped = np.nonzero((dist[x] == j) & (dist[y] == i))[0]
    lhs = emat[:, in_both].sum(axis=1) - emat[:, swapped].sum(axis=1)
    rhs = b.ia.p[h, i, j] * (dual[i] - dual[j]) / (dual[0] - dual[h]) \
        * (emat[:, x] - emat[:, y])
    return lhs, rhs


class TestBalancedSet:
    def test_cube_first_idempotent_passes(self, small):
        b = small["hamming:3,2"]
        res = balanced_set_check(b.dd, b.ia, b.sd, 1)
        assert res.qpoly and res.witness is None
        assert res.worst_residual < 1e-10
        assert res.mode == "full"

    def test_odd3_passes_at_three_fails_at_one(self, small):
        b = small["odd:3"]
        assert balanced_set_check(b.dd, b.ia, b.sd, 3).qpoly
        res = balanced_set_check(b.dd, b.ia, b.sd, 1)
        assert not res.qpoly and res.witness is not None
        # witness instance really violates the identity, by brute force
        h, i, j, x, y, rel = res.witness
        lhs, rhs = brute_sides(b, 1, x, y, i, j)
        assert int(b.dd.dist[x, y]) == h
        assert np.abs(lhs - rhs).max() > 1e-3

    def test_witness_is_lexicographic_minimum(self, small):
        b = small["odd:3"]
        res = balanced_set_check(b.dd, b.ia, b.sd, 1)
        h, i, j, x, y, _ = res.witness
        # no failing instance below the witness in (h,i,j,x,y) order; spot
        # check all instances with smaller h or equal h and smaller (i,j,x)
        dist = b.dd.dist
        tol = b.tol.balanced_rel
        for hh in range(1, h + 1):
            for ii in range(b.ia.d + 1):
                for jj in range(ii + 1, b.ia.d + 1):
                    if (hh, ii, jj) > (h, i, j):
                        continue
                    for xx in range(x + 1 if (hh, ii, jj) == (h, i, j) else b.graph.n):
                        for yy in np.nonzero(dist[xx] == hh)[0]:
                            if (hh, ii, jj, xx, int(yy)) >= (h, i, j, x, y):
                                continue
                            lhs, rhs = brute_sides(b, 1, xx, int(yy), ii, jj)
                            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1 / b.graph.n)
                            assert np.abs(lhs - rhs).max() / scale <= tol

    def test_duplicate_dual_guard(self, small):
        b = small["hamming:4,2"]
        # the middle idempotent has dual values (6, 0, -2, 0, 6)
        assert np.allclose(b.sd.dual[2], [6, 0, -2, 0, 6], atol=1e-9)
        res = balanced_set_check(b.dd, b.ia, b.sd, 2)
        assert not res.qpoly
        assert res.duplicate_dual_index == 4
        assert res.instances == 0

    def test_antisymmetry_of_both_sides(self, small):
        b = small["odd:3"]
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = int(rng.integers(b.graph.n))
            y = int(rng.integers(b.graph.n))
            if x == y:
                continue
            i, j = sorted(rng.choice(b.ia.d + 1, size=2, replace=False))
            for e in (1, 3):
                lhs, rhs = brute_sides(b, e, x, y, int(i), int(j))
                lhs_swapped, rhs_swapped = brute_sides(b, e, x, y, int(j), int(i))
                assert np.allclose(lhs_swapped, -lhs, atol=1e-12)
                assert np.allclose(rhs_swapped, -rhs, atol=1e-12)

    def test_equal_indices_vanish_identically(self, small):
        b = small["petersen"]
        for x, y in ((0, 1), (0, 7)):
            for i in range(b.ia.d + 1):
                lhs, rhs = brute_sides(b, 1, x, y, i, i)
                assert np.abs(lhs).max() == 0.0
                assert np.abs(rhs).max() == 0.0

    def test_sampled_mode_deterministic_and_correct(self, small):
        b = small["odd:3"]
        runs = [balanced_set_check(b.dd, b.ia, b.sd, e, mode="sampled", seed=0,
                                   sample_size=2000)
                for e in (1, 3)]
        assert not runs[0].qpoly and runs[1].qpoly
        again = balanced_set_check(b.dd, b.ia, b.sd, 1, mode="sampled", seed=0,
                                   sample_size=2000)
        assert again.witness == runs[0].witness
        assert again.worst_residual == runs[0].worst_residual
        assert again.seed == 0 and again.instances == 2000

    def test_trivial_idempotent_rejected(self, small):
        b = small["petersen"]
        with pytest.raises(ValueError):
            balanced_set_check(b.dd, b.ia, b.sd, 0)

    def test_mode_resolution(self):
        assert resolve_mode(150, "auto") == "full"
        assert resolve_mode(250, "auto") == "sampled"
        assert resolve_mode(250, "full") == "full"
        with pytest.raises(ValueError):
            resolve_mode(10, "fast")
        assert SAMPLE_INSTANCES == 10_000


class TestBatchedKernel:
    def test_residuals_match_definition(self, small):
        b = small["odd:3"]
        n, rng = b.graph.n, np.random.default_rng(7)
        xs = rng.integers(n, size=60)
        ys = (xs + 1 + rng.integers(n - 1, size=60)) % n
        work = np.empty((3, max(qpoly.BATCH_ENTRIES, n)))
        for e in (1, 3):
            coeff = qpoly._coefficients(b.ia, b.sd.dual[e])
            for i, j in ((0, 1), (1, 2), (1, 3), (2, 3)):
                got = qpoly._residuals(xs, ys, i, j, b.sd.idempotent(e), b.dd.dist, coeff, work)
                for x, y, rel in zip(xs, ys, got):
                    lhs, rhs = brute_sides(b, e, int(x), int(y), i, j)
                    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1 / n)
                    assert abs(np.abs(lhs - rhs).max() / scale - rel) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("spec", ["odd:3", "hamming:3,3", "johnson:7,3"])
    def test_batch_size_does_not_change_result(self, bundles, monkeypatch, spec, rows):
        b = bundles[spec]
        runs = {}
        for label, entries in (("default", qpoly.BATCH_ENTRIES), ("small", rows * b.graph.n)):
            monkeypatch.setattr(qpoly, "BATCH_ENTRIES", entries)
            runs[label] = [balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode, sample_size=500)
                           for mode in ("full", "sampled") for e in range(1, b.ia.d + 1)]
        for ref, got in zip(runs["default"], runs["small"]):
            assert (got.qpoly, got.instances, got.mode) == (ref.qpoly, ref.instances, ref.mode)
            assert abs(got.worst_residual - ref.worst_residual) <= 1e-13
            assert (got.witness is None) == (ref.witness is None)
            if ref.witness is not None:
                assert got.witness[:5] == ref.witness[:5]
                assert abs(got.witness[5] - ref.witness[5]) <= 1e-13

    def test_pinned_witnesses_small(self, small):
        b = small["odd:3"]
        sampled = balanced_set_check(b.dd, b.ia, b.sd, 1, mode="sampled", seed=0,
                                     sample_size=2000)
        full = balanced_set_check(b.dd, b.ia, b.sd, 1, mode="full")
        assert sampled.witness[:5] == (3, 1, 2, 0, 11)
        assert full.witness[:5] == (3, 1, 2, 0, 9)

    def test_pinned_witnesses_large(self, bundles):
        odd4, odd5 = bundles["odd:4"].qpoly.balanced, bundles["odd:5"].qpoly.balanced
        for e in (1, 2, 3):
            assert odd4[e].mode == "full" and odd4[e].witness[:5] == (3, 1, 2, 0, 46)
        assert odd4[4].qpoly
        for e in (1, 2, 3, 4):
            assert odd5[e].mode == "sampled" and odd5[e].witness[:5] == (3, 1, 2, 10, 351)
        assert odd5[5].qpoly

    def test_witness_entries_are_python_scalars(self, small):
        b = small["odd:3"]
        for mode in ("full", "sampled"):
            w = balanced_set_check(b.dd, b.ia, b.sd, 1, mode=mode, sample_size=500).witness
            assert [type(v) for v in w] == [int] * 5 + [float]

    def test_full_positive_counts_every_instance(self, bundles):
        for b in bundles.values():
            for res in b.qpoly.balanced.values():
                if res.mode == "full" and res.qpoly:
                    d, n = b.ia.d, b.graph.n
                    assert res.instances == n * (n - 1) * d * (d + 1) // 2

    def test_full_negative_counts_up_to_witness(self, small):
        # instances before the witness in (h, i<j, x, y) order, plus the witness itself
        b = small["odd:3"]
        res = balanced_set_check(b.dd, b.ia, b.sd, 1, mode="full")
        h, i, j, x, y, rel = res.witness
        cells = [(a, c) for a in range(b.ia.d + 1) for c in range(a + 1, b.ia.d + 1)]
        dist = b.dd.dist
        before = sum(int((dist == hh).sum()) for hh in range(1, h)) * len(cells)
        pairs = [tuple(map(int, p)) for p in np.argwhere(dist == h)]
        before += cells.index((i, j)) * len(pairs) + pairs.index((x, y))
        assert res.instances == before + 1
        assert res.worst_residual >= rel


class TestOrderings:
    def test_petersen_both_orderings(self, small):
        got = qpoly_orderings(small["petersen"].sd)
        assert got == [[0, 1, 2], [0, 2, 1]]

    def test_cube_natural_ordering_present(self, small):
        got = qpoly_orderings(small["hamming:3,2"].sd)
        assert [0, 1, 2, 3] in got

    def test_repeated_dual_candidate_yields_nothing(self, small):
        got = qpoly_orderings(small["hamming:4,2"].sd)
        assert sorted(o[1] for o in got) == [1, 3]  # 2 has collapsed duals

    def test_misplaced_chain_raises(self, small):
        # swapping the duals of E_0 and E_2 lets E_2 enter the span chain first
        sd = small["petersen"].sd
        fake = SimpleNamespace(d=sd.d, dual=sd.dual[[2, 1, 0]])
        with pytest.raises(NumericalError, match="does not start"):
            _ordering_for_candidate(fake, 1)

    def test_orderings_start_at_zero(self, bundles):
        for b in bundles.values():
            for ordering in b.qpoly.span_orderings:
                assert ordering[0] == 0
                assert sorted(ordering) == list(range(b.ia.d + 1))


class TestKreinOracle:
    def test_zeroth_slice_is_diagonal_multiplicities(self, small):
        for b in small.values():
            q = krein_parameters(b.sd)
            d = b.ia.d
            for i in range(d + 1):
                for j in range(d + 1):
                    expected = b.sd.mult[i] if i == j else 0.0
                    assert abs(q[0, i, j] - expected) < 1e-8

    def test_closed_form_matches_dense_definition(self, bundles):
        # q^h_ij = n tr((E_i o E_j) E_h) / m_h on the dense projectors
        for b in bundles.values():
            q = krein_parameters(b.sd)
            ems = [b.sd.idempotent(j) for j in range(b.ia.d + 1)]
            for h, i, j in np.ndindex(q.shape):
                dense = b.graph.n * float(np.sum(ems[i] * ems[j] * ems[h])) / b.sd.mult[h]
                assert abs(q[h, i, j] - dense) < 1e-10

    def test_nonnegativity(self, bundles):
        for b in bundles.values():
            q = krein_parameters(b.sd)
            assert q.min() > -1e-8

    def test_cube_tridiagonal_pattern(self, small):
        b = small["hamming:3,2"]
        q = krein_parameters(b.sd)
        assert abs(q[1, 1, 3]) < 1e-8
        assert q[1, 1, 2] > 1e-3

    def test_krein_orderings_match_span(self, bundles):
        for b in bundles.values():
            q = krein_parameters(b.sd)
            assert sorted(krein_orderings(q)) == sorted(qpoly_orderings(b.sd))


class TestProofInstance:
    def test_inner_products_with_base_vertex_projection(self, small):
        # project both sides of a distance-3 instance onto E applied to each
        # base vertex: the sums collapse to dual-value differences
        b = small["odd:3"]
        e = 3
        emat = b.sd.idempotent(e)
        dual = b.sd.dual[e]
        dist = b.dd.dist
        n = b.graph.n
        x = 0
        y = int(np.nonzero(dist[x] == 3)[0][0])
        i, j, h = 1, 2, 3
        lhs, rhs = brute_sides(b, e, x, y, i, j)
        coeff = b.ia.p[h, i, j] * (dual[i] - dual[j]) / (dual[0] - dual[h])
        in_both = np.nonzero((dist[x] == i) & (dist[y] == j))[0]
        swapped = np.nonzero((dist[x] == j) & (dist[y] == i))[0]
        for gamma in range(n):
            col = emat[:, gamma]
            left = float(lhs @ col)
            right = float(rhs @ col)
            assert abs(left - right) < 1e-10
            # both sides, re-expressed through dual values only
            left_dual = (dual[dist[in_both, gamma]].sum()
                         - dual[dist[swapped, gamma]].sum()) / n
            right_dual = coeff * (dual[dist[x, gamma]] - dual[dist[y, gamma]]) / n
            assert abs(left - left_dual) < 1e-10
            assert abs(right - right_dual) < 1e-10


class TestConsistency:
    def test_three_deciders_agree_everywhere(self, bundles):
        for name, b in bundles.items():
            assert b.qpoly.consistent, f"{name}: {b.qpoly.disagreements}"

    def test_verdict_means_ordering_membership(self, bundles):
        for b in bundles.values():
            starts = {o[1] for o in b.qpoly.span_orderings}
            for e, res in b.qpoly.balanced.items():
                assert res.qpoly == (e in starts)

    def test_positive_verdicts_have_distinct_duals(self, bundles):
        for b in bundles.values():
            for e, res in b.qpoly.balanced.items():
                if res.qpoly:
                    dual = b.sd.dual[e]
                    diffs = np.abs(dual[:, None] - dual[None, :])
                    off = diffs[~np.eye(dual.size, dtype=bool)]
                    assert off.min() > 1e-6

    def test_report_shape(self, small):
        b = small["cycle:6"]
        qp = qpoly_report(b.dd, b.ia, b.sd)
        assert qp.qpoly_candidates == [1]
        assert qp.is_qpoly
        assert qp.worst_residual < 1e-10
        assert set(qp.balanced) == {1, 2, 3}
