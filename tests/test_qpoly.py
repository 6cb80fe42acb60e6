"""Balanced-set sweep, ordering recovery, Krein oracle, and their agreement.

Brute-force re-computation from raw definitions backs every assertion that
matters: instance sums are rebuilt from sphere intersections, never through
the production sweep's vectorized path.  The sweep's level-one coordinate
bound, its factor kernel and its column-blocked expansion are held to a
dense reference sweep kept here, which sends every instance through
M @ E_j on the dense projector.
"""

import math
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgq import qpoly
from drgq.catalogue import CATALOGUE, build_bundle
from drgq.errors import MathAssertionError, NumericalError
from drgq.families import build_family
from drgq.qpoly import (SAMPLE_INSTANCES, _ordering_for_candidate, balanced_set_check,
                        krein_orderings, krein_parameters, qpoly_orderings,
                        qpoly_report, resolve_mode)
from drgq.report import run_analysis
from drgq.spectral import SpectralData
from drgq.tolerances import DEFAULT_TOLERANCES
from reference import krein_orderings_dfs


@pytest.fixture(scope="module")
def small(bundles):
    return {k: bundles[k] for k in
            ("petersen", "cycle:6", "hamming:3,2", "hamming:4,2", "odd:3")}


def cells_of(b):
    return [(i, j) for i in range(b.ia.d + 1) for j in range(i + 1, b.ia.d + 1)]


def live_cells(b, h):
    """The cells 1 <= i < j with p^h_ij > 0, the only ones that can fail at level h."""
    return [(i, j) for i, j in cells_of(b) if i >= 1 and b.ia.p[h, i, j]]


def drawn_sample(b, sample_size, seed):
    """The sampled sweep's instances (h, i, j, x, y), from scalar draws: every
    live cell of each drawn pair, until sample_size instances are reached."""
    n = b.graph.n
    rng = np.random.default_rng(seed)
    sample = []
    while len(sample) < sample_size:
        x, y = int(rng.integers(n)), int(rng.integers(n - 1))
        y += y >= x
        h = int(b.dd.dist[x, y])
        sample.extend((h, i, j, x, y) for i, j in live_cells(b, h))
    return sample


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


def coefficient(b, e, h, i, j):
    """p^h_ij (dual_i - dual_j) / (dual_0 - dual_h) for candidate e, from its
    definition; h may be an array of levels, one per instance."""
    dual = b.sd.dual[e]
    return b.ia.p[h, i, j] * (dual[i] - dual[j]) / (dual[0] - dual[h])


def levels_of(b, xs, ys):
    """(h, xs, ys) for each level h = dist[x, y] among the instances, since
    the sweep's kernels take one block (h, i, j) and its scalar coefficient."""
    hs = b.dd.dist[xs, ys]
    return [(int(h), xs[hs == h], ys[hs == h]) for h in np.unique(hs)]


def dense_residuals(xs, ys, i, j, b, e, work):
    """The dense reference kernel: the relative residuals of one batch as
    M @ E_j against the dense projector, each instance's coefficient taken
    from its definition with h = dist[x, y]."""
    dist, e_mat = b.dd.dist, b.sd.idempotent(e)
    t, n = len(xs), dist.shape[0]
    m, lhs, rhs = (w[:t * n].reshape(t, n) for w in work)
    np.matmul(qpoly._mask(xs, ys, i, j, dist, m), e_mat, out=lhs)
    np.take(e_mat, xs, axis=0, out=rhs)
    rhs -= np.take(e_mat, ys, axis=0, out=m)
    rhs *= coefficient(b, e, dist[xs, ys], i, j)[:, None]
    scale = np.maximum(np.abs(lhs, out=m).max(axis=1), np.abs(rhs, out=m).max(axis=1))
    np.maximum(scale, 1.0 / n, out=scale)
    return np.abs(np.subtract(lhs, rhs, out=m), out=m).max(axis=1) / scale


def column_of(b, e):
    """E_e's coordinate vector: its value on a pair at distance h."""
    return b.sd.dual[e] / b.graph.n


def dense_sweep(b, e, mode, rel_tol, sample_size=SAMPLE_INSTANCES, seed=0):
    """The dense reference: every instance of the stream through M @ E_j, in
    witness order, stopping at the first failure.  Returns (worst, instances,
    witness) as the production sweep does."""
    n, dist = b.graph.n, b.dd.dist
    work = np.empty((3, max(qpoly.BATCH_ENTRIES, n)))
    size = max(1, qpoly.BATCH_ENTRIES // n)
    worst, checked = 0.0, 0
    for h, i, j, xs, ys in qpoly._instance_blocks(dist, b.ia.p, mode, sample_size, seed):
        for s in range(0, len(xs), size):
            bx, by = xs[s:s + size], ys[s:s + size]
            rel = dense_residuals(bx, by, i, j, b, e, work)
            bad = np.flatnonzero(rel > rel_tol)
            t = int(bad[0]) if bad.size else rel.size - 1
            worst = max(worst, float(rel[:t + 1].max()))
            checked += t + 1
            if bad.size:
                return worst, checked, (h, i, j, int(bx[t]), int(by[t]), float(rel[t]))
    return worst, checked, None


def guarded(b, e):
    """True when the duplicate-dual guard decides candidate e before any sweep."""
    return b.qpoly.balanced[e].duplicate_dual_index is not None


def assert_matches_dense(res, ref):
    worst, instances, witness = ref
    assert (res.qpoly, res.instances) == (witness is None, instances)
    assert (res.witness is None) == (witness is None)
    if witness is not None:
        assert res.witness[:5] == witness[:5]
        assert abs(res.witness[5] - witness[5]) <= 1e-12
        assert abs(res.worst_residual - worst) <= 1e-12
    else:
        assert res.worst_residual >= worst


@pytest.fixture
def expansions(monkeypatch):
    """Counts the instances the sweep expands to n coordinates."""
    seen = []
    exact = qpoly._residuals

    def spy(xs, *rest):
        seen.append(len(xs))
        return exact(xs, *rest)

    monkeypatch.setattr(qpoly, "_residuals", spy)
    return seen


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

    def test_coincident_duals_after_a_pass_raise(self, small, monkeypatch):
        # the cube's E_1 has dual values (3, 1, -1, -3); make 2 and 3 coincide,
        # which the guard against index 0 lets through, and let the sweep pass
        b = small["hamming:3,2"]
        dual = b.sd.dual.copy()
        dual[1, 2:] = -1.0
        monkeypatch.setattr(qpoly, "_sweep", lambda *args: (0.0, 1, None))
        message = r"idempotent 1 but dual values 2 and 3 coincide \(-1\.0\); this should be"
        with pytest.raises(MathAssertionError, match=message):
            balanced_set_check(b.dd, b.ia, replace(b.sd, dual=dual), 1)

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
        # the instances up to the witness; the positive run checks the live
        # instances of the shortest pair prefix holding 2000 of them
        assert again.seed == 0 and again.instances == 763
        assert runs[1].instances == 2001

    @pytest.mark.parametrize("size", [0, -1])
    def test_empty_sample_refused(self, bundles, size):
        # an empty sample would check nothing and pass; one instance already
        # finds odd:4 E2's witness
        b = bundles["odd:4"]
        with pytest.raises(ValueError, match=f"sample_size must be at least 1, got {size}"):
            balanced_set_check(b.dd, b.ia, b.sd, 2, mode="sampled", sample_size=size)
        res = balanced_set_check(b.dd, b.ia, b.sd, 2, mode="sampled", sample_size=1)
        assert not res.qpoly and res.witness[:5] == (3, 1, 2, 107, 79)

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
        # the production kernel and the dense reference, both against brute force
        b = small["odd:3"]
        n, rng = b.graph.n, np.random.default_rng(7)
        xs = rng.integers(n, size=60)
        ys = (xs + 1 + rng.integers(n - 1, size=60)) % n
        work = np.empty((3, max(qpoly.BATCH_ENTRIES, n)))
        for e in (1, 3):
            for (h, hx, hy), (i, j) in product(levels_of(b, xs, ys),
                                               ((0, 1), (1, 2), (1, 3), (2, 3))):
                c = coefficient(b, e, h, i, j)
                for got in (qpoly._residuals(hx, hy, i, j, column_of(b, e), b.dd.dist, c, work),
                            dense_residuals(hx, hy, i, j, b, e, work)):
                    for x, y, rel in zip(hx, hy, got):
                        lhs, rhs = brute_sides(b, e, int(x), int(y), i, j)
                        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1 / n)
                        assert abs(np.abs(lhs - rhs).max() / scale - rel) <= 1e-12

    @pytest.mark.parametrize("width", [1, 7])
    @pytest.mark.parametrize("spec", ["odd:3", "hamming:3,3", "johnson:7,3"])
    def test_blocks_match_dense_reference(self, bundles, monkeypatch, spec, width):
        # M E_j formed a block of 1 and of 7 columns of E_j at a time
        b = bundles[spec]
        n, dist, rng = b.graph.n, b.dd.dist, np.random.default_rng(13)
        xs = rng.integers(n, size=40)
        ys = (xs + 1 + rng.integers(n - 1, size=40)) % n
        work = np.empty((3, max(qpoly.BATCH_ENTRIES, 40 * n)))
        monkeypatch.setattr(qpoly, "BATCH_ENTRIES", width * n)
        for e in range(1, b.ia.d + 1):
            if guarded(b, e):
                continue
            for (h, hx, hy), (i, j) in product(levels_of(b, xs, ys), cells_of(b)):
                c = coefficient(b, e, h, i, j)
                got = qpoly._residuals(hx, hy, i, j, column_of(b, e), dist, c, work)
                ref = dense_residuals(hx, hy, i, j, b, e, work)
                assert np.abs(got - ref).max() <= 1e-12, (e, h, i, j)

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
        assert sampled.witness[:5] == (3, 1, 2, 0, 9)
        assert full.witness[:5] == (3, 1, 2, 0, 9)

    def test_pinned_witnesses_large(self, bundles):
        odd4, odd5 = bundles["odd:4"].qpoly.balanced, bundles["odd:5"].qpoly.balanced
        for e in (1, 2, 3):
            assert odd4[e].mode == "full" and odd4[e].witness[:5] == (3, 1, 2, 0, 46)
        assert odd4[4].qpoly
        for e in (1, 2, 3, 4):
            assert odd5[e].mode == "sampled" and odd5[e].witness[:5] == (3, 1, 2, 0, 207)
        assert odd5[5].qpoly

    def test_witness_entries_are_python_scalars(self, small):
        b = small["odd:3"]
        for mode in ("full", "sampled"):
            w = balanced_set_check(b.dd, b.ia, b.sd, 1, mode=mode, sample_size=500).witness
            assert [type(v) for v in w] == [int] * 5 + [float]

    def test_full_positive_counts_every_instance(self, bundles):
        # the n k_h / 2 unordered pairs at distance h, once per cell
        # 1 <= i < j with p^h_ij > 0
        for b in bundles.values():
            for res in b.qpoly.balanced.values():
                if res.mode == "full" and res.qpoly:
                    assert res.instances == sum(
                        b.graph.n * b.ia.sphere_sizes[h] // 2 * len(live_cells(b, h))
                        for h in range(1, b.ia.d + 1))

    def test_full_negative_counts_up_to_witness(self, small):
        # live instances before the witness in (h, i<j, x<y) order, plus the witness
        b = small["odd:3"]
        res = balanced_set_check(b.dd, b.ia, b.sd, 1, mode="full")
        h, i, j, x, y, rel = res.witness
        dist = np.triu(b.dd.dist)
        before = sum(int((dist == hh).sum()) * len(live_cells(b, hh)) for hh in range(1, h))
        pairs = [tuple(map(int, q)) for q in np.argwhere(dist == h)]
        before += live_cells(b, h).index((i, j)) * len(pairs) + pairs.index((x, y))
        assert res.instances == before + 1
        assert res.worst_residual >= rel

    def test_full_matches_ordered_pair_sweep(self, small):
        # (y, x) has the negated mask and rhs of (x, y), so a sweep over every
        # ordered pair reaches full mode's verdict, witness and worst residual
        for b in small.values():
            n, dist = b.graph.n, b.dd.dist
            for e in range(1, b.ia.d + 1):
                if guarded(b, e):
                    continue
                blocks = []
                for h in range(1, b.ia.d + 1):
                    pairs = np.array([(x, y) for x in range(n) for y in range(n) if dist[x, y] == h])
                    blocks += [(h, i, j, pairs[:, 0], pairs[:, 1]) for i, j in live_cells(b, h)]
                worst, _, witness = qpoly._sweep(blocks, b.sd, e, b.ia.p, b.tol.balanced_rel)
                res = balanced_set_check(b.dd, b.ia, b.sd, e, mode="full")
                assert res.qpoly == (witness is None)
                assert (res.witness, res.worst_residual) == (witness, worst)

    def test_sampled_witness_is_smallest_failure_in_sample(self, small):
        b = small["odd:3"]
        res = balanced_set_check(b.dd, b.ia, b.sd, 1, mode="sampled", seed=0, sample_size=2000)
        failing = []
        for h, i, j, x, y in drawn_sample(b, 2000, 0):
            lhs, rhs = brute_sides(b, 1, x, y, i, j)
            scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1 / b.graph.n)
            if np.abs(lhs - rhs).max() / scale > b.tol.balanced_rel:
                failing.append((h, i, j, x, y))
        assert res.witness[:5] == min(failing)

    @pytest.mark.parametrize("spec, negatives", [("odd:4", (1, 2, 3)), ("johnson:7,3", (2, 3))])
    def test_sampled_negative_counts_up_to_witness(self, bundles, spec, negatives):
        # the witness's position in the sample's live witness order, plus one
        b = bundles[spec]
        live = sorted(drawn_sample(b, 700, 5))
        for e in negatives:
            res = balanced_set_check(b.dd, b.ia, b.sd, e, mode="sampled", seed=5, sample_size=700)
            assert res.instances == live.index(res.witness[:5]) + 1

    def test_vacuous_cell_residual_is_exactly_zero(self, small):
        # the cells the sweep skips: p^h_ij = 0, and (0, h), whose sides are both E x - E y
        b = small["odd:3"]
        work = np.empty((3, max(qpoly.BATCH_ENTRIES, b.graph.n)))
        assert b.ia.p[1, 0, 2] == 0
        cells = [(1, 0, 2)] + [(h, 0, h) for h in range(1, b.ia.d + 1)]
        for e in range(1, b.ia.d + 1):
            for h, i, j in cells:
                xs, ys = np.nonzero(b.dd.dist == h)
                rel = qpoly._residuals(xs, ys, i, j, column_of(b, e), b.dd.dist,
                                       coefficient(b, e, h, i, j), work)
                assert rel.size == len(xs) and not rel.any(), (e, h, i, j)

    @pytest.mark.parametrize("spec, mode, witness", [("odd:4", "full", (3, 1, 2, 0, 46)),
                                                     ("odd:5", "sampled", (3, 1, 2, 0, 207))])
    def test_negatives_expand_only_their_witness(self, bundles, expansions, spec, mode, witness):
        # the witness is the first instance its bound leaves unclear; expanding
        # its whole batch at once took 520 (odd:4) and 141 (odd:5) instances
        b = bundles[spec]
        for e in range(1, b.ia.d):
            expansions.clear()
            res = balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode)
            assert not res.qpoly and res.witness[:5] == witness
            assert res.instances == {"odd:4": 4726, "odd:5": 397}[spec]
            assert expansions == [1]

    @pytest.mark.parametrize("spec, unguarded", [("odd:5", 5), ("hamming:8,2", 4)])
    def test_report_draws_one_sample(self, monkeypatch, spec, unguarded):
        # the report's candidates share one pair draw; a candidate checked
        # alone draws its own and reaches the same result
        b = build_bundle(spec)
        draws, draw = [], qpoly._sampled_pairs
        monkeypatch.setattr(qpoly, "_sampled_pairs", lambda *args: draws.append(1) or draw(*args))
        report = qpoly_report(b.dd, b.ia, b.sd)
        assert len(draws) == 1 and report.balanced[1].mode == "sampled"
        draws.clear()
        alone = {e: balanced_set_check(b.dd, b.ia, b.sd, e) for e in report.balanced}
        assert alone == report.balanced and len(draws) == unguarded

    def test_sampled_positive_checks_nominal_live_instances(self, bundles, monkeypatch):
        b = bundles["odd:5"]
        seen = []
        stream = qpoly._instance_blocks

        def spy(*args):
            for block in stream(*args):
                seen.append((*block[:3], len(block[3])))
                yield block

        monkeypatch.setattr(qpoly, "_instance_blocks", spy)
        res = balanced_set_check(b.dd, b.ia, b.sd, 5)
        assert res.qpoly and res.mode == "sampled"
        assert res.instances >= SAMPLE_INSTANCES
        assert res.instances == sum(size for *_, size in seen)
        assert all(1 <= i < j and b.ia.p[h, i, j] > 0 for h, i, j, _ in seen)


class TestFactorKernel:
    def test_factor_is_certified(self, bundles):
        for b in bundles.values():
            for e in range(1, b.ia.d + 1):
                fac = qpoly._factor(b.sd, e)
                assert fac.f.shape == (b.graph.n, b.sd.mult[e])
                dense = np.abs(fac.f @ fac.f.T - b.sd.idempotent(e)).max()
                assert abs(fac.delta - dense) <= 1e-15 and fac.delta < 1e-12
                assert abs(fac.rho ** 2 - b.sd.mult[e] / b.graph.n) < 1e-12

    def test_bound_covers_exact_residual(self, bundles):
        # random pairs in every cell, passing and failing, for every candidate
        passing = failing = 0
        for b in bundles.values():
            n, dist, tol = b.graph.n, b.dd.dist, b.tol.balanced_rel
            rng = np.random.default_rng(11)
            xs = rng.integers(n, size=80)
            ys = (xs + 1 + rng.integers(n - 1, size=80)) % n
            work = np.empty((3, max(qpoly.BATCH_ENTRIES, n)))
            for e in range(1, b.ia.d + 1):
                if guarded(b, e):
                    continue
                fac = qpoly._factor(b.sd, e)
                for (h, hx, hy), (i, j) in product(levels_of(b, xs, ys), cells_of(b)):
                    exact = dense_residuals(hx, hy, i, j, b, e, work)
                    bound = qpoly._bounds(hx, hy, i, j, fac, dist, coefficient(b, e, h, i, j),
                                          b.ia.p[h, i, j], work)
                    assert np.all(bound >= exact), (b.name, e, h, i, j)
                    passing += int((exact <= tol).sum())
                    failing += int((exact > tol).sum())
        assert passing and failing

    @pytest.mark.parametrize("corrupt", [
        lambda f: f[:, :-1],
        lambda f: f + 1e-3 * (np.arange(f.size).reshape(f.shape) == 7),
    ], ids=["dropped_column", "perturbed_entry"])
    @pytest.mark.parametrize("spec", ["odd:3", "johnson:7,3", "hamming:4,2"])
    def test_corrupted_factor_is_caught(self, bundles, monkeypatch, expansions, spec, corrupt):
        b = bundles[spec]
        clean = [balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode, sample_size=500)
                 for mode in ("full", "sampled") for e in range(1, b.ia.d + 1)]
        cholesky = qpoly._cholesky
        monkeypatch.setattr(qpoly, "_cholesky", lambda sd, j: corrupt(cholesky(sd, j)))
        monkeypatch.setattr(qpoly, "_level_one", lambda sd, p, e: np.full(sd.d, np.nan))
        for e in range(1, b.ia.d + 1):
            assert qpoly._factor(b.sd, e).delta > 1e-8
        expansions.clear()
        runs = [balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode, sample_size=500)
                for mode in ("full", "sampled") for e in range(1, b.ia.d + 1)]
        # delta is too large for any bound to clear: every instance is expanded
        assert sum(expansions) >= sum(r.instances for r in runs)
        for ref, got in zip(clean, runs):
            assert (got.qpoly, got.instances, got.mode) == (ref.qpoly, ref.instances, ref.mode)
            assert (got.witness is None) == (ref.witness is None)
            if ref.witness is not None:
                assert got.witness[:5] == ref.witness[:5]
                assert abs(got.witness[5] - ref.witness[5]) <= 1e-12

    @pytest.mark.parametrize("spec", ["odd:3", "johnson:7,3", "hamming:4,2"])
    def test_corrupted_factor_beside_level_one_certificate(self, bundles, monkeypatch,
                                                           expansions, spec):
        # the coordinate certificate carries level one; the corrupted factor
        # clears nothing after it, so those instances are all expanded
        b = bundles[spec]
        clean = [balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode, sample_size=500)
                 for mode in ("full", "sampled") for e in range(1, b.ia.d + 1)]
        cholesky = qpoly._cholesky
        monkeypatch.setattr(qpoly, "_cholesky", lambda sd, j: cholesky(sd, j)[:, :-1])
        expansions.clear()
        runs = [balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode, sample_size=500)
                for mode in ("full", "sampled") for e in range(1, b.ia.d + 1)]
        assert 0 < sum(expansions) < sum(r.instances for r in runs)
        for ref, got in zip(clean, runs):
            assert (got.qpoly, got.instances, got.mode) == (ref.qpoly, ref.instances, ref.mode)
            assert (got.witness is None) == (ref.witness is None)
            if ref.witness is not None:
                assert got.witness[:5] == ref.witness[:5]
                assert abs(got.witness[5] - ref.witness[5]) <= 1e-12
            else:  # exact residuals where the clean run read bounds
                assert got.worst_residual <= ref.worst_residual

    def test_stalled_factor_raises(self, small):
        # E_1 of the Petersen graph has rank 5; asking for 6 columns stalls
        b = small["petersen"]
        sd = replace(b.sd, mult=(1, 6, 4))
        with pytest.raises(NumericalError, match="stalled at rank 5 of 6"):
            qpoly._factor(sd, 1)
        with pytest.raises(NumericalError, match="stalled"):
            balanced_set_check(b.dd, b.ia, sd, 1)

    def test_nan_factor_never_clears(self, small, monkeypatch, expansions):
        b = small["odd:3"]
        clean = balanced_set_check(b.dd, b.ia, b.sd, 3)
        cholesky = qpoly._cholesky
        monkeypatch.setattr(qpoly, "_cholesky", lambda sd, j: cholesky(sd, j) * np.nan)
        monkeypatch.setattr(qpoly, "_level_one", lambda sd, p, e: np.full(sd.d, np.nan))
        res = balanced_set_check(b.dd, b.ia, b.sd, 3)
        assert res.qpoly and res.instances == clean.instances == sum(expansions)


@pytest.fixture(scope="module")
def ladder():
    return {spec: build_bundle(spec)
            for spec in ("johnson:12,6", "hamming:8,2", "cycle:40", "johnson:10,3")}


class TestLevelOneCertificate:
    @pytest.mark.parametrize("spec, mode", [(spec, "full") for spec in CATALOGUE]
                             + [("hamming:8,2", "full"), ("cycle:40", "full"),
                                ("johnson:12,6", "sampled")])
    def test_bound_covers_dense_residuals(self, bundles, ladder, spec, mode):
        # johnson:12,6 has 16,632 edges; its level one is checked on the
        # instances its (sampled) analysis visits
        b = bundles[spec] if spec in bundles else ladder[spec]
        n, dist, tol = b.graph.n, b.dd.dist, b.tol.balanced_rel
        work = np.empty((3, max(qpoly.BATCH_ENTRIES, n)))
        size = max(1, qpoly.BATCH_ENTRIES // n)
        blocks = [(i, xs, ys) for h, i, j, xs, ys
                  in qpoly._instance_blocks(dist, b.ia.p, mode, SAMPLE_INSTANCES, 0) if h == 1]
        assert blocks
        for e in range(1, b.ia.d + 1):
            if guarded(b, e):
                continue
            bound = qpoly._level_one(b.sd, b.ia.p, e)
            for i, xs, ys in blocks:
                c = coefficient(b, e, 1, i, i + 1)
                for s in range(0, len(xs), size):
                    bx, by = xs[s:s + size], ys[s:s + size]
                    exact = np.concatenate([
                        dense_residuals(bx, by, i, i + 1, b, e, work),
                        qpoly._residuals(bx, by, i, i + 1, column_of(b, e), dist, c, work)])
                    assert np.all(bound[i] >= exact), (e, i, bound[i], exact.max())
                # level one passes on every candidate here, so the bound clears
                assert bound[i] <= tol, (e, i, bound[i])

    def test_early_negatives_build_no_factor(self, ladder, monkeypatch, expansions, caplog):
        # the witness is the first instance after level one, so it is
        # expanded alone and no factor is formed; a positive forms one
        builds, factor = [], qpoly._factor
        monkeypatch.setattr(qpoly, "_factor", lambda *args: builds.append(1) or factor(*args))
        pinned = {("johnson:12,6", 3): (231, (2, 1, 2, 2, 167)),
                  ("johnson:12,6", 5): (231, (2, 1, 2, 2, 167)),
                  ("johnson:10,3", 2): (2521, (2, 1, 2, 0, 15)),
                  ("johnson:10,3", 3): (2521, (2, 1, 2, 0, 15)),
                  ("johnson:12,6", 1): (10008, None),
                  ("johnson:10,3", 1): (20160, None)}
        caplog.set_level("DEBUG", logger="drgq.qpoly")
        for (spec, e), (instances, witness) in pinned.items():
            b = ladder[spec]
            builds.clear()
            expansions.clear()
            res = balanced_set_check(b.dd, b.ia, b.sd, e)
            assert res.instances == instances and res.qpoly == (witness is None)
            if witness is None:
                assert builds == [1] and expansions == []
            else:
                assert res.witness[:5] == witness and builds == [] and expansions == [1]
                assert f"E_{e}: no factor built; 1 of {instances} instances expanded" in caplog.text

    @pytest.mark.parametrize("level_one", [np.nan, 1.0], ids=["nan", "above_tolerance"])
    @pytest.mark.parametrize("spec", ["petersen", "odd:3", "hamming:4,2", "johnson:7,3"])
    def test_unclear_level_one_goes_through_factor(self, bundles, monkeypatch, spec, level_one):
        b = bundles[spec]
        monkeypatch.setattr(qpoly, "_level_one", lambda sd, p, e: np.full(sd.d, level_one))
        levels, bounds = set(), qpoly._bounds

        def spy(xs, ys, *rest):
            levels.update(b.dd.dist[xs, ys].tolist())
            return bounds(xs, ys, *rest)

        monkeypatch.setattr(qpoly, "_bounds", spy)
        for e in range(1, b.ia.d + 1):
            if guarded(b, e):
                continue
            levels.clear()
            res = balanced_set_check(b.dd, b.ia, b.sd, e, mode="full")
            assert_matches_dense(res, dense_sweep(b, e, "full", b.tol.balanced_rel))
            assert 1 in levels  # every witness here lies beyond level one


class TestDenseEquivalence:
    # odd:5, above FULL_MODE_LIMIT, is compared in sampled mode only: in full
    # mode the dense reference takes about 10 s on its negatives and 20 s on E5
    @pytest.mark.parametrize("spec, mode", [(spec, mode) for spec in CATALOGUE
                                            for mode in ("full", "sampled")
                                            if (spec, mode) != ("odd:5", "full")])
    def test_matches_dense_sweep(self, bundles, expansions, spec, mode):
        b = bundles[spec]
        for e in range(1, b.ia.d + 1):
            expansions.clear()
            res = balanced_set_check(b.dd, b.ia, b.sd, e, mode=mode)
            expanded = sum(expansions)
            assert res.mode == mode
            if guarded(b, e):
                assert res.instances == 0 and not res.qpoly
                continue
            assert_matches_dense(res, dense_sweep(b, e, mode, b.tol.balanced_rel))
            if res.qpoly:  # every positive instance clears in the factor
                assert expanded == 0
                assert res.worst_residual <= b.tol.balanced_rel

    @pytest.mark.parametrize("spec", CATALOGUE)
    def test_tight_tolerance_expands_and_matches_dense(self, bundles, expansions, spec):
        # at 1e-13 few bounds clear, so the verdicts rest on the expansion
        b = bundles[spec]
        tol = DEFAULT_TOLERANCES.with_override(1e-13)
        for e in range(1, b.ia.d + 1):
            if guarded(b, e):
                continue
            expansions.clear()
            res = balanced_set_check(b.dd, b.ia, b.sd, e, tol=tol)
            assert expansions  # counted before the reference adds its own
            assert_matches_dense(res, dense_sweep(b, e, res.mode, 1e-13))


class TestNoDenseProjector:
    """The pipeline forms no dense E_j: it runs with SpectralData.idempotent
    made to raise."""

    @pytest.fixture
    def no_dense(self, monkeypatch):
        def refuse(self, j):
            raise AssertionError(f"dense E_{j} formed")
        monkeypatch.setattr(SpectralData, "idempotent", refuse)

    @pytest.mark.parametrize("spec", CATALOGUE + ("hamming:8,2",))
    def test_analysis(self, no_dense, spec):
        report = run_analysis(build_family(spec), spec)
        assert report["intersection"]["is_drg"] and report["qpoly"]["consistent"]

    def test_expanded_instances_at_tight_tolerance(self, bundles, no_dense, expansions):
        tol = DEFAULT_TOLERANCES.with_override(1e-13)
        for b in bundles.values():
            qpoly_report(b.dd, b.ia, b.sd, tol=tol)
        assert sum(expansions) > 0


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

    def test_ambiguous_membership_raises(self, small):
        # E_2 and E_3 sit a relative 1e-5 off the all-ones vector, so both
        # are ambiguous at degree 0, and the error names the first
        sd = small["hamming:4,2"].sd
        dual = sd.dual.copy()
        off = dual[1] - dual[1].mean()  # orthogonal to the all-ones vector
        dual[2:4] = dual[0] + 1e-5 * off / np.linalg.norm(off)
        fake = SimpleNamespace(d=sd.d, dual=dual)
        with pytest.raises(NumericalError, match="idempotent 2 at degree 0 is ambiguous"):
            _ordering_for_candidate(fake, 1)

    # every cycle of length 7 or more is Q-polynomial, with d = n // 2; the
    # monomials t^p lost their rank by degree 26, so d >= 26 needs the chain
    @pytest.mark.parametrize("n", (80, 120, 160, 201, *sorted(
        np.random.default_rng(21).choice(np.arange(7, 202), 4, replace=False).tolist())))
    def test_long_cycles_match_krein(self, n):
        sd = build_bundle(f"cycle:{n}").sd
        span = qpoly_orderings(sd)
        assert sorted(span) == sorted(krein_orderings(krein_parameters(sd)))
        # E_j, j <= n / 2, is a Q-polynomial candidate exactly when gcd(j, n) = 1
        assert len(span) == sum(math.gcd(j, n) == 1 for j in range(1, n)) // 2

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

    def test_walk_matches_search(self, bundles):
        for b in bundles.values():
            q = krein_parameters(b.sd)
            assert krein_orderings(q) == krein_orderings_dfs(q)

    def test_two_candidates_end_the_walk(self):
        # q^1 links 0-1, then 1 to both 2 and 3: whichever comes next, the
        # other is two places from 1, so no ordering starts 0, 1
        q = np.zeros((4, 4, 4))
        for x, y in ((0, 1), (1, 2), (1, 3), (2, 3)):
            q[1, x, y] = q[1, y, x] = 1.0
        assert krein_orderings(q) == krein_orderings_dfs(q) == []
        q[1, 1, 3] = q[1, 3, 1] = 0.0
        assert krein_orderings(q) == krein_orderings_dfs(q) == [[0, 1, 2, 3]]

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_walk_matches_search_on_patterns(self, data):
        # per slice c, a path from 0 with positive links, most often 0, c, ...,
        # then toggled entries, not necessarily symmetric: extra links give
        # steps with two candidates and links two or more places apart,
        # removed ones break paths
        d = data.draw(st.integers(1, 7), label="d")
        q = np.zeros((d + 1,) * 3)
        for c in range(1, d + 1):
            rest = data.draw(st.permutations([y for y in range(1, d + 1) if y != c]))
            order = [0, c, *rest] if data.draw(st.integers(0, 3)) else [0, *rest, c]
            for x, y in zip(order, order[1:]):
                q[c, x, y] = q[c, y, x] = data.draw(st.sampled_from((1e-3, 1.0, 5.0)))
        toggles = data.draw(st.lists(st.tuples(*[st.integers(0, d)] * 3), max_size=2 * d))
        for c, x, y in toggles:
            q[c, x, y] = 1.0 if q[c, x, y] == 0 else 0.0
        assert krein_orderings(q) == krein_orderings_dfs(q)


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
