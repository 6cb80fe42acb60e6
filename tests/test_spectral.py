"""Spectral pipeline: eigensolver, projectors, duals, and their oracles.

The spectra are checked against closed forms and the adjacency matrix
spectrum, the dual sequences against an inline three-term recurrence
written from scratch, and the coordinate eigen and idempotency residuals
against the dense products.
"""

import numpy as np
import pytest

from drgq import spectral
from drgq.catalogue import CATALOGUE
from drgq.errors import NumericalError
from drgq.families import build_family
from drgq.graphs import distance_data
from drgq.intersection import IntersectionData, check_distance_regular
from drgq.spectral import (compute_spectral_data,
                           eigenvalues_from_intersection_array,
                           inner_product_residual, standard_sequence)
from drgq.tolerances import DEFAULT_TOLERANCES
from reference import adjacency_matrix

SPECS = ("petersen", "cycle:6", "hamming:3,2", "hamming:3,3", "johnson:6,3",
         "folded_cube:5", "folded_cube:7", "odd:3", "complete:4")


def pipeline(spec):
    g = build_family(spec)
    dd = distance_data(g)
    ia = check_distance_regular(g, dd)
    assert isinstance(ia, IntersectionData)
    return g, dd, ia


def recurrence_dual(ia, theta, m):
    """Independent oracle: m * u_i with the recurrence written out inline."""
    b, c, a = ia.b, ia.c, ia.a
    u = [1.0, theta / ia.k]
    for i in range(1, ia.d):
        u.append(((theta - a[i]) * u[i] - c[i - 1] * u[i - 1]) / b[i])
    return np.array(u[:ia.d + 1]) * m



def primitive_idempotents(dd, theta, eps):
    """Spectral projectors E_0..E_d of the adjacency matrix, as Lagrange products
    prod_{l != j} (A - theta_l I)/(theta_j - theta_l), applied factor by factor
    so intermediates stay O(1).  The reference for the assembled projectors.

    Each projector's idempotency residual is verified against ``eps``.
    """
    adj = (dd.dist == 1).astype(np.float64)
    n = adj.shape[0]
    idempotents = []
    for j, tj in enumerate(theta):
        e = np.eye(n)
        for l, tl in enumerate(theta):
            if l == j:
                continue
            factor = adj.copy()
            factor.flat[::n + 1] -= tl
            factor /= tj - tl
            e = e @ factor
        e = 0.5 * (e + e.T)
        resid = float(np.abs(e @ e - e).max())
        if resid > eps:
            raise NumericalError(f"projector {j} idempotency residual {resid:.3e} exceeds {eps:.3e}")
        idempotents.append(e)
    return idempotents

class TestEigenvalues:
    @pytest.mark.parametrize("spec,theta,mult", [
        ("petersen", (3, 1, -2), (1, 5, 4)),
        ("cycle:6", (2, 1, -1, -2), (1, 2, 2, 1)),
        ("complete:4", (3, -1), (1, 3)),
        ("hamming:3,2", (3, 1, -1, -3), (1, 3, 3, 1)),
        ("odd:3", (4, 2, -1, -3), (1, 14, 14, 6)),
    ])
    def test_known_spectra(self, spec, theta, mult):
        _, _, ia = pipeline(spec)
        t, m = eigenvalues_from_intersection_array(ia)
        assert np.allclose(t, theta, atol=1e-9)
        assert m == mult

    @pytest.mark.parametrize("n", (7, 9))
    def test_odd_cycle_closed_form(self, n):
        _, _, ia = pipeline(f"cycle:{n}")
        theta, mult = eigenvalues_from_intersection_array(ia)
        exact = 2 * np.cos(2 * np.pi * np.arange(ia.d + 1) / n)
        assert np.abs(theta - exact).max() < 1e-14
        assert mult == (1,) + (2,) * ia.d

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_adjacency_spectrum(self, spec):
        g, dd, ia = pipeline(spec)
        theta, mult = eigenvalues_from_intersection_array(ia)
        adjacency_eigs = np.linalg.eigvalsh(adjacency_matrix(g).astype(float))[::-1]
        expanded = np.concatenate([np.full(m, t) for t, m in zip(theta, mult)])
        assert np.allclose(expanded, adjacency_eigs, atol=1e-8)

    def test_infeasible_array_rejected(self):
        fake = IntersectionData(2, 3, 9, np.zeros((3, 3, 3), dtype=np.int64),
                                (3, 2), (1, 2), (1, 3, 3))
        with pytest.raises(NumericalError, match="multiplicity"):
            eigenvalues_from_intersection_array(fake)


class TestIdempotents:
    @pytest.mark.parametrize("spec", SPECS)
    def test_projector_algebra(self, spec):
        g, dd, ia = pipeline(spec)
        sd = compute_spectral_data(dd, ia)
        n, d = g.n, ia.d
        adjacency = adjacency_matrix(g).astype(float)
        total = np.zeros((n, n))
        for i in range(d + 1):
            ei = sd.idempotent(i)
            total += ei
            assert np.abs(ei - ei.T).max() < 1e-12
            assert np.abs(adjacency @ ei - sd.theta[i] * ei).max() < 1e-8
            for j in range(d + 1):
                product = ei @ sd.idempotent(j)
                expected = ei if i == j else 0.0
                assert np.abs(product - expected).max() < 1e-8
        assert np.abs(total - np.eye(n)).max() < 1e-8
        assert np.abs(sd.idempotent(0) - 1.0 / n).max() < 1e-8

    def test_petersen_traces(self):
        _, dd, ia = pipeline("petersen")
        sd = compute_spectral_data(dd, ia)
        assert round(np.trace(sd.idempotent(1))) == 5
        assert round(np.trace(sd.idempotent(2))) == 4

    def test_tight_tolerance_fails_loudly(self):
        _, dd, ia = pipeline("petersen")
        theta, _ = eigenvalues_from_intersection_array(ia)
        with pytest.raises(NumericalError, match="idempotency"):
            primitive_idempotents(dd, theta, eps=1e-18)

    @pytest.mark.parametrize("spec", CATALOGUE + ("hamming:8,2",))
    def test_assembled_match_lagrange_reference(self, spec):
        _, dd, ia = pipeline(spec)
        sd = compute_spectral_data(dd, ia)
        reference = primitive_idempotents(dd, sd.theta, DEFAULT_TOLERANCES.matrix_eps(ia.k))
        for j, e in enumerate(reference):
            assert np.abs(sd.idempotent(j) - e).max() < 1e-10
        assert sd.eigen_residual < 1e-12 and sd.idempotency_residual < 1e-12

    @pytest.mark.parametrize("spec", CATALOGUE + ("hamming:8,2",))
    def test_coordinate_idempotency_matches_dense(self, spec):
        _, dd, ia = pipeline(spec)
        sd = compute_spectral_data(dd, ia)
        dense = max(inner_product_residual(sd.idempotent(j), sd.dual[j], dd)
                    for j in range(ia.d + 1))
        assert abs(sd.idempotency_residual - dense) < 1e-12

    @pytest.mark.parametrize("spec", CATALOGUE + ("hamming:8,2",))
    def test_coordinate_eigen_residual_matches_dense(self, spec):
        g, dd, ia = pipeline(spec)
        sd = compute_spectral_data(dd, ia)
        adjacency = adjacency_matrix(g).astype(float)
        dense = 0.0
        for j, t in enumerate(sd.theta):
            e = sd.idempotent(j)
            dense = max(dense, float(np.abs(adjacency @ e - t * e).max()))
        assert abs(sd.eigen_residual - dense) < 1e-12

    def test_shifted_eigenvalue_fails_eigen_certificate(self, monkeypatch):
        # the recurrence satisfies coordinates 0..d-1 for any theta; only the
        # last, the eigenvalue equation, sees the shift
        _, dd, ia = pipeline("petersen")

        def shifted(ia):
            theta, mult = eigenvalues_from_intersection_array(ia)
            theta[1] += 1e-6
            return theta, mult
        monkeypatch.setattr(spectral, "eigenvalues_from_intersection_array", shifted)
        with pytest.raises(NumericalError, match="projector 1 eigen"):
            compute_spectral_data(dd, ia)


class TestDualSequences:
    @pytest.mark.parametrize("spec", SPECS)
    def test_entry_read_matches_recurrence_oracle(self, spec):
        _, dd, ia = pipeline(spec)
        sd = compute_spectral_data(dd, ia)
        for j in range(ia.d + 1):
            oracle = recurrence_dual(ia, float(sd.theta[j]), sd.mult[j])
            scale = max(1.0, np.abs(oracle).max())
            assert np.abs(sd.dual[j] - oracle).max() / scale < 1e-8

    def test_trivial_idempotent_dual_is_ones(self):
        _, dd, ia = pipeline("odd:3")
        sd = compute_spectral_data(dd, ia)
        assert np.allclose(sd.dual[0], 1.0, atol=1e-10)

    def test_dual_zero_is_multiplicity(self):
        _, dd, ia = pipeline("johnson:6,3")
        sd = compute_spectral_data(dd, ia)
        for j in range(ia.d + 1):
            assert abs(sd.dual[j][0] - sd.mult[j]) < 1e-8

    def test_petersen_second_largest_sequence(self):
        _, dd, ia = pipeline("petersen")
        sd = compute_spectral_data(dd, ia)
        dual = sd.dual[1]
        assert abs(dual[0] - 5) < 1e-10
        assert dual[0] > dual[1] > dual[2]
        assert dual[-1] < 0

    def test_first_dual_ratio_is_theta_over_k(self):
        for spec in ("petersen", "odd:3", "hamming:3,3"):
            _, dd, ia = pipeline(spec)
            sd = compute_spectral_data(dd, ia)
            for j in range(ia.d + 1):
                expected = sd.mult[j] * sd.theta[j] / ia.k
                assert abs(sd.dual[j][1] - expected) < 1e-8


class TestInnerProductIdentity:
    @pytest.mark.parametrize("spec", SPECS)
    def test_residual_small(self, spec):
        _, dd, ia = pipeline(spec)
        sd = compute_spectral_data(dd, ia)
        for j in range(ia.d + 1):
            assert inner_product_residual(sd.idempotent(j), sd.dual[j], dd) < 1e-8

    def test_direct_pair_comparison(self):
        # definition-level check on a handful of pairs, no matrix reformulation
        _, dd, ia = pipeline("odd:3")
        sd = compute_spectral_data(dd, ia)
        e = sd.idempotent(1)
        n = ia.n
        for x, y in ((0, 0), (0, 1), (0, 17), (3, 29), (12, 12)):
            inner = float(e[:, x] @ e[:, y])
            expected = sd.dual[1][dd.dist[x, y]] / n
            assert abs(inner - expected) < 1e-10


def test_standard_sequence_exact_fractions():
    _, _, ia = pipeline("petersen")
    u = standard_sequence(ia, 1.0)
    assert np.allclose(u, [1.0, 1 / 3, -1 / 3], atol=1e-12)
    u = standard_sequence(ia, -2.0)
    assert np.allclose(u, [1.0, -2 / 3, 1 / 6], atol=1e-12)
