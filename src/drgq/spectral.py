"""Eigenvalues, dual eigenvalue sequences, and the primitive idempotents they fix.

Eigenvalues come from the (d+1)x(d+1) tridiagonal intersection matrix, not
the full adjacency matrix: after a diagonal similarity it is symmetric with
positive off-diagonals sqrt(b_i c_{i+1}), so its eigenvalues are simple and
LAPACK's symmetric solver returns them.  Values within snapping distance of
an integer are rounded.

The Bose-Mesner algebra is kept in its d+1 coordinates: the dual sequence
of E_j is m_j times the standard sequence of theta_j, from the three-term
recurrence, and E_j = dual[j][dist] / n is read a block at a time wherever
a check needs actual vectors.  Each E_j is certified once, in coordinates:
its eigen residual ||A E_j - theta_j E_j|| from the p^h_1j the regularity
check counted on every pair (coordinate d is the eigenvalue equation; the
recurrence gives the others), and its idempotency residual ||E_j^2 - E_j||
from the one product tensor E_i E_j, whose other entries give the
orthogonality residual.  As its trace is m_j and the m_j sum to n, that
makes it the projector onto the theta_j-eigenspace.  The dense
``inner_product_residual`` is kept as the acceptance battery's reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graphs import DistanceData
from .intersection import IntersectionData
from .tolerances import DEFAULT_TOLERANCES, INTEGER_SNAP, MULT_ROUND, Tolerances


def standard_sequence(ia: IntersectionData, theta: float) -> np.ndarray:
    """u_0..u_d from the three-term recurrence; u_0 = 1, u_1 = theta/k."""
    d, k = ia.d, ia.k
    a = ia.a
    u = np.empty(d + 1)
    u[0] = 1.0
    if d >= 1:
        u[1] = theta / k
    for i in range(1, d):
        u[i + 1] = ((theta - a[i]) * u[i] - ia.c[i - 1] * u[i - 1]) / ia.b[i]
    return u


def eigenvalues_from_intersection_array(ia: IntersectionData
                                        ) -> tuple[np.ndarray, tuple[int, ...]]:
    """d+1 distinct adjacency eigenvalues (descending) and their multiplicities.

    Multiplicities use the standard-sequence formula
    m = n / sum_i k_i u_i(theta)^2 and must round cleanly to positive
    integers summing to n.
    """
    d = ia.d
    off = np.sqrt(np.array(ia.b, dtype=np.float64) * np.array(ia.c, dtype=np.float64))
    tri = np.diag(np.array(ia.a, dtype=np.float64)) + np.diag(off, 1) + np.diag(off, -1)
    theta = np.linalg.eigvalsh(tri)[::-1].copy()

    snapped = np.round(theta) + 0.0  # also normalizes -0.0
    close = np.abs(theta - snapped) < INTEGER_SNAP
    theta[close] = snapped[close]

    gaps = -np.diff(theta)
    if d >= 1 and gaps.min() < 1e-9 * max(1.0, ia.k):
        raise NumericalError(f"eigenvalues not distinct: {theta.tolist()}")
    if abs(theta[0] - ia.k) > 1e-9 * max(1.0, ia.k):
        raise NumericalError(f"largest eigenvalue {theta[0]} does not match valency {ia.k}")
    theta[0] = float(ia.k)

    ks = np.array(ia.sphere_sizes, dtype=np.float64)
    mult = []
    for t in theta:
        u = standard_sequence(ia, float(t))
        m = ia.n / float(ks @ (u * u))
        m_int = round(m)
        if abs(m - m_int) > MULT_ROUND * ia.n or m_int < 1:
            raise NumericalError(f"multiplicity {m} for eigenvalue {t} does not round cleanly")
        mult.append(m_int)
    if sum(mult) != ia.n:
        raise NumericalError(f"multiplicities {mult} do not sum to {ia.n}")
    if mult[0] != 1:
        raise NumericalError(f"trivial eigenvalue must be simple, got multiplicity {mult[0]}")
    return theta, tuple(mult)


def inner_product_residual(e: np.ndarray, dual: np.ndarray, dd: DistanceData) -> float:
    """max over pairs x,y of |<E x, E y> - dual[dist(x,y)] / n|."""
    prod = e @ e
    prod -= (dual / e.shape[0])[dd.dist]
    return float(np.abs(prod, out=prod).max())


@dataclass
class SpectralData:
    """Spectrum and dual sequences, eigenvalues strictly decreasing, with the
    worst residuals that certified the projectors they fix."""

    theta: np.ndarray                # shape (d+1,), theta[0] = k
    mult: tuple[int, ...]            # m_0 = 1, sum = n
    dual: np.ndarray                 # dual[j, h] = h-th dual eigenvalue for E_j
    sizes: tuple[int, ...]           # sphere sizes k_0..k_d
    dist: np.ndarray = field(repr=False)  # the distances E_j is assembled on
    n: int
    d: int
    eigen_residual: float            # max_j ||A E_j - theta_j E_j||_max
    idempotency_residual: float      # max_j ||E_j^2 - E_j||_max
    orthogonality_residual: float    # max_ij ||E_i E_j - delta_ij E_i||_max

    def idempotent(self, j: int) -> np.ndarray:
        """The dense projector E_j = dual[j][dist] / n: the acceptance battery's
        reference.  The pipeline never calls it; it reads E_j in blocks from
        the coordinates instead."""
        return (self.dual[j] / self.n)[self.dist]


def compute_spectral_data(dd: DistanceData, ia: IntersectionData,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """Spectrum, dual sequences from the recurrence, and the certificate of
    every assembled projector.

    Every residual is read in d+1 coordinates from the certified p-tensor,
    the eigen one from A A_h = sum_l p^l_1h A_l: every distance class is
    nonempty, so the largest coordinate of a difference is its largest
    entry.  E_i E_j, valued sum_ab dual[i,a] dual[j,b] p^h_ab / n^2 on the
    pairs at distance h, is formed here only, less delta_ij E_i in place;
    its diagonal gives the idempotency residual.  Raises NumericalError
    naming j when E_j's eigen or idempotency residual exceeds the matrix
    tolerance.
    """
    eps, n, diagonal = tol.matrix_eps(ia.k), ia.n, range(ia.d + 1)
    theta, mult = eigenvalues_from_intersection_array(ia)
    dual = np.array([m * standard_sequence(ia, float(t)) for t, m in zip(theta, mult)])
    orth = np.einsum("ia,jb,hab->ijh", dual, dual, ia.p, optimize=True)  # [i, j, h]: E_i E_j
    orth /= n * n
    orth[diagonal, diagonal] -= dual / n
    np.abs(orth, out=orth)  # |E_i E_j - delta_ij E_i| on each distance class
    products = dual @ ia.p[:, 1, :].T / n  # [j, l]: A E_j
    eigen = np.abs(products - theta[:, None] * dual / n).max(axis=1)
    idem = orth[diagonal, diagonal].max(axis=1)
    for j in diagonal:
        for name, resid in (("eigen", eigen[j]), ("idempotency", idem[j])):
            if resid > eps:
                raise NumericalError(f"projector {j} {name} residual {resid:.3e} exceeds {eps:.3e}")
    return SpectralData(theta, mult, dual, ia.sphere_sizes, dd.dist, n, ia.d,
                        float(eigen.max()), float(idem.max()), float(orth.max()))
