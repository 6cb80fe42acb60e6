"""Eigenvalues, dual eigenvalue sequences, and the primitive idempotents they fix.

Eigenvalues come from the (d+1)x(d+1) tridiagonal intersection matrix, not
the full adjacency matrix: after a diagonal similarity it is symmetric with
positive off-diagonals sqrt(b_i c_{i+1}), so its eigenvalues are simple and
LAPACK's symmetric solver returns them.  Values within snapping distance of
an integer are rounded.

The Bose-Mesner algebra is kept in its d+1 coordinates: the dual sequence
of E_j is m_j times the standard sequence of theta_j, from the three-term
recurrence, and E_j = dual[j][dist] / n is assembled on demand wherever a
check needs actual vectors.  Each E_j is certified once: its eigen residual
||A E_j - theta_j E_j|| against the graph, one dense product, and its
idempotency residual ||E_j^2 - E_j|| in coordinates, from the p-tensor the
regularity check certified.  As its trace is m_j and the m_j sum to n, that
makes it the projector onto the theta_j-eigenspace.  The Lagrange product
``primitive_idempotents`` and the dense ``inner_product_residual`` are kept
as the tests' references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .graphs import DistanceData
from .intersection import IntersectionData
from .tolerances import DEFAULT_TOLERANCES, Tolerances


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


def eigenvalues_from_intersection_array(ia: IntersectionData,
                                        tol: Tolerances = DEFAULT_TOLERANCES
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
    close = np.abs(theta - snapped) < tol.integer_snap
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
        if abs(m - m_int) > tol.mult_round * ia.n or m_int < 1:
            raise NumericalError(f"multiplicity {m} for eigenvalue {t} does not round cleanly")
        mult.append(m_int)
    if sum(mult) != ia.n:
        raise NumericalError(f"multiplicities {mult} do not sum to {ia.n}")
    if mult[0] != 1:
        raise NumericalError(f"trivial eigenvalue must be simple, got multiplicity {mult[0]}")
    return theta, tuple(mult)


def primitive_idempotents(dd: DistanceData, theta: np.ndarray,
                          eps: float) -> list[np.ndarray]:
    """Spectral projectors E_0..E_d of the adjacency matrix, as Lagrange products
    prod_{l != j} (A - theta_l I)/(theta_j - theta_l), applied factor by factor
    so intermediates stay O(1).  The reference for the assembled projectors.

    Each projector's idempotency residual is verified against ``eps``.
    """
    adj = (dd.dist == 1).astype(np.float64)
    n = adj.shape[0]
    idempotents = []
    for j, tj in enumerate(theta):
        e = None
        for l, tl in enumerate(theta):
            if l == j:
                continue
            factor = adj.copy()
            factor.flat[::n + 1] -= tl
            factor /= tj - tl
            e = factor if e is None else e @ factor
        assert e is not None
        e = 0.5 * (e + e.T)
        resid = float(np.abs(e @ e - e).max())
        if resid > eps:
            raise NumericalError(f"projector {j} idempotency residual {resid:.3e} exceeds {eps:.3e}")
        idempotents.append(e)
    return idempotents


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

    def idempotent(self, j: int) -> np.ndarray:
        """The dense projector E_j = dual[j][dist] / n."""
        return (self.dual[j] / self.n)[self.dist]


def idempotent_products(dual: np.ndarray, p: np.ndarray, n: int) -> np.ndarray:
    """E_i E_j in the basis of distance classes: entry [i, j, h] is its value
    on the pairs at distance h, sum_ab dual[i,a] dual[j,b] p^h_ab / n^2."""
    return np.einsum("ia,jb,hab->ijh", dual, dual, p) / (n * n)


def compute_spectral_data(dd: DistanceData, ia: IntersectionData,
                          tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """Spectrum, dual sequences from the recurrence, and the certificate of
    every assembled projector.

    The idempotency residual is read in d+1 coordinates from the certified
    p-tensor: every distance class is nonempty, so the largest coordinate
    of E_j^2 - E_j is its largest entry.  Raises NumericalError naming j
    when E_j's eigen residual or idempotency residual exceeds the matrix
    tolerance.
    """
    eps = tol.matrix_eps(ia.k)
    theta, mult = eigenvalues_from_intersection_array(ia, tol)
    dual = np.array([m * standard_sequence(ia, float(t)) for t, m in zip(theta, mult)])
    sd = SpectralData(theta, mult, dual, ia.sphere_sizes, dd.dist, ia.n, ia.d, 0.0, 0.0)
    squares = np.diagonal(idempotent_products(dual, ia.p, ia.n)).T  # [j, h]: E_j^2
    shifted = (dd.dist == 1).astype(np.float64)
    for j, t in enumerate(theta):
        shifted.flat[::sd.n + 1] = -t  # A - theta_j I
        prod = shifted @ sd.idempotent(j)
        eigen = float(np.abs(prod, out=prod).max())
        del prod  # freed before the next E_j is assembled: three n x n floats at most
        idem = float(np.abs(squares[j] - dual[j] / ia.n).max())
        for name, resid in (("eigen", eigen), ("idempotency", idem)):
            if resid > eps:
                raise NumericalError(f"projector {j} {name} residual {resid:.3e} exceeds {eps:.3e}")
        sd.eigen_residual = max(sd.eigen_residual, eigen)
        sd.idempotency_residual = max(sd.idempotency_residual, idem)
    return sd
