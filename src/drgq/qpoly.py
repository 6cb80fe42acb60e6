"""Q-polynomial property deciders.

Three independent routes, kept deliberately separate so they can check one
another:

* the balanced-set sweep verifies, instance by instance, the vector identity
  that ties sums of projected standard-basis vectors over the two mixed
  distance sets to a scaled difference of endpoint projections;
* ordering recovery works in dual-coordinate space, where entrywise products
  of Bose-Mesner idempotents are diagonal, and asks that each entrywise power
  of a candidate's dual vector admits exactly one new idempotent into its span;
* the Krein oracle computes q^h_ij = n tr((E_i o E_j) E_h) / m_h in closed
  form from the d+1 coordinates, (1/(n m_h)) sum_l k_l Q_il Q_jl Q_hl with
  Q_jl the l-th dual eigenvalue of E_j and k_l the sphere sizes, and looks
  for orderings whose q^1 slice is irreducible tridiagonal.

The sweep checks the identity entrywise over all coordinates, which is
strictly stronger than inner-product probes.  One kernel serves both modes:
a batch of instances of one (i, j) cell becomes a signed mask matrix M, so
M @ E stacks their left-hand sides in one BLAS call.  Residuals are
normalized by max(lhs, rhs, 1/n) so verdicts do not depend on the global
1/n scaling of the idempotents.  Full mode visits instances in witness
order and stops at the first failure, so on a negative verdict its
worst_residual and instances cover the instances up to the witness only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MathAssertionError, NumericalError
from .graphs import DistanceData
from .intersection import IntersectionData
from .spectral import SpectralData
from .tolerances import DEFAULT_TOLERANCES, Tolerances

FULL_MODE_LIMIT = 200       # acceptance default: full sweep up to this many vertices
SAMPLE_INSTANCES = 10_000
BATCH_ENTRIES = 1 << 16     # instances x n mask entries per kernel call

Witness = tuple[int, int, int, int, int, float]  # (h, i, j, x, y, residual)


@dataclass
class BalancedSetResult:
    candidate: int
    qpoly: bool
    worst_residual: float
    mode: str
    seed: Optional[int]
    instances: int
    witness: Optional[Witness] = None
    duplicate_dual_index: Optional[int] = None  # h with dual_0 = dual_h, when the guard fired


def resolve_mode(n: int, mode: str) -> str:
    if mode == "auto":
        return "full" if n <= FULL_MODE_LIMIT else "sampled"
    if mode not in ("full", "sampled"):
        raise ValueError(f"mode must be full, sampled, or auto, got {mode!r}")
    return mode


def _coefficients(ia: IntersectionData, dual: np.ndarray) -> np.ndarray:
    """coeff[h, i, j] = p^h_ij (dual_i - dual_j) / (dual_0 - dual_h), h >= 1."""
    coeff = np.zeros(ia.p.shape)
    diff = dual[:, None] - dual[None, :]
    coeff[1:] = ia.p[1:] * diff / (dual[0] - dual[1:])[:, None, None]
    return coeff


def _residuals(xs, ys, i, j, e_mat, dist, coeff, work):
    """Relative residuals of the instances (xs[t], ys[t]) of cell (i, j), as one batch.

    Row t of M is the signed indicator of instance t's two mixed distance sets
    (E is symmetric).  ``work`` holds three reused buffers for the t x n arrays.
    """
    t, n = len(xs), dist.shape[0]
    m, lhs, rhs = (w[:t * n].reshape(t, n) for w in work)
    dx, dy = dist[xs], dist[ys]
    np.subtract((dx == i) & (dy == j), (dx == j) & (dy == i), out=m, dtype=np.float64)
    np.matmul(m, e_mat, out=lhs)
    np.take(e_mat, xs, axis=0, out=rhs)
    rhs -= np.take(e_mat, ys, axis=0, out=m)
    rhs *= coeff[dist[xs, ys], i, j][:, None]
    scale = np.maximum(np.abs(lhs, out=m).max(axis=1), np.abs(rhs, out=m).max(axis=1))
    np.maximum(scale, 1.0 / n, out=scale)
    return np.abs(np.subtract(lhs, rhs, out=m), out=m).max(axis=1) / scale


def _sweep(blocks, e_mat, dist, coeff, rel_tol, work, stop):
    """Check blocks (i, j, xs, ys) of instances, each block in (h, x, y) order.

    Returns (worst, instances, witness), the witness being the smallest
    failing (h, i, j, x, y).  With ``stop`` the blocks come in witness order
    and the sweep ends at the first failure; worst and instances then cover
    the instances up to it.
    """
    size = max(1, BATCH_ENTRIES // dist.shape[0])
    worst, checked, witness = 0.0, 0, None
    for i, j, xs, ys in blocks:
        for s in range(0, len(xs), size):
            bx, by = xs[s:s + size], ys[s:s + size]
            rel = _residuals(bx, by, i, j, e_mat, dist, coeff, work)
            bad = np.flatnonzero(rel > rel_tol)
            if bad.size:
                t = int(bad[0])
                x, y = int(bx[t]), int(by[t])
                cand = (int(dist[x, y]), i, j, x, y, float(rel[t]))
                if stop:
                    return max(worst, float(rel[:t + 1].max())), checked + t + 1, cand
                if witness is None or cand[:5] < witness[:5]:
                    witness = cand
            worst = max(worst, float(rel.max()))
            checked += rel.size
    return worst, checked, witness


def _sampled_blocks(dist, ij_pairs, sample_size, seed):
    """A seeded instance stream, dealt round-robin to the cells."""
    n = dist.shape[0]
    # one call draws the same stream as alternating scalar draws of x and y
    draws = np.random.default_rng(seed).integers(np.tile([n, n - 1], sample_size))
    xs, ys = draws[0::2], draws[1::2]
    ys += ys >= xs
    for c, (i, j) in enumerate(ij_pairs):
        cx, cy = xs[c::len(ij_pairs)], ys[c::len(ij_pairs)]
        order = np.lexsort((cy, cx, dist[cx, cy]))
        yield i, j, cx[order], cy[order]


def balanced_set_check(dd: DistanceData, ia: IntersectionData, sd: SpectralData,
                       candidate: int, mode: str = "auto", seed: int = 0,
                       sample_size: int = SAMPLE_INSTANCES,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> BalancedSetResult:
    """Decide the balanced-set condition for one nontrivial idempotent.

    Full mode checks every (h, i<j, x, y) instance in that order and stops at
    the first failure; sampled mode checks a seeded pseudorandom subset,
    round-robin over the (i, j) cells so every cell gets coverage.  Duplicate
    dual values against index 0 short-circuit to a negative verdict (the
    condition's own precondition).
    """
    if candidate == 0:
        raise ValueError("the trivial idempotent is not a Q-polynomial candidate")
    if not 1 <= candidate <= sd.d:
        raise IndexError(f"idempotent index {candidate} outside 1..{sd.d}")
    d, n = sd.d, sd.n
    dual = sd.dual[candidate]
    mode = resolve_mode(n, mode)

    snap = tol.dual_zero_snap * max(1.0, abs(dual[0]))
    for h in range(1, d + 1):
        if abs(dual[0] - dual[h]) <= snap:
            return BalancedSetResult(candidate, False, 0.0, mode, None, 0,
                                     duplicate_dual_index=h)

    coeff = _coefficients(ia, dual)
    e_mat = sd.idempotent(candidate)
    ij_pairs = [(i, j) for i in range(d + 1) for j in range(i + 1, d + 1)]
    work = np.empty((3, max(BATCH_ENTRIES, n)))
    if mode == "full":  # witness order: h, then (i, j), then (x, y) row-major
        levels = (np.nonzero(dd.dist == h) for h in range(1, d + 1))
        blocks, used_seed = ((i, j, xs, ys) for xs, ys in levels for i, j in ij_pairs), None
    else:
        blocks, used_seed = _sampled_blocks(dd.dist, ij_pairs, sample_size, seed), seed
    worst, instances, witness = _sweep(blocks, e_mat, dd.dist, coeff, tol.balanced_rel,
                                       work, stop=mode == "full")

    verdict = witness is None
    if verdict:
        # the theory promises mutually distinct dual values on a positive verdict
        for a in range(d + 1):
            for b in range(a + 1, d + 1):
                if abs(dual[a] - dual[b]) <= snap:
                    raise MathAssertionError(
                        f"balanced-set sweep passed for idempotent {candidate} but dual "
                        f"values {a} and {b} coincide ({dual[a]}); this should be impossible")
    return BalancedSetResult(candidate, verdict, worst, mode, used_seed, instances, witness)


# ---------------------------------------------------------------------------
# Ordering recovery in dual-coordinate space.
# ---------------------------------------------------------------------------

_SPAN_MEMBER = 1e-7
_SPAN_NONMEMBER = 1e-4
_SPAN_RANK = 1e-10


def _span_residual(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    r = vec.copy()
    for q in basis:
        r -= (q @ r) * q
    return r


def _ordering_for_candidate(sd: SpectralData, c: int) -> Optional[list[int]]:
    d = sd.d
    t = sd.dual[c] / sd.dual[c][0]
    unit = [sd.dual[j] / np.linalg.norm(sd.dual[j]) for j in range(d + 1)]

    basis: list[np.ndarray] = []
    order: list[int] = []
    remaining = set(range(d + 1))
    for p in range(d + 1):
        v = t ** p
        r = _span_residual(v, basis)
        if np.linalg.norm(r) <= _SPAN_RANK * np.linalg.norm(v):
            return None  # span stalled: no new idempotent can enter at this degree
        basis.append(r / np.linalg.norm(r))

        entering = []
        for j in sorted(remaining):
            resid = float(np.linalg.norm(_span_residual(unit[j], basis)))
            if resid < _SPAN_MEMBER:
                entering.append(j)
            elif resid < _SPAN_NONMEMBER:
                raise NumericalError(
                    f"span membership of idempotent {j} at degree {p} is ambiguous "
                    f"(residual {resid:.3e})")
        if len(entering) != 1:
            return None
        order.append(entering[0])
        remaining.remove(entering[0])
    if order[0] != 0 or order[1] != c:
        raise NumericalError(f"span chain for idempotent {c} produced ordering {order}, "
                             f"which does not start 0, {c}")
    return order


def qpoly_orderings(sd: SpectralData) -> list[list[int]]:
    """All orderings realizing the entrywise-polynomial property.

    At most one ordering exists per candidate second idempotent, because the
    span chain determines each later position uniquely.
    """
    orders = (_ordering_for_candidate(sd, c) for c in range(1, sd.d + 1))
    return [o for o in orders if o is not None]


# ---------------------------------------------------------------------------
# Krein-parameter oracle.
# ---------------------------------------------------------------------------

def krein_parameters(sd: SpectralData, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """The tensor q^h_ij = n tr((E_i o E_j) E_h) / m_h, with a nonnegativity check.

    E_j takes the value dual[j, l] / n on the n k_l pairs at distance l, so
    the trace is a sum over the d+1 distances.
    """
    dual = sd.dual
    q = np.einsum("l,il,jl,hl->hij", np.asarray(sd.sizes, dtype=np.float64), dual, dual, dual)
    q /= sd.n * np.asarray(sd.mult, dtype=np.float64)[:, None, None]
    eps = tol.matrix_eps(float(sd.theta[0]))  # theta_0 = k exactly
    low = float(q.min())
    if low < -10 * eps:
        raise NumericalError(f"Krein parameter {low:.3e} is significantly negative")
    return q


def krein_orderings(q: np.ndarray) -> list[list[int]]:
    """Orderings whose first-slice pattern is irreducible tridiagonal.

    Searches, per candidate c, for permutations sigma with sigma(0)=0 and
    sigma(1)=c such that q^c on sigma is zero beyond the first off-diagonal
    and positive on it.  Depth-first with the zero constraints pruning as
    the path grows.
    """
    d = q.shape[0] - 1
    eps = 1e-7 * max(1.0, float(q.max()))
    out = []
    for c in range(1, d + 1):
        found: list[list[int]] = []

        def extend(path: list[int]) -> None:
            if len(path) == d + 1:
                found.append(list(path))
                return
            for y in range(1, d + 1):
                if y in path:
                    continue
                if q[c, path[-1], y] <= eps:
                    continue
                if any(q[c, path[a], y] > eps for a in range(len(path) - 1)):
                    continue
                path.append(y)
                extend(path)
                path.pop()

        if q[c, 0, c] > eps:  # q^c_{0,c} = 1; the guard is just shape sanity
            extend([0, c])
        out.extend(found)
    return out


# ---------------------------------------------------------------------------
# Cross-decider consistency.
# ---------------------------------------------------------------------------

@dataclass
class QPolyReport:
    balanced: dict[int, BalancedSetResult]
    span_orderings: list[list[int]]
    krein_orderings: list[list[int]]
    krein_tensor: np.ndarray
    consistent: bool
    disagreements: list[str]

    @property
    def qpoly_candidates(self) -> list[int]:
        return sorted(o[1] for o in self.span_orderings)

    @property
    def is_qpoly(self) -> bool:
        return bool(self.span_orderings)

    @property
    def worst_residual(self) -> float:
        """Tightness of the positive certifications (0 when none passed)."""
        return max((r.worst_residual for r in self.balanced.values() if r.qpoly), default=0.0)


def qpoly_report(dd: DistanceData, ia: IntersectionData, sd: SpectralData,
                 mode: str = "auto", seed: int = 0,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> QPolyReport:
    """Run all three deciders and compare them idempotent by idempotent."""
    balanced = {e: balanced_set_check(dd, ia, sd, e, mode=mode, seed=seed, tol=tol)
                for e in range(1, sd.d + 1)}
    span = qpoly_orderings(sd)
    q = krein_parameters(sd, tol)
    krein = krein_orderings(q)

    span_set = {o[1] for o in span}
    krein_set = {o[1] for o in krein}
    disagreements = []
    for e in range(1, sd.d + 1):
        verdicts = (balanced[e].qpoly, e in span_set, e in krein_set)
        if len(set(verdicts)) != 1:
            disagreements.append(
                f"idempotent {e}: balanced={verdicts[0]} span={verdicts[1]} "
                f"krein={verdicts[2]} (balanced worst residual "
                f"{balanced[e].worst_residual:.3e}, witness {balanced[e].witness})")
    if sorted(span) != sorted(krein):
        disagreements.append(f"ordering lists differ: span={span} krein={krein}")
    return QPolyReport(balanced, span, krein, q, not disagreements, disagreements)

