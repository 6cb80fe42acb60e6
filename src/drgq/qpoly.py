"""Q-polynomial property deciders.

Three independent routes, kept deliberately separate so they can check one
another:

* the balanced-set sweep verifies, instance by instance, the vector identity
  that ties sums of projected standard-basis vectors over the two mixed
  distance sets to a scaled difference of endpoint projections;
* ordering recovery works in dual-coordinate space, where entrywise products
  of Bose-Mesner idempotents are diagonal, and asks that each entrywise power
  t^p of a candidate's dual vector admits exactly one new idempotent into its
  span; the span grows as the Krylov chain of diag(t) from the all-ones
  vector, since the monomials lose their rank by degree 26, and one residual
  table of the unit dual vectors, reduced once per degree, gives every
  idempotent's membership;
* the Krein oracle computes q^h_ij = n tr((E_i o E_j) E_h) / m_h in closed
  form from the d+1 coordinates, (1/(n m_h)) sum_l k_l Q_il Q_jl Q_hl with
  Q_jl the l-th dual eigenvalue of E_j and k_l the sphere sizes, and walks,
  per candidate, to the one ordering that can make its q^1 slice irreducible
  tridiagonal: each step has exactly one admissible next index, or none.

The sweep checks the identity entrywise over all coordinates, which is
strictly stronger than inner-product probes.  Level one needs no vectors:
for adjacent x, y the mixed sets are ball differences, so all level-one
instances of a cell share one residual, which the d+1 coordinates bound
with a rounding allowance.  Beyond that, a batch of instances of one
cell (h, i, j) becomes a signed mask matrix M, and the cell's coefficient
c = p^h_ij (dual_i - dual_j) / (dual_0 - dual_h) is one scalar.  Since
lhs - rhs = V E_j with V = M - c (e_x - e_y)^T, the sweep works in a
rank-m_j factor F of E_j (F F^T = E_j up to a certified delta, from a
pivoted Cholesky): each instance gets an upper bound on its residual from
the m_j-vector V F, and only the instances that bound does not clear are
expanded to n coordinates, reading E_j as dual[j][dist] / n a block of
columns at a time, so the sweep forms no n x n float and no (d+1)^3 tensor.
The factor is formed only for a candidate that survives past level one:
the first instance that needs a bound is estimated from its member rows
and, when the estimate does not clear, expanded first, so a negative whose
witness comes right after level one forms no factor.  A batch expands its
first unclear instance alone and the rest in one more call only when that
one passes, so a negative whose witness is the first instance its bound
leaves unclear expands that instance alone.
Residuals are normalized by max(lhs, rhs, 1/n) so verdicts do not depend on
the global 1/n scaling of the idempotents.  Both modes visit the cells
1 <= i < j with p^h_ij > 0 in witness order (h, i, j, then x, y) and stop
at the first failure, the smallest one; every witness and its residual are
exact, and a positive worst residual is a certified bound.
"""

from __future__ import annotations

import contextvars
import logging
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

log = logging.getLogger(__name__)

# inside qpoly_report, a list holding the one pair draw its candidates share
_shared_draw = contextvars.ContextVar("shared_draw", default=None)

Witness = tuple[int, int, int, int, int, float]  # (h, i, j, x, y, residual)


@dataclass
class BalancedSetResult:
    """One candidate's verdict.  ``instances`` and ``worst_residual`` cover the
    live instances (cells 1 <= i < j with p^h_ij > 0) up to and including the
    witness, or all of them on a positive verdict.  On a negative verdict
    ``worst_residual`` is the witness's exact residual; on a positive one it
    is a certified upper bound on every instance's residual."""

    candidate: int
    qpoly: bool
    worst_residual: float
    mode: str
    seed: Optional[int]
    instances: int
    witness: Optional[Witness] = None
    duplicate_dual_index: Optional[int] = None  # h with dual_0 = dual_h, when the guard fired


@dataclass
class Factor:
    """A certified rank-m_j factor of E_j: ||F F^T - E_j||_max <= delta, and
    rho is the largest row norm of F."""

    f: np.ndarray  # n x m_j
    delta: float
    rho: float


def resolve_mode(n: int, mode: str) -> str:
    if mode == "auto":
        return "full" if n <= FULL_MODE_LIMIT else "sampled"
    if mode not in ("full", "sampled"):
        raise ValueError(f"mode must be full, sampled, or auto, got {mode!r}")
    return mode


def _cholesky(sd: SpectralData, j: int) -> np.ndarray:
    """F (n x m_j) with F F^T = E_j, by a pivoted Cholesky whose columns are
    gathered as dual[j][dist[p]] / n, so no n x n float is formed.

    After k < m_j steps the Schur complement has trace m_j - k (the factor
    so far spans a rank-k part of the projector) spread over n - k diagonal
    entries, so its largest pivot is at least 1/n; one below half of that
    means the factorization stalled, and it raises NumericalError.
    """
    n, m = sd.n, sd.mult[j]
    column = sd.dual[j] / n  # E_j's value on a pair at distance h
    f = np.zeros((n, m))
    rest = np.full(n, column[0])  # the Schur complement's diagonal
    col = np.empty(n)
    for k in range(m):
        p = int(np.argmax(rest))
        pivot = float(rest[p])
        if not pivot > 0.5 / n:
            raise NumericalError(f"pivoted Cholesky of E_{j} stalled at rank {k} of {m} "
                                 f"(largest pivot {pivot:.3e})")
        np.take(column, sd.dist[p], out=col, mode="clip")  # clip never acts, as in _residuals
        col -= f[:, :k] @ f[p, :k]
        col /= np.sqrt(pivot)
        f[:, k] = col
        rest -= col * col
    return f


def _certificate(f: np.ndarray, sd: SpectralData, j: int, work: np.ndarray) -> float:
    """delta = ||F F^T - E_j||_max, read over the upper triangle in row blocks
    of BATCH_ENTRIES entries, each formed in work[0] beside its gather of
    E_j in work[1]; NaN anywhere makes it NaN."""
    n = sd.n
    column = sd.dual[j] / n
    rows = max(1, BATCH_ENTRIES // n)
    peaks = []
    for s in range(0, n, rows):
        shape = (min(rows, n - s), n - s)
        block = np.matmul(f[s:s + rows], f[s:].T, out=work[0][:shape[0] * shape[1]].reshape(shape))
        block -= np.take(column, sd.dist[s:s + rows, s:], mode="clip",
                         out=work[1][:block.size].reshape(shape))
        peaks.append(np.abs(block, out=block).max())
    return float(np.max(peaks))


def _factor(sd: SpectralData, j: int, work: Optional[np.ndarray] = None) -> Factor:
    """E_j's pivoted Cholesky factor with its certificate, formed in the
    sweep's ``work`` buffers (or two of the same size)."""
    f = _cholesky(sd, j)
    rho = float(np.sqrt(np.einsum("tk,tk->t", f, f).max()))
    if work is None:
        work = np.empty((2, max(BATCH_ENTRIES, sd.n)))
    return Factor(f, _certificate(f, sd, j, work), rho)


def _mask(xs, ys, i, j, dist, out):
    """Row t: the signed indicator of instance t's two mixed distance sets."""
    dx, dy = dist[xs], dist[ys]
    signed = ((dx == i) & (dy == j)).view(np.int8)
    signed -= ((dx == j) & (dy == i)).view(np.int8)
    np.copyto(out, signed)  # one cast; a bool-to-float64 subtract casts twice
    return out


def _residuals(xs, ys, i, j, column, dist, c, work):
    """Relative residuals of a batch of instances (xs[t], ys[t]) of one block (h, i, j).

    Row t of M is the signed indicator of instance t's two mixed distance sets
    (E is symmetric), and c is the block's coefficient.  E_j is column[dist] with ``column`` = dual[j] / n, so
    M E_j is formed a block of BATCH_ENTRIES entries of E_j's columns at a
    time; each entry stays one dot product over all n terms, as in the dense
    product.  ``work`` holds three reused buffers for the t x n arrays; the
    third holds each column block of E_j before it holds the rhs.
    """
    t, n = len(xs), dist.shape[0]
    m, lhs, rhs = (w[:t * n].reshape(t, n) for w in work)
    _mask(xs, ys, i, j, dist, m)
    cols = max(1, BATCH_ENTRIES // n)
    # every distance indexes column, so clip never acts; it spares take the
    # copy of ``out`` that mode="raise" makes
    for s in range(0, n, cols):
        block = dist[:, s:s + cols]  # E_j's block, held in rhs's buffer until rhs is formed
        e = np.take(column, block, out=work[2][:block.size].reshape(block.shape), mode="clip")
        lhs[:, s:s + cols] = m @ e
    np.take(column, dist[xs], out=rhs, mode="clip")
    rhs -= np.take(column, dist[ys], out=m, mode="clip")
    rhs *= c
    scale = np.maximum(np.abs(lhs, out=m).max(axis=1), np.abs(rhs, out=m).max(axis=1))
    np.maximum(scale, 1.0 / n, out=scale)
    return np.abs(np.subtract(lhs, rhs, out=m), out=m).max(axis=1) / scale


def _bounds(xs, ys, i, j, fac, dist, c, p, work):
    """Upper bounds on the relative residuals of the instances (xs[t], ys[t])
    of one block (h, i, j), with coefficient c and p = p^h_ij, read in the factor.

    With V_t = M_t - c (e_x - e_y)^T, lhs - rhs = V_t E_j, and entrywise
    |V_t E_j| <= ||V_t F||_2 rho + ||V_t||_1 delta.  Each mixed set has
    p members, so ||V_t||_1 <= 2 (p + |c|), and the scale is at
    least 1/n.  The allowance g = (n + m + 8) eps covers the rounding of
    V_t F, of its norm, of delta and of the exact residual itself.
    """
    t, n = len(xs), dist.shape[0]
    f = fac.f
    g = (n + f.shape[1] + 8) * np.finfo(np.float64).eps
    w = _mask(xs, ys, i, j, dist, work[0][:t * n].reshape(t, n)) @ f
    ends = f[xs]
    ends -= f[ys]
    ends *= c
    w -= ends
    slack = fac.delta + (np.sqrt(f.shape[1]) + 2) * g * (fac.rho ** 2 + fac.delta)
    size = 2.0 * (p + np.abs(c))
    return n * (1 + g) * (np.sqrt(np.einsum("tk,tk->t", w, w)) * fac.rho + size * slack)


def _level_one(sd, p, candidate):
    """Entry i < d: an upper bound on the relative residual of every level-one
    instance of cell (i, i+1), read in the d+1 coordinates.

    For adjacent x, y the mixed sets are B_i(x) minus B_i(y) and back, so the
    mask is 1_B_i(x) - 1_B_i(y), and entry w of lhs - rhs is
    kappa[d(x, w)] - kappa[d(y, w)], with kappa = lam - c column and
    lam[g] = sum over l <= i and h of p^g_lh column[h], the sum of E_j over
    B_i(x) at a w with d(x, w) = g.  Over all edges, (d(x, w), d(y, w)) runs
    over the pairs (a, b) with p^1_ab > 0, so the cell's instances share one
    residual: max |kappa_a - kappa_b| over max(max |lam_a - lam_b|,
    |c| max |column_a - column_b|, 1/n).  Numerator and scale are moved by
    the allowance 2 g (p^1_i,i+1 + n + |c|) max |column|, g = (n + d + 8) eps,
    which covers the rounding of lam (cumulative sums of (d+1)-term dot
    products with weights summing to at most n) and of each entry _residuals
    forms (a dot product of n terms, 2 p^1_i,i+1 of them nonzero); the factor
    1 + g covers the divisions.  So the bound holds for the exact residual
    and for the float one the expansion would give.  NaN makes it NaN.
    """
    d, n, dual = sd.d, sd.n, sd.dual[candidate]
    column, cells = dual / n, np.arange(d)
    c = p[1, cells, cells + 1] * (dual[cells] - dual[cells + 1]) / (dual[0] - dual[1])
    lam = np.cumsum(np.einsum("glh,h->gl", p[:, :d], column), axis=1)  # lam[g, i], no copy of p
    kappa = lam - np.outer(column, c)
    a, b = np.nonzero(p[1])
    num = np.abs(kappa[a] - kappa[b]).max(axis=0)
    scale = np.maximum(np.abs(lam[a] - lam[b]).max(axis=0),
                       np.abs(c) * np.abs(column[a] - column[b]).max())
    g = (n + d + 8) * np.finfo(np.float64).eps
    allowance = 2 * g * (p[1, cells, cells + 1] + n + np.abs(c)) * np.abs(column).max()
    return (1 + g) * (num + allowance) / np.maximum(scale - allowance, 1.0 / n)


def _hint(xs, ys, i, j, column, dist, c, work):
    """The relative residual of the one instance (xs[0], ys[0]), summed over
    its 2 p^h_ij member rows of E_j a row block at a time in ``work``: an
    estimate in O(p^h_ij n) that decides whether the sweep expands the
    instance before forming the factor, never a verdict."""
    n = dist.shape[0]
    row = _mask(xs, ys, i, j, dist, work[0][:n].reshape(1, n))[0]
    members = np.flatnonzero(row)
    signs, lhs = row[members], work[1][:n]
    lhs[:] = 0.0
    rows = max(1, BATCH_ENTRIES // n)
    for s in range(0, members.size, rows):
        block = dist[members[s:s + rows]]
        lhs += signs[s:s + rows] @ np.take(column, block, mode="clip",
                                           out=work[2][:block.size].reshape(block.shape))
    rhs = c * (column[dist[xs[0]]] - column[dist[ys[0]]])
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0 / n)
    return float(np.abs(lhs - rhs).max() / scale)


def _sweep(blocks, sd, candidate, p, rel_tol):
    """Check blocks (h, i, j, xs, ys) of instances in witness order; stop at the first failure.

    A level-one cell whose coordinate bound (_level_one) clears ``rel_tol``
    passes whole.  Every other batch is bounded in E_j's factor first; the
    instances whose bound does not clear get their exact residuals from
    E_j's coordinate vector dual[j] / n, in witness order: the first alone,
    then the rest in one call if it passed.  The factor is formed at the
    first batch that needs bounds, and only once that batch's first
    instance passes: when its member-row estimate (_hint) does not clear,
    it is expanded first, and a failure there is the witness.  No instance
    is expanded twice, and none after a failing first one.  Returns (worst,
    instances, witness) over the instances up to and including the witness,
    or over all of them when none fails.
    """
    dist, n, dual = sd.dist, sd.n, sd.dual[candidate]
    column, level_one = dual / n, _level_one(sd, p, candidate)
    work = np.empty((3, max(BATCH_ENTRIES, n)))
    size = max(1, BATCH_ENTRIES // n)
    batches = ((h, i, j, c, xs[s:s + size], ys[s:s + size]) for h, i, j, xs, ys in blocks
               for c in (p[h, i, j] * (dual[i] - dual[j]) / (dual[0] - dual[h]),)  # per block
               for s in range(0, len(xs), size))
    fac, worst, checked, expanded, witness = None, 0.0, 0, 0, None
    for h, i, j, c, bx, by in batches:
        if h == 1 and level_one[i] <= rel_tol:  # NaN never clears
            worst, checked = max(worst, float(level_one[i])), checked + bx.size
            continue
        first = None  # instance 0's exact residual, when it was expanded before the factor
        if fac is None:
            if not _hint(bx[:1], by[:1], i, j, column, dist, c, work) <= rel_tol:
                first = _residuals(bx[:1], by[:1], i, j, column, dist, c, work)
                expanded += 1
            if first is None or not first[0] > rel_tol:
                fac = _factor(sd, candidate, work)
        if fac is None:
            rel = first
        else:
            rel = _bounds(bx, by, i, j, fac, dist, c, p[h, i, j], work)
            unclear = np.flatnonzero(~(rel <= rel_tol))  # NaN never clears
            for part in (unclear[:1], unclear[1:]):  # expanded unless an earlier one failed
                if part.size and not (rel[:part[0]] > rel_tol).any():
                    if first is not None and part[0] == 0:
                        rel[0] = first[0]
                        continue
                    rel[part] = _residuals(bx[part], by[part], i, j, column, dist, c, work)
                    expanded += part.size
        bad = np.flatnonzero(rel > rel_tol)
        t = int(bad[0]) if bad.size else rel.size - 1
        worst = max(worst, float(rel[:t + 1].max()))
        checked += t + 1
        if bad.size:
            witness = (h, i, j, int(bx[t]), int(by[t]), float(rel[t]))
            break
    log.debug("E_%d: %s; %d of %d instances expanded", candidate,
              "no factor built" if fac is None else f"factor delta {fac.delta:.2e}",
              expanded, checked)
    return worst, checked, witness


def _sampled_pairs(dist, per_pair, sample_size, seed):
    """The shortest prefix of the seeded pair stream whose live instances,
    per_pair[dist[x, y]] for a pair, reach ``sample_size``, sorted row-major."""
    n, pairs, reached = dist.shape[0], sample_size, [0]  # enough unless a level has no live cell
    while reached[-1] < sample_size:
        # one call draws the same stream as alternating scalar draws of x and y
        draws = np.random.default_rng(seed).integers(np.tile([n, n - 1], pairs))
        xs, ys = draws[0::2], draws[1::2]
        ys += ys >= xs
        reached, pairs = np.cumsum(per_pair[dist[xs, ys]]), 2 * pairs
    stop = int(np.searchsorted(reached, sample_size)) + 1
    order = np.lexsort((ys[:stop], xs[:stop]))
    return xs[order], ys[order]


def _drawn_pairs(dist, per_pair, sample_size, seed):
    """_sampled_pairs, drawn once per qpoly_report: its candidates share the
    graph, the sample size and the seed, so they share the draw."""
    shared = _shared_draw.get()
    if shared is None:
        return _sampled_pairs(dist, per_pair, sample_size, seed)
    if not shared:
        shared.append(_sampled_pairs(dist, per_pair, sample_size, seed))
    return shared[0]


def _instance_blocks(dist, p, mode, sample_size, seed):
    """The instance blocks (h, i, j, xs, ys) of a resolved mode in witness
    order: per level h, each live cell 1 <= i < j with p^h_ij > 0 over the
    level's pairs, row-major; full mode takes every pair x < y, sampled mode
    the shortest seeded pair prefix with ``sample_size`` live instances.  No
    other cell can fail: p^h_ij = 0 empties both mixed sets, and (0, h) has
    mixed sets {x}, {y} and coefficient exactly 1.0, so both sides are Ex - Ey.
    Nor can (y, x), y > x: it negates (x, y)'s mask and rhs, so repeats its residual."""
    d = p.shape[0] - 1
    hs, i, j = np.nonzero(p[:, 1:, 1:])  # row-major, so grouped by h
    upper = i < j
    cells = list(zip((i[upper] + 1).tolist(), (j[upper] + 1).tolist()))
    cuts = np.searchsorted(hs[upper], np.arange(d + 2)).tolist()
    live = [cells[a:b] for a, b in zip(cuts, cuts[1:])]
    if mode == "full":  # one level dist == h at a time
        levels = ((h, *np.nonzero(np.triu(dist == h))) for h in range(1, d + 1) if live[h])
    elif any(live):  # else no pair prefix ever holds a live instance
        xs, ys = _drawn_pairs(dist, np.array([len(c) for c in live]), sample_size, seed)
        hs = dist[xs, ys]
        levels = ((h, xs[hs == h], ys[hs == h]) for h in range(1, d + 1) if live[h])
    else:
        levels = ()
    return ((h, i, j, xs, ys) for h, xs, ys in levels for i, j in live[h])


def balanced_set_check(dd: DistanceData, ia: IntersectionData, sd: SpectralData,
                       candidate: int, mode: str = "auto", seed: int = 0,
                       sample_size: int = SAMPLE_INSTANCES,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> BalancedSetResult:
    """Decide the balanced-set condition for one nontrivial idempotent.

    Full mode checks every live (h, i<j, x<y) instance, sampled mode those of
    a seeded prefix of pairs holding at least ``sample_size`` >= 1 of them;
    both stop at the first failure in that order.  Duplicate dual values
    against index 0 short-circuit to a negative verdict (the condition's own
    precondition).
    """
    if candidate == 0:
        raise ValueError("the trivial idempotent is not a Q-polynomial candidate")
    if not 1 <= candidate <= sd.d:
        raise IndexError(f"idempotent index {candidate} outside 1..{sd.d}")
    if sample_size < 1:
        raise ValueError(f"sample_size must be at least 1, got {sample_size}")
    d, n, dual = sd.d, sd.n, sd.dual[candidate]
    mode = resolve_mode(n, mode)

    snap = tol.dual_zero_snap * max(1.0, abs(dual[0]))
    coincident = [(a, b) for a in range(d + 1) for b in range(a + 1, d + 1)
                  if abs(dual[a] - dual[b]) <= snap]
    if coincident and coincident[0][0] == 0:
        return BalancedSetResult(candidate, False, 0.0, mode, None, 0,
                                 duplicate_dual_index=coincident[0][1])

    used_seed = None if mode == "full" else seed
    blocks = _instance_blocks(dd.dist, ia.p, mode, sample_size, seed)
    worst, instances, witness = _sweep(blocks, sd, candidate, ia.p, tol.balanced_rel)

    verdict = witness is None
    if verdict and coincident:
        # the theory promises mutually distinct dual values on a positive verdict
        a, b = coincident[0]
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


def _ordering_for_candidate(sd: SpectralData, c: int) -> Optional[list[int]]:
    """Grow the span of t^0 .. t^p, t = dual[c] / dual[c][0], as the Krylov
    chain of diag(t) from the all-ones vector; column j of ``resid`` is the
    part of E_j's unit dual vector outside the span so far."""
    d = sd.d
    t = sd.dual[c] / sd.dual[c][0]
    resid = (sd.dual / np.linalg.norm(sd.dual, axis=1)[:, None]).T
    basis = np.zeros((d + 1, d + 1))
    order: list[int] = []
    for p in range(d + 1):
        v = t * basis[p - 1] if p else np.ones(d + 1)
        r = v - basis.T @ (basis @ v)
        r -= basis.T @ (basis @ r)  # twice is enough for orthogonality
        if np.linalg.norm(r) <= _SPAN_RANK * np.linalg.norm(v):
            return None  # span stalled: no new idempotent can enter at this degree
        basis[p] = q = r / np.linalg.norm(r)
        resid -= np.outer(q, q @ resid)
        norms = np.linalg.norm(resid, axis=0)
        norms[order] = np.inf  # entered columns stay in the span
        near = (norms >= _SPAN_MEMBER) & (norms < _SPAN_NONMEMBER)
        if near.any():
            j = int(np.argmax(near))
            raise NumericalError(f"span membership of idempotent {j} at degree {p} is ambiguous "
                                 f"(residual {norms[j]:.3e})")
        entering = np.flatnonzero(norms < _SPAN_MEMBER)
        if entering.size != 1:
            return None
        order.append(int(entering[0]))
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
    q = np.einsum("l,il,jl,hl->hij", np.asarray(sd.sizes, dtype=np.float64), dual, dual, dual,
                  optimize=True)
    q /= sd.n * np.asarray(sd.mult, dtype=np.float64)[:, None, None]
    eps = tol.matrix_eps(float(sd.theta[0]))  # theta_0 = k exactly
    low = float(q.min())
    if low < -10 * eps:
        raise NumericalError(f"Krein parameter {low:.3e} is significantly negative")
    return q


def krein_orderings(q: np.ndarray) -> list[list[int]]:
    """Orderings whose first-slice pattern is irreducible tridiagonal.

    Per candidate c, a walk from 0 appends at each step the one unplaced y
    with q^c[last, y] > eps, and stops when there is none or more than one:
    an unplaced y left beside ``last`` would sit two or more places after
    it, where q^c must vanish.  So each candidate has at most one ordering,
    kept when the walk places every index and its second entry is c.
    """
    d = q.shape[0] - 1
    eps = 1e-7 * max(1.0, float(q.max()))
    out = []
    for c in range(1, d + 1):
        path = [0]
        while len(path) <= d:
            step = [y for y in range(d + 1) if y not in path and q[c, path[-1], y] > eps]
            if len(step) != 1:
                break
            path.append(step[0])
        if len(path) == d + 1 and path[1] == c:
            out.append(path)
    return out


# ---------------------------------------------------------------------------
# Cross-decider consistency.
# ---------------------------------------------------------------------------

@dataclass
class QPolyReport:
    balanced: dict[int, BalancedSetResult]
    span_orderings: list[list[int]]
    krein_orderings: list[list[int]]
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
        """Tightness of the positive certifications, a certified upper bound on
        every residual they checked (0 when none passed)."""
        return max((r.worst_residual for r in self.balanced.values() if r.qpoly), default=0.0)


def qpoly_report(dd: DistanceData, ia: IntersectionData, sd: SpectralData,
                 mode: str = "auto", seed: int = 0,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> QPolyReport:
    """Run all three deciders and compare them idempotent by idempotent."""
    token = _shared_draw.set([])
    try:
        balanced = {e: balanced_set_check(dd, ia, sd, e, mode=mode, seed=seed, tol=tol)
                    for e in range(1, sd.d + 1)}
    finally:
        _shared_draw.reset(token)
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
    return QPolyReport(balanced, span, krein, not disagreements, disagreements)

