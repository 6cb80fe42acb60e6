"""Inputs and output checks for the drgq benchmark, independent of drgq.

Everything here uses networkx, numpy and closed forms only; it never imports
drgq.  Graphs are built with networkx, distances come from networkx BFS, and
the distance-regularity verdict comes from the textbook definition (c_h and
b_h constant on every distance class).  Each ``check_*`` function takes one
operation's output and returns ``None`` when it is right, or a one-line
reason when it is wrong.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import ceil, comb
from typing import Optional

import networkx as nx
import numpy as np

# The twelve members of `drgq catalogue`, with the checks every member gets.
CATALOGUE = (
    "petersen", "cycle:6", "hamming:3,2", "hamming:3,3", "hamming:4,2",
    "johnson:6,3", "johnson:7,3", "folded_cube:5", "folded_cube:7",
    "odd:3", "odd:4", "odd:5",
)
ALWAYS_CHECKS = ("inner_product", "qpoly_consistency", "idempotents", "tail", "dual_oracle")

ANALYZE_SPECS = ("johnson:12,6", "hamming:8,2")
SAMPLED_BASE_VERTICES = 8

# screen_g6 make-up: ladder members after a few edge switches, random regular
# graphs, and relabelled distance-regular graphs of at most 200 vertices.
NEAR_MISS_SPECS = (
    "odd:4", "johnson:9,4", "johnson:10,3", "hamming:4,3", "folded_cube:7", "hamming:6,2",
    "johnson:8,4", "odd:5", "johnson:10,5", "hamming:5,3", "hamming:8,2", "johnson:10,4",
)
SWITCHES = 3
RANDOM_REGULAR = ((3, 120), (3, 300), (4, 150), (4, 256), (5, 200), (6, 400))  # (degree, n)
DRG_SPECS = (
    "petersen", "odd:3", "johnson:7,3", "johnson:8,3", "folded_cube:7", "johnson:8,4",
    "hamming:4,3", "hamming:6,2", "johnson:10,3", "odd:4",
)

EIG_TOL = 1e-6
EXIT_FAILURE = "exit code"


# ---------------------------------------------------------------------------
# Graphs, built with networkx in drgq's documented vertex order
# (lexicographic order of subsets and words).
# ---------------------------------------------------------------------------

def _from_labels(labels, adjacent) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(labels)))
    g.add_edges_from((i, j) for i, j in itertools.combinations(range(len(labels)), 2)
                     if adjacent(labels[i], labels[j]))
    return g


def family_graph(spec: str) -> nx.Graph:
    kind, _, rest = spec.partition(":")
    p = [int(x) for x in rest.split(",")] if rest else []
    if kind == "petersen":
        return nx.petersen_graph()
    if kind == "cycle":
        return nx.cycle_graph(p[0])
    if kind == "johnson":
        sets = [frozenset(s) for s in itertools.combinations(range(p[0]), p[1])]
        return _from_labels(sets, lambda a, b: len(a & b) == p[1] - 1)
    if kind == "odd":
        sets = [frozenset(s) for s in itertools.combinations(range(2 * p[0] + 1), p[0])]
        return _from_labels(sets, lambda a, b: not a & b)
    if kind == "hamming":
        words = list(itertools.product(range(p[1]), repeat=p[0]))
        return _from_labels(words, lambda a, b: sum(x != y for x, y in zip(a, b)) == 1)
    if kind == "folded_cube":
        n = p[0]
        words = [w for w in itertools.product((0, 1), repeat=n) if w[0] == 0]
        return _from_labels(words, lambda a, b: sum(x != y for x, y in zip(a, b)) in (1, n - 1))
    raise ValueError(f"unknown family {spec!r}")


def distance_matrix(g: nx.Graph) -> np.ndarray:
    n = g.number_of_nodes()
    dist = np.full((n, n), -1, dtype=np.int32)
    for u, lengths in nx.all_pairs_shortest_path_length(g):
        dist[u, list(lengths)] = list(lengths.values())
    if (dist < 0).any():
        raise ValueError("graph is disconnected")
    return dist


def intersection_array(dist: np.ndarray, adj: np.ndarray) -> Optional[tuple[list[int], list[int]]]:
    """(b, c) when c_h and b_h are constant on every distance class, else None."""
    d = int(dist.max())
    masks = [(dist == h).astype(np.float64) for h in range(d + 1)]
    a = adj.astype(np.float64)
    b, c = [], []
    for h in range(d + 1):
        on = dist == h
        for other, out in ((h + 1, b), (h - 1, c)):
            if not 0 <= other <= d:
                continue
            counts = (masks[other] @ a)[on]
            if counts.min() != counts.max():
                return None
            out.append(int(counts[0]))
    return b, c


def spectrum(adj: np.ndarray) -> tuple[list[float], list[int]]:
    """Distinct adjacency eigenvalues, decreasing, with multiplicities."""
    theta: list[float] = []
    mult: list[int] = []
    for v in np.linalg.eigvalsh(adj.astype(np.float64))[::-1]:
        if theta and abs(theta[-1] - v) <= EIG_TOL:
            mult[-1] += 1
        else:
            theta.append(float(v))
            mult.append(1)
    return theta, mult


def _sphere_union_connected(g: nx.Graph, lengths: dict, lo: int) -> bool:
    members = [v for v, dv in lengths.items() if dv >= lo]
    return nx.is_connected(g.subgraph(members))


# ---------------------------------------------------------------------------
# catalogue
# ---------------------------------------------------------------------------

def expected_catalogue_rows() -> set[tuple[str, str]]:
    """The (graph, check) rows the catalogue's applicability rules give."""
    rows = set()
    for spec in CATALOGUE:
        kind, _, rest = spec.partition(":")
        d = nx.diameter(family_graph(spec))
        names = list(ALWAYS_CHECKS)
        if d >= 3:
            names.append("last_two")
        if kind == "odd":
            names.append("sphere_valency")
            if d >= 3:
                names.append("census")
            if rest in ("3", "4"):
                names.append("inner_split")
        if kind == "folded_cube" and d >= 3:
            names.append("folded_spheres")
        rows.update((spec, name) for name in names)
    return rows


def _exit_failure(op: dict) -> Optional[str]:
    if op["exit"] != 0:
        return f"{EXIT_FAILURE} {op['exit']}: {op.get('stderr', '')[-300:]}"
    return None


def check_catalogue(op: dict, expected_rows: set) -> Optional[str]:
    if reason := _exit_failure(op):
        return reason
    rows = op["rows"]
    failing = [f"{r['graph']} {r['check']}" for r in rows if r["passed"] is not True]
    if failing:
        return f"rows failed: {failing[:3]}"
    got = [(r["graph"], r["check"]) for r in rows]
    if len(got) != len(set(got)) or set(got) != expected_rows:
        return (f"row set differs: missing {sorted(expected_rows - set(got))[:3]}, "
                f"extra {sorted(set(got) - expected_rows)[:3]}")
    return None


# ---------------------------------------------------------------------------
# analyze_large: closed forms for Johnson and Hamming graphs
# ---------------------------------------------------------------------------

@dataclass
class ClosedForm:
    n: int
    d: int
    b: list[int]
    c: list[int]
    theta: list[float]
    mult: list[int]

    @property
    def k(self) -> int:
        return self.b[0]

    def sign_change(self) -> int:
        """First index where the dual sequence of E_1 is <= 0 (standard sequence)."""
        th = self.theta[1]
        bb, cc = self.b + [0], [0] + self.c
        u = [1.0, th / self.k]
        for i in range(1, self.d):
            a_i = self.k - bb[i] - cc[i]
            u.append(((th - a_i) * u[i] - cc[i] * u[i - 1]) / bb[i])
        return next(i for i, x in enumerate(u) if x <= 1e-9)


def closed_form(spec: str) -> ClosedForm:
    kind, _, rest = spec.partition(":")
    x, y = (int(v) for v in rest.split(","))
    if kind == "johnson":
        n, k = x, y
        d = min(k, n - k)
        return ClosedForm(comb(n, k), d, [(k - i) * (n - k - i) for i in range(d)],
                          [i * i for i in range(1, d + 1)],
                          [float((k - j) * (n - k - j) - j) for j in range(d + 1)],
                          [comb(n, j) - (comb(n, j - 1) if j else 0) for j in range(d + 1)])
    if kind == "hamming":
        d, q = x, y
        return ClosedForm(q ** d, d, [(d - i) * (q - 1) for i in range(d)], list(range(1, d + 1)),
                          [float((q - 1) * d - q * j) for j in range(d + 1)],
                          [comb(d, j) * (q - 1) ** j for j in range(d + 1)])
    raise ValueError(f"no closed form for {spec!r}")


@dataclass
class AnalyzeReference:
    spec: str
    form: ClosedForm
    graph: nx.Graph
    sample: list[int]


def analyze_reference(spec: str, rng: np.random.Generator) -> AnalyzeReference:
    form = closed_form(spec)
    sample = sorted(int(v) for v in rng.choice(form.n, SAMPLED_BASE_VERTICES, replace=False))
    return AnalyzeReference(spec, form, family_graph(spec), sample)


def _same_spectrum(theta, mult, ref_theta, ref_mult) -> bool:
    return (len(theta) == len(ref_theta) and list(mult) == list(ref_mult)
            and all(abs(a - b) <= EIG_TOL for a, b in zip(theta, ref_theta)))


def check_analyze(op: dict, ref: AnalyzeReference) -> Optional[str]:
    if reason := _exit_failure(op):
        return reason
    r, f = op["report"], ref.form
    inter = r["intersection"]
    if r["graph"]["n"] != f.n or not inter["is_drg"] or inter["d"] != f.d:
        return f"{ref.spec}: n, verdict or diameter differs from the closed form"
    if inter["b"] != f.b or inter["c"] != f.c:
        return f"{ref.spec}: intersection array {inter['b']};{inter['c']} != {f.b};{f.c}"
    if not _same_spectrum(r["spectral"]["theta"], r["spectral"]["mult"], f.theta, f.mult):
        return f"{ref.spec}: spectrum differs from the closed form"
    qp = r["qpoly"]
    if list(range(f.d + 1)) not in qp["orderings"] or not qp["consistent"]:
        return f"{ref.spec}: E1 ordering missing or deciders disagree"
    thm1 = r["connectivity"]["thm1"]
    flags = thm1["per_gamma"]
    if thm1["all_connected"] is not True or len(flags) != f.n or not all(x is True for x in flags):
        return f"{ref.spec}: last two spheres not connected at every vertex"
    ck = r["connectivity"]["ck"]
    s = f.sign_change()
    if ck["s"] != s or s < ceil(f.d / 2) or ck["tail_all_connected"] is not True:
        return f"{ref.spec}: sign change {ck['s']} (expected {s}) or tail not connected"
    for gamma in ref.sample:
        lengths = nx.single_source_shortest_path_length(ref.graph, gamma)
        if not (_sphere_union_connected(ref.graph, lengths, f.d - 1) and flags[gamma]):
            return f"{ref.spec}: last two spheres at vertex {gamma} disagree with networkx"
        if not _sphere_union_connected(ref.graph, lengths, s):
            return f"{ref.spec}: tail at vertex {gamma} is disconnected in networkx"
    return None


# ---------------------------------------------------------------------------
# screen_g6: a seeded graph6 stream and per-graph verdicts
# ---------------------------------------------------------------------------

@dataclass
class ScreenReference:
    name: str
    graph: nx.Graph
    dist: Optional[np.ndarray] = None
    array: Optional[tuple[list[int], list[int]]] = None   # None: not distance-regular
    theta: Optional[list[float]] = None
    mult: Optional[list[int]] = None

    def prepare(self) -> None:
        """Distances, verdict and spectrum; run after the timed work is done."""
        adj = nx.to_numpy_array(self.graph, nodelist=range(self.graph.number_of_nodes()))
        self.dist = distance_matrix(self.graph)
        self.array = intersection_array(self.dist, adj)
        if self.array is not None:
            self.theta, self.mult = spectrum(adj)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31))


def screen_stream(seed: int) -> list[ScreenReference]:
    """The seeded stream; its make-up is fixed, the seed moves switches,
    random graphs, relabellings and order."""
    rng = np.random.default_rng(seed)
    out = []
    for spec in NEAR_MISS_SPECS:
        g = family_graph(spec)
        nx.connected_double_edge_swap(g, SWITCHES, seed=_seed(rng))
        out.append(ScreenReference(f"{spec}+{SWITCHES}sw", g))
    for k, n in RANDOM_REGULAR:
        g = nx.random_regular_graph(k, n, seed=_seed(rng))
        while not nx.is_connected(g):
            g = nx.random_regular_graph(k, n, seed=_seed(rng))
        out.append(ScreenReference(f"rr:{k},{n}", g))
    for spec in DRG_SPECS:
        g = family_graph(spec)
        perm = rng.permutation(g.number_of_nodes())
        out.append(ScreenReference(f"{spec}~", nx.relabel_nodes(g, {i: int(p) for i, p in enumerate(perm)})))
    return [out[i] for i in rng.permutation(len(out))]


def write_stream(path: str, stream: list[ScreenReference]) -> None:
    with open(path, "wb") as fh:
        for item in stream:
            fh.write(nx.to_graph6_bytes(item.graph, nodes=range(item.graph.number_of_nodes()),
                                        header=False))


def _pair_count(dist: np.ndarray, x: int, y: int, i: int, j: int) -> int:
    return int(((dist[x] == i) & (dist[y] == j)).sum())


def check_screen(op: dict, ref: ScreenReference) -> Optional[str]:
    if reason := _exit_failure(op):
        return reason
    r = op["report"]
    inter = r.get("intersection")
    if inter is None or r["graph"]["n"] != ref.graph.number_of_nodes():
        return f"{ref.name}: no intersection section or wrong vertex count"
    expected = ref.array is not None
    if inter["is_drg"] is not expected:
        return f"{ref.name}: verdict {inter['is_drg']}, expected {expected}"
    if expected:
        if (inter["b"], inter["c"]) != tuple(ref.array):
            return f"{ref.name}: intersection array {inter['b']};{inter['c']} != {ref.array}"
        if not _same_spectrum(r["spectral"]["theta"], r["spectral"]["mult"], ref.theta, ref.mult):
            return f"{ref.name}: spectrum differs from eigvalsh"
        if not r["qpoly"]["consistent"]:
            return f"{ref.name}: Q-polynomial deciders disagree"
        return None
    w = inter["witness"]
    h, i, j = w["h"], w["i"], w["j"]
    (xa, ya), (xb, yb) = w["pair_a"], w["pair_b"]
    if ref.dist[xa, ya] != h or ref.dist[xb, yb] != h:
        return f"{ref.name}: witness pairs are not both at distance {h}"
    ca, cb = _pair_count(ref.dist, xa, ya, i, j), _pair_count(ref.dist, xb, yb, i, j)
    if (ca, cb) != (w["count_a"], w["count_b"]) or ca == cb:
        return f"{ref.name}: witness counts {w['count_a']},{w['count_b']} recompute to {ca},{cb}"
    return None


def check_round(workload: str, ops: list[dict], refs) -> list[tuple]:
    """(operation name, reason) for every failed operation of one round."""
    bad = []
    for i, op in enumerate(ops):
        try:
            if workload == "catalogue":
                reason = check_catalogue(op, refs)
            elif workload == "analyze_large":
                reason = check_analyze(op, refs[i])
            else:
                reason = check_screen(op, refs[i])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            bad.append((op["name"], reason))
    return bad
