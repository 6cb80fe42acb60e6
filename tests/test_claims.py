"""The claim registry: one code path behind analyze, verify and catalogue,
and verdicts that do not depend on how the vertices are labelled."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgq import catalogue, graphs
from drgq.catalogue import (CATALOGUE, CHECK_NAMES, CLAIMS, PER_GRAPH_CHECKS, build_bundle,
                            make_bundle, run_catalogue)
from drgq.cli import SUITES, build_parser, main
from drgq.connectivity import sweep_last_two, sweep_tail
from drgq.errors import MathAssertionError
from drgq.graphs import build_graph, distance_data

# self-centred (every eccentricity is 3) but not vertex-transitive: the
# last-two and tail sweeps fail at vertices 4 and 5 only
UNEVEN_EDGES = ((0, 1), (0, 3), (0, 9), (1, 3), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8),
                (4, 6), (4, 8), (5, 6), (5, 7), (6, 9))
SMALL_MEMBERS = ("petersen", "cycle:6", "hamming:3,2", "johnson:6,3", "folded_cube:5", "odd:3")


def _first_vertex_disconnected(sweep):
    def broken(*args, **kwargs):
        _, flags = sweep(*args, **kwargs)
        flags = [False] + list(flags[1:])
        return False, flags
    return broken


@pytest.mark.parametrize("sweep, claim, suite, spec, block, key", [
    ("sweep_tail", "tail", "ck", "petersen", "ck", "tail_all_connected"),
    ("sweep_last_two", "last_two", "thm1", "odd:3", "thm1", "all_connected"),
])
def test_front_ends_fail_together(monkeypatch, capsys, sweep, claim, suite, spec, block, key):
    monkeypatch.setattr(catalogue, sweep, _first_vertex_disconnected(getattr(catalogue, sweep)))

    rows = run_catalogue(specs=(spec,), only=claim)
    assert [(r.check, r.passed) for r in rows] == [(claim, False)]
    assert "disconnected at [0]" in rows[0].detail

    assert main(["verify", suite, spec]) == 5
    assert capsys.readouterr().out.startswith(f"FAIL {spec}:")

    assert main(["analyze", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["connectivity"][block][key] is False


def test_catalogue_census_needs_no_backtracking(monkeypatch):
    # the lockstep search maps every component the catalogue certifies, so
    # the census never falls back on the backtracking search
    asked, search = [], graphs.are_isomorphic
    monkeypatch.setattr(graphs, "are_isomorphic", lambda g, h: (asked.append(g), search(g, h))[1])
    rows = run_catalogue()
    assert all(r.passed for r in rows) and any(r.check == "census" for r in rows)
    assert asked == []


def test_cli_choices_come_from_the_registry():
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    only = next(a for a in commands["catalogue"]._actions if a.dest == "only")
    assert tuple(only.choices) == CHECK_NAMES == tuple(CLAIMS)
    assert set(SUITES.values()) <= set(CLAIMS)


def test_claims_carry_their_registry_name(bundles):
    seen = set()
    for spec in ("petersen", "folded_cube:7", "odd:3"):
        for name, check in zip(CHECK_NAMES, PER_GRAPH_CHECKS):
            claim = check(bundles[spec])
            if claim is not None:
                assert claim.check == name
                seen.add(name)
    assert seen == set(CHECK_NAMES)


@pytest.mark.parametrize("name, residual, bound", [
    ("dual_oracle", "eigen_residual", catalogue.DUAL_ORACLE_BOUND),
    ("inner_product", "idempotency_residual", catalogue.EQ2_BOUND),
])
def test_recorded_residual_over_bound_fails(bundles, name, residual, bound):
    b = bundles["petersen"]
    assert CLAIMS[name](b).passed
    worse = dataclasses.replace(b, sd=dataclasses.replace(b.sd, **{residual: 2 * bound}))
    claim = CLAIMS[name](worse)
    assert not claim.passed and claim.worst == 2 * bound


def _raises_or_fails(claim, bundle):
    try:
        result = claim(bundle)
    except MathAssertionError:
        return True
    return not result.passed


def _bumped(array, cell, by=1):
    array = array.copy()
    array[cell] += by
    return array


@pytest.mark.parametrize("name, spec, alter", [
    # p^4_(1,4) of odd:4 raised by one: the outer sphere would be 4-regular
    ("sphere_valency", "odd:4", lambda b: {"ia": dataclasses.replace(
        b.ia, p=_bumped(b.ia.p, (4, 1, 4)))}),
    # b_1 lowered by one makes a_1 = 1: every first sphere would hold edges
    ("folded_spheres", "folded_cube:7", lambda b: {"ia": dataclasses.replace(
        b.ia, b=(b.ia.b[0], b.ia.b[1] - 1) + b.ia.b[2:])}),
    # one dual coordinate of E_1 moved: E_1 is no longer idempotent
    ("idempotents", "petersen", lambda b: {"sd": dataclasses.replace(
        b.sd, dual=_bumped(b.sd.dual, (1, 1), 1e-3))}),
    # E_1 dropped: the rest stay orthogonal idempotents but do not sum to I
    ("idempotents", "petersen", lambda b: {"sd": dataclasses.replace(
        b.sd, dual=b.sd.dual * (np.arange(3) != 1)[:, None])}),
    # E_0 and E_1 swapped: a complete orthogonal set whose E_0 is not J/n
    ("idempotents", "petersen", lambda b: {"sd": dataclasses.replace(
        b.sd, dual=b.sd.dual[[1, 0, 2]])}),
])
def test_altered_coordinates_fail(bundles, name, spec, alter):
    b = bundles[spec]
    assert CLAIMS[name](b).passed
    assert _raises_or_fails(CLAIMS[name], dataclasses.replace(b, **alter(b)))


@pytest.mark.parametrize("spec", CATALOGUE + ("hamming:8,2",))
def test_idempotents_claim_matches_dense_products(bundles, spec):
    b = bundles[spec] if spec in bundles else build_bundle(spec)
    sd, n = b.sd, b.graph.n
    dense = float(np.abs(sd.idempotent(0) - 1.0 / n).max())
    total = np.zeros((n, n))
    for i in range(b.ia.d + 1):
        e_i = sd.idempotent(i)
        total += e_i
        for j in range(b.ia.d + 1):
            target = e_i if i == j else 0.0
            dense = max(dense, float(np.abs(e_i @ sd.idempotent(j) - target).max()))
    dense = max(dense, float(np.abs(total - np.eye(n)).max()))
    claim = CLAIMS["idempotents"](b)
    assert claim.passed and abs(claim.worst - dense) < 1e-12


def _relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.sampled_from(SMALL_MEMBERS), st.data())
def test_verdicts_invariant_under_relabeling(bundles, spec, data):
    b = bundles[spec]
    perm = data.draw(st.permutations(range(b.graph.n)))
    p = make_bundle(_relabel(b.graph, perm), spec, b.family)

    assert (p.ia.b, p.ia.c) == (b.ia.b, b.ia.c)
    assert p.sd.theta.tolist() == b.sd.theta.tolist() and p.sd.mult == b.sd.mult
    assert ([r.qpoly for r in p.qpoly.balanced.values()]
            == [r.qpoly for r in b.qpoly.balanced.values()])
    assert p.qpoly.span_orderings == b.qpoly.span_orderings
    assert p.qpoly.krein_orderings == b.qpoly.krein_orderings
    for name in ("last_two", "tail", "census"):
        before, after = CLAIMS[name](b), CLAIMS[name](p)
        assert (before is None) == (after is None)
        if before is None:
            continue
        assert (after.passed, after.s, after.census) == (before.passed, before.s, before.census)
        if before.flags is not None:
            assert [after.flags[perm[v]] for v in range(b.graph.n)] == before.flags


@settings(derandomize=True, deadline=None, max_examples=12)
@given(st.permutations(range(10)))
def test_sweep_flags_follow_relabeling(perm):
    g = build_graph(10, UNEVEN_EDGES)
    h = _relabel(g, perm)
    for sweep, args in ((sweep_last_two, ()), (sweep_tail, (2,))):
        _, before = sweep(g, distance_data(g), *args)
        _, after = sweep(h, distance_data(h), *args)
        assert before.count(False) == 2
        assert [after[perm[v]] for v in range(10)] == before
