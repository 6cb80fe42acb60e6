"""The claim registry: one code path behind analyze, verify and catalogue,
and verdicts that do not depend on how the vertices are labelled."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgq import catalogue
from drgq.catalogue import CHECK_NAMES, CLAIMS, PER_GRAPH_CHECKS, make_bundle, run_catalogue
from drgq.cli import SUITES, build_parser, main
from drgq.connectivity import sweep_last_two, sweep_tail
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


def _relabel(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u in range(g.n) for v in g.neighbors[u] if u < v])


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
