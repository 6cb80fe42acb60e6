"""The benchmark's output checks must fail on corrupted outputs.

Real drgq outputs for small graphs are produced in-process, checked intact,
then corrupted one way at a time; each corruption must be counted as one
failed operation by ``checks.check_round``, the counting code ``run.py`` uses.

    python3 -m pytest benchmarks/test_checks.py      # or: python3 benchmarks/test_checks.py
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import networkx as nx  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
from drgq.graphs import build_graph  # noqa: E402
from drgq.report import run_analysis, to_json  # noqa: E402


def _screen_op(ref):
    g = build_graph(ref.graph.number_of_nodes(), ref.graph.edges())
    return {"name": ref.name, "exit": 0, "report": json.loads(to_json(run_analysis(g, ref.name)))}


def _failed(workload, ops, refs):
    return len(checks.check_round(workload, ops, refs))


def _screen_pair():
    rng = np.random.default_rng(3)
    near = nx.convert_node_labels_to_integers(checks.family_graph("johnson:8,3"))
    nx.connected_double_edge_swap(near, 3, seed=int(rng.integers(2 ** 31)))
    drg = checks.family_graph("johnson:7,3")
    perm = rng.permutation(drg.number_of_nodes())
    drg = nx.relabel_nodes(drg, {i: int(p) for i, p in enumerate(perm)})
    refs = [checks.ScreenReference("near", near), checks.ScreenReference("drg", drg)]
    for ref in refs:
        ref.prepare()
    assert refs[0].array is None and refs[1].array is not None
    return [_screen_op(ref) for ref in refs], refs


def test_screen_checks_catch_corruption():
    ops, refs = _screen_pair()
    assert _failed("screen_g6", ops, refs) == 0

    flipped = copy.deepcopy(ops)
    flipped[0]["report"]["intersection"]["is_drg"] = True
    assert _failed("screen_g6", flipped, refs) == 1

    wrong_array = copy.deepcopy(ops)
    wrong_array[1]["report"]["intersection"]["b"][1] += 1
    assert _failed("screen_g6", wrong_array, refs) == 1

    forged = copy.deepcopy(ops)
    w = forged[0]["report"]["intersection"]["witness"]
    w["count_b"] = w["count_a"]
    assert _failed("screen_g6", forged, refs) == 1

    moved = copy.deepcopy(ops)
    w = moved[0]["report"]["intersection"]["witness"]
    w["pair_b"] = list(w["pair_a"])
    assert _failed("screen_g6", moved, refs) == 1

    crashed = copy.deepcopy(ops)
    crashed[1] = {"name": "drg", "exit": 1, "report": None, "stderr": "boom"}
    assert _failed("screen_g6", crashed, refs) == 1

    truncated = copy.deepcopy(ops)
    del truncated[1]["report"]["spectral"]
    assert _failed("screen_g6", truncated, refs) == 1


def test_analyze_checks_catch_corruption():
    from drgq.cli import main
    rng = np.random.default_rng(5)
    refs = [checks.analyze_reference(spec, rng) for spec in ("johnson:7,3", "hamming:4,2")]
    ops = []
    for ref in refs:
        path = os.path.join(HERE, "out", f"test-{ref.spec.replace(':', '_')}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        assert main(["analyze", ref.spec, "--out", path]) == 0
        with open(path, encoding="utf-8") as fh:
            ops.append({"name": ref.spec, "exit": 0, "report": json.load(fh)})
    assert _failed("analyze_large", ops, refs) == 0

    disconnected = copy.deepcopy(ops)
    disconnected[0]["report"]["connectivity"]["thm1"]["per_gamma"][refs[0].sample[0]] = False
    assert _failed("analyze_large", disconnected, refs) == 1

    wrong_array = copy.deepcopy(ops)
    wrong_array[1]["report"]["intersection"]["c"][0] = 2
    assert _failed("analyze_large", wrong_array, refs) == 1

    wrong_tail = copy.deepcopy(ops)
    wrong_tail[1]["report"]["connectivity"]["ck"]["s"] -= 1
    assert _failed("analyze_large", wrong_tail, refs) == 1


def test_catalogue_checks_catch_corruption():
    expected = checks.expected_catalogue_rows()
    rows = [{"graph": g, "check": c, "passed": True, "detail": "", "seconds": 0.0}
            for g, c in sorted(expected)]
    op = {"name": "catalogue", "exit": 0, "rows": rows}
    assert _failed("catalogue", [op], expected) == 0

    flipped = copy.deepcopy(op)
    flipped["rows"][0]["passed"] = False
    flipped["exit"] = 5
    assert _failed("catalogue", [flipped], expected) == 1

    flipped["exit"] = 0
    assert _failed("catalogue", [flipped], expected) == 1

    missing = copy.deepcopy(op)
    missing["rows"].pop()
    assert _failed("catalogue", [missing], expected) == 1


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
