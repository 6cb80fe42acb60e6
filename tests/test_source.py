"""Rules on the package source itself.

Verification must survive ``python -O``, which strips ``assert`` statements,
so the package raises its documented errors instead of asserting.  The dense
projector ``SpectralData.idempotent`` is the acceptance battery's reference
only: the pipeline reads E_j from its d+1 coordinates and forms no n x n
float after the BFS, and only the balanced-set sweep forms E_j's factor.  The full-sweep vertex limit has one owner,
``qpoly.FULL_MODE_LIMIT``, which connectivity does not read, and only the
odd-graph census runs the connectivity label kernel.  The OR round over
closed neighborhoods is written once, in ``graphs.flood``, and the
regularity check sums fixed-width blocks without ``reduceat``.  An einsum of
three or more operands follows an optimized contraction path, and only the
two owners of the (d+1)^3 tensors write one: the spectra, which form E_i E_j,
and the Krein oracle.  In the package only ``petersen_graph`` builds from an
edge list: the other families are subset or translation graphs, and graph6
hands its pairs to the CSR constructor.  Only
``graphs.py`` constructs a ``Graph``, so its CSR form has one owner, and no
module indexes a ``neighbors`` table, since adjacency has no second form.  A module
imports only names it uses, and every ``Tolerances`` field is read by some
check outside ``tolerances.py``.
"""

import ast
from dataclasses import fields
from pathlib import Path

import drgq
from drgq.tolerances import Tolerances

SOURCES = sorted(Path(drgq.__file__).parent.glob("*.py"))
# (module, name) imported without being used: the benchmark worker times the
# odd-graph build where connectivity looks it up
UNUSED_IMPORTS = {("connectivity.py", "odd_graph")}


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "qpoly.py", "spectral.py"}


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {', '.join(found)}"


def test_full_mode_limit_only_in_qpoly():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "qpoly.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 200]
    assert not found, f"the literal 200 outside qpoly.py: {', '.join(found)}"


def test_label_kernel_only_in_census():
    # the connectivity sweeps run the bit-packed flood; only the census
    # needs component labels
    kernel = {"shell_labels", "shell_blocks"}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
             if getattr(top, "name", None) != "odd_component_census"
             for node in ast.walk(top)
             if (isinstance(node, ast.Name) and node.id in kernel)
             or (isinstance(node, ast.Attribute) and node.attr in kernel)]
    assert not found, f"label kernel used outside odd_component_census: {', '.join(found)}"


def test_or_round_only_in_flood():
    # the all-source BFS and the shell flood share one OR round
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
             if (path.name, getattr(top, "name", None)) != ("graphs.py", "flood")
             for node in ast.walk(top)
             if isinstance(node, ast.Attribute) and node.attr == "reduceat"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "bitwise_or"]
    assert not found, f"bitwise_or.reduceat outside graphs.flood: {', '.join(found)}"


def test_regularity_check_calls_no_reduceat():
    # the check sums fixed-width neighbourhood blocks instead
    tree = ast.parse((Path(drgq.__file__).parent / "intersection.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "reduceat"]
    assert not found, f"reduceat in intersection.py at lines {found}"


def test_multi_operand_einsum_is_optimized():
    # without a contraction path, E_i E_j over the p-tensor costs O(d^5), not O(d^4)
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "einsum" and len(node.args) >= 4
             and not any(kw.arg == "optimize" and isinstance(kw.value, ast.Constant)
                         and kw.value.value is True for kw in node.keywords)]
    assert not found, f"einsum of three or more operands without optimize=True: {', '.join(found)}"


def test_multi_operand_einsum_only_in_tensor_owners():
    # E_i E_j is formed once, in the spectra, and q^h_ij in the Krein oracle
    owners = {("spectral.py", "compute_spectral_data"), ("qpoly.py", "krein_parameters")}
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
             if (path.name, getattr(top, "name", None)) not in owners
             for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "einsum" and len(node.args) >= 4]
    assert not found, f"einsum of three or more operands elsewhere: {', '.join(found)}"


def test_only_petersen_builds_from_edges():
    # the translation families share one array builder, and graph6 pairs are
    # unique with i < j, so they go straight to the CSR constructor; an
    # edge-list fork would bring back the per-word loops or a second check
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
             if (path.name, getattr(top, "name", None)) != ("families.py", "petersen_graph")
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "build_graph"]
    assert not found, f"build_graph called outside families.petersen_graph: {', '.join(found)}"


def test_only_graphs_constructs_graph():
    # other modules build through graphs.from_sorted_pairs or graphs.build_graph
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "graphs.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Graph"]
    assert not found, f"Graph constructed outside graphs.py: {', '.join(found)}"


def test_no_neighbors_subscript():
    # neighbors(v) is a method returning a CSR row; a subscripted neighbors
    # would be a second adjacency form
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Subscript)
             and getattr(node.value, "id", getattr(node.value, "attr", None)) == "neighbors"]
    assert not found, f"neighbors subscripted: {', '.join(found)}"


def test_connectivity_imports_nothing_from_qpoly():
    tree = ast.parse((Path(drgq.__file__).parent / "connectivity.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("qpoly"))
             or (isinstance(node, (ast.Import, ast.ImportFrom))
                 and any(alias.name.endswith("qpoly") for alias in node.names))]
    assert not found, f"connectivity.py imports qpoly at lines {found}"


def test_factor_formed_only_by_the_sweep():
    # the sweep forms E_j's factor once an instance beyond level one passes;
    # a second caller could form it eagerly again
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
             if (path.name, getattr(top, "name", None)) != ("qpoly.py", "_sweep")
             for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_factor"]
    assert not found, f"_factor called outside qpoly._sweep: {', '.join(found)}"


def test_dense_projector_only_in_spectral():
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "spectral.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "idempotent"]
    assert not found, f"dense projector referenced outside spectral.py: {', '.join(found)}"


def test_every_import_is_used():
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":  # re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (path.name, name) not in UNUSED_IMPORTS:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"imported but unused: {', '.join(found)}"


def test_every_tolerance_field_is_read():
    read = {node.attr
            for path in SOURCES if path.name != "tolerances.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f.name for f in fields(Tolerances) if f.name not in read]
    assert not unread, f"Tolerances fields no package module reads: {', '.join(unread)}"
