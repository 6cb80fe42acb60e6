"""graph6 codec, cross-checked against networkx's implementation."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgq.families import complete_graph, cycle_graph, petersen_graph
from drgq.graph6 import (HEADER, load_graph6_file, read_graph6, save_graph6_file,
                         write_graph6)
from drgq.graphs import build_graph
from reference import neighbor_lists


def edge_set(g):
    return {frozenset(e) for e in g.edges()}


def test_known_encodings():
    assert write_graph6(complete_graph(3)) == "Bw"
    assert write_graph6(build_graph(1, [])) == "@"
    # header variant round-trips
    s = write_graph6(cycle_graph(5), header=True)
    assert s.startswith(HEADER)
    assert edge_set(read_graph6(s)) == edge_set(cycle_graph(5))


def test_against_networkx_encoder():
    for g in (petersen_graph(), cycle_graph(7), complete_graph(5), build_graph(4, [])):
        mirror = nx.empty_graph(g.n)
        mirror.add_edges_from(g.edges())
        assert write_graph6(g) == nx.to_graph6_bytes(mirror, header=False).decode().strip()


def test_decode_networkx_output():
    blob = nx.to_graph6_bytes(nx.petersen_graph(), header=True).decode()
    g = read_graph6(blob)
    assert g.n == 10 and g.num_edges == 15


def test_large_size_prefix():
    g = build_graph(100, [(0, 99)])
    s = write_graph6(g)
    assert ord(s[0]) == 126  # multi-byte size prefix
    back = read_graph6(s)
    assert back.n == 100 and edge_set(back) == {frozenset((0, 99))}


def test_truncated_body_rejected():
    with pytest.raises(ValueError, match="length"):
        read_graph6("D")  # claims n=5 but carries no body


def test_bad_byte_rejected():
    with pytest.raises(ValueError, match="invalid graph6 byte"):
        read_graph6("B\x07")


@pytest.mark.parametrize("line, byte", [("Dg!", "!"), ("Dg\x7f", "\x7f"), ("Dg\u00e9", "\u00e9"),
                                        ("K" + "\u00e9" * 11, "\u00e9")])
def test_bad_body_byte_named(line, byte):
    # the first character outside 63..126 is named, one outside ASCII too
    with pytest.raises(ValueError) as exc:
        read_graph6(line)
    assert str(exc.value) == f"invalid graph6 byte {byte!r}"


@pytest.mark.parametrize("line, byte", [("~!!!", "!"), ("~~!!!!!!", "!"), ("!", "!"),
                                        ("\u00e9", "\u00e9"), ("~\u00e9??", "\u00e9")],
                         ids=["4_byte", "8_byte", "1_byte", "1_byte_non_ascii", "4_byte_non_ascii"])
def test_bad_size_prefix_byte_rejected(line, byte):
    # every byte of a size prefix of any width lies in 63..126, and the first
    # one outside is named, one outside ASCII too
    with pytest.raises(ValueError) as exc:
        read_graph6(line)
    assert str(exc.value) == f"invalid graph6 byte {byte!r}"


def test_zero_vertices_rejected():
    # "?" is a well-formed line for n = 0, which no graph has
    with pytest.raises(ValueError) as exc:
        read_graph6("?")
    assert str(exc.value) == "vertex count must be positive, got 0"


def test_file_roundtrip(tmp_path):
    graphs = [petersen_graph(), cycle_graph(6), complete_graph(4)]
    path = tmp_path / "batch.g6"
    save_graph6_file(str(path), graphs)
    loaded = load_graph6_file(str(path))
    assert len(loaded) == 3
    for orig, back in zip(graphs, loaded):
        assert back.n == orig.n and edge_set(back) == edge_set(orig)


@pytest.mark.parametrize("body, line, cause", [
    (b"IheA@GUAo\nIheA@GU\n", 2, "graph6 body length 6 does not match n=10"),
    (b"IheA@\xffUAo\n", 1, "'ascii' codec can't decode byte 0xff"),
], ids=["truncated_second_line", "non_ascii_byte"])
def test_file_error_names_path_and_line(tmp_path, body, line, cause):
    path = tmp_path / "bad.g6"
    path.write_bytes(body)
    with pytest.raises(ValueError) as exc:
        load_graph6_file(str(path))
    assert str(exc.value).startswith(f"{path}:{line}: {cause}")


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no graphs"):
        load_graph6_file(str(path))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=50)) if pairs else []
    return build_graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_roundtrip_and_nx_agreement(g):
    s = write_graph6(g)
    back = read_graph6(s)
    assert back.n == g.n and neighbor_lists(back) == neighbor_lists(g)
    decoded = nx.from_graph6_bytes(s.encode())
    assert {frozenset(e) for e in decoded.edges()} == edge_set(g)
