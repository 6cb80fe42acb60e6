"""graph6 encoding and decoding.

Implements the published graph6 format exactly: the N(n) size prefix
(1, 4, or 8 bytes), then the upper triangle of the adjacency matrix read
column by column (bit (i,j) for j = 1..n-1, i = 0..j-1), packed big-endian
six bits per printable byte with offset 63.  The optional ``>>graph6<<``
header is accepted on input and available on output.
"""

from __future__ import annotations

from typing import Optional

from .graphs import Graph, build_graph

HEADER = ">>graph6<<"


def _encode_size(n: int) -> str:
    if n < 0:
        raise ValueError("vertex count cannot be negative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        bits = [(n >> s) & 0x3F for s in (12, 6, 0)]
        return chr(126) + "".join(chr(b + 63) for b in bits)
    if n <= 68719476735:
        bits = [(n >> s) & 0x3F for s in (30, 24, 18, 12, 6, 0)]
        return chr(126) + chr(126) + "".join(chr(b + 63) for b in bits)
    raise ValueError("vertex count too large for graph6")


def _decode_size(s: str) -> tuple[int, int]:
    """Return (n, bytes consumed)."""
    if not s:
        raise ValueError("empty graph6 string")
    c0 = ord(s[0])
    if c0 != 126:
        if not 63 <= c0 <= 126:
            raise ValueError(f"invalid graph6 byte {s[0]!r}")
        return c0 - 63, 1
    if len(s) >= 2 and ord(s[1]) == 126:
        if len(s) < 8:
            raise ValueError("truncated graph6 size prefix")
        vals = [ord(c) - 63 for c in s[2:8]]
        n = 0
        for v in vals:
            n = (n << 6) | v
        return n, 8
    if len(s) < 4:
        raise ValueError("truncated graph6 size prefix")
    vals = [ord(c) - 63 for c in s[1:4]]
    n = 0
    for v in vals:
        n = (n << 6) | v
    return n, 4


def write_graph6(g: Graph, header: bool = False) -> str:
    n = g.n
    bits = []
    for j in range(1, n):
        nbj = set(g.neighbors[j])
        for i in range(j):
            bits.append(1 if i in nbj else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        b = 0
        for bit in bits[k:k + 6]:
            b = (b << 1) | bit
        chars.append(chr(b + 63))
    return (HEADER if header else "") + _encode_size(n) + "".join(chars)


def read_graph6(line: str, label: Optional[str] = None) -> Graph:
    s = line.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    n, used = _decode_size(s)
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)} does not match n={n} (expected {need})")
    bits = []
    for c in body:
        v = ord(c) - 63
        if not 0 <= v <= 63:
            raise ValueError(f"invalid graph6 byte {c!r}")
        for s6 in (5, 4, 3, 2, 1, 0):
            bits.append((v >> s6) & 1)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return build_graph(n, edges, label=label)


def load_graph6_file(path: str) -> list[Graph]:
    graphs = []
    with open(path, "rb") as fh:  # decoded line by line, so an error names its line
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("ascii")
                if line.strip():
                    graphs.append(read_graph6(line, label=f"{path}:{lineno}"))
            except ValueError as exc:  # UnicodeDecodeError included
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not graphs:
        raise ValueError(f"no graphs found in {path}")
    return graphs


def save_graph6_file(path: str, graphs: list[Graph], header: bool = False) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for i, g in enumerate(graphs):
            fh.write(write_graph6(g, header=header and i == 0))
            fh.write("\n")
