"""graph6 encoding and decoding.

Implements the published graph6 format exactly: the N(n) size prefix
(1, 4, or 8 bytes), then the upper triangle of the adjacency matrix read
column by column (bit (i,j) for j = 1..n-1, i = 0..j-1), packed big-endian
six bits per printable byte with offset 63.  The optional ``>>graph6<<``
header is accepted on input and available on output.  Decoding checks each
byte once, with ``_codes``, and sorts the pairs' keys once for the CSR form.
"""

from __future__ import annotations

import numpy as np

from . import memory
from .graphs import Graph, from_sorted_pairs

HEADER = ">>graph6<<"
SET_BITS = np.array([bin(v).count("1") for v in range(64)], dtype=np.uint8)  # per six-bit value


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


def _codes(chars: str) -> np.ndarray:
    """The six-bit code of each graph6 byte of ``chars``; raises ValueError
    naming the first character outside 63..126."""
    six = np.frombuffer(chars.encode(), dtype=np.uint8) - 63  # wraps: a byte outside 63..126 reads above 63
    if six.max(initial=0) > 63:  # a non-ASCII character encodes above 126; the bytes before it are ASCII
        raise ValueError(f"invalid graph6 byte {chars[np.flatnonzero(six > 63)[0]]!r}")
    return six


def _decode_size(s: str) -> tuple[int, int]:
    """Return (n, bytes consumed) of the 1-, 4- or 8-byte size prefix."""
    if not s:
        raise ValueError("empty graph6 string")
    used = 1 if s[0] != "~" else 4 if s[1:2] != "~" else 8
    if len(s) < used:
        raise ValueError("truncated graph6 size prefix")
    codes = _codes(s[used // 4:used])  # the bytes after the one or two "~" markers
    return int(codes @ (1 << np.arange(6 * codes.size - 6, -1, -6))), used


def write_graph6(g: Graph, header: bool = False) -> str:
    i, j = np.repeat(np.arange(g.n), np.diff(g.indptr)), g.indices  # each adjacency pair
    bits = np.zeros(-(-g.n * (g.n - 1) // 12) * 6, dtype=np.uint8)  # padded to whole bytes
    bits[(j * (j - 1) // 2 + i)[i < j]] = 1  # bit (i, j) of the column-by-column order
    codes = (bits.reshape(-1, 6) @ (1 << np.arange(5, -1, -1)) + 63).astype(np.uint8)  # six bits a byte
    return (HEADER if header else "") + _encode_size(g.n) + codes.tobytes().decode("ascii")


def read_graph6(line: str) -> Graph:
    s = line.strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):]
    n, used = _decode_size(s)
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body length {len(body)} does not match n={n} (expected {need})")
    six = _codes(body)
    if not n:
        raise ValueError("vertex count must be positive, got 0")
    memory.require(f"graph6 decoding of {n} vertices",
                   memory.graph6_bytes(need, int(np.take(SET_BITS, six).sum())))
    p = np.flatnonzero(np.unpackbits(six))
    p -= 2 * (p >> 3) + 2  # bit 2 + t of byte b (bits 0 and 1 are clear) is body bit 6 b + t
    p = p[:np.searchsorted(p, n * (n - 1) // 2)]  # bit j (j - 1) / 2 + i is the pair (i, j), i < j
    j = np.searchsorted(np.arange(n) * np.arange(-1, n - 1) // 2, p, side="right") - 1
    p -= j * (j - 1) // 2  # now the row i of each pair (i, j), i < j, each pair once
    keys = np.concatenate([p * n + j, j * n + p])  # both directions
    del p, j  # freed before the keys' quotients and remainders are allocated
    keys.sort()
    return from_sorted_pairs(n, *np.divmod(keys, n))


def load_graph6_file(path: str) -> list[Graph]:
    graphs = []
    with open(path, "rb") as fh:  # decoded line by line, so an error names its line
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("ascii")
                if line.strip():
                    graphs.append(read_graph6(line))
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
