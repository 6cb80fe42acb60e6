"""Memory model: refuse an input before its n x n arrays are allocated.

The distances hold an entry per vertex pair and the balanced-set factor up
to one float per pair, so peak memory grows with n squared.  Two stages are
modelled: the all-source BFS and the analysis after it.  The estimates below
are checked against the memory available to the process before the arrays
exist, so an oversize input ends with its estimate (exit 2) instead of
swapping or being killed.
"""

from __future__ import annotations

import os
from typing import Optional

# n x n float64 arrays alive at once beside the distances: the balanced-set
# sweep's factor F of E_j (8 n m_j bytes, m_j < n); its expansion reads E_j
# in column blocks of qpoly.BATCH_ENTRIES entries
FLOAT_TEMPORARIES = 1
# the balanced-set sweep's batch buffers, sized by qpoly.BATCH_ENTRIES, not n
BATCH_BUFFER_BYTES = 4 << 20
# cgroup v2, then v1; a container's limit may sit far below physical memory
CGROUP_LIMIT_FILES = ("/sys/fs/cgroup/memory.max",
                      "/sys/fs/cgroup/memory/memory.limit_in_bytes")


def physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def cgroup_limit() -> Optional[int]:
    """The first numeric memory limit among CGROUP_LIMIT_FILES, or None when
    none is readable or the limit reads ``max``."""
    for path in CGROUP_LIMIT_FILES:
        try:
            with open(path) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        if text.isdigit():
            return int(text)
    return None


def available_memory() -> int:
    """Physical memory, or the cgroup limit when that is lower."""
    have = physical_memory()
    limit = cgroup_limit()
    return have if limit is None else min(have, limit)


def distance_bytes(n: int, entries: int) -> int:
    """An upper bound on the peak bytes of the all-source BFS over
    ``entries`` closed-neighborhood entries (2m + n), term by term."""
    return (2 * n * n                        # the uint8 distances, one unpacked level mask
            + 3 * 8 * n * -(-n // 64)        # packed reached, next round and gathered rows
            + 8 * (entries + 2 * n + 1)      # closed neighborhoods, offsets, chunk starts
            + 4 * 8 * n                      # the seed's index arrays
            + 512 * (2 * entries // n + 1)   # per chunk, a tuple and two headers (2 hold > n)
            + (32 << 10))                    # Python objects and numpy scratch of any n


def analysis_bytes(n: int) -> int:
    """Peak bytes of the analysis after the BFS: the one-byte distances, the
    balanced-set factor and the batch buffers.  The regularity check's chunk
    buffers (under 2 n^2 + 8 n^2 / (k + 1) bytes), the flood's four
    bit-packed n x n arrays (n^2 / 2 bytes in all) and the census's column
    blocks fit inside the factor's 8 n^2 term, distance classes and factors
    are formed one at a time, and no dense projector is formed."""
    return n * n * (1 + 8 * FLOAT_TEMPORARIES) + BATCH_BUFFER_BYTES


def require(stage: str, need: int) -> None:
    """Raise ValueError when ``need`` bytes exceed the available memory."""
    have = available_memory()
    if need > have:
        raise ValueError(f"{stage}: an estimated {need:,} bytes ({need / 2**30:.1f} GiB) "
                         f"exceed the {have:,} bytes ({have / 2**30:.1f} GiB) of memory "
                         f"available (physical memory, or the cgroup limit when lower)")
