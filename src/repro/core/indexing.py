"""PHT index functions.

The *index function* of a two-level predictor decides how the branch PC
and the branch history are combined into a second-level table index.
The paper's Section 4 shows this choice is what trades weak bias against
destructive aliasing, so the index functions live in one place and are
shared by every predictor and by the analysis framework.

All functions exist in two forms:

* a scalar form (``int`` in, ``int`` out) used by the step-by-step
  predictor interface, and
* a vectorized form (suffix ``_stream``) operating on numpy arrays,
  used by the fast trace-simulation paths.

PC handling: real front-ends drop the instruction-alignment bits before
indexing.  Branch PCs in this package are *word addresses* already (the
workload generator emits consecutive integers), so index functions use
the PC as-is.  Callers with byte addresses should shift right first.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mask",
    "concat_index",
    "gshare_index",
    "gshare_index_stream",
    "concat_index_stream",
    "num_phts",
]


def mask(bits: int) -> int:
    """Bit-mask with the low ``bits`` bits set."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    return (1 << bits) - 1


def concat_index(history: int, history_bits: int, pc: int, pc_bits: int) -> int:
    """GAs-style index: ``pc_bits`` address bits above ``history_bits`` history bits.

    The address bits select one of ``2**pc_bits`` PHTs; the history bits
    index within the selected PHT.  Total index width is
    ``history_bits + pc_bits``.
    """
    return ((pc & mask(pc_bits)) << history_bits) | (history & mask(history_bits))


def gshare_index(pc: int, history: int, index_bits: int, history_bits: int) -> int:
    """gshare index [McFarling93]: PC xor-ed with global history.

    ``index_bits`` is the log2 table size; ``history_bits <= index_bits``
    is how much history participates.  With ``history_bits == index_bits``
    this is the classic single-PHT gshare.  With fewer history bits the
    top ``index_bits - history_bits`` bits of the index come from the PC
    alone, which is exactly the multiple-PHT organization of the paper
    (footnote 1): ``2**(index_bits - history_bits)`` PHTs of
    ``2**history_bits`` counters each.
    """
    if history_bits > index_bits:
        raise ValueError(
            f"history_bits ({history_bits}) must not exceed index_bits ({index_bits})"
        )
    return (pc & mask(index_bits)) ^ (history & mask(history_bits))


def num_phts(index_bits: int, history_bits: int) -> int:
    """Number of PHTs in the two-level model for a gshare/GAs configuration."""
    if history_bits > index_bits:
        raise ValueError(
            f"history_bits ({history_bits}) must not exceed index_bits ({index_bits})"
        )
    return 1 << (index_bits - history_bits)


# -- vectorized forms ----------------------------------------------------------


def gshare_index_stream(
    pcs: np.ndarray, histories: np.ndarray, index_bits: int, history_bits: int
) -> np.ndarray:
    """Vectorized :func:`gshare_index` over whole trace arrays."""
    if history_bits > index_bits:
        raise ValueError(
            f"history_bits ({history_bits}) must not exceed index_bits ({index_bits})"
        )
    pcs = np.asarray(pcs, dtype=np.int64)
    histories = np.asarray(histories, dtype=np.int64)
    return (pcs & mask(index_bits)) ^ (histories & mask(history_bits))


def concat_index_stream(
    histories: np.ndarray, history_bits: int, pcs: np.ndarray, pc_bits: int
) -> np.ndarray:
    """Vectorized :func:`concat_index`."""
    pcs = np.asarray(pcs, dtype=np.int64)
    histories = np.asarray(histories, dtype=np.int64)
    return ((pcs & mask(pc_bits)) << history_bits) | (histories & mask(history_bits))
