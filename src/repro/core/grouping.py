"""Stable O(n) grouping of accesses by small-integer key.

Gshare's no-compiler counter-major rates (:mod:`repro.sim.batch`) and
the per-address histories of the two-level kernels
(:mod:`repro.sim.lanes`) need the same primitive: a permutation that
groups a stream of small-integer keys by value while preserving time
order inside each group — i.e. a *stable counting sort*.
``np.argsort(kind="stable")`` delivers the identical permutation, but
as a comparison/radix sort over the full word width it costs more than
everything the callers do with the result; scipy's sparse
``coo_tocsr`` kernel is exactly a C counting sort over ``num_buckets``
bins and runs an order of magnitude faster.

:func:`stable_group_order` picks the C kernel when scipy is present and
falls back to the numpy sort otherwise — the permutation is the same
either way, so everything downstream stays bit-identical.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["stable_group_order", "dense_ranks"]


@lru_cache(maxsize=None)
def _coo_tocsr():
    """scipy's C counting sort (COO->CSR), or ``None`` without scipy.

    Imported on first use, not at module import: compiled gshare and
    bi-mode sweeps never group through here, and ``scipy.sparse`` takes
    about 0.2 s to import.
    """
    try:
        from scipy.sparse import _sparsetools
    except ImportError:  # pragma: no cover - exercised only without scipy
        return None
    return getattr(_sparsetools, "coo_tocsr", None)


def stable_group_order(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """Permutation grouping ``keys`` by value, stable in time.

    ``keys`` must hold integers in ``[0, num_buckets)``; anything else
    raises ``ValueError`` (scipy's kernel does not bound-check, so a
    stray key would corrupt memory instead).  Equivalent to
    ``np.argsort(keys, kind="stable")`` but O(n + num_buckets) via
    scipy's C counting sort when available.
    """
    keys = np.asarray(keys)
    n = len(keys)
    # checked in the keys' own dtype, before the int32 cast could wrap
    if n and (keys.min() < 0 or keys.max() >= num_buckets):
        raise ValueError(
            f"group keys must lie in [0, {num_buckets}), got "
            f"[{keys.min()}, {keys.max()}]"
        )
    coo_tocsr = _coo_tocsr()
    if (
        coo_tocsr is None
        or n >= np.iinfo(np.int32).max
        or num_buckets >= np.iinfo(np.int32).max
    ):
        return np.argsort(keys, kind="stable")
    keys = np.ascontiguousarray(keys, dtype=np.int32)
    times = np.arange(n, dtype=np.int32)
    indptr = np.empty(num_buckets + 1, dtype=np.int32)
    cols = np.empty(n, dtype=np.int32)
    order = np.empty(n, dtype=np.int32)
    coo_tocsr(num_buckets, n, n, keys, times, times, indptr, cols, order)
    return order


def dense_ranks(keys: np.ndarray):
    """``(order, rank)`` of distinct ``keys``: ``keys[order]`` ascends
    and ``rank[order]`` counts up from 0 as int32 — the renumbering
    that turns first-seen ids into sorted ones."""
    order = np.argsort(keys)
    rank = np.empty(len(keys), dtype=np.int32)
    rank[order] = np.arange(len(keys), dtype=np.int32)
    return order, rank
