"""Trace persistence.

Traces serialize to compressed ``.npz`` — portable interchange that
round-trips arrays, name and metadata.

Generated benchmark traces no longer live as ``.npz`` in the cache:
:class:`repro.traces.store.TraceStore` keeps them as uncompressed,
memory-mapped ``.npy`` pairs (and can import/export ``.npz`` for
interchange).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.traces.record import BranchTrace

__all__ = ["save_npz", "load_npz"]


def save_npz(trace: BranchTrace, path) -> Path:
    """Write a trace to ``path`` in compressed ``.npz`` form."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        pcs=trace.pcs,
        outcomes=trace.outcomes,
        name=np.array(trace.name),
        metadata=np.array(json.dumps(trace.metadata)),
    )
    # np.savez appends .npz if missing; normalize the returned path
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_npz(path) -> BranchTrace:
    """Load a trace written by :func:`save_npz`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        metadata = {}
        if "metadata" in data:
            metadata = json.loads(str(data["metadata"]))
        return BranchTrace(
            pcs=data["pcs"],
            outcomes=data["outcomes"],
            name=str(data["name"]) if "name" in data else "",
            metadata=metadata,
        )

