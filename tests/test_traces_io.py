"""Unit tests for trace persistence."""

import numpy as np
import pytest

from repro.traces.io import load_npz, save_npz
from repro.traces.record import BranchTrace


@pytest.fixture
def trace():
    return BranchTrace(
        pcs=np.array([64, 68, 72, 64]),
        outcomes=np.array([True, True, False, True]),
        name="demo",
        metadata={"suite": "cint95", "profile_seed": 3},
    )


class TestNpz:
    def test_roundtrip(self, trace, tmp_path):
        path = save_npz(trace, tmp_path / "t.npz")
        loaded = load_npz(path)
        assert loaded == trace
        assert loaded.metadata == trace.metadata

    def test_extension_normalized(self, trace, tmp_path):
        path = save_npz(trace, tmp_path / "t")
        assert path.suffix == ".npz"
        assert load_npz(path) == trace

    def test_creates_parent_dirs(self, trace, tmp_path):
        path = save_npz(trace, tmp_path / "a" / "b" / "t.npz")
        assert path.exists()


class TestStoreInterchange:
    """npz <-> store conversion: the store keeps generated traces as
    mmap'd .npy pairs, npz stays the portable interchange format."""

    def _store(self, tmp_path):
        from repro.traces.store import TraceStore

        return TraceStore(tmp_path / "store")

    def test_import_npz(self, trace, tmp_path):
        store = self._store(tmp_path)
        npz = save_npz(trace, tmp_path / "ext.npz")
        mapped = store.import_npz(npz, seed=3)
        assert mapped == trace
        assert mapped.metadata == trace.metadata
        assert store.has(trace.name, len(trace), 3)

    def test_import_gives_read_only_views(self, trace, tmp_path):
        store = self._store(tmp_path)
        mapped = store.import_npz(save_npz(trace, tmp_path / "e.npz"), seed=3)
        with pytest.raises(ValueError):
            mapped.outcomes[0] = False

    def test_export_npz_roundtrip(self, trace, tmp_path):
        store = self._store(tmp_path)
        store.put(trace, 3)
        out = store.export_npz(trace.name, len(trace), 3, tmp_path / "out.npz")
        exported = load_npz(out)
        assert exported == trace
        assert exported.metadata == trace.metadata

    def test_export_missing_raises(self, tmp_path):
        store = self._store(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.export_npz("demo", 4, 3, tmp_path / "out.npz")
