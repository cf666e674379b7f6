"""Unit tests for the append-only sweep journal."""

import json
import os
import signal

import pytest

from repro.sim.journal import SweepJournal
from repro.sim.runner import ResultCache


@pytest.fixture()
def journal(tmp_path):
    return SweepJournal(tmp_path / "sweep.jsonl")


class TestRecordAndLookup:
    def test_round_trip(self, journal):
        assert journal.record("t1", "spec-a", 0.125) == 1
        assert journal.lookup("t1", "spec-a") == 0.125
        assert journal.lookup("t1", "spec-b") is None
        assert journal.lookup("t2", "spec-a") is None

    def test_float_repr_round_trips_exactly(self, journal):
        rate = 1 / 3
        journal.record("t1", "spec", rate)
        fresh = SweepJournal(journal.path)
        assert fresh.lookup("t1", "spec") == rate  # bit-identical

    def test_record_many_skips_already_journalled(self, journal):
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        appended = journal.record_many("t1", {"a": 0.9, "b": 0.9, "c": 0.3})
        assert appended == 1  # only "c" was fresh
        # first write wins: the journal is append-only, not last-write-wins
        assert journal.lookup("t1", "a") == 0.1
        assert journal.lookup("t1", "c") == 0.3

    def test_record_many_empty_writes_nothing(self, journal):
        assert journal.record_many("t1", {}) == 0
        assert not journal.path.exists()

    def test_completed_collects_one_trace(self, journal):
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        journal.record_many("t2", {"a": 0.5})
        assert journal.completed("t1") == {"a": 0.1, "b": 0.2}
        assert journal.completed("t2") == {"a": 0.5}
        assert journal.completed("t3") == {}

    def test_len_counts_cells(self, journal):
        assert len(journal) == 0
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        journal.record("t2", "a", 0.3)
        assert len(SweepJournal(journal.path)) == 3

    def test_one_line_per_cell_jsonl(self, journal):
        journal.record_many("t1", {"b": 0.2, "a": 0.1})
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        assert entries[0] == {"tkey": "t1", "spec": "a", "rate": 0.1}
        assert entries[1] == {"tkey": "t1", "spec": "b", "rate": 0.2}


class TestResilience:
    def test_missing_file_is_empty(self, journal):
        assert len(journal) == 0
        assert journal.lookup("t", "s") is None

    def test_torn_final_line_skipped(self, journal):
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        with open(journal.path, "a") as fh:
            fh.write('{"tkey": "t1", "spec": "c", "ra')  # hard-kill torn write
        fresh = SweepJournal(journal.path)
        assert fresh.completed("t1") == {"a": 0.1, "b": 0.2}
        assert fresh.corrupt_lines == 1

    @pytest.mark.parametrize(
        "line",
        [
            "not json at all",
            '{"tkey": "t", "spec": "s"}',  # missing rate
            '{"tkey": "t", "spec": "s", "rate": 1.5}',  # out of range
            '{"tkey": "t", "spec": "s", "rate": "fast"}',  # not a number
            '{"tkey": "t", "spec": "s", "rate": true}',  # bool is not a rate
            '{"tkey": 3, "spec": "s", "rate": 0.5}',  # non-string key
            '[0.5]',  # not an object
        ],
    )
    def test_garbage_lines_ignored(self, journal, line):
        journal.record("t1", "good", 0.25)
        with open(journal.path, "a") as fh:
            fh.write(line + "\n")
        fresh = SweepJournal(journal.path)
        assert fresh.completed("t1") == {"good": 0.25}
        assert fresh.corrupt_lines == 1
        assert len(fresh) == 1

    def test_record_after_corrupt_line_still_appends(self, journal):
        journal.record("t1", "a", 0.1)
        with open(journal.path, "a") as fh:
            fh.write("garbage\n")
        fresh = SweepJournal(journal.path)
        fresh.record("t1", "b", 0.2)
        assert SweepJournal(journal.path).completed("t1") == {"a": 0.1, "b": 0.2}

    def test_discard(self, journal):
        journal.record("t1", "a", 0.1)
        journal.discard()
        assert not journal.path.exists()
        assert len(journal) == 0
        journal.discard()  # idempotent on a missing file


class TestCompact:
    def test_missing_file_is_noop(self, journal):
        assert journal.compact() == 0
        assert not journal.path.exists()

    def test_drops_duplicates_and_garbage(self, journal):
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        # duplicates appended by "another writer" + a torn final line
        with open(journal.path, "a") as fh:
            fh.write('{"rate": 0.9, "spec": "a", "tkey": "t1"}\n')
            fh.write("garbage\n")
            fh.write('{"tkey": "t1", "spec": "c", "ra')
        dirty = SweepJournal(journal.path)
        assert dirty.compact() == 3
        lines = journal.path.read_text().splitlines()
        assert len(lines) == 2
        assert dirty.corrupt_lines == 0

    def test_preserves_values_bit_identically(self, journal):
        rates = {"a": 1 / 3, "b": 1 / 7, "c": 0.0, "d": 1.0}
        journal.record_many("t1", rates)
        journal.record_many("t2", {"a": 2 / 3})
        SweepJournal(journal.path).compact()
        fresh = SweepJournal(journal.path)
        assert fresh.completed("t1") == rates
        assert fresh.lookup("t2", "a") == 2 / 3

    def test_duplicate_cells_collapse_to_loaded_value(self, journal):
        journal.record("t1", "a", 0.1)
        # A concurrent writer with a stale view appended the same cell;
        # load is last-line-wins, and compact preserves exactly the
        # value a resumed sweep would have seen.
        with open(journal.path, "a") as fh:
            fh.write('{"rate": 0.9, "spec": "a", "tkey": "t1"}\n')
        dirty = SweepJournal(journal.path)
        loaded = dirty.lookup("t1", "a")
        assert dirty.compact() == 1
        assert SweepJournal(journal.path).lookup("t1", "a") == loaded

    def test_idempotent_and_byte_stable(self, journal):
        journal.record_many("t1", {"b": 0.2, "a": 0.1})
        journal.record_many("t0", {"z": 0.5})
        SweepJournal(journal.path).compact()
        once = journal.path.read_bytes()
        fresh = SweepJournal(journal.path)
        assert fresh.compact() == 0
        assert journal.path.read_bytes() == once  # sorted => byte-equal

    def test_no_tmp_file_left_behind(self, journal):
        journal.record("t1", "a", 0.1)
        journal.compact()
        leftovers = [p for p in journal.path.parent.iterdir() if p.name != journal.path.name]
        assert leftovers == []

    def test_payload_journal_compacts(self, tmp_path):
        from repro.sim.journal import PayloadJournal

        journal = PayloadJournal(tmp_path / "detailed.jsonl")
        journal.record_many("t1", {"a": {"misprediction_rate": 0.25}})
        with open(journal.path, "a") as fh:
            fh.write('{"payload": [1], "spec": "b", "tkey": "t1"}\n')  # not an object
        assert PayloadJournal(journal.path).compact() == 1
        fresh = PayloadJournal(journal.path)
        assert fresh.lookup("t1", "a") == {"misprediction_rate": 0.25}


class TestForName:
    def test_sanitizes_name(self, tmp_path):
        journal = SweepJournal.for_name("fig2 cint95/scale 0.1!", root=tmp_path)
        assert journal.path.parent == tmp_path
        assert journal.path.name == "fig2_cint95_scale_0.1_.jsonl"

    def test_empty_name_falls_back(self, tmp_path):
        assert SweepJournal.for_name("  ", root=tmp_path).path.name.startswith("sweep")

    def test_default_root_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        journal = SweepJournal.for_name("fig3")
        assert journal.path == tmp_path / "journal" / "fig3.jsonl"

    def test_resumed_cells_reported(self, tmp_path):
        journal = SweepJournal.for_name("x", root=tmp_path)
        journal.record_many("t", {"a": 0.1, "b": 0.2})
        fresh = SweepJournal.for_name("x", root=tmp_path)
        len(fresh)  # force the load
        assert fresh.resumed_cells == 2


class TestGuard:
    def test_sigint_flushes_cache_then_interrupts(self, journal, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        # A directory squatting on the table path fails the first write,
        # so the table stays dirty; once the path is clear, the signal
        # handler installed by guard() is the only thing that can flush.
        blocker = tmp_path / "cache" / "results" / "tkey.json"
        blocker.mkdir(parents=True)
        cache.put_many("tkey", {"spec": 0.5})
        blocker.rmdir()
        with pytest.raises(KeyboardInterrupt):
            with journal.guard(cache):
                assert ResultCache(tmp_path / "cache").get("spec", "tkey") is None
                os.kill(os.getpid(), signal.SIGINT)
        # the handler retried the failed write before interrupting
        assert ResultCache(tmp_path / "cache").get("spec", "tkey") == 0.5

    def test_sigterm_raises_systemexit(self, journal):
        with pytest.raises(SystemExit) as excinfo:
            with journal.guard():
                os.kill(os.getpid(), signal.SIGTERM)
        assert excinfo.value.code == 128 + signal.SIGTERM

    def test_handlers_restored(self, journal):
        before_int = signal.getsignal(signal.SIGINT)
        before_term = signal.getsignal(signal.SIGTERM)
        with journal.guard():
            assert signal.getsignal(signal.SIGINT) is not before_int
        assert signal.getsignal(signal.SIGINT) is before_int
        assert signal.getsignal(signal.SIGTERM) is before_term

    def test_noop_outside_main_thread(self, journal):
        import threading

        outcome = {}

        def _run():
            try:
                with journal.guard():
                    outcome["ok"] = True
            except Exception as exc:  # pragma: no cover - the failure mode
                outcome["error"] = exc

        thread = threading.Thread(target=_run)
        thread.start()
        thread.join()
        assert outcome == {"ok": True}
