"""CLI smoke tests (fast paths only: tiny trace lengths)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_run(self):
        args = build_parser().parse_args(["run", "gshare:index=8", "xlisp"])
        assert args.command == "run"
        assert args.spec == "gshare:index=8"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bimode" in out and "gshare" in out and "xlisp" in out

    def test_run(self, capsys):
        assert main(["--length", "3000", "run", "gshare:index=8,hist=8", "xlisp"]) == 0
        out = capsys.readouterr().out
        assert "mispredict" in out

    def test_stats(self, capsys):
        assert main(["--length", "3000", "stats", "--suite", "cint95"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out and "static" in out

    def test_figure2_single_benchmark(self, capsys, tmp_path):
        csv = tmp_path / "fig2.csv"
        code = main(
            [
                "--length", "3000", "--csv", str(csv),
                "figure2", "--benchmark", "xlisp", "--sizes", "0.25", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gshare.best" in out and "bi-mode" in out
        assert csv.exists()

    def test_bias(self, capsys):
        assert main(["--length", "3000", "bias", "bimode:dir=6,hist=6,choice=6", "xlisp"]) == 0
        out = capsys.readouterr().out
        assert "dominant" in out and "WB" in out

    def test_breakdown(self, capsys):
        assert main(["--length", "3000", "breakdown", "xlisp", "--sizes", "8"]) == 0
        out = capsys.readouterr().out
        assert "SNT" in out and "bi-mode" in out

    def test_table4(self, capsys):
        assert main(["--length", "3000", "table4", "xlisp", "--index-bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "history-indexed" in out and "bi-mode" in out

    def test_compare(self, capsys):
        code = main(
            [
                "--length", "3000", "compare", "xlisp",
                "gshare:index=8,hist=8", "bimode:dir=7,hist=7,choice=7",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gshare" in out and "bimode" in out and "KB" in out

    def test_aliasing(self, capsys):
        code = main(["--length", "3000", "aliasing", "gshare:index=8,hist=8", "xlisp"])
        assert code == 0
        out = capsys.readouterr().out
        assert "destructive" in out and "capacity" in out


class TestKernelsVerb:
    """``repro-bimode kernels`` prints the form each family really runs
    in and the engine this process picks."""

    @staticmethod
    def _rows(capsys):
        import re

        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        rows = {}
        for line in out.splitlines():
            cells = re.split(r"\s{2,}", line.strip())
            if len(cells) == 5:
                rows[cells[0]] = cells[1:]
        return rows

    def test_rows_with_compiler(self, capsys):
        from repro.sim import _cstep

        if not _cstep.available():
            pytest.skip(_cstep.unavailable_reason())
        rows = self._rows(capsys)
        assert rows["scheme"] == ["tier", "engine", "family rates", "detailed"]
        assert rows["gshare"] == [
            "lane", "c", "fused C loop", "grouping C loop per lane"
        ]
        assert rows["agree"] == ["cloop", "c", "C loop per lane", "C loop per lane"]
        assert rows["biasfilter"] == rows["bimodal"] == rows["pas"] == rows["agree"]
        assert rows["btfnt"] == ["vectorized", "vectorized", *["vectorized (any engine)"] * 2]

    def test_rows_without_compiler(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CC", "1")
        rows = self._rows(capsys)
        assert rows["gshare"] == ["lane", "numpy", "numpy per lane", "step() per lane"]
        assert rows["agree"] == [
            "cloop", "scalar", "step() per lane", "step() per lane"
        ]
        assert rows["biasfilter"] == rows["bimodal"] == rows["pas"] == rows["agree"]
        assert rows["btfnt"] == ["vectorized", "vectorized", *["vectorized (any engine)"] * 2]


class TestJournalCompact:
    def test_journal_compact_cli(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sim.journal import SweepJournal

        root = tmp_path / "journals"
        journal = SweepJournal.for_name("fig2", root=root)
        journal.record_many("t1", {"a": 0.1, "b": 0.2})
        with open(journal.path, "a") as fh:
            fh.write("garbage\n")
        assert main(["journal", "compact", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "fig2.jsonl: 2 cells, dropped 1 line(s)" in out
        assert SweepJournal.for_name("fig2", root=root).corrupt_lines == 0

    def test_journal_compact_empty_root(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["journal", "compact", "--root", str(tmp_path / "none")]) == 0
        assert "no journals" in capsys.readouterr().out

    def test_journal_compact_named_missing(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["journal", "compact", "ghost", "--root", str(tmp_path)]) == 0
        assert "ghost.jsonl: missing" in capsys.readouterr().out

    def test_compacts_rate_and_payload_journals_side_by_side(self, tmp_path, capsys):
        from repro.sim.journal import PayloadJournal, SweepJournal

        root = tmp_path / "journal"
        rates = SweepJournal.for_name("figure2-cint95", root=root)
        rates.record_many("gcc", {"gshare:index=8": 0.1, "bimode:dir=7": 0.2})
        payloads = PayloadJournal.for_name("fig7-detailed-scale1", root=root)
        payloads.record_many(
            "gcc", {"gshare:index=8": {"wb": 0.5}, "bimode:dir=7": {"wb": 0.25}}
        )
        for journal in (rates, payloads):
            lines = journal.path.read_text().splitlines()
            with open(journal.path, "a") as fh:
                fh.write(lines[0] + "\n" + "garbage\n")

        assert main(["journal", "compact", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "figure2-cint95.jsonl: 2 cells, dropped 2 line(s)" in out
        assert "fig7-detailed-scale1.jsonl: 2 cells, dropped 2 line(s)" in out
        assert SweepJournal(rates.path).completed("gcc") == {
            "gshare:index=8": 0.1,
            "bimode:dir=7": 0.2,
        }
        assert PayloadJournal(payloads.path).completed("gcc") == {
            "gshare:index=8": {"wb": 0.5},
            "bimode:dir=7": {"wb": 0.25},
        }
