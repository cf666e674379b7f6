"""Unit tests for the predictor registry and spec strings."""

import pytest

from repro.core.bimode import BiModePredictor
from repro.core.registry import (
    available_schemes,
    bimode_at_kb,
    gshare_at_kb,
    make_predictor,
    parse_spec,
)
from repro.predictors.gshare import GSharePredictor


class TestParseSpec:
    def test_scheme_only(self):
        assert parse_spec("bimodal") == ("bimodal", {})

    def test_with_options(self):
        scheme, kwargs = parse_spec("gshare:index=12,hist=8")
        assert scheme == "gshare"
        assert kwargs == {"index": "12", "hist": "8"}

    def test_whitespace_tolerated(self):
        scheme, kwargs = parse_spec("gshare: index = 12 , hist = 8")
        assert kwargs == {"index": "12", "hist": "8"}

    def test_rejects_malformed_option(self):
        with pytest.raises(ValueError):
            parse_spec("gshare:index")

    def test_rejects_empty_scheme(self):
        with pytest.raises(ValueError):
            parse_spec(":index=1")


class TestMakePredictor:
    def test_by_spec_string(self):
        p = make_predictor("gshare:index=10,hist=6")
        assert isinstance(p, GSharePredictor)
        assert p.index_bits == 10
        assert p.history_bits == 6

    def test_by_kwargs(self):
        p = make_predictor("bimode", dir=8, hist=5)
        assert isinstance(p, BiModePredictor)
        assert p.history_bits == 5

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="tage"):
            make_predictor("tage")

    def test_every_scheme_is_buildable(self):
        examples = {
            "bimode": {"dir": "6"},
            "gshare": {"index": "8"},
            "bimodal": {"index": "8"},
            "gag": {"hist": "6"},
            "gas": {"hist": "4", "select": "2"},
            "gap": {"hist": "4"},
            "gselect": {"hist": "4", "addr": "2"},
            "pag": {"hist": "4", "bht": "4"},
            "pas": {"hist": "4", "select": "2", "bht": "4"},
            "pap": {"hist": "3", "addr": "2", "bht": "4"},
            "perceptron": {"index": "6"},
            "agree": {"index": "8"},
            "gskew": {"bank": "6"},
            "yags": {"choice": "8", "cache": "6"},
            "tournament": {"index": "8"},
            "trimode": {"dir": "6"},
            "biasfilter": {"sub_index": "8"},
            "always-taken": {},
            "always-not-taken": {},
            "btfnt": {},
        }
        for scheme in available_schemes():
            assert scheme in examples, f"no example for {scheme}"
            p = make_predictor(scheme, **examples[scheme])
            assert p.size_bits() >= 0

    def test_spec_roundtrip_for_gshare(self):
        spec = "gshare:index=12,hist=7"
        assert make_predictor(spec).name == spec

    def test_bimode_ablation_flags(self):
        p = make_predictor("bimode:dir=6,full_update=1,choice_hist=1")
        assert p.full_update and p.choice_uses_history


class TestSpecErrorMessages:
    """Malformed specs must raise ValueError naming the offending spec,
    so a bad entry in a sweep's spec list is identifiable from the
    message alone."""

    @pytest.mark.parametrize(
        "spec",
        [
            "tage:index=10",  # unknown predictor
            "gshare:index=-3",  # negative bits
            "gshare:index=8,hist=12",  # hist > index
            "bimode:dir=6,hist=9",  # hist > dir
            "bimode:hist=4",  # missing required option
            "gshare:index=8,flavor=mild",  # unknown option
            "gshare:index=ten",  # non-numeric value
            "bimodal:index=30",  # absurd size (allocation guard)
            # the same guard on tables that are not counter tables
            "agree:index=8,bias=25",
            "biasfilter:table=25,sub_index=8",
            "perceptron:index=25",
            "yags:choice=8,cache=25,hist=4",
            "pag:hist=4,bht=25",
        ],
    )
    def test_bad_spec_raises_valueerror_naming_spec(self, spec):
        with pytest.raises(ValueError) as excinfo:
            make_predictor(spec)
        assert spec in str(excinfo.value)

    def test_unknown_scheme_lists_alternatives(self):
        with pytest.raises(ValueError, match="available"):
            make_predictor("tage:index=10")

    @pytest.mark.parametrize(
        "typo, suggestion",
        [
            ("gshar:index=8", "gshare"),
            ("bimod:dir=6", "bimode"),
            ("trimod:dir=6", "trimode"),
            ("yag:choice=6,cache=5", "yags"),
        ],
    )
    def test_near_miss_scheme_suggests_nearest_name(self, typo, suggestion):
        with pytest.raises(ValueError) as excinfo:
            make_predictor(typo)
        message = str(excinfo.value)
        assert f"did you mean {suggestion!r}?" in message
        assert typo in message

    def test_far_miss_scheme_has_no_suggestion(self):
        with pytest.raises(ValueError) as excinfo:
            make_predictor("zzzzqqq:index=8")
        assert "did you mean" not in str(excinfo.value)

    def test_kwargs_form_also_reports_spec(self):
        with pytest.raises(ValueError, match="gshare:index=-3"):
            make_predictor("gshare", index=-3)


class TestSizeHelpers:
    def test_gshare_at_kb(self):
        p = gshare_at_kb(0.25)
        assert p.index_bits == 10
        assert p.size_bytes() == 256.0

    def test_gshare_at_kb_with_history(self):
        assert gshare_at_kb(1.0, history_bits=5).history_bits == 5

    def test_bimode_at_kb_costs_1_5x(self):
        p = bimode_at_kb(1.0)
        assert p.size_bytes() == pytest.approx(1.5 * 1024)

    def test_bimode_at_kb_banks_are_half(self):
        assert bimode_at_kb(0.5).bank_size == 1024

    def test_bimode_at_kb_clamps_history(self):
        p = bimode_at_kb(0.5, history_bits=20)
        assert p.history_bits == p.direction_index_bits

    def test_bimode_at_kb_rejects_tiny(self):
        with pytest.raises(ValueError):
            bimode_at_kb(0.25 / 1024)
