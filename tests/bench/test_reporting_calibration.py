"""Tests for report formatting and the calibration surface."""

import pytest

from repro.bench import (
    CostModel,
    Measurement,
    PAPER_RESULTS_MS,
    PAPER_TESTBED,
    format_measurements,
    format_table2,
    indiss_size_reports,
    interop_sizing,
)
from repro.world.scenarios import SCENARIO_SPECS


class TestFormatMeasurements:
    def test_renders_all_rows(self):
        measurements = [
            Measurement("native_slp", 0.7, 0.6, 0.8, 30, 0.7),
            Measurement("custom_scenario", 5.0, 4.0, 6.0, 30, None),
        ]
        text = format_measurements(measurements, "Title")
        assert "Title" in text
        assert "native_slp" in text
        assert "1.00x" in text
        assert "custom_scenario" in text
        assert text.count("\n") >= 4

    def test_ratio_handles_missing_paper_value(self):
        m = Measurement("x", 1.0, 1.0, 1.0, 1, None)
        assert m.ratio_to_paper is None


class TestFormatTable2:
    def test_renders_components_and_composites(self):
        reports = indiss_size_reports()
        text = format_table2(reports, interop_sizing(reports))
        assert "core_framework" in text
        assert "cyberlink" in text
        assert "paper" in text
        assert "%" in text


class TestCalibration:
    def test_paper_references_complete(self):
        assert set(PAPER_RESULTS_MS) == {
            "native_slp",
            "native_upnp",
            "slp_to_upnp_service_side",
            "upnp_to_slp_service_side",
            "slp_to_upnp_client_side",
            "upnp_to_slp_client_side",
        }
        assert set(PAPER_RESULTS_MS) <= set(SCENARIO_SPECS)

    def test_latency_model_uses_paper_bandwidth(self):
        model = PAPER_TESTBED.latency_model(seed=1)
        assert model.bandwidth_bps == 10_000_000  # "a LAN at 10Mb/s"

    def test_cost_model_is_replaceable(self):
        import dataclasses

        custom = dataclasses.replace(PAPER_TESTBED, lan_latency_us=1)
        assert custom.lan_latency_us == 1
        assert PAPER_TESTBED.lan_latency_us == 150  # original untouched

    def test_responder_window_matches_paper_median(self):
        low, high = (
            PAPER_TESTBED.upnp.search_response_min_us,
            PAPER_TESTBED.upnp.search_response_max_us,
        )
        median_ms = (low + high) / 2 / 1000
        # The window median sits just under the paper's 40 ms native figure
        # (the rest is network + parse cost).
        assert 37.0 < median_ms < 40.0


class TestRepoExports:
    def test_top_level_api(self):
        import repro

        assert repro.__version__
        for name in ("Indiss", "IndissConfig", "Network", "ServiceRecord"):
            assert hasattr(repro, name), name
