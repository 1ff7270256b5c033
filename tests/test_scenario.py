"""Tests for config parsing/validation and scenario assembly."""

import numpy as np
import pytest

from beamfocus.scenario import (
    ConfigError,
    Scenario,
    axis_spacings,
    load_config,
    parse_config,
)

BASE = {
    "frequency_ghz": 28.0,
    "distance_m": 50.0,
    "tx": {"n_v": 4, "n_h": 4},
    "rx": {"n_v": 4, "n_h": 4},
    "ns": 4,
    "ns_split": [2, 2],
    "n_rf_tx": 4,
    "n_rf_rx": 4,
    "snr_db": [0.0],
    "schemes": ["digital-uniform"],
}


def cfg(**overrides):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE.items()}
    data.update(overrides)
    return data


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse_config(cfg())
        assert config.ns_split == (2, 2)
        assert config.rotation_deg == (0.0,)
        assert abs(config.wavelength - 0.0107068735) <= 1e-10

    def test_balanced_split_inferred(self):
        data = cfg(ns=16, tx={"n_v": 16, "n_h": 16}, rx={"n_v": 16, "n_h": 16},
                   n_rf_tx=16, n_rf_rx=16)
        data.pop("ns_split")
        assert parse_config(data).ns_split == (4, 4)

    def test_missing_field_named(self):
        data = cfg()
        data.pop("distance_m")
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field_path == "distance_m"

    def test_nested_field_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(tx={"n_v": 4}))
        assert err.value.field_path == "tx.n_h"

    def test_odd_split_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(ns=3, ns_split=[3, 1]))
        assert err.value.field_path == "ns_split"

    def test_degenerate_rotation_rejected(self):
        # the parallelogram plane contains the link axis at +-90 degrees
        for rot in (90, -90.0, 89.99):
            with pytest.raises(ConfigError) as err:
                parse_config(cfg(rotation_deg=[0, rot]))
            assert err.value.field_path == "rotation_deg"
        assert parse_config(cfg(rotation_deg=[89.0])).rotation_deg == (89.0,)
        # a rigidly rotated flat grid has no such singularity
        config = parse_config(cfg(rotation_deg=[90], layout="rotated-upa"))
        assert Scenario(config, 90.0).h.shape == (16, 16)

    def test_rf_chain_ordering_enforced(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(n_rf_tx=2))
        assert err.value.field_path == "n_rf_tx"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(schemes=["digital-uniform", "zero-forcing"]))
        assert err.value.field_path == "schemes"

    def test_per_axis_stream_overflow(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(ns=36, ns_split=[6, 6], n_rf_tx=36, n_rf_rx=36,
                             tx={"n_v": 4, "n_h": 16}, rx={"n_v": 4, "n_h": 16}))
        assert err.value.field_path == "ns_split"

    def test_empty_rotation_defaults_to_zero(self):
        assert parse_config(cfg(rotation_deg=[])).rotation_deg == (0.0,)

    def test_explicit_mode_needs_spacings(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(spacing_mode="explicit"))
        assert err.value.field_path in ("tx.d_v", "tx.d_h")


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(
            "frequency_ghz: 28.0\ndistance_m: 50.0\n"
            "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n"
            "ns: 4\nns_split: [2, 2]\nn_rf_tx: 4\nn_rf_rx: 4\n"
            "snr_db: [0]\nschemes: [digital-uniform]\n"
        )
        assert load_config(str(path)).ns == 4

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "frequency_ghz: 28.0\ndistance_m: 50.0\n"
            "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n"
            "ns: 4\nns_split: [3, 1]\nn_rf_tx: 4\nn_rf_rx: 4\n"
            "snr_db: [0]\nschemes: [digital-uniform]\n"
        )
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field_path == "ns_split"
        assert err.value.line == 6
        assert "line 6" in str(err.value)

    def test_invalid_yaml_reports_document_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("frequency_ghz: [unclosed\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert err.value.field_path == "<document>"


class TestScenario:
    def test_spacing_modes(self):
        config = parse_config(cfg())
        (d_tv, d_th), (d_rv, d_rh) = axis_spacings(config)
        lam = config.wavelength
        assert abs(d_tv * d_rv - 2 * lam * 50.0 / 16) <= 1e-15
        half = parse_config(cfg(spacing_mode="half-wavelength"))
        (d_tv, _), _ = axis_spacings(half)
        assert abs(d_tv - lam / 2) <= 1e-15

    def test_scheme_rates_ordered(self):
        config = parse_config(cfg(schemes=[
            "digital-uniform", "digital-wf", "asymptotic-hybrid", "omp-hybrid", "phase-extract",
        ]))
        scenario = Scenario(config, 0.0)
        digital = scenario.rate("digital-uniform", 1.0)
        assert scenario.rate("digital-wf", 1.0) >= digital - 1e-9
        for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
            assert scenario.rate(scheme, 1.0) <= digital + 1e-9

    def test_hybrid_analog_widths_follow_each_side_rf_count(self):
        config = parse_config(cfg(n_rf_tx=4, n_rf_rx=6))
        scenario = Scenario(config, 0.0)
        for scheme in ("omp-hybrid", "phase-extract"):
            tx, rx = scenario.hybrid(scheme)
            assert tx.analog.shape == (16, 4) and tx.n_rf == 4
            assert rx.analog.shape == (16, 6) and rx.n_rf == 6
            assert 0.0 < scenario.rate(scheme, 1.0) <= scenario.rate("digital-uniform", 1.0) + 1e-9

    def test_water_fill_beats_uniform_at_low_snr(self):
        config = parse_config(cfg())
        scenario = Scenario(config, 0.0)
        snr = 10 ** (-15 / 10)
        assert scenario.rate("digital-wf", snr) >= scenario.rate("digital-uniform", snr)

    def test_rotation_changes_exact_channel_only(self):
        config = parse_config(cfg(rotation_deg=[0, 25]))
        s0 = Scenario(config, 0.0)
        s25 = Scenario(config, 25.0)
        assert np.abs(s0.tx_layout.coords[:2] - s25.tx_layout.coords[:2]).max() <= 1e-15
        assert np.abs(s0.tx_layout.coords[2] - s25.tx_layout.coords[2]).max() > 0

    def test_immutable_config(self):
        config = parse_config(cfg())
        with pytest.raises(AttributeError):
            config.ns = 8
