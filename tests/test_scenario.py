"""Tests for config parsing/validation and scenario assembly."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus import channel, scenario as scenario_module
from beamfocus.beamforming import HybridBeamformer
from beamfocus.geometry import ArraySpec, LayoutKind, Side, build_layout
from beamfocus.linalg import eig_hermitian
from beamfocus.scenario import (
    LAYOUT_NAMES,
    ConfigError,
    Scenario,
    _centred_tx_gram,
    axis_spacings,
    load_config,
    parse_config,
    spectrum_data,
)
from beamfocus.spectral import rate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

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


def complex_gram_spectrum(scenario):
    """Eigenvalues of the plain complex transmit Gram of the Fresnel core, largest first."""
    h_tilde = channel.fresnel_factors(scenario.tx_layout, scenario.rx_layout, scenario.params).h_tilde
    return np.linalg.eigvalsh(channel.gram(h_tilde, Side.TX))[::-1]


def spectrum_tolerance(values, tx_count):
    """4 M eps lambda_0: what two backward-stable eigensolves of the same Gram may differ by."""
    return 4 * tx_count * np.finfo(float).eps * values[0]


WAVELENGTH = 299_792_458.0 / 28e9
counts = st.integers(1, 12)
spacings = st.floats(0.5, 20.0)
angles = st.floats(-1.2, 1.2)


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

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="int-too-large-for-a-float"),
    ])
    @pytest.mark.parametrize("field", [
        "frequency_ghz", "distance_m", "snr_db", "rotation_deg", "tx.d_v", "rx.d_h", "cluster_eps",
    ])
    def test_non_finite_number_rejected(self, field, value):
        spacings = {"d_v": 0.01, "d_h": 0.01}
        data = cfg(spacing_mode="explicit", tx={"n_v": 4, "n_h": 4, **spacings},
                   rx={"n_v": 4, "n_h": 4, **spacings})
        if field in ("snr_db", "rotation_deg"):
            data[field] = [0.0, value]
        elif "." in field:
            side, key = field.split(".")
            data[side][key] = value
        else:
            data[field] = value
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field_path == field

    @pytest.mark.parametrize("field", ["frequency_ghz", "distance_m", "tx.d_v", "rx.d_h"])
    def test_boolean_for_float_rejected(self, field):
        # bool is an int subclass; `true` must not pass as 1.0
        spacings = {"d_v": 0.01, "d_h": 0.01}
        data = cfg(spacing_mode="explicit", tx={"n_v": 4, "n_h": 4, **spacings},
                   rx={"n_v": 4, "n_h": 4, **spacings})
        if "." in field:
            side, key = field.split(".")
            data[side][key] = True
        else:
            data[field] = True
        with pytest.raises(ConfigError) as err:
            parse_config(data)
        assert err.value.field_path == field
        assert "bool" in str(err.value)

    def test_explicit_mode_needs_spacings(self):
        with pytest.raises(ConfigError) as err:
            parse_config(cfg(spacing_mode="explicit"))
        assert err.value.field_path in ("tx.d_v", "tx.d_h")


ROUND_TRIP_YAML = (
    "frequency_ghz: 28.0\ndistance_m: 50.0\n"
    "tx: {n_v: 4, n_h: 4}\nrx: {n_v: 4, n_h: 4}\n"
    "ns: 4\nns_split: [2, 2]\nn_rf_tx: 4\nn_rf_rx: 4\n"
    "snr_db: [0]\nschemes: [digital-uniform]\n"
)


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(ROUND_TRIP_YAML)
        assert load_config(str(path)).ns == 4

    @pytest.mark.parametrize("name", [
        *sorted(p.name for p in CONFIG_DIR.glob("*.yaml")), "round-trip",
    ])
    def test_libyaml_and_python_loaders_agree(self, name):
        # load_config takes libyaml's loader when present; it must build the
        # same objects as the pure-Python one
        text = ROUND_TRIP_YAML if name == "round-trip" else (CONFIG_DIR / name).read_text()
        fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        assert fast

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
        for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
            tx, rx = scenario.hybrid(scheme)
            assert tx.analog.shape == (16, 4) and tx.n_rf == 4
            assert rx.analog.shape == (16, 6) and rx.n_rf == 6
            assert 0.0 < scenario.rate(scheme, 1.0) <= scenario.rate("digital-uniform", 1.0) + 1e-9

    def test_asymptotic_hybrid_uses_spare_rf_chains(self):
        # 8 chains for 4 streams: the SVD baseband over the 8 best atoms beats
        # the 4 best atoms with an identity baseband, and stays below digital
        narrow = Scenario(parse_config(cfg()), 0.0)
        wide = Scenario(parse_config(cfg(n_rf_tx=8, n_rf_rx=8)), 0.0)
        for snr in (0.1, 1.0, 10.0):
            assert wide.rate("asymptotic-hybrid", snr) >= narrow.rate("asymptotic-hybrid", snr) + 0.5
            assert wide.rate("asymptotic-hybrid", snr) <= wide.rate("digital-wf", snr)

    def test_hybrid_products_built_once_per_scenario(self, monkeypatch):
        config = parse_config(cfg(n_rf_tx=4, n_rf_rx=6))
        scenario = Scenario(config, 0.0)
        calls = []
        product = HybridBeamformer.product
        monkeypatch.setattr(HybridBeamformer, "product", lambda bf: calls.append(1) or product(bf))
        for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
            tx, rx = scenario.hybrid(scheme)
            for snr in (0.1, 1.0, 10.0):
                # bitwise equal to the products built on every call
                expected = rate(scenario.h, 2.0 * product(tx), product(rx), snr, 4)
                assert scenario.rate(scheme, snr) == expected
        assert len(calls) == 3 * 2

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

    def test_hybrid_rates_never_form_a_dense_dictionary(self):
        # 64 x 64 receiver: one dense 4096 x 4096 dictionary would be 256 MiB
        config = parse_config(cfg(rx={"n_v": 64, "n_h": 64}, n_rf_tx=8, n_rf_rx=8))
        scenario = Scenario(config, 0.0)
        tracemalloc.start()
        try:
            for scheme in ("asymptotic-hybrid", "omp-hybrid", "phase-extract"):
                assert scenario.rate(scheme, 1.0) > 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestSpectrumData:
    def test_reads_the_core_without_the_exact_channel(self, monkeypatch):
        config = parse_config(cfg())
        expected = complex_gram_spectrum(Scenario(config, 0.0))

        def unused(*args):
            raise AssertionError("spectrum_data built the exact channel")

        monkeypatch.setattr(channel, "exact_channel", unused)
        values, _, _ = spectrum_data(config)
        # the real centred Gram rounds differently from the complex one
        assert np.abs(values - expected).max() <= spectrum_tolerance(expected, 16)

    def test_one_real_eigensolve(self, monkeypatch):
        # a silent return to the complex Gram would pass every value check
        seen = []

        def recording_eig(a):
            seen.append(np.asarray(a).dtype)
            return eig_hermitian(a)

        monkeypatch.setattr(scenario_module, "eig_hermitian", recording_eig)
        spectrum_data(parse_config(cfg(rotation_deg=[20.0])))
        assert seen == [np.float64]

    def test_guard_rejects_a_gram_that_is_not_real(self, monkeypatch):
        # the Gram without the centring has an O(1) imaginary part, as a
        # broken symmetry assumption would leave; that is a bug, so it is
        # not a ValueError (exit 3)
        def uncentred(tx, rx, params):
            return channel.gram(channel.fresnel_factors(tx, rx, params).h_tilde, Side.TX)

        monkeypatch.setattr(scenario_module, "_centred_tx_gram", uncentred)
        with pytest.raises(RuntimeError, match="not real"):
            spectrum_data(parse_config(cfg()))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tx=st.tuples(counts, counts, spacings, spacings, angles, angles),
        rx=st.tuples(counts, counts, spacings, spacings, angles, angles),
        kind=st.sampled_from(list(LayoutKind)),
        distance=st.floats(10.0, 100.0),
    )
    def test_centred_gram_is_real_with_the_same_spectrum(self, tx, rx, kind, distance):
        def layout(draw, side):
            n_v, n_h, d_v, d_h, theta, phi = draw
            spec = ArraySpec(n_v=n_v, n_h=n_h, d_v=d_v * WAVELENGTH, d_h=d_h * WAVELENGTH,
                             theta=theta, phi=phi, layout_kind=kind)
            return build_layout(spec, side, distance)

        tx_layout, rx_layout = layout(tx, Side.TX), layout(rx, Side.RX)
        params = channel.ChannelParams(wavelength=WAVELENGTH, distance=distance)
        g = _centred_tx_gram(tx_layout, rx_layout, params)
        assert np.abs(g.imag).max() <= 1e-12 * np.abs(g.real).max()
        h_tilde = channel.fresnel_factors(tx_layout, rx_layout, params).h_tilde
        oracle = np.linalg.eigvalsh(channel.gram(h_tilde, Side.TX))[::-1]
        values = eig_hermitian(g.real).values
        assert np.abs(values - oracle).max() <= spectrum_tolerance(oracle, tx_layout.count)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        tx=st.tuples(st.integers(2, 12), st.integers(2, 12), spacings, spacings),
        rx=st.tuples(st.integers(2, 12), st.integers(2, 12), spacings, spacings),
        layout=st.sampled_from(sorted(LAYOUT_NAMES)),
        distance=st.floats(10.0, 100.0),
        rotation=angles,
    )
    def test_spectrum_matches_the_complex_gram_oracle(self, tx, rx, layout, distance, rotation):
        # a config needs two elements per axis for its 2 x 2 streams; the
        # property above covers single-element axes and theta != phi
        def side(draw):
            n_v, n_h, d_v, d_h = draw
            return {"n_v": n_v, "n_h": n_h, "d_v": d_v * WAVELENGTH, "d_h": d_h * WAVELENGTH}

        config = parse_config(cfg(
            distance_m=distance, spacing_mode="explicit", layout=layout,
            tx=side(tx), rx=side(rx), rotation_deg=[float(np.degrees(rotation))],
        ))
        values, _, summary = spectrum_data(config)
        scenario = Scenario(config, config.rotation_deg[0])
        oracle = complex_gram_spectrum(scenario)
        assert np.abs(values - oracle).max() <= spectrum_tolerance(oracle, scenario.tx_layout.count)
        omega = oracle / summary["normalizer"]
        assert summary["count_near_one"] == int((omega >= 1.0 - config.cluster_eps).sum())
        assert summary["count_near_zero"] == int((omega <= config.cluster_eps).sum())

    def test_large_aperture_still_warns(self):
        config = parse_config(cfg(
            distance_m=2.0,
            spacing_mode="explicit",
            tx={"n_v": 4, "n_h": 4, "d_v": 1.0, "d_h": 1.0},
            rx={"n_v": 4, "n_h": 4, "d_v": 1.0, "d_h": 1.0},
        ))
        with pytest.warns(RuntimeWarning, match="not small against distance"):
            spectrum_data(config)
