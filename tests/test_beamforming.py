"""Tests for digital, dictionary-based, OMP, and phase-extraction beamformers."""

import dataclasses
import math

import numpy as np
import pytest

from beamfocus.beamforming import (
    DictionaryExhaustedError,
    asymptotic_hybrid,
    dictionary_rx,
    dictionary_tx,
    digital_svd,
    omp_hybrid,
    phase_extraction_hybrid,
)
from beamfocus.channel import ChannelParams, exact_channel, layout_pair
from beamfocus.geometry import ArraySpec, Side, optimal_spacing
from beamfocus.linalg import dft_matrix
from beamfocus.spectral import rate

LAMBDA_28GHZ = 299_792_458.0 / 28e9


def desk_channel(side=8, ns_axis=2, dist=50.0, lam=LAMBDA_28GHZ, spacing=None):
    d = spacing if spacing is not None else optimal_spacing(side, side, ns_axis, lam, dist).d_t
    spec = ArraySpec(n_v=side, n_h=side, d_v=d, d_h=d)
    params = ChannelParams(wavelength=lam, distance=dist)
    tx, rx = layout_pair(spec, spec, dist)
    h = exact_channel(tx, rx, params)
    return spec, tx, rx, params, h


def hybrid_rate(h, tx_bf, rx_bf, snr, ns):
    return rate(h, math.sqrt(ns) * tx_bf.product(), rx_bf.product(), snr, ns)


class TestDigitalSvd:
    def test_degenerate_identity_channel(self):
        h = np.eye(4, dtype=complex)
        dig = digital_svd(h, 2)
        # any orthonormal pair from the degenerate space achieves the same rate
        assert abs(rate(h, dig.precoder, dig.combiner, 1.0, 2) - 2 * math.log2(1.5)) <= 1e-9

    def test_diagonal_channel_single_stream(self):
        h = np.diag([3.0, 1.0]).astype(complex)
        dig = digital_svd(h, 1)
        assert np.abs(np.abs(dig.precoder[:, 0]) - [1.0, 0.0]).max() <= 1e-9
        assert abs(rate(h, dig.precoder, dig.combiner, 1.0, 1) - math.log2(10.0)) <= 1e-9

    def test_rank_deficiency_flagged_not_fatal(self):
        rng = np.random.default_rng(40)
        base = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        h = np.hstack([base, base])  # rank 2 of 4 columns
        dig = digital_svd(h, 3)
        assert dig.precoder.shape == (4, 3)
        assert dig.singular_values[2] == 0.0

    def test_stream_count_validated(self):
        with pytest.raises(ValueError):
            digital_svd(np.eye(3, dtype=complex), 4)


class TestDictionaries:
    def test_single_antenna(self):
        spec = ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        tx, _ = layout_pair(spec, spec, 10.0)
        d = dictionary_tx(tx, params)
        assert d.shape == (1, 1)
        assert abs(abs(d[0, 0]) - 1.0) <= 1e-12

    def test_flat_parallel_array_matches_plain_dft(self):
        # on-axis flat transmit array at distance-normalized phases
        spec = ArraySpec(n_v=2, n_h=2, d_v=0.05, d_h=0.05)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        tx, _ = layout_pair(spec, spec, 10.0)
        d = dictionary_tx(tx, params)
        x, y, _ = tx.coords
        twist = np.exp(2j * np.pi / 0.01 * (-(x**2 + y**2) / 20.0))
        expected = np.conj(twist)[:, None].conj() * 0  # placeholder, structure checked below
        f2 = np.kron(dft_matrix(2), dft_matrix(2)).conj().T
        expected = np.conj(twist)[:, None] * f2
        assert np.abs(d - expected).max() <= 1e-12

    def test_side_mismatch_rejected(self):
        spec = ArraySpec(n_v=2, n_h=2, d_v=0.05, d_h=0.05)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        tx, rx = layout_pair(spec, spec, 10.0)
        with pytest.raises(ValueError, match="expected a rx layout"):
            dictionary_rx(tx, params)
        with pytest.raises(ValueError, match="expected a tx layout"):
            dictionary_tx(rx, params)

    @pytest.mark.parametrize("theta", [0.0, 0.35])
    def test_unitary_any_geometry(self, theta):
        lam = LAMBDA_28GHZ
        sol = optimal_spacing(4, 4, 2, lam, 50.0)
        spec = ArraySpec(n_v=4, n_h=4, d_v=sol.d_t, d_h=sol.d_t, theta=theta, phi=theta)
        params = ChannelParams(wavelength=lam, distance=50.0)
        tx, rx = layout_pair(spec, spec, 50.0)
        for d in (dictionary_tx(tx, params), dictionary_rx(rx, params)):
            assert np.abs(d.conj().T @ d - np.eye(16)).max() <= 1e-10
            assert np.abs(np.abs(d) - 0.25).max() <= 1e-12


class TestAsymptoticHybrid:
    def test_complete_selection_matches_digital(self):
        _, tx, rx, params, h = desk_channel(side=2, ns_axis=2)
        tx_dict = dictionary_tx(tx, params)
        rx_dict = dictionary_rx(rx, params)
        tx_bf, rx_bf = asymptotic_hybrid(tx_dict, rx_dict, h, 4)
        dig = digital_svd(h, 4)
        digital = rate(h, dig.precoder, dig.combiner, 1.0, 4)
        hybrid = hybrid_rate(h, tx_bf, rx_bf, 1.0, 4)
        assert abs(hybrid - digital) <= 1e-9

    def test_gain_ranked_on_desk_scenario(self):
        # 16x16 grids, 4 streams: alignment at this soft-transition point is
        # the oracle-measured 0.6966 of digital, not the asymptotic limit
        _, tx, rx, params, h = desk_channel(side=16, ns_axis=2)
        tx_dict = dictionary_tx(tx, params)
        rx_dict = dictionary_rx(rx, params)
        tx_bf, rx_bf = asymptotic_hybrid(tx_dict, rx_dict, h, 4)
        dig = digital_svd(h, 4)
        digital = rate(h, dig.precoder, dig.combiner, 1.0, 4)
        hybrid = hybrid_rate(h, tx_bf, rx_bf, 1.0, 4)
        assert hybrid <= digital + 1e-9
        assert hybrid >= 0.65 * digital

    def test_constant_modulus_and_power(self):
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        tx_bf, rx_bf = asymptotic_hybrid(
            dictionary_tx(tx, params), dictionary_rx(rx, params), h, 4
        )
        mods = np.abs(tx_bf.analog)
        assert (mods.max() - mods.min()) / mods.max() <= 1e-12
        product = tx_bf.product()
        assert abs(np.linalg.norm(product) ** 2 - 1.0) <= 1e-9


class TestOmpHybrid:
    def test_exact_recovery_of_dictionary_columns(self):
        _, tx, _, params, _ = desk_channel(side=4, ns_axis=2)
        dic = dictionary_tx(tx, params)
        target = dic[:, [3, 11]]
        bf = omp_hybrid(target, dic, 2)
        assert bf.residual_norms[-1] <= 1e-9
        recon = bf.product() * np.linalg.norm(target) / np.linalg.norm(bf.product())
        assert np.abs(recon - target / np.linalg.norm(target) * np.linalg.norm(recon)).max() <= 1e-9

    def test_full_dictionary_reproduces_any_target(self):
        rng = np.random.default_rng(41)
        _, tx, _, params, _ = desk_channel(side=4, ns_axis=2)
        dic = dictionary_tx(tx, params)
        target = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        bf = omp_hybrid(target, dic, 16, side=Side.RX)
        assert bf.residual_norms[-1] <= 1e-9

    def test_residual_monotone_and_selection_unique(self):
        _, tx, _, params, h = desk_channel(side=8, ns_axis=2)
        dig = digital_svd(h, 4)
        dic = dictionary_tx(tx, params)
        bf = omp_hybrid(dig.precoder, dic, 8)
        norms = np.array(bf.residual_norms)
        assert np.all(np.diff(norms) <= 1e-12)
        assert bf.analog.shape == (64, 8)
        # no duplicated dictionary columns
        overlap = np.abs(bf.analog.conj().T @ bf.analog - np.eye(8))
        assert overlap.max() <= 1e-9

    def test_reconstruction_beats_phase_extraction(self):
        _, tx, _, params, h = desk_channel(side=16, ns_axis=4)
        dig = digital_svd(h, 16)
        dic = dictionary_tx(tx, params)
        bf = omp_hybrid(dig.precoder, dic, 16)
        e_omp = bf.residual_norms[-1] / np.linalg.norm(dig.precoder)
        phases = np.exp(1j * np.angle(dig.precoder)) / 16.0
        coef = np.linalg.lstsq(phases, dig.precoder, rcond=None)[0]
        e_phase = np.linalg.norm(dig.precoder - phases @ coef) / np.linalg.norm(dig.precoder)
        assert e_omp < e_phase

    def test_dictionary_exhausted(self):
        _, tx, _, params, _ = desk_channel(side=2, ns_axis=2)
        dic = dictionary_tx(tx, params)
        with pytest.raises(DictionaryExhaustedError):
            omp_hybrid(dic[:, :1], dic, 5)

    def test_power_convention(self):
        _, tx, _, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        bf = omp_hybrid(dig.precoder, dictionary_tx(tx, params), 4)
        assert abs(np.linalg.norm(bf.product()) ** 2 - 1.0) <= 1e-9


class TestPhaseExtraction:
    def test_rank_one_channel_is_lossless(self):
        lam = 0.0107
        _, tx, rx, params, h = desk_channel(side=8, spacing=lam / 2, lam=lam)
        dig = digital_svd(h, 1)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 1)
        digital = rate(h, dig.precoder, dig.combiner, 1.0, 1)
        hybrid = hybrid_rate(h, tx_bf, rx_bf, 1.0, 1)
        assert hybrid >= 0.95 * digital
        assert hybrid <= digital + 1e-9

    def test_never_beats_digital(self):
        _, tx, rx, params, h = desk_channel(side=8, ns_axis=2)
        dig = digital_svd(h, 4)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 4)
        for snr in (0.1, 1.0, 10.0):
            digital = rate(h, dig.precoder, dig.combiner, snr, 4)
            assert hybrid_rate(h, tx_bf, rx_bf, snr, 4) <= digital + 1e-9

    def test_padding_keeps_constant_modulus(self):
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 6)
        assert tx_bf.analog.shape == (16, 6)
        mods = np.abs(tx_bf.analog)
        assert (mods.max() - mods.min()) / mods.max() <= 1e-9
        assert abs(np.linalg.norm(tx_bf.product()) ** 2 - 1.0) <= 1e-9

    def test_pads_are_1d_dft_columns(self):
        # n_rf > ns, as in the fine-grid and panel scenarios: the pads are
        # columns of dft_matrix(dim), not of the twisted 2-D DFT dictionary
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 8, 6)
        for bf, extra in ((tx_bf, 4), (rx_bf, 2)):
            pads = bf.analog[:, 4:]
            assert pads.shape == (16, extra)
            match = np.abs(dft_matrix(16).conj().T @ pads)
            assert np.abs(match.max(axis=0) - 1.0).max() <= 1e-12
            assert len(set(match.argmax(axis=0))) == extra

    def test_rounding_noise_entries_get_zero_phase(self):
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        variants = []
        for noise in (0.0, 1e-15j, -1e-15):
            precoder = dig.precoder.copy()
            precoder[3, 0] = noise
            bf, _ = phase_extraction_hybrid(h, dataclasses.replace(dig, precoder=precoder), 4)
            variants.append(bf.analog)
        assert abs(variants[0][3, 0] - 0.25) <= 1e-15
        assert all(np.array_equal(variants[0], v) for v in variants[1:])

    def test_rf_chains_below_streams_rejected(self):
        _, _, _, _, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        with pytest.raises(ValueError):
            phase_extraction_hybrid(h, dig, 2)
