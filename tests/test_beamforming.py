"""Tests for digital, dictionary-based, OMP, and phase-extraction beamformers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamfocus import beamforming
from beamfocus.beamforming import (
    PHASE_FLOOR_RTOL,
    DictionaryExhaustedError,
    TwistedDft,
    _gain_order,
    asymptotic_hybrid,
    dictionary_rx,
    dictionary_tx,
    digital_svd,
    omp_hybrid,
    phase_extraction_hybrid,
)
from beamfocus.channel import ChannelParams, exact_channel, layout_pair
from beamfocus.geometry import ArraySpec, LayoutKind, Side, build_layout, optimal_spacing
from beamfocus.linalg import dft_matrix, least_squares
from beamfocus.spectral import rate
from beamfocus.validation import check_dictionary_unitarity, square_link

LAMBDA_28GHZ = 299_792_458.0 / 28e9


def desk_channel(side=8, ns_axis=2, dist=50.0, lam=LAMBDA_28GHZ, spacing=None):
    d = spacing if spacing is not None else optimal_spacing(side, side, ns_axis, lam, dist)
    spec = ArraySpec(n_v=side, n_h=side, d_v=d, d_h=d)
    params = ChannelParams(wavelength=lam, distance=dist)
    tx, rx = layout_pair(spec, spec, dist)
    h = exact_channel(tx, rx, params)
    return spec, tx, rx, params, h


def hybrid_rate(h, tx_bf, rx_bf, snr, ns):
    # the builders return bare stages; the rate takes the product at trace ns
    product = tx_bf.product()
    return rate(h, math.sqrt(ns) * product / np.linalg.norm(product), rx_bf.product(), snr, ns)


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
        d = dictionary_tx(tx, params).dense()
        assert d.shape == (1, 1)
        assert abs(abs(d[0, 0]) - 1.0) <= 1e-12

    def test_flat_parallel_array_matches_plain_dft(self):
        # on-axis flat transmit array at distance-normalized phases
        spec = ArraySpec(n_v=2, n_h=2, d_v=0.05, d_h=0.05)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        tx, _ = layout_pair(spec, spec, 10.0)
        d = dictionary_tx(tx, params).dense()
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
        link = square_link(side=4, theta=theta, phi=theta)
        assert check_dictionary_unitarity(link=link).passed
        spec, _, params = link
        tx, rx = layout_pair(spec, spec, params.distance)
        for d in (dictionary_tx(tx, params).dense(), dictionary_rx(rx, params).dense()):
            assert np.abs(np.abs(d) - 0.25).max() <= 1e-12


class TestAsymptoticHybrid:
    def test_complete_selection_matches_digital(self):
        _, tx, rx, params, h = desk_channel(side=2, ns_axis=2)
        tx_dict = dictionary_tx(tx, params)
        rx_dict = dictionary_rx(rx, params)
        tx_bf, rx_bf = asymptotic_hybrid(tx_dict, rx_dict, h, 4, 4, 4)
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
        tx_bf, rx_bf = asymptotic_hybrid(tx_dict, rx_dict, h, 4, 4, 4)
        dig = digital_svd(h, 4)
        digital = rate(h, dig.precoder, dig.combiner, 1.0, 4)
        hybrid = hybrid_rate(h, tx_bf, rx_bf, 1.0, 4)
        assert hybrid <= digital + 1e-9
        assert hybrid >= 0.65 * digital

    def test_constant_modulus_and_power(self):
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        tx_bf, rx_bf = asymptotic_hybrid(
            dictionary_tx(tx, params), dictionary_rx(rx, params), h, 4, 4, 4
        )
        mods = np.abs(tx_bf.analog)
        assert (mods.max() - mods.min()) / mods.max() <= 1e-12
        # n_rf = ns: the baseband is the identity, unscaled, so the product is
        # the orthonormal atoms themselves, at trace ns
        for bf in (tx_bf, rx_bf):
            assert np.array_equal(bf.baseband, np.eye(4))
            assert np.array_equal(bf.product(), bf.analog)
            assert abs(np.linalg.norm(bf.product()) ** 2 - 4.0) <= 1e-12


class TestOmpHybrid:
    def test_exact_recovery_of_dictionary_columns(self):
        _, tx, _, params, _ = desk_channel(side=4, ns_axis=2)
        dic = dictionary_tx(tx, params)
        target = dic.columns([3, 11])
        bf = omp_hybrid(target, dic, 2)
        assert bf.residual_norms[-1] <= 1e-9
        recon = bf.product() * np.linalg.norm(target) / np.linalg.norm(bf.product())
        assert np.abs(recon - target / np.linalg.norm(target) * np.linalg.norm(recon)).max() <= 1e-9

    def test_full_dictionary_reproduces_any_target(self):
        rng = np.random.default_rng(41)
        _, tx, _, params, _ = desk_channel(side=4, ns_axis=2)
        dic = dictionary_tx(tx, params)
        target = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        bf = omp_hybrid(target, dic, 16)
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
            omp_hybrid(dic.columns([0]), dic, 5)

    def test_power_convention(self):
        # no power scale: the product is the target's projection onto the atoms
        _, tx, _, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        bf = omp_hybrid(dig.precoder, dictionary_tx(tx, params), 4)
        misfit = dig.precoder - bf.product()
        assert np.abs(bf.analog.conj().T @ misfit).max() <= 1e-12
        assert abs(np.linalg.norm(misfit) - bf.residual_norms[-1]) <= 1e-12


class TestPhaseExtraction:
    def test_rank_one_channel_is_lossless(self):
        lam = 0.0107
        _, tx, rx, params, h = desk_channel(side=8, spacing=lam / 2, lam=lam)
        dig = digital_svd(h, 1)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 1, 1)
        digital = rate(h, dig.precoder, dig.combiner, 1.0, 1)
        hybrid = hybrid_rate(h, tx_bf, rx_bf, 1.0, 1)
        assert hybrid >= 0.95 * digital
        assert hybrid <= digital + 1e-9

    def test_never_beats_digital(self):
        _, tx, rx, params, h = desk_channel(side=8, ns_axis=2)
        dig = digital_svd(h, 4)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 4, 4)
        for snr in (0.1, 1.0, 10.0):
            digital = rate(h, dig.precoder, dig.combiner, snr, 4)
            assert hybrid_rate(h, tx_bf, rx_bf, snr, 4) <= digital + 1e-9

    def test_padding_keeps_constant_modulus(self):
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        tx_bf, rx_bf = phase_extraction_hybrid(h, dig, 6, 6)
        assert tx_bf.analog.shape == (16, 6)
        mods = np.abs(tx_bf.analog)
        assert (mods.max() - mods.min()) / mods.max() <= 1e-9
        # the SVD basebands come back unscaled, with orthonormal columns
        for bf in (tx_bf, rx_bf):
            assert np.abs(bf.baseband.conj().T @ bf.baseband - np.eye(4)).max() <= 1e-12

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

    def test_pads_skip_columns_the_phase_stage_holds(self):
        # a precoder made of the four best 1-D DFT columns: the pads must be
        # the next four by gain, not repeats of the stage
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        order = dense_order(np.linalg.norm(h @ dft_matrix(16), axis=0))
        stage = dataclasses.replace(dig, precoder=dft_matrix(16)[:, order[:4]])
        tx_bf, _ = phase_extraction_hybrid(h, stage, 8, 4)
        assert np.abs(tx_bf.analog[:, :4] - dft_matrix(16)[:, order[:4]]).max() <= 1e-12
        assert np.array_equal(tx_bf.analog[:, 4:], dft_matrix(16)[:, order[4:8]])

    def test_rounding_noise_entries_get_zero_phase(self):
        _, tx, rx, params, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        variants = []
        for noise in (0.0, 1e-15j, -1e-15):
            precoder = dig.precoder.copy()
            precoder[3, 0] = noise
            bf, _ = phase_extraction_hybrid(h, dataclasses.replace(dig, precoder=precoder), 4, 4)
            variants.append(bf.analog)
        assert abs(variants[0][3, 0] - 0.25) <= 1e-15
        assert all(np.array_equal(variants[0], v) for v in variants[1:])

    def test_rf_chains_below_streams_rejected(self):
        _, _, _, _, h = desk_channel(side=4, ns_axis=2)
        dig = digital_svd(h, 4)
        with pytest.raises(ValueError):
            phase_extraction_hybrid(h, dig, 2, 2)


@st.composite
def tilted_links(draw, oblong=True):
    """Tilted tx/rx arrays, with n_v != n_h on each side (1 x k included) if ``oblong``, and a data seed."""
    angle = st.floats(-0.9, 0.9)
    theta, phi = draw(angle), draw(angle)
    kind = draw(st.sampled_from(LayoutKind))
    dist = draw(st.floats(10.0, 100.0))
    layouts = []
    for side in (Side.TX, Side.RX):
        n_v = draw(st.integers(1, 7))
        n_h = draw(st.integers(1, 7).filter(lambda n: n != n_v or not oblong))
        spec = ArraySpec(
            n_v=n_v, n_h=n_h, d_v=draw(st.floats(0.002, 0.2)), d_h=draw(st.floats(0.002, 0.2)),
            theta=theta, phi=phi, layout_kind=kind,
        )
        layouts.append(build_layout(spec, side, dist))
    params = ChannelParams(wavelength=LAMBDA_28GHZ, distance=dist)
    return layouts[0], layouts[1], params, draw(st.integers(0, 2**32 - 1))


def dense_order(gains):
    # gains within 1e-10 of the largest are ties, taken by index
    step = 1e-10 * gains.max()
    return np.argsort(-(np.rint(gains / step) if step > 0 else gains), kind="stable")


def omp_rebuilding(target, dictionary, n_rf):
    """The greedy OMP loop, refitting by least squares after each pick, as an oracle for ``omp_hybrid``.

    Each pick is quantized against the largest residual projection at that
    pick, where ``omp_hybrid`` quantizes once against the largest energy.
    """
    selected, residual, norms = [], target.copy(), []
    for _ in range(n_rf):
        metric = (np.abs(dictionary.adjoint(residual)) ** 2).sum(axis=1)
        if selected:
            metric[selected] = -1.0
        selected.append(int(_gain_order(metric)[0]))
        analog = dictionary.columns(selected)
        baseband = least_squares(analog, target)
        raw = target - analog @ baseband
        raw_sq = float(np.linalg.norm(raw)) ** 2
        norms.append(math.sqrt(raw_sq))
        residual = raw / raw_sq if raw_sq > 1e-300 else np.zeros_like(raw)
    return selected, tuple(norms)


def dense_pad_atoms(opt, effective, count):
    """dft_matrix(dim) columns padding the phase stage of ``opt``, ranked by ``||effective F||``."""
    dim = opt.shape[0]
    mag = np.abs(opt)
    phase = np.where(mag < PHASE_FLOOR_RTOL * mag.max(axis=0), 0.0, np.angle(opt))
    stage = np.exp(1j * phase) / math.sqrt(dim)
    dic = dft_matrix(dim)
    pads = []
    for k in dense_order(np.linalg.norm(effective @ dic, axis=0)):
        if len(pads) == count:
            break
        if np.abs(stage.conj().T @ dic[:, k]).max() < 1.0 - 1e-9:
            pads.append(int(k))
    return pads


def random_dictionary(rng, n_v, n_h, thin):
    """A TwistedDft on n_v x n_h antennas: the square DFTs, or thin factors with orthonormal rows."""

    def factor(n):
        if not thin:
            return dft_matrix(n)
        r = int(rng.integers(1, n + 1))
        z = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        return np.linalg.qr(z)[0].conj().T

    return TwistedDft(twist=np.exp(2j * np.pi * rng.random(n_v * n_h)), f_v=factor(n_v), f_h=factor(n_h))


class TestFactoredDictionaryProperties:
    """The factored dictionaries against their dense N x N matrices."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(tilted_links())
    def test_operations_match_dense(self, link):
        tx, rx, params, seed = link
        rng = np.random.default_rng(seed)
        for dic in (dictionary_tx(tx, params), dictionary_rx(rx, params)):
            dense = dic.dense()
            n = dic.size
            assert dense.shape == (n, n)
            x = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            assert np.abs(dic.adjoint(x) - dense.conj().T @ x).max() <= 1e-12
            idx = rng.permutation(n)[: rng.integers(1, n + 1)]
            assert np.array_equal(dic.columns(idx), dense[:, idx])

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_thin_factors_match_dense(self, n_v, n_h, seed):
        # fresnel_start's factors: r x n with orthonormal rows, so r_v * r_h
        # orthonormal atoms that do not span the N antennas when an r < n
        rng = np.random.default_rng(seed)
        dic = random_dictionary(rng, n_v, n_h, thin=True)
        dense = dic.dense()
        assert dense.shape == (n_v * n_h, dic.f_v.shape[0] * dic.f_h.shape[0]) == (n_v * n_h, dic.size)
        assert np.abs(dense.conj().T @ dense - np.eye(dic.size)).max() <= 1e-12
        x = rng.standard_normal((n_v * n_h, 3)) + 1j * rng.standard_normal((n_v * n_h, 3))
        assert np.abs(dic.adjoint(x) - dense.conj().T @ x).max() <= 1e-12
        idx = rng.permutation(dic.size)[: rng.integers(1, dic.size + 1)]
        assert np.array_equal(dic.columns(idx), dense[:, idx])

    @settings(max_examples=60, deadline=None, database=None)
    @given(tilted_links())
    def test_selected_atoms_match_dense_reference(self, link):
        tx, rx, params, seed = link
        rng = np.random.default_rng(seed)
        h = exact_channel(tx, rx, params)
        v, u = dictionary_tx(tx, params), dictionary_rx(rx, params)
        v_dense, u_dense = v.dense(), u.dense()
        n_min = min(tx.count, rx.count)
        ns = int(rng.integers(1, n_min + 1))
        n_rf = int(rng.integers(ns, n_min + 1))

        f_bf, w_bf = asymptotic_hybrid(v, u, h, ns, ns, ns)
        tx_atoms = dense_order(np.linalg.norm(h @ v_dense, axis=0))[:ns]
        rx_atoms = dense_order(np.linalg.norm(h.conj().T @ u_dense, axis=0))[:ns]
        assert np.array_equal(f_bf.analog, v_dense[:, tx_atoms])
        assert np.array_equal(w_bf.analog, u_dense[:, rx_atoms])

        dig = digital_svd(h, ns)
        for target, dic, dense in ((dig.precoder, v, v_dense), (dig.combiner, u, u_dense)):
            atoms = dense_order((np.abs(dense.conj().T @ target) ** 2).sum(axis=1))[:n_rf]
            assert np.array_equal(omp_hybrid(target, dic, n_rf).analog, dense[:, atoms])

        tx_pads = dense_pad_atoms(dig.precoder, h, n_rf - ns)
        rx_pads = dense_pad_atoms(dig.combiner, h.conj().T, n_rf - ns)
        if min(len(tx_pads), len(rx_pads)) < n_rf - ns:
            with pytest.raises(ValueError, match="cannot pad"):
                phase_extraction_hybrid(h, dig, n_rf, n_rf)
            return
        f_pe, w_pe = phase_extraction_hybrid(h, dig, n_rf, n_rf)
        assert np.array_equal(f_pe.analog[:, ns:], dft_matrix(tx.count)[:, tx_pads])
        assert np.array_equal(w_pe.analog[:, ns:], dft_matrix(rx.count)[:, rx_pads])


def assert_matches_greedy(target, dic, n_rf):
    """``omp_hybrid`` against the greedy loop: picks tie at every step, residuals agree.

    The two quantize ties differently, so a pick may differ where the two
    atoms' energies are within the 1e-10 tie quantum of the largest energy.
    """
    bf = omp_hybrid(target, dic, n_rf)
    greedy, norms = omp_rebuilding(target, dic, n_rf)
    energy = (np.abs(dic.adjoint(target)) ** 2).sum(axis=1)
    closed = np.abs(dic.adjoint(bf.analog)).argmax(axis=0)
    assert np.array_equal(bf.analog, dic.columns(closed))
    assert np.abs(energy[closed] - energy[greedy]).max() <= 1e-10 * energy.max()
    gap = np.abs(np.square(bf.residual_norms) - np.square(norms)).max()
    assert gap <= n_rf * 1e-10 * np.linalg.norm(target) ** 2


class TestOmpOracle:
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        n_v=st.integers(1, 6),
        n_h=st.integers(1, 6),
        ns_pick=st.integers(1, 4),
        rf_pick=st.integers(0, 36),
        exact=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_greedy_oracle_up_to_ties(self, n_v, n_h, ns_pick, rf_pick, exact, seed):
        rng = np.random.default_rng(seed)
        dic = TwistedDft(
            twist=np.exp(2j * np.pi * rng.random(n_v * n_h)),
            f_v=dft_matrix(n_v),
            f_h=dft_matrix(n_h),
        )
        ns = min(ns_pick, dic.size)
        n_rf = ns + rf_pick % (dic.size - ns + 1)
        if exact:
            # a target inside the span of a few atoms: the residual reaches zero
            target = dic.columns(rng.permutation(dic.size)[:ns]) @ (
                rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
            )
        else:
            target = rng.standard_normal((dic.size, ns)) + 1j * rng.standard_normal((dic.size, ns))
        assert_matches_greedy(target, dic, n_rf)

    @settings(max_examples=60, deadline=None, database=None)
    @given(tilted_links(oblong=False))
    def test_matches_greedy_oracle_on_digital_beams(self, link):
        tx, rx, params, seed = link
        rng = np.random.default_rng(seed)
        ns = int(rng.integers(1, min(tx.count, rx.count) + 1))
        dig = digital_svd(exact_channel(tx, rx, params), ns)
        tx_dic, rx_dic = dictionary_tx(tx, params), dictionary_rx(rx, params)
        for target, dic in ((dig.precoder, tx_dic), (dig.combiner, rx_dic)):
            assert_matches_greedy(target, dic, int(rng.integers(ns, dic.size + 1)))

    def test_each_atom_built_once(self, monkeypatch):
        built = []
        columns = TwistedDft.columns

        def counting_columns(self, idx):
            built.extend(np.atleast_1d(idx).tolist())
            return columns(self, idx)

        monkeypatch.setattr(TwistedDft, "columns", counting_columns)
        _, tx, _, params, h = desk_channel(side=4)
        target = digital_svd(h, 4).precoder
        bf = omp_hybrid(target, dictionary_tx(tx, params), n_rf=8)
        assert len(built) == 8 and sorted(built) == sorted(set(built))
        assert bf.analog.shape == (16, 8)


class TestOmpProperties:
    @settings(max_examples=100, deadline=None, database=None)
    @given(tilted_links(oblong=False))
    def test_atoms_invariant_to_unitary_mixing(self, link):
        # D^H (F U) = (D^H F) U keeps every atom's energy, and the ties are quantized
        # against the largest energy, so every pick depends on the span of F only
        tx, rx, params, seed = link
        rng = np.random.default_rng(seed)
        h = exact_channel(tx, rx, params)
        ns = int(rng.integers(1, min(tx.count, rx.count) + 1))
        dig = digital_svd(h, ns)
        u = np.linalg.qr(rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns)))[0]
        tx_dic, rx_dic = dictionary_tx(tx, params), dictionary_rx(rx, params)
        for target, dic in ((dig.precoder, tx_dic), (dig.combiner, rx_dic)):
            n_rf = int(rng.integers(ns, dic.size + 1))
            bf = omp_hybrid(target, dic, n_rf)
            mixed = omp_hybrid(target @ u, dic, n_rf)
            # squared, since near zero the root turns a rounding gap of 1e-16 into 1e-8
            gap = np.abs(np.square(mixed.residual_norms) - np.square(bf.residual_norms)).max()
            assert gap <= 1e-12 * np.linalg.norm(target) ** 2
            assert np.array_equal(mixed.analog, bf.analog)

    def test_spare_atom_independent_of_phase_on_a_near_single_atom_target(self):
        # a 1 x 1 to 4 x 1 link: the digital combiner is one atom up to 5e-11,
        # so the second pick ranks rounding-level energies, which tie
        tx = build_layout(ArraySpec(n_v=1, n_h=1, d_v=0.0039, d_h=0.0039), Side.TX, 23.0)
        rx = build_layout(ArraySpec(n_v=4, n_h=1, d_v=0.0039, d_h=0.0039), Side.RX, 23.0)
        params = ChannelParams(wavelength=LAMBDA_28GHZ, distance=23.0)
        target = digital_svd(exact_channel(tx, rx, params), 1).combiner
        dic = dictionary_rx(rx, params)
        bf = omp_hybrid(target, dic, 2)
        assert bf.residual_norms[0] <= 1e-10
        for phase in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False):
            assert np.array_equal(omp_hybrid(target * np.exp(1j * phase), dic, 2).analog, bf.analog)


class TestAsymptoticHybridProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(tilted_links())
    def test_spare_rf_chains_never_lower_the_rate(self, link):
        # the top-ns atoms are a prefix of the top-n_rf ones and the atoms are
        # orthonormal, so by interlacing the effective channel's top-ns singular
        # values can only grow with n_rf, and never pass those of h
        tx, rx, params, seed = link
        rng = np.random.default_rng(seed)
        h = exact_channel(tx, rx, params)
        v, u = dictionary_tx(tx, params), dictionary_rx(rx, params)
        ns = int(rng.integers(1, min(tx.count, rx.count) + 1))
        n_rf_tx, n_rf_rx = int(rng.integers(ns, tx.count + 1)), int(rng.integers(ns, rx.count + 1))
        f_bf, w_bf = asymptotic_hybrid(v, u, h, ns, n_rf_tx, n_rf_rx)
        assert (f_bf.analog.shape[1], w_bf.analog.shape[1]) == (n_rf_tx, n_rf_rx)
        dig = digital_svd(h, ns)
        digital = rate(h, dig.precoder, dig.combiner, 1.0, ns)
        base = hybrid_rate(h, *asymptotic_hybrid(v, u, h, ns, ns, ns), 1.0, ns)
        spare = hybrid_rate(h, f_bf, w_bf, 1.0, ns)
        assert base - 1e-9 * digital <= spare <= digital + 1e-9 * digital


class TestStreamedEnergies:
    """The block-streamed gain energies against the dense products they stand for.

    GAIN_BLOCK_ENTRIES is set small, so test sizes run several blocks, often
    with a last one that is not full. The sums run in another order than
    the dense ones, so they agree to rounding: 1e-13 of the largest energy.
    """

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        n_v=st.integers(1, 6), n_h=st.integers(1, 6), thin=st.booleans(),
        cols=st.integers(1, 60), block=st.integers(1, 100), seed=st.integers(0, 2**32 - 1),
    )
    @example(n_v=1, n_h=1, thin=False, cols=7, block=3, seed=0)  # one antenna; blocks 3, 3, 1
    @example(n_v=6, n_h=6, thin=True, cols=5, block=100, seed=1)  # N >> columns; blocks 2, 2, 1
    @example(n_v=6, n_h=6, thin=False, cols=1, block=1, seed=2)  # a block narrower than one column
    @example(n_v=1, n_h=2, thin=True, cols=59, block=8, seed=3)  # columns >> N; 15 blocks, the last 3 wide
    def test_row_energies_match_dense(self, n_v, n_h, thin, cols, block, seed):
        rng = np.random.default_rng(seed)
        dic = random_dictionary(rng, n_v, n_h, thin)
        x = rng.standard_normal((n_v * n_h, cols)) + 1j * rng.standard_normal((n_v * n_h, cols))
        want = (np.abs(dic.dense().conj().T @ x) ** 2).sum(axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beamforming, "GAIN_BLOCK_ENTRIES", block)
            got = beamforming._row_energies(dic.adjoint, x)
        assert got.shape == (dic.size,)
        assert np.abs(got - want).max() <= 1e-13 * want.max()

    @settings(max_examples=80, deadline=None, database=None)
    @given(n=st.integers(1, 40), m=st.integers(1, 40), block=st.integers(1, 100), seed=st.integers(0, 2**32 - 1))
    @example(n=1, m=1, block=1, seed=0)  # a single antenna per side
    @example(n=40, m=2, block=7, seed=1)  # N >> M; TX blocks of 3 rows, the last 1 wide
    @example(n=2, m=40, block=90, seed=2)  # M >> N; RX blocks of 2 columns
    def test_pad_energies_match_dense(self, n, m, block, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beamforming, "GAIN_BLOCK_ENTRIES", block)
            got = {side: beamforming._dft_energies(h, side) for side in (Side.TX, Side.RX)}
        for side, effective in ((Side.TX, h), (Side.RX, h.conj().T)):
            dim = effective.shape[1]
            want = np.linalg.norm(effective @ dft_matrix(dim), axis=0) ** 2
            assert got[side].shape == (dim,)
            assert np.abs(got[side] - want).max() <= 1e-13 * want.max()

    @settings(max_examples=40, deadline=None, database=None)
    @given(tilted_links(), st.integers(1, 8))
    def test_picks_match_dense_reference_in_small_blocks(self, link, block):
        # test_selected_atoms_match_dense_reference, with every ranking streamed in many blocks
        tx, rx, params, seed = link
        rng = np.random.default_rng(seed)
        h = exact_channel(tx, rx, params)
        v, u = dictionary_tx(tx, params), dictionary_rx(rx, params)
        n_min = min(tx.count, rx.count)
        ns = int(rng.integers(1, n_min + 1))
        n_rf = int(rng.integers(ns, n_min + 1))
        tx_atoms = dense_order(np.linalg.norm(h @ v.dense(), axis=0))[:n_rf]
        rx_atoms = dense_order(np.linalg.norm(h.conj().T @ u.dense(), axis=0))[:n_rf]
        dig = digital_svd(h, ns)
        tx_pads = dense_pad_atoms(dig.precoder, h, n_rf - ns)
        rx_pads = dense_pad_atoms(dig.combiner, h.conj().T, n_rf - ns)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(beamforming, "GAIN_BLOCK_ENTRIES", block)
            f_bf, w_bf = asymptotic_hybrid(v, u, h, ns, n_rf, n_rf)
            assert np.array_equal(f_bf.analog, v.columns(tx_atoms))
            assert np.array_equal(w_bf.analog, u.columns(rx_atoms))
            if min(len(tx_pads), len(rx_pads)) == n_rf - ns:
                f_pe, w_pe = phase_extraction_hybrid(h, dig, n_rf, n_rf)
                assert np.array_equal(f_pe.analog[:, ns:], dft_matrix(tx.count)[:, tx_pads])
                assert np.array_equal(w_pe.analog[:, ns:], dft_matrix(rx.count)[:, rx_pads])
