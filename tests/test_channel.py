"""Tests for the exact channel, its quadratic-phase factors, and prolate structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus.beamforming import dictionary_rx, dictionary_tx
from beamfocus.channel import (
    ChannelParams,
    NotParallelError,
    exact_channel,
    fresnel_factors,
    gram,
    kron_factor_channel,
    layout_pair,
    prolate_matrix,
    quadratic_phase,
    taylor_channel,
)
from beamfocus.geometry import ArraySpec, LayoutKind, Side, build_layout, optimal_spacing
from beamfocus.linalg import dft_matrix, kron

LAMBDA_28GHZ = 299_792_458.0 / 28e9


def desk_pair(side=8, ns_axis=2, dist=50.0, lam=LAMBDA_28GHZ, theta=0.0, phi=0.0):
    sol = optimal_spacing(side, side, ns_axis, lam, dist)
    spec = ArraySpec(n_v=side, n_h=side, d_v=sol.d_t, d_h=sol.d_t, theta=theta, phi=phi)
    params = ChannelParams(wavelength=lam, distance=dist)
    tx, rx = layout_pair(spec, spec, dist)
    return spec, tx, rx, params


class TestExactChannel:
    def test_integer_wavelength_distance(self):
        lam = 0.01
        spec = ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1)
        params = ChannelParams(wavelength=lam, distance=100 * lam)
        tx, rx = layout_pair(spec, spec, 100 * lam)
        h = exact_channel(tx, rx, params)
        assert abs(h[0, 0] - 1.0) <= 1e-10

    def test_half_wavelength_offset(self):
        lam = 0.01
        spec = ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1)
        params = ChannelParams(wavelength=lam, distance=100.5 * lam)
        tx, rx = layout_pair(spec, spec, 100.5 * lam)
        h = exact_channel(tx, rx, params)
        assert abs(h[0, 0] + 1.0) <= 1e-10

    def test_frobenius_norm_is_element_count(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            spec_t = ArraySpec(n_v=2, n_h=1, d_v=float(rng.uniform(0.05, 0.3)), d_h=0.1,
                               theta=float(rng.uniform(-0.5, 0.5)), phi=float(rng.uniform(-0.5, 0.5)))
            spec_r = ArraySpec(n_v=1, n_h=2, d_v=0.1, d_h=float(rng.uniform(0.05, 0.3)))
            dist = float(rng.uniform(5.0, 80.0))
            tx, rx = layout_pair(spec_t, spec_r, dist)
            h = exact_channel(tx, rx, ChannelParams(wavelength=0.0107, distance=dist))
            assert abs(np.linalg.norm(h) ** 2 - h.size) <= 1e-12 * h.size
            assert np.abs(np.abs(h) - 1.0).max() <= 1e-12

    def test_matches_pairwise_distance_formula(self):
        spec_t = ArraySpec(n_v=3, n_h=5, d_v=0.07, d_h=0.11, theta=0.3, phi=-0.4)
        spec_r = ArraySpec(n_v=4, n_h=2, d_v=0.09, d_h=0.05, theta=-0.2, phi=0.5)
        tx, rx = layout_pair(spec_t, spec_r, 20.0)
        params = ChannelParams(wavelength=LAMBDA_28GHZ, distance=20.0)
        dist = np.linalg.norm(rx.coords[:, :, None] - tx.coords[:, None, :], axis=0)
        expected = np.exp(-2j * np.pi / LAMBDA_28GHZ * dist)
        assert np.abs(exact_channel(tx, rx, params) - expected).max() <= 1e-9


class TestFresnelFactors:
    def test_single_on_axis_pair(self):
        lam = 0.01
        spec = ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1)
        params = ChannelParams(wavelength=lam, distance=20.0)
        tx, rx = layout_pair(spec, spec, 20.0)
        cs = fresnel_factors(tx, rx, params)
        assert np.allclose(cs.h_tilde, [[1.0]])
        assert abs(cs.recompose()[0, 0] - cs.h_exact[0, 0]) <= 1e-9

    def test_recomposition_matches_taylor_expansion(self):
        _, tx, rx, params = desk_pair(side=4, ns_axis=2, theta=0.3, phi=-0.2)
        cs = fresnel_factors(tx, rx, params)
        assert np.abs(cs.recompose() - taylor_channel(tx, rx, params)).max() <= 1e-10

    def test_unit_modulus_factors(self):
        _, tx, rx, params = desk_pair(side=4)
        cs = fresnel_factors(tx, rx, params)
        for arr in (cs.h_exact, cs.h_tilde, cs.d_t, cs.d_r):
            assert np.abs(np.abs(arr) - 1.0).max() <= 1e-12

    def test_taylor_error_shrinks_with_distance(self):
        lam = LAMBDA_28GHZ
        sol = optimal_spacing(8, 8, 2, lam, 50.0)
        spec = ArraySpec(n_v=8, n_h=8, d_v=sol.d_t, d_h=sol.d_t)
        errs = []
        for dist in (25.0, 50.0, 100.0):
            params = ChannelParams(wavelength=lam, distance=dist)
            tx, rx = layout_pair(spec, spec, dist)
            cs = fresnel_factors(tx, rx, params)
            errs.append(np.linalg.norm(cs.h_exact - cs.recompose()) / np.linalg.norm(cs.h_exact))
        assert errs[0] > errs[1] > errs[2]

    def test_warns_when_aperture_not_small(self):
        spec = ArraySpec(n_v=2, n_h=2, d_v=1.0, d_h=1.0)
        params = ChannelParams(wavelength=0.01, distance=1.0)
        tx, rx = layout_pair(spec, spec, 1.0)
        with pytest.warns(RuntimeWarning):
            fresnel_factors(tx, rx, params)

    def test_zeta_formula(self):
        params = ChannelParams(wavelength=0.01, distance=10.0, tx_gain=4.0, rx_gain=9.0)
        expected = (math.sqrt(36.0) * 0.01 / (4 * math.pi * 10.0)) ** 2
        assert abs(params.zeta - expected) <= 1e-18


def array_specs(theta, phi, kind):
    return st.builds(
        ArraySpec,
        n_v=st.integers(1, 6),
        n_h=st.integers(1, 6),
        d_v=st.floats(0.002, 0.2),
        d_h=st.floats(0.002, 0.2),
        theta=st.just(theta),
        phi=st.just(phi),
        layout_kind=st.just(kind),
    )


@st.composite
def link_geometries(draw):
    """Random tx/rx arrays sharing one tilt, and a link distance of 10-100 m."""
    angle = st.floats(-0.9, 0.9)
    theta, phi = draw(angle), draw(angle)
    kind = draw(st.sampled_from(LayoutKind))
    dist = draw(st.floats(10.0, 100.0))
    spec_t = draw(array_specs(theta, phi, kind))
    spec_r = draw(array_specs(theta, phi, kind))
    tx = build_layout(spec_t, Side.TX, dist)
    rx = build_layout(spec_r, Side.RX, dist)
    return tx, rx, ChannelParams(wavelength=LAMBDA_28GHZ, distance=dist)


class TestQuadraticPhaseProperties:
    """The one quadratic-phase source against the independent Taylor oracle."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(link_geometries())
    def test_factors_recompose_taylor_channel(self, geometry):
        tx, rx, params = geometry
        cs = fresnel_factors(tx, rx, params)
        assert np.abs(cs.recompose() - taylor_channel(tx, rx, params)).max() <= 1e-10

    @settings(max_examples=60, deadline=None, database=None)
    @given(link_geometries())
    def test_dictionaries_are_unitary_twisted_dfts(self, geometry):
        tx, rx, params = geometry
        for layout, dic in ((tx, dictionary_tx(tx, params)), (rx, dictionary_rx(rx, params))):
            eye = np.eye(layout.count)
            assert np.abs(dic.conj().T @ dic - eye).max() <= 1e-10
            f2h = kron(dft_matrix(layout.n_v), dft_matrix(layout.n_h)).conj().T
            # every column carries the same twist, conj of the side's diagonal
            twist = dic / f2h
            expected = np.conj(quadratic_phase(layout, params))[:, None]
            assert np.abs(twist - expected).max() <= 1e-12


class TestKronFactorChannel:
    def test_single_antennas(self):
        spec = ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        h_linv, h_linh = kron_factor_channel(spec, spec, params)
        assert np.allclose(h_linv, [[1.0]])
        assert np.allclose(h_linh, [[1.0]])

    def test_kron_equals_core(self):
        spec, tx, rx, params = desk_pair(side=4)
        cs = fresnel_factors(tx, rx, params)
        h_linv, h_linh = kron_factor_channel(spec, spec, params)
        assert np.abs(kron(h_linv, h_linh) - cs.h_tilde).max() <= 1e-12

    def test_vertical_only_array(self):
        lam = LAMBDA_28GHZ
        sol = optimal_spacing(4, 4, 2, lam, 50.0)
        spec = ArraySpec(n_v=4, n_h=1, d_v=sol.d_t, d_h=0.1)
        params = ChannelParams(wavelength=lam, distance=50.0)
        h_linv, h_linh = kron_factor_channel(spec, spec, params)
        assert h_linh.shape == (1, 1) and abs(h_linh[0, 0] - 1.0) <= 1e-15
        tx, rx = layout_pair(spec, spec, 50.0)
        cs = fresnel_factors(tx, rx, params)
        assert np.abs(h_linv - cs.h_tilde).max() <= 1e-12

    def test_rotated_specs_rejected(self):
        spec = ArraySpec(n_v=2, n_h=2, d_v=0.1, d_h=0.1, theta=0.1)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        with pytest.raises(NotParallelError):
            kron_factor_channel(spec, spec, params)


class TestGram:
    def test_identity(self):
        assert np.allclose(gram(np.eye(3), Side.TX), np.eye(3))

    def test_trace_identity(self):
        rng = np.random.default_rng(22)
        h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        g = gram(h, Side.TX)
        assert abs(np.trace(g).real - np.linalg.norm(h) ** 2) <= 1e-9 * np.linalg.norm(h) ** 2
        assert np.abs(g - g.conj().T).max() <= 1e-12
        g_rx = gram(h, Side.RX)
        assert g_rx.shape == (6, 6)

    def test_parallel_gram_kron_identity(self):
        spec, tx, rx, params = desk_pair(side=4)
        cs = fresnel_factors(tx, rx, params)
        h_linv, h_linh = kron_factor_channel(spec, spec, params)
        lhs = gram(cs.h_tilde, Side.TX)
        rhs = kron(gram(h_linv, Side.TX), gram(h_linh, Side.TX))
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_doubly_block_toeplitz_scan(self):
        spec, tx, rx, params = desk_pair(side=4, theta=0.0)
        g = gram(fresnel_factors(tx, rx, params).h_tilde, Side.TX)
        n_h = spec.n_h
        seen = {}
        for i in range(g.shape[0]):
            for k in range(g.shape[1]):
                lag = (i // n_h - k // n_h, i % n_h - k % n_h)
                if lag in seen:
                    assert abs(g[i, k] - seen[lag]) <= 1e-10
                else:
                    seen[lag] = g[i, k]


class TestProlateMatrix:
    def test_diagonal_value(self):
        b = prolate_matrix(8.0, 3, 5)
        assert np.abs(np.diag(b) - 0.5).max() <= 1e-15

    def test_integer_arguments_give_identity(self):
        # numerator sin(pi (i-k)) vanishes off-diagonal for K+1 = alpha
        b = prolate_matrix(4.0, 3, 4)
        assert np.abs(b - np.eye(4)).max() <= 1e-12

    def test_symmetric_and_trace(self):
        b = prolate_matrix(32.0, 7, 16)
        assert np.abs(b - b.T).max() <= 1e-12
        assert abs(np.trace(b) - 16 * 8 / 32.0) <= 1e-10

    def test_spectrum_against_eigh_oracle(self):
        b = prolate_matrix(32.0, 7, 16)
        w = np.linalg.eigvalsh(b)[::-1]
        assert w.size == 16
        assert w.min() >= -1e-9 and w.max() <= 1.0 + 1e-9
        # oracle-counted cluster at eps = 0.1: top values 1.0, 0.999, 0.974
        assert int((w >= 0.9).sum()) == 3
        assert int((w <= 0.1).sum()) == 11

    @pytest.mark.parametrize("alpha,k_param,p", [(4.0, 3, 1), (4.0, 3, -1), (2.0, 3, 2), (3.0, 4, 1)])
    def test_singular_limit_sign_by_finite_difference(self, alpha, k_param, p):
        def raw(d):
            return math.sin(math.pi * d * (k_param + 1) / alpha) / math.sin(math.pi * d / alpha) / alpha

        d0 = p * alpha
        fd = 0.5 * (raw(d0 + 1e-6) + raw(d0 - 1e-6))
        dim = int(abs(d0)) + 1
        b = prolate_matrix(alpha, k_param, dim)
        assert abs(b[dim - 1, 0] - fd) <= 1e-9 if d0 > 0 else abs(b[0, dim - 1] - fd) <= 1e-9

    def test_gain_matrix_is_scaled_prolate(self):
        spec, _, _, params = desk_pair(side=8, ns_axis=2)
        h_linv, _ = kron_factor_channel(spec, spec, params)
        g = gram(h_linv, Side.TX)
        n = spec.n_v
        delta = spec.d_v * spec.d_v * n / (params.wavelength * params.distance)
        b = prolate_matrix(n / delta, n - 1, n)
        lag = np.arange(n)[:, None] - np.arange(n)[None, :]
        phase = np.exp(-1j * np.pi * delta * lag * (n - 1) / n)
        assert np.abs(g - phase * (n / delta) * b).max() <= 1e-10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prolate_matrix(0.0, 3, 4)
        with pytest.raises(ValueError):
            prolate_matrix(4.0, -1, 4)
