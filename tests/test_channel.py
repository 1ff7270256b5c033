"""Tests for the exact channel, its quadratic-phase factors, and prolate structure."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus import validation
from beamfocus.beamforming import dictionary_rx, dictionary_tx
from beamfocus.channel import (
    ChannelParams,
    exact_channel,
    exact_channels,
    fresnel_factors,
    gram,
    has_kron_core,
    kron_factor_channel,
    layout_pair,
    prolate_matrix,
    quadratic_phase,
    taylor_channel,
    warn_large_aperture,
)
from beamfocus.geometry import ArraySpec, LayoutKind, Side, build_layouts, optimal_spacing
from beamfocus.linalg import dft_matrix

LAMBDA_28GHZ = 299_792_458.0 / 28e9


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
        links = []
        for _ in range(10):
            spec_t = ArraySpec(n_v=2, n_h=1, d_v=float(rng.uniform(0.05, 0.3)), d_h=0.1,
                               theta=float(rng.uniform(-0.5, 0.5)), phi=float(rng.uniform(-0.5, 0.5)))
            spec_r = ArraySpec(n_v=1, n_h=2, d_v=0.1, d_h=float(rng.uniform(0.05, 0.3)))
            dist = float(rng.uniform(5.0, 80.0))
            links.append((spec_t, spec_r, ChannelParams(wavelength=0.0107, distance=dist)))
        assert validation.check_channel_normalization(links=links).passed

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
        assert abs(cs.recompose()[0, 0] - exact_channel(tx, rx, params)[0, 0]) <= 1e-9

    def test_recomposition_matches_taylor_expansion(self):
        link = validation.square_link(side=4, theta=0.3, phi=-0.2)
        assert validation.check_fresnel_recomposition(link=link).passed

    def test_unit_modulus_factors(self):
        spec, _, params = validation.square_link(side=4)
        cs = fresnel_factors(*layout_pair(spec, spec, params.distance), params)
        for arr in (cs.h_tilde, cs.d_t, cs.d_r):
            assert np.abs(np.abs(arr) - 1.0).max() <= 1e-12

    def test_taylor_error_shrinks_with_distance(self):
        lam = LAMBDA_28GHZ
        d = optimal_spacing(8, 8, 2, lam, 50.0)
        spec = ArraySpec(n_v=8, n_h=8, d_v=d, d_h=d)
        errs = []
        for dist in (25.0, 50.0, 100.0):
            params = ChannelParams(wavelength=lam, distance=dist)
            tx, rx = layout_pair(spec, spec, dist)
            h = exact_channel(tx, rx, params)
            errs.append(np.linalg.norm(h - fresnel_factors(tx, rx, params).recompose()) / np.linalg.norm(h))
        assert errs[0] > errs[1] > errs[2]

    def test_warns_when_aperture_not_small(self):
        spec = ArraySpec(n_v=2, n_h=2, d_v=1.0, d_h=1.0)
        params = ChannelParams(wavelength=0.01, distance=1.0)
        tx, rx = layout_pair(spec, spec, 1.0)
        with pytest.warns(RuntimeWarning):
            fresnel_factors(tx, rx, params)


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
    return spec_t, spec_r, ChannelParams(wavelength=LAMBDA_28GHZ, distance=dist)


class TestQuadraticPhaseProperties:
    """The one quadratic-phase source against the independent Taylor oracle."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(link_geometries())
    def test_factors_recompose_taylor_channel(self, link):
        assert validation.check_fresnel_recomposition(link=link).passed

    @settings(max_examples=60, deadline=None, database=None)
    @given(link_geometries())
    def test_dictionaries_are_unitary_twisted_dfts(self, link):
        assert validation.check_dictionary_unitarity(link=link).passed
        spec_t, spec_r, params = link
        tx, rx = layout_pair(spec_t, spec_r, params.distance)
        for layout, dic in ((tx, dictionary_tx(tx, params).dense()), (rx, dictionary_rx(rx, params).dense())):
            f2h = np.kron(dft_matrix(layout.n_v), dft_matrix(layout.n_h)).conj().T
            # every column carries the same twist, conj of the side's diagonal
            twist = dic / f2h
            expected = np.conj(quadratic_phase(layout, params))[:, None]
            assert np.abs(twist - expected).max() <= 1e-12


def bits(a: np.ndarray) -> np.ndarray:
    """The float64 words of a real or complex array, as integers: equal only if bitwise equal."""
    return np.ascontiguousarray(a).view(np.float64).view(np.int64)


@st.composite
def tilted_sweeps(draw):
    """A link's tx/rx specs at 1-6 distinct sweep angles (0 deg drawn often), as a Scenario tilts them."""
    kind = draw(st.sampled_from(LayoutKind))
    dist = draw(st.floats(10.0, 100.0))
    angles = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 80.0)), min_size=1, max_size=6, unique=True))
    base_t = draw(array_specs(0.0, 0.0, kind))
    base_r = draw(array_specs(0.0, 0.0, kind))
    specs = [
        [dataclasses.replace(base, theta=math.radians(a), phi=math.radians(a)) for a in angles]
        for base in (base_t, base_r)
    ]
    return specs[0], specs[1], ChannelParams(wavelength=LAMBDA_28GHZ, distance=dist)


class TestStackedBuilds:
    """A sweep's layouts, channels and dictionary twists, built as stacks, are each angle's own, bitwise."""

    @settings(max_examples=80, deadline=None, database=None)
    @given(sweep=tilted_sweeps())
    def test_stacks_are_the_per_angle_builds(self, sweep):
        specs_t, specs_r, params = sweep
        d = params.distance
        tx, rx = build_layouts(specs_t, Side.TX, d), build_layouts(specs_r, Side.RX, d)
        assert tx.coords.shape == (len(specs_t), 3, specs_t[0].count)
        h = exact_channels(tx, rx, params)
        twists = dictionary_tx(tx, params).twist, dictionary_rx(rx, params).twist
        for i, (spec_t, spec_r) in enumerate(zip(specs_t, specs_r)):
            one_t, one_r = layout_pair(spec_t, spec_r, d)
            assert np.array_equal(bits(tx.coords[i]), bits(one_t.coords))
            assert np.array_equal(bits(rx.coords[i]), bits(one_r.coords))
            assert np.array_equal(bits(h[i]), bits(exact_channel(one_t, one_r, params)))
            assert np.array_equal(bits(twists[0][i]), bits(dictionary_tx(one_t, params).twist))
            assert np.array_equal(bits(twists[1][i]), bits(dictionary_rx(one_r, params).twist))

    def test_a_stack_is_of_one_array(self):
        spec = ArraySpec(n_v=2, n_h=3, d_v=0.1, d_h=0.1)
        other = dataclasses.replace(spec, d_h=0.2, theta=0.1)
        with pytest.raises(ValueError):
            build_layouts([spec, other], Side.TX, 10.0)

    # the stacks that each reader misread: two 1 x 3 arrays gave fresnel_factors
    # a 9 x 9 core, three 2 x 2 arrays gave taylor_channel a 3 x 3 x 4 array,
    # and warn_large_aperture raised IndexError from 4 antennas
    @pytest.mark.parametrize("reader, n_v, n_h, count", [
        (fresnel_factors, 1, 3, 2), (taylor_channel, 2, 2, 3), (warn_large_aperture, 2, 2, 2),
    ], ids=["fresnel_factors", "taylor_channel", "warn_large_aperture"])
    def test_one_layout_readers_reject_a_stack(self, reader, n_v, n_h, count):
        specs = [ArraySpec(n_v=n_v, n_h=n_h, d_v=0.1, d_h=0.1, theta=0.1 * i, phi=0.1 * i)
                 for i in range(count)]
        params = ChannelParams(wavelength=0.01, distance=10.0)
        tx, rx = build_layouts(specs, Side.TX, 10.0), build_layouts(specs, Side.RX, 10.0)
        one_tx = build_layouts(specs[0], Side.TX, 10.0)
        for pair in ((tx, rx), (one_tx, rx)):  # a stack on both sides, and on the RX side only
            with pytest.raises(ValueError, match=f"^{reader.__name__} takes one layout"):
                reader(*pair, params)


class TestKronFactorChannel:
    def test_single_antennas(self):
        spec = ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1)
        params = ChannelParams(wavelength=0.01, distance=10.0)
        h_linv, h_linh = kron_factor_channel(spec, spec, params)
        assert np.allclose(h_linv, [[1.0]])
        assert np.allclose(h_linh, [[1.0]])

    def test_kron_equals_core(self):
        assert validation.check_kron_factorization(link=validation.square_link(side=4)).passed

    def test_vertical_only_array(self):
        lam = LAMBDA_28GHZ
        d = optimal_spacing(4, 4, 2, lam, 50.0)
        spec = ArraySpec(n_v=4, n_h=1, d_v=d, d_h=0.1)
        params = ChannelParams(wavelength=lam, distance=50.0)
        h_linv, h_linh = kron_factor_channel(spec, spec, params)
        assert h_linh.shape == (1, 1) and abs(h_linh[0, 0] - 1.0) <= 1e-15
        tx, rx = layout_pair(spec, spec, 50.0)
        cs = fresnel_factors(tx, rx, params)
        assert np.abs(h_linv - cs.h_tilde).max() <= 1e-12

    def test_rotated_upa_rejected(self):
        params = ChannelParams(wavelength=0.01, distance=10.0)
        flat = ArraySpec(n_v=2, n_h=3, d_v=0.1, d_h=0.1, layout_kind=LayoutKind.ROTATED_UPA)
        tilted = ArraySpec(n_v=2, n_h=3, d_v=0.1, d_h=0.1, phi=0.1, layout_kind=LayoutKind.ROTATED_UPA)
        tilted_parallelogram = ArraySpec(n_v=2, n_h=3, d_v=0.1, d_h=0.1, theta=0.3, phi=0.1)
        assert np.kron(*kron_factor_channel(flat, flat, params)).shape == (6, 6)
        assert has_kron_core(flat, tilted_parallelogram)
        for spec_t, spec_r in ((tilted, flat), (flat, tilted)):
            assert not has_kron_core(spec_t, spec_r)
            with pytest.raises(ValueError, match="rotated UPA"):
                kron_factor_channel(spec_t, spec_r, params)


@st.composite
def tilted_parallelogram_links(draw):
    """Parallelogram tx/rx specs with n_v != n_h, each with its own tilt, and a 10-100 m link."""
    angle = st.floats(-1.2, 1.2)
    specs = []
    for _ in range(2):
        n_v = draw(st.integers(1, 7))
        n_h = draw(st.integers(1, 7).filter(lambda n: n != n_v))
        specs.append(ArraySpec(
            n_v=n_v, n_h=n_h, d_v=draw(st.floats(0.002, 0.2)), d_h=draw(st.floats(0.002, 0.2)),
            theta=draw(angle), phi=draw(angle),
        ))
    dist = draw(st.floats(10.0, 100.0))
    return specs[0], specs[1], ChannelParams(wavelength=LAMBDA_28GHZ, distance=dist)


class TestKronFactorProperties:
    @settings(max_examples=100, deadline=None, database=None)
    @given(tilted_parallelogram_links())
    def test_kron_equals_core_at_any_tilt(self, link):
        # the parallelogram keeps the xy grid at every tilt, so the spec's
        # spacing x index formula must reproduce the realized layout's core
        assert validation.check_kron_factorization(link=link).passed


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
        assert validation.check_gram_kron_identity(link=validation.square_link(side=4)).passed

    def test_doubly_block_toeplitz_scan(self):
        assert validation.check_doubly_block_toeplitz(link=validation.square_link(side=4)).passed


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
        assert validation.check_prolate_scaling(link=validation.square_link(side=8, ns_axis=2)).passed

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            prolate_matrix(0.0, 3, 4)
        with pytest.raises(ValueError):
            prolate_matrix(4.0, -1, 4)
