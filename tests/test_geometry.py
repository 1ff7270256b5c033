"""Tests for array layouts, optimal spacing, and aperture checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus.geometry import (
    ArraySpec,
    DegeneratePlaneError,
    LayoutKind,
    OddStreamCountError,
    Side,
    StreamExceedsArrayError,
    aperture,
    aperture_feasible,
    axis_streams,
    build_layout,
    build_layouts,
    nominal_extent,
    optimal_spacing,
    spacing_ratio,
)


class TestOptimalSpacing:
    def test_desk_scale_value(self):
        d = optimal_spacing(16, 16, 4, 0.010707, 50.0)
        # sqrt(4 * 0.010707 * 50 / 256)
        assert abs(d - 0.09145951973414249) <= 1e-15
        assert axis_streams(spacing_ratio(d, d, 16, 16, 0.010707, 50.0), 16, 16) == 4

    def test_small_hand_value(self):
        assert abs(optimal_spacing(2, 2, 2, 0.01, 10.0) - 0.22360679774997896) <= 1e-15

    def test_product_and_split_are_exact(self):
        d = optimal_spacing(8, 16, 4, 0.011, 40.0)
        product = 4 * 0.011 * 40.0 / (8 * 16)
        assert abs(d * d - product) <= 1e-15
        delta = spacing_ratio(d, d, 8, 16, 0.011, 40.0)
        assert axis_streams(delta, 8, 16) == 4
        assert abs(delta - product * 16 / (0.011 * 40.0)) <= 1e-12

    def test_odd_stream_count_rejected(self):
        with pytest.raises(OddStreamCountError):
            optimal_spacing(16, 16, 3, 0.01, 50.0)

    def test_stream_count_beyond_array_rejected(self):
        with pytest.raises(StreamExceedsArrayError):
            optimal_spacing(4, 16, 6, 0.01, 50.0)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        n=st.integers(2, 128),
        m=st.integers(2, 128),
        pairs=st.integers(1, 64),
        wavelength=st.floats(1e-4, 0.1),
        distance=st.floats(0.5, 1e3),
    )
    def test_spacing_ratio_gives_back_the_stream_count(self, n, m, pairs, wavelength, distance):
        ns = min(2 * pairs, min(n, m) // 2 * 2)
        d = optimal_spacing(n, m, ns, wavelength, distance)
        assert axis_streams(spacing_ratio(d, d, n, m, wavelength, distance), n, m) == ns


class TestBuildLayout:
    def test_parallel_arrays_are_flat(self):
        spec = ArraySpec(n_v=3, n_h=2, d_v=0.1, d_h=0.2)
        tx = build_layout(spec, Side.TX, 50.0)
        rx = build_layout(spec, Side.RX, 50.0)
        assert np.abs(tx.coords[2]).max() == 0.0
        assert np.abs(rx.coords[2] - 50.0).max() == 0.0

    def test_enumeration_order(self):
        spec = ArraySpec(n_v=2, n_h=3, d_v=1.0, d_h=10.0)
        tx = build_layout(spec, Side.TX, 1.0)
        # m = m_v * n_h + m_h
        assert np.allclose(tx.coords[0], [0, 0, 0, 1, 1, 1])
        assert np.allclose(tx.coords[1], [0, 10, 20, 0, 10, 20])

    def test_sheared_z_hand_value(self):
        spec = ArraySpec(n_v=2, n_h=1, d_v=0.1, d_h=0.1, theta=0.0, phi=math.pi / 6)
        tx = build_layout(spec, Side.TX, 50.0)
        # element (m_v=1, m_h=0): z = -0.1 * tan(pi/6)
        assert abs(tx.coords[0, 1] - 0.1) <= 1e-15
        assert abs(tx.coords[2, 1] + 0.057735026918962574) <= 1e-12

    def test_degenerate_plane_rejected(self):
        spec = ArraySpec(n_v=2, n_h=2, d_v=0.1, d_h=0.1, theta=math.pi / 2, phi=math.pi / 2)
        with pytest.raises(DegeneratePlaneError):
            build_layout(spec, Side.TX, 50.0)

    def test_zero_rotation_matches_rotated_baseline(self):
        base = dict(n_v=3, n_h=3, d_v=0.05, d_h=0.07)
        a = build_layout(ArraySpec(**base, layout_kind=LayoutKind.PARALLELOGRAM_OPTIMAL), Side.TX, 10.0)
        b = build_layout(ArraySpec(**base, layout_kind=LayoutKind.ROTATED_UPA), Side.TX, 10.0)
        assert np.abs(a.coords - b.coords).max() <= 1e-15

    @pytest.mark.parametrize("theta,phi", [(0.2, -0.4), (0.7, 0.3), (-0.5, 0.5)])
    def test_tx_plane_equation(self, theta, phi):
        spec = ArraySpec(n_v=4, n_h=3, d_v=0.08, d_h=0.11, theta=theta, phi=phi)
        tx = build_layout(spec, Side.TX, 25.0)
        x, y, z = tx.coords
        lhs = math.cos(theta) * math.sin(phi) * x + math.sin(theta) * y + math.cos(theta) * math.cos(phi) * z
        assert np.abs(lhs).max() <= 1e-12

    @pytest.mark.parametrize("theta,phi", [(0.2, -0.4), (0.7, 0.3)])
    def test_rx_plane_equation_through_link_point(self, theta, phi):
        spec = ArraySpec(n_v=4, n_h=3, d_v=0.08, d_h=0.11, theta=theta, phi=phi)
        rx = build_layout(spec, Side.RX, 25.0)
        x, y, z = rx.coords
        lhs = (
            math.cos(theta) * math.sin(phi) * x
            + math.sin(theta) * y
            - math.cos(theta) * math.cos(phi) * (z - 25.0)
        )
        assert np.abs(lhs).max() <= 1e-12

    def test_xy_projection_rotation_invariant(self):
        base = dict(n_v=3, n_h=4, d_v=0.06, d_h=0.09)
        flat = build_layout(ArraySpec(**base), Side.TX, 30.0)
        tilted = build_layout(ArraySpec(**base, theta=0.5, phi=-0.3), Side.TX, 30.0)
        assert np.abs(flat.coords[:2] - tilted.coords[:2]).max() <= 1e-15

    def test_rotated_upa_is_rigid(self):
        spec = ArraySpec(n_v=3, n_h=3, d_v=0.05, d_h=0.05, theta=0.4, phi=0.2,
                         layout_kind=LayoutKind.ROTATED_UPA)
        flat = build_layout(ArraySpec(n_v=3, n_h=3, d_v=0.05, d_h=0.05), Side.TX, 10.0)
        rot = build_layout(spec, Side.TX, 10.0)
        d_flat = np.linalg.norm(flat.coords[:, :, None] - flat.coords[:, None, :], axis=0)
        d_rot = np.linalg.norm(rot.coords[:, :, None] - rot.coords[:, None, :], axis=0)
        assert np.abs(d_flat - d_rot).max() <= 1e-12


class TestAperture:
    def test_single_antenna(self):
        layout = build_layout(ArraySpec(n_v=1, n_h=1, d_v=0.1, d_h=0.1), Side.TX, 1.0)
        assert aperture(layout) == 0.0

    def test_two_element_line(self):
        layout = build_layout(ArraySpec(n_v=2, n_h=1, d_v=0.5, d_h=0.1), Side.TX, 1.0)
        assert abs(aperture(layout) - 0.5) <= 1e-15

    def test_grid_diagonal(self):
        layout = build_layout(ArraySpec(n_v=4, n_h=4, d_v=0.1, d_h=0.1), Side.TX, 1.0)
        assert abs(aperture(layout) - 0.4242640687119285) <= 1e-12

    def test_translation_invariance(self):
        spec = ArraySpec(n_v=3, n_h=2, d_v=0.2, d_h=0.3)
        tx = build_layout(spec, Side.TX, 10.0)
        rx = build_layout(spec, Side.RX, 10.0)
        assert abs(aperture(tx) - aperture(rx)) <= 1e-12

    def test_stacked_layout_rejected(self):
        # two stacked 1 x 3 arrays read as 0.06 m, where each alone spans 0.2 m or more
        specs = [ArraySpec(n_v=1, n_h=3, d_v=0.1, d_h=0.1, theta=t, phi=t) for t in (0.0, 0.3)]
        with pytest.raises(ValueError, match="^aperture takes one layout"):
            aperture(build_layouts(specs, Side.TX, 10.0))

    @pytest.mark.parametrize("kind", list(LayoutKind))
    def test_corners_match_all_pairs(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n_v, n_h = (int(n) for n in rng.integers(1, 7, size=2))
            theta, phi = rng.uniform(-1.2, 1.2, size=2)
            spec = ArraySpec(n_v=n_v, n_h=n_h, d_v=rng.uniform(0.01, 0.3),
                             d_h=rng.uniform(0.01, 0.3), theta=theta, phi=phi, layout_kind=kind)
            c = build_layout(spec, Side.RX, 5.0).coords
            pairs = np.linalg.norm(c[:, :, None] - c[:, None, :], axis=0).max()
            assert abs(aperture(build_layout(spec, Side.RX, 5.0)) - pairs) <= 1e-12 * max(pairs, 1.0)


class TestApertureFeasible:
    def test_above_threshold(self):
        # threshold 2 * 4 * 0.010707 * 50 = 4.2828 m^2
        assert aperture_feasible(2.1, 2.1, 16, 0.010707, 50.0)

    def test_below_threshold(self):
        assert not aperture_feasible(2.0, 2.0, 16, 0.010707, 50.0)

    def test_closed_boundary(self):
        threshold = 2.0 * math.sqrt(9) * 0.01 * 20.0
        assert aperture_feasible(math.sqrt(threshold), math.sqrt(threshold), 9, 0.01, 20.0)

    def test_optimal_spacing_meets_bound_with_grid_correction(self):
        lam, dist = 0.010707, 50.0
        for n, ns_axis in ((16, 4), (8, 2)):
            d = optimal_spacing(n, n, ns_axis, lam, dist)
            spec = ArraySpec(n_v=n, n_h=n, d_v=d, d_h=d)
            l = aperture(build_layout(spec, Side.TX, dist))
            ns = ns_axis * ns_axis
            correction = (n - 1) ** 2 / n**2
            assert l * l >= 2.0 * math.sqrt(ns) * lam * dist * correction * (1 - 1e-12)
            # the nominal grid extent hits the bound exactly
            nominal = nominal_extent(n, n, d, d)
            assert aperture_feasible(nominal, nominal, ns, lam, dist)
