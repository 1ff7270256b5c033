"""Tests for the cluster prediction, water-filling, and rate formulas."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamfocus import linalg, scenario, spectral, validation
from beamfocus.channel import ChannelParams, fresnel_factors, gram, layout_pair
from beamfocus.geometry import ArraySpec, Side, axis_streams, optimal_spacing, spacing_ratio
from beamfocus.linalg import eig_hermitian
from beamfocus.scenario import ArrayConfig
from beamfocus.spectral import (
    AllZeroEigenvaluesError,
    BadEpsilonError,
    DimensionMismatchError,
    SingularCombinerError,
    dft_diag_quality,
    rate,
    rate_upper_bound,
    transition_band,
    water_filling,
)

LAMBDA_28GHZ = 299_792_458.0 / 28e9


def rate_by_solve(h, f, w, snr, ns):
    """The rate through a linear solve with the combiner Gram, as an oracle for ``rate``."""
    r_w = w.conj().T @ w
    a = w.conj().T @ h @ f
    x = a.conj().T @ np.linalg.solve(r_w, a)
    m = np.eye(ns, dtype=np.complex128) + (snr / ns) * 0.5 * (x + x.conj().T)
    return max(float(np.linalg.slogdet(m)[1]) / math.log(2.0), 0.0)


def water_filling_by_search(eigs, p_total, gain_over_noise):
    """Powers and level found by trying active counts from the largest down, as an oracle."""
    lam = np.asarray(eigs, dtype=float)
    positive = lam > 0
    floors = np.full(lam.shape, np.inf)
    floors[positive] = 1.0 / (gain_over_noise * lam[positive])
    powers = np.zeros(lam.shape)
    level = 0.0
    for k in range(int(positive.sum()), 0, -1):
        level = (p_total + floors[:k].sum()) / k
        trial = level - floors[:k]
        if trial[-1] >= 0.0:
            powers[:k] = trial
            break
    return powers, level


def linear_gain_matrix(n_rx, m_tx, delta):
    """Axis Gram built directly from its geometric-series definition."""
    n_max = max(n_rx, m_tx)
    l = np.arange(n_rx)
    m = np.arange(m_tx)
    h = np.exp(2j * np.pi * delta * np.outer(l, m) / n_max)
    return h.conj().T @ h


class TestTransitionBand:
    def test_two_term_value(self):
        # independent evaluation of the two-term formula at ratio 2
        assert abs(transition_band(16, 16, 0.5, 0.05) - 58.12400163230747) <= 1e-10

    def test_clamp_active_leaves_first_term(self):
        # ratio 32: the second-term argument exceeds 1, so only the first term remains
        value = transition_band(16, 16, 0.03125, 0.05)
        assert abs(value - 45.953062702919695) <= 1e-10

    def test_degenerate_ratio_returns_infinity(self):
        assert math.isinf(transition_band(16, 16, 1.0, 0.1))

    def test_bad_epsilon(self):
        with pytest.raises(BadEpsilonError):
            transition_band(16, 16, 0.5, 0.7)


def small_config(**overrides):
    """validation's desk config shrunk to 4x4 arrays and 4 streams."""
    small = dict(tx=ArrayConfig(4, 4), rx=ArrayConfig(4, 4), ns=4, ns_split=(2, 2), n_rf_tx=4, n_rf_rx=4)
    return validation.desk_config(**{**small, **overrides})


def summary_for(monkeypatch, omega, eps=0.1):
    """spectrum_data's summary when its transmit spectrum is ``omega`` times the normalizer."""
    normalizer = 16 * 16 / 4  # a power of two, so omega comes back exactly
    values = np.asarray(omega) * normalizer
    monkeypatch.setattr(scenario, "_tx_gain_values", lambda _: values)
    summary = scenario.spectrum_data(small_config(cluster_eps=eps))[2]
    assert summary["normalizer"] == normalizer
    return summary


class TestClusterPrediction:
    """spectrum_data's cluster counts against axis_streams and the transition bound."""

    def test_flat_spectrum(self, monkeypatch):
        summary = summary_for(monkeypatch, np.ones(8))
        assert summary["count_near_one"] == 8
        assert summary["transition_count"] == 0
        assert summary["count_near_zero"] == 0
        assert axis_streams(0.5, 8, 8) == 4

    def test_ula_counts_match_eigh_oracle(self, monkeypatch):
        lam, dist = LAMBDA_28GHZ, 50.0
        d = optimal_spacing(16, 16, 4, lam, dist)
        delta = spacing_ratio(d, d, 16, 16, lam, dist)
        g = linear_gain_matrix(16, 16, delta)
        normalizer = 16 / delta
        summary = summary_for(monkeypatch, eig_hermitian(g).values / normalizer)
        # frozen from the eigh oracle: omega = [1.0, 0.998, 0.965, 0.731, 0.267, ...]
        assert summary["count_near_one"] == 3
        assert summary["count_near_zero"] == 11
        assert summary["transition_count"] == 2
        assert axis_streams(delta, 16, 16) == 4
        assert summary["transition_count"] <= 2.0 * transition_band(16, 16, delta, 0.1)
        oracle = np.linalg.eigvalsh(g)[::-1] / normalizer
        assert int((oracle >= 0.9).sum()) == summary["count_near_one"]
        assert int((oracle <= 0.1).sum()) == summary["count_near_zero"]

    def test_transition_below_bound_on_random_cases(self, monkeypatch):
        rng = np.random.default_rng(30)
        for _ in range(50):
            n = int(rng.integers(4, 24))
            m = int(rng.integers(4, 24))
            n_min = min(n, m)
            # keep the lemma preconditions: delta * n_min even-ish and ratio > 1
            ns_axis = 2 * int(rng.integers(1, max(2, n_min // 2)))
            delta = ns_axis / n_min
            eps = float(rng.uniform(0.02, 0.45))
            g = linear_gain_matrix(n, m, delta)
            summary = summary_for(monkeypatch, eig_hermitian(g).values / (max(n, m) / delta), eps)
            assert summary["transition_count"] <= 2.0 * transition_band(max(n, m), m, delta, eps)

    def test_bad_epsilon(self):
        with pytest.raises(BadEpsilonError):
            scenario.spectrum_data(small_config(cluster_eps=0.6))


class TestWaterFilling:
    def test_equal_channels_split_evenly(self):
        alloc = water_filling(np.array([2.0, 2.0, 2.0]), 3.0, 1.0)
        assert np.abs(alloc.powers - 1.0).max() <= 1e-12

    def test_two_channel_closed_form(self):
        alloc = water_filling(np.array([4.0, 1.0]), 2.0, 1.0)
        assert abs(alloc.water_level - 1.625) <= 1e-9
        assert abs(alloc.powers[0] - 1.375) <= 1e-9
        assert abs(alloc.powers[1] - 0.625) <= 1e-9

    def test_weak_channel_cut_off(self):
        alloc = water_filling(np.array([100.0, 1e-4]), 0.01, 1.0)
        assert alloc.powers[1] == 0.0
        assert abs(alloc.powers.sum() - 0.01) <= 1e-12

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroEigenvaluesError):
            water_filling(np.zeros(3), 1.0, 1.0)

    def test_kkt_on_random_spectra(self):
        rng = np.random.default_rng(31)
        spectra = []
        for _ in range(100):
            n = int(rng.integers(1, 10))
            lam = np.sort(rng.uniform(0.0, 5.0, n))[::-1]
            if lam.max() == 0:
                lam[0] = 1.0
            spectra.append((lam, float(rng.uniform(0.05, 8.0)), float(rng.uniform(0.1, 10.0))))
        assert validation.check_water_filling_kkt(spectra=spectra).passed


    @pytest.mark.parametrize(
        "eigs, p_total, gain",
        [
            ([1.0, math.nan], 1.0, 1.0),
            ([math.nan, 1.0], 1.0, 1.0),
            ([math.inf, 1.0], 1.0, 1.0),
            ([1.0, 0.5], math.nan, 1.0),
            ([1.0, 0.5], math.inf, 1.0),
            ([1.0, 0.5], 1.0, math.nan),
            ([1.0, 0.5], 1.0, math.inf),
        ],
    )
    def test_non_finite_input_rejected(self, eigs, p_total, gain):
        with pytest.raises(ValueError, match="finite"):
            water_filling(eigs, p_total, gain)

    def test_underflowing_gain_rejected(self):
        with pytest.raises(ValueError, match="underflows"), np.errstate(divide="ignore"):
            water_filling([1e-200, 1e-201], 1.0, 1e-200)

    def test_positive_after_a_zero_counts_as_zero(self):
        # the tolerance lets 1e-13 follow the zero; it must not become a 1/0 floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = water_filling([1.0, 0.0, 1e-13], 1.0, 1.0)
        assert alloc.powers.tolist() == [1.0, 0.0, 0.0]
        assert alloc.water_level == 2.0

    def test_small_rising_spectrum_rejected(self):
        # the monotonicity tolerance is relative to the largest value, so a
        # rise far above rounding is caught below 1 too
        with pytest.raises(ValueError, match="non-increasing"):
            water_filling([1e-14, 5e-13], 1.0, 1.0)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        eigs=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(1e-300, 1e300),
                st.sampled_from([1e-14, 5e-13, 1.0, 1.0 + 1e-13, 1.0 - 1e-13]),
            ),
            min_size=1,
            max_size=12,
        ),
        presort=st.booleans(),
        p_total=st.one_of(st.sampled_from([1e-14, 1.0]), st.floats(1e-300, 1e300)),
        gain=st.floats(1e-300, 1e300),
    )
    def test_accepted_input_gives_a_valid_allocation(self, eigs, presort, p_total, gain):
        # unsorted lists, near-ties within the tolerance, and spans of the
        # whole float range: whatever the checks let through is a valid allocation
        if presort:
            eigs = sorted(eigs, reverse=True)
        try:
            # a stream whose floor 1/(gain*lambda) overflows gets no power; numpy
            # warns on the way (inf floors and levels), which is beside the point here
            with np.errstate(all="ignore"):
                alloc = water_filling(eigs, p_total, gain)
        except ValueError:
            return
        assert np.all(alloc.powers >= 0.0)
        # each power is level - floor, so rounding is relative to the level
        assert abs(alloc.powers.sum() - p_total) <= 1e-12 * (p_total + alloc.water_level)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        top=st.lists(
            st.one_of(st.sampled_from([0.5, 1.0, 3.0, 7.0]), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=20,
        ),
        tail=st.lists(st.floats(1e-12, 1e-6), max_size=4),
        zeros=st.integers(0, 3),
        p_total=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3)),
        gain=st.one_of(st.sampled_from([1.0, 4.0]), st.floats(1e-3, 1e3)),
    )
    def test_matches_search_oracle_bitwise(self, top, tail, zeros, p_total, gain):
        # ties, a tail of tiny eigenvalues that gets cut off, and exact zeros;
        # 9+ active streams take numpy's pairwise sum, unlike the running sum
        lam = np.array(sorted(top, reverse=True) + sorted(tail, reverse=True) + [0.0] * zeros)
        alloc = water_filling(lam, p_total, gain)
        powers, level = water_filling_by_search(lam, p_total, gain)
        assert np.array_equal(alloc.powers, powers)
        assert alloc.water_level == level


    @settings(max_examples=200, deadline=None, database=None)
    @given(
        top=st.lists(
            st.one_of(st.sampled_from([0.5, 1.0, 3.0, 7.0]), st.floats(1e-3, 1e3)),
            min_size=1,
            max_size=20,
        ),
        tail=st.lists(st.floats(1e-12, 1e-6), max_size=4),
        zeros=st.integers(0, 3),
        p_total=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 1e3)),
        gains=st.lists(
            st.one_of(st.sampled_from([1.0, 4.0]), st.floats(1e-6, 1e6)), min_size=1, max_size=8
        ),
        shape=st.sampled_from(["flat", "column"]),
    )
    def test_gain_array_rows_equal_scalar_calls(self, top, tail, zeros, p_total, gains, shape):
        # one call over an SNR grid: each row is the scalar call's bits and the
        # search oracle's, whichever active count its neighbours have
        lam = np.array(sorted(top, reverse=True) + sorted(tail, reverse=True) + [0.0] * zeros)
        grid = np.array(gains) if shape == "flat" else np.array(gains)[:, None]
        alloc = water_filling(lam, p_total, grid)
        assert alloc.powers.shape == (*grid.shape, lam.size)
        assert alloc.water_level.shape == grid.shape
        for idx in np.ndindex(grid.shape):
            one = water_filling(lam, p_total, float(grid[idx]))
            assert np.array_equal(alloc.powers[idx], one.powers)
            assert alloc.water_level[idx] == one.water_level
            powers, level = water_filling_by_search(lam, p_total, float(grid[idx]))
            assert np.array_equal(alloc.powers[idx], powers)
            assert alloc.water_level[idx] == level

    def test_scalar_gain_keeps_a_float_level(self):
        alloc = water_filling(np.array([4.0, 1.0]), 2.0, 1.0)
        assert alloc.powers.shape == (2,) and type(alloc.water_level) is float

    @pytest.mark.parametrize("bad, match", [
        (math.nan, "finite"), (math.inf, "finite"), (0.0, "positive"), (-1.0, "positive"),
    ])
    def test_each_gain_of_an_array_is_checked(self, bad, match):
        with pytest.raises(ValueError, match=match):
            water_filling([1.0, 0.5], 1.0, np.array([1.0, bad, 2.0]))

    def test_an_underflowing_gain_in_an_array_rejected(self):
        with pytest.raises(ValueError, match="underflows"), np.errstate(divide="ignore"):
            water_filling([1e-200, 1e-201], 1.0, np.array([1.0, 1e-200]))


class TestRate:
    def test_scalar_identity_channel(self):
        one = np.eye(1, dtype=complex)
        assert abs(rate(one, one, one, 1.0, 1) - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        ns_pick=st.integers(1, 8),
        log_cond=st.floats(0.0, 3.0),
        log_snr=st.floats(-3.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unitary_combiner_mixing_invariance(self, n, m, ns_pick, log_cond, log_snr, seed):
        rng = np.random.default_rng(seed)
        ns = 1 + (ns_pick - 1) % min(n, m)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h, f = cn(n, m), cn(m, ns)
        w = np.linalg.qr(cn(n, ns))[0]
        u = np.linalg.qr(cn(ns, ns))[0]
        # M = P S R* with singular values spread over cond(M) = 10**log_cond
        spread = np.logspace(0.0, -log_cond, ns)[rng.permutation(ns)]
        mix = (np.linalg.qr(cn(ns, ns))[0] * spread) @ np.linalg.qr(cn(ns, ns))[0].conj().T
        assert validation.check_combiner_scale_invariance(
            h=h, precoder=f, combiner=w, unitary=u, mix=mix, snr=10.0**log_snr
        ).passed

    def test_rank_one_combiner_scored_on_its_range(self):
        # two equal columns: W spans e0 only, so P_W H F keeps the first row of F
        h = np.eye(4, dtype=complex)
        f = np.eye(4, dtype=complex)[:, :2]
        w = np.zeros((4, 2), dtype=complex)
        w[:, 0] = [1, 0, 0, 0]
        w[:, 1] = [1, 0, 0, 0]
        assert abs(rate(h, f, w, 1.0, 2) - math.log2(1.5)) <= 1e-15

    def test_zero_combiner_rejected(self):
        h = np.eye(4, dtype=complex)
        with pytest.raises(SingularCombinerError):
            rate(h, h[:, :2], np.zeros((4, 2), dtype=complex), 1.0, 2)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        n=st.integers(2, 8),
        m=st.integers(2, 8),
        ns_pick=st.integers(2, 8),
        rank_pick=st.integers(1, 7),
        log_cond=st.floats(0.0, 6.0),
        log_snr=st.floats(-3.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rank_deficient_combiner_matches_projector_formula(
        self, n, m, ns_pick, rank_pick, log_cond, log_snr, seed
    ):
        # W = Q S R^H has rank r < ns: Q (n x r) orthonormal, S graded up to a
        # Gram condition of 1e6 on its range, R (ns x r) orthonormal columns
        rng = np.random.default_rng(seed)
        ns = 2 + (ns_pick - 2) % (min(n, m) - 1)
        r = 1 + (rank_pick - 1) % (ns - 1)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h, f = cn(n, m), cn(m, ns)
        q = np.linalg.qr(cn(n, r))[0]
        mix = np.linalg.qr(cn(ns, r))[0]
        scale = np.sqrt(np.logspace(0.0, -log_cond, r))[rng.permutation(r)]
        w = (q * scale) @ mix.conj().T
        snr = 10.0**log_snr
        # P_W = Q Q*, and det(I + a F*H* Q Q* H F) = det(I + a Q* H F F* H* Q)
        qhf = q.conj().T @ h @ f
        want = float(np.linalg.slogdet(np.eye(r) + snr / ns * (qhf @ qhf.conj().T))[1]) / math.log(2.0)
        cond = 10.0**log_cond if r > 1 else 1.0
        assert abs(rate(h, f, w, snr, ns) - want) <= (1e-12 + 1e-14 * cond) * want

    def test_zero_snr_gives_zero_rate(self):
        h = np.eye(3, dtype=complex)
        f = w = np.eye(3, dtype=complex)
        assert rate(h, f, w, 0.0, 3) == 0.0

    def test_wrong_column_count_rejected(self):
        h = np.eye(3, dtype=complex)
        with pytest.raises(DimensionMismatchError):
            rate(h, h[:, :2], h, 1.0, 3)

    def test_top_singular_vectors_give_eigsum_rate(self):
        config = validation.desk_config(
            tx=ArrayConfig(n_v=6, n_h=4), rx=ArrayConfig(n_v=4, n_h=6), ns=4, ns_split=(2, 2)
        )
        case = scenario.Scenario(config, 25.0)
        assert validation.check_rate_eigsum_identity(scenario=case, snrs=(0.5, 1.0, 4.0)).passed


    @pytest.mark.parametrize("snr", [math.nan, math.inf, -1.0])
    def test_bad_snr_rejected(self, snr):
        h = np.eye(3, dtype=complex)
        for snrs in (snr, [1.0, snr]):
            with pytest.raises(ValueError, match="snr"):
                rate(h, h, h, snrs, 3)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        tx=st.tuples(st.integers(2, 6), st.integers(2, 6)),
        rx=st.tuples(st.integers(2, 6), st.integers(2, 6)),
        rotation=st.floats(0.0, 60.0),
        distance=st.floats(10.0, 100.0),
        rf=st.tuples(st.integers(0, 32), st.integers(0, 32)),
        snr_db=st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=4),
    )
    def test_scheme_curves_match_solve_oracle(self, tx, rx, rotation, distance, rf, snr_db):
        # every scheme's curve against the determinant on its beams, one SNR at a time;
        # digital-wf's beams are the water-filled powers assembled into the SVD precoder
        split = tuple(4 if min(t, r) >= 4 else 2 for t, r in zip(tx, rx))
        ns = split[0] * split[1]
        n_rf = [ns + pick % (n_v * n_h - ns + 1) for pick, (n_v, n_h) in zip(rf, (tx, rx))]
        config = validation.desk_config(
            distance_m=distance, tx=ArrayConfig(*tx), rx=ArrayConfig(*rx), ns=ns,
            ns_split=split, n_rf_tx=n_rf[0], n_rf_rx=n_rf[1],
        )
        case = scenario.Scenario(config, rotation)
        snrs = np.array([0.0, *(10 ** (np.array(snr_db) / 10))])
        dig = case.digital
        for scheme in scenario.SCHEMES:
            curve = case.rate(scheme, snrs)
            assert curve.shape == snrs.shape and curve[0] == 0.0
            for snr, got in zip(snrs[1:], curve[1:]):
                if scheme == "digital-uniform":
                    f, w = dig.precoder, dig.combiner
                elif scheme == "digital-wf":
                    powers = water_filling(dig.singular_values**2, 1.0, snr).powers
                    f, w = math.sqrt(ns) * (dig.precoder * np.sqrt(powers)), dig.combiner
                else:
                    f, w = case.beams(scheme)
                cond = np.linalg.cond(w.conj().T @ w)
                want = rate_by_solve(h=case.h, f=f, w=w, snr=snr, ns=ns)
                assert abs(got - want) <= (1e-12 + 1e-14 * cond) * want

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        n=st.integers(1, 8),
        m=st.integers(1, 8),
        ns_pick=st.integers(1, 8),
        log_cond=st.floats(0.0, 10.0),
        mixed=st.booleans(),
        log_snr=st.floats(-3.0, 4.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_solve_oracle(self, n, m, ns_pick, log_cond, mixed, log_snr, seed):
        # combiner W = Q S M^H with a combiner-Gram condition number up to 1e10;
        # M mixes the columns, or leaves them graded when it is the identity
        rng = np.random.default_rng(seed)
        ns = 1 + (ns_pick - 1) % min(n, m)

        def cn(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        h, f = cn(n, m), cn(m, ns)
        q = np.linalg.qr(cn(n, ns))[0]
        mix = np.linalg.qr(cn(ns, ns))[0] if mixed else np.eye(ns)
        scale = np.sqrt(np.logspace(0.0, -log_cond, ns))[rng.permutation(ns)]
        w = (q * scale) @ mix.conj().T
        cond = 10.0**log_cond if ns > 1 else 1.0
        snr = 10.0**log_snr
        got, want = rate(h, f, w, snr, ns), rate_by_solve(h, f, w, snr, ns)
        # both lose about cond * eps once the Gram is ill-conditioned
        assert abs(got - want) <= (1e-12 + 1e-14 * cond) * want
        # the rate depends only on the span of W, so the orthonormal Q is exact
        exact = rate(h, f, q, snr, ns)
        assert abs(got - exact) <= (1e-12 + 1e-14 * cond) * exact
        if cond <= 1e3:
            assert abs(got - want) <= 1e-12 * want

    def test_two_eigensolves_and_no_solve_per_curve(self, monkeypatch):
        calls = {"eig": 0, "solve": 0}
        eig, solve = linalg.eig_hermitian, np.linalg.solve

        def counting_eig(a):
            calls["eig"] += 1
            return eig(a)

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(linalg, "eig_hermitian", counting_eig)
        monkeypatch.setattr(spectral, "eig_hermitian", counting_eig)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        rng = np.random.default_rng(34)
        h = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        # the combiner Gram, then C C*: neither depends on the SNR
        for snr in (2.0, np.linspace(0.0, 4.0, 7), np.full((3, 31), 2.0)):
            calls.update(eig=0, solve=0)
            assert np.shape(rate(h, h[:5, :3], h[:, :3], snr, 3)) == np.shape(snr)
            assert calls == {"eig": 2, "solve": 0}


class TestRateUpperBound:
    def test_desk_scale_value(self):
        assert abs(rate_upper_bound(256, 256, 16, 1.0) - 128.08999278710206) <= 1e-9

    def test_single_stream(self):
        assert abs(rate_upper_bound(4, 2, 1, 0.5) - math.log2(1 + 0.5 * 8)) <= 1e-12

    def test_zero_snr(self):
        assert rate_upper_bound(16, 16, 4, 0.0) == 0.0


class TestDftDiagQuality:
    def test_scalar(self):
        assert dft_diag_quality(np.array([[2.0 + 0j]]), 1, 1) == 0.0

    def test_circulant_exactly_diagonalized(self):
        first_row = np.array([4.0, 1.0 + 0.5j, 0.3, 1.0 - 0.5j])
        c = np.empty((4, 4), dtype=complex)
        for i in range(4):
            c[i] = np.roll(first_row, i)
        assert np.abs(c - c.conj().T).max() <= 1e-12
        assert dft_diag_quality(c, 1, 4) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dft_diag_quality(np.eye(6, dtype=complex), 2, 2)

    def test_quality_decreases_with_array_size(self):
        # half-filled arrays: fixed generating function, growing block size
        lam, dist = LAMBDA_28GHZ, 50.0
        qualities = []
        for side in (4, 8, 16):
            d = optimal_spacing(side, side, side // 2, lam, dist)
            spec = ArraySpec(n_v=side, n_h=side, d_v=d, d_h=d)
            tx, rx = layout_pair(spec, spec, dist)
            cs = fresnel_factors(tx, rx, ChannelParams(wavelength=lam, distance=dist))
            qualities.append(dft_diag_quality(gram(cs.h_tilde, Side.TX), side, side))
        assert qualities[0] > qualities[1] > qualities[2]
