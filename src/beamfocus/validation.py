"""Cross-module invariant checks behind the ``validate`` CLI command.

Each check is a standalone function returning a CheckResult so tests can
drive them with corrupted inputs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import beamforming, channel, geometry, spectral
from .linalg import dft_matrix, eig_hermitian, kron


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _small_specs(side=8, ns_axis=2, lam=None, dist=50.0, theta=0.0, phi=0.0):
    lam = lam if lam is not None else 299_792_458.0 / 28e9
    sol = geometry.optimal_spacing(side, side, ns_axis, lam, dist)
    spec = geometry.ArraySpec(n_v=side, n_h=side, d_v=sol.d_t, d_h=sol.d_t, theta=theta, phi=phi)
    params = channel.ChannelParams(wavelength=lam, distance=dist)
    return spec, spec, params, sol


def check_channel_normalization(seed=0, cases=20) -> CheckResult:
    """Every exact channel is unit-modulus with squared Frobenius norm N*M."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        lam = float(rng.uniform(0.005, 0.02))
        dist = float(rng.uniform(10.0, 100.0))
        spec_t = geometry.ArraySpec(
            n_v=int(rng.integers(1, 5)), n_h=int(rng.integers(1, 5)),
            d_v=float(rng.uniform(0.01, 0.5)), d_h=float(rng.uniform(0.01, 0.5)),
            theta=float(rng.uniform(-0.6, 0.6)), phi=float(rng.uniform(-0.6, 0.6)),
        )
        spec_r = geometry.ArraySpec(
            n_v=int(rng.integers(1, 5)), n_h=int(rng.integers(1, 5)),
            d_v=float(rng.uniform(0.01, 0.5)), d_h=float(rng.uniform(0.01, 0.5)),
            theta=float(rng.uniform(-0.6, 0.6)), phi=float(rng.uniform(-0.6, 0.6)),
        )
        tx, rx = channel.layout_pair(spec_t, spec_r, dist)
        h = channel.exact_channel(tx, rx, channel.ChannelParams(wavelength=lam, distance=dist))
        nm = h.size
        worst = max(worst, abs(np.linalg.norm(h) ** 2 - nm) / nm)
        worst = max(worst, float(np.abs(np.abs(h) - 1.0).max()))
    return _result("channel-normalization", worst <= 1e-9, f"worst deviation {worst:.3e}")


def check_fresnel_recomposition(factors=None) -> CheckResult:
    """conj(D_r) H~ D_t reproduces the quadratic-phase channel entrywise.

    ``factors`` may be injected (e.g. deliberately corrupted) and is
    compared against the reference geometry's expansion.
    """
    spec_t, spec_r, params, _ = _small_specs()
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    if factors is None:
        factors = channel.fresnel_factors(tx, rx, params)
    reference = channel.taylor_channel(tx, rx, params)
    gap = float(np.abs(factors.recompose() - reference).max())
    return _result("fresnel-recomposition", gap <= 1e-10, f"max entry gap {gap:.3e}")


def check_fresnel_gap_monotone() -> CheckResult:
    """Exact-vs-factored spectrum gap shrinks as the link distance grows."""
    lam = 299_792_458.0 / 28e9
    sol = geometry.optimal_spacing(8, 8, 2, lam, 50.0)
    gaps = []
    for dist in (25.0, 50.0, 100.0):
        spec = geometry.ArraySpec(n_v=8, n_h=8, d_v=sol.d_t, d_h=sol.d_t)
        params = channel.ChannelParams(wavelength=lam, distance=dist)
        tx, rx = channel.layout_pair(spec, spec, dist)
        h = channel.exact_channel(tx, rx, params)
        h_tilde = channel.fresnel_factors(tx, rx, params).h_tilde
        w_exact = eig_hermitian(channel.gram(h, geometry.Side.TX)).values
        w_tilde = eig_hermitian(channel.gram(h_tilde, geometry.Side.TX)).values
        gaps.append(float(np.abs(w_exact - w_tilde).max()) / h.size)
    ok = gaps[0] > gaps[1] > gaps[2]
    return _result("fresnel-gap-monotone", ok, f"gaps over distance {[f'{g:.3e}' for g in gaps]}")


def check_kron_factorization() -> CheckResult:
    """A tilted parallelogram pair's core equals the Kronecker product of its axis factors."""
    spec_t, spec_r, params, _ = _small_specs(side=4, theta=0.35, phi=-0.2)
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    cs = channel.fresnel_factors(tx, rx, params)
    h_linv, h_linh = channel.kron_factor_channel(spec_t, spec_r, params)
    gap = float(np.abs(kron(h_linv, h_linh) - cs.h_tilde).max())
    return _result("kron-factorization", gap <= 1e-12, f"max entry gap {gap:.3e}")


def check_gram_kron() -> CheckResult:
    """Gain matrix of a tilted parallelogram pair factors as the Kronecker of axis Grams."""
    spec_t, spec_r, params, _ = _small_specs(side=4, theta=0.35, phi=-0.2)
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    cs = channel.fresnel_factors(tx, rx, params)
    h_linv, h_linh = channel.kron_factor_channel(spec_t, spec_r, params)
    g_full = channel.gram(cs.h_tilde, geometry.Side.TX)
    g_kron = kron(
        channel.gram(h_linv, geometry.Side.TX), channel.gram(h_linh, geometry.Side.TX)
    )
    gap = float(np.abs(g_full - g_kron).max())
    return _result("gram-kron-identity", gap <= 1e-9, f"max entry gap {gap:.3e}")


def check_doubly_block_toeplitz() -> CheckResult:
    """Gain matrix entries depend only on the vertical/horizontal index lags."""
    spec_t, spec_r, params, _ = _small_specs(side=4)
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    g = channel.gram(channel.fresnel_factors(tx, rx, params).h_tilde, geometry.Side.TX)
    n_h = spec_t.n_h
    lags = {}
    worst = 0.0
    for i in range(g.shape[0]):
        for k in range(g.shape[1]):
            lag = (i // n_h - k // n_h, i % n_h - k % n_h)
            if lag in lags:
                worst = max(worst, abs(g[i, k] - lags[lag]))
            else:
                lags[lag] = g[i, k]
    return _result("doubly-block-toeplitz", worst <= 1e-9, f"max lag scatter {worst:.3e}")


def check_prolate_scaling() -> CheckResult:
    """Axis Gram equals a unit-modulus phase times the scaled sine-ratio matrix."""
    spec_t, spec_r, params, sol = _small_specs(side=8, ns_axis=2)
    h_linv, _ = channel.kron_factor_channel(spec_t, spec_r, params)
    g = channel.gram(h_linv, geometry.Side.TX)
    n = spec_t.n_v
    delta = sol.delta
    alpha = n / delta
    b = channel.prolate_matrix(alpha, n - 1, n)
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    phase = np.exp(-1j * np.pi * delta * lag * (n - 1) / n)
    gap = float(np.abs(g - phase * (n / delta) * b).max())
    trace_gap = abs(np.trace(b) - n * n / alpha)
    ok = gap <= 1e-10 and trace_gap <= 1e-10
    return _result("prolate-scaling", ok, f"entry gap {gap:.3e}, trace gap {trace_gap:.3e}")


def check_dft_unitarity() -> CheckResult:
    worst = 0.0
    for k in (1, 2, 3, 4, 16, 256):
        f = dft_matrix(k)
        worst = max(worst, float(np.abs(f.conj().T @ f - np.eye(k)).max()))
    return _result("dft-unitarity", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_dictionary_unitarity() -> CheckResult:
    spec_t, spec_r, params, _ = _small_specs()
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    v = beamforming.dictionary_tx(tx, params).dense()
    u = beamforming.dictionary_rx(rx, params).dense()
    worst = max(
        float(np.abs(v.conj().T @ v - np.eye(v.shape[1])).max()),
        float(np.abs(u.conj().T @ u - np.eye(u.shape[1])).max()),
    )
    return _result("dictionary-unitarity", worst <= 1e-10, f"max deviation {worst:.3e}")


def check_water_filling_kkt(seed=0, cases=50) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 12))
        lam = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        if lam.max() <= 0:
            lam[0] = 1.0
        p_total = float(rng.uniform(0.1, 10.0))
        g = float(rng.uniform(0.05, 20.0))
        alloc = spectral.water_filling(lam, p_total, g)
        worst = max(worst, abs(alloc.powers.sum() - p_total))
        for lam_i, p_i in zip(lam, alloc.powers):
            floor = 1.0 / (g * lam_i) if lam_i > 0 else math.inf
            if p_i > 0:
                worst = max(worst, abs(alloc.water_level - floor - p_i))
            else:
                worst = max(worst, max(0.0, alloc.water_level - floor))
    return _result("water-filling-kkt", worst <= 1e-9, f"worst KKT violation {worst:.3e}")


def check_rate_eigsum_identity() -> CheckResult:
    """Uniform digital rate equals the eigenvalue sum form of the objective."""
    spec_t, spec_r, params, _ = _small_specs(side=4)
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    h = channel.exact_channel(tx, rx, params)
    ns = 4
    dig = beamforming.digital_svd(h, ns)
    worst = 0.0
    for snr in (0.1, 1.0, 10.0):
        direct = spectral.rate(h, dig.precoder, dig.combiner, snr, ns)
        eigsum = float(np.log2(1.0 + snr * dig.singular_values**2 / ns).sum())
        worst = max(worst, abs(direct - eigsum))
    return _result("rate-eigsum-identity", worst <= 1e-9, f"worst gap {worst:.3e}")


def check_combiner_scale_invariance() -> CheckResult:
    """Whitening makes the rate invariant to invertible combiner recombination."""
    spec_t, spec_r, params, _ = _small_specs(side=4)
    tx, rx = channel.layout_pair(spec_t, spec_r, params.distance)
    h = channel.exact_channel(tx, rx, params)
    ns = 4
    dig = beamforming.digital_svd(h, ns)
    base = spectral.rate(h, dig.precoder, dig.combiner, 1.0, ns)
    rng = np.random.default_rng(7)
    mix = rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns))
    mix += 3.0 * np.eye(ns)
    mixed = spectral.rate(h, dig.precoder, dig.combiner @ mix, 1.0, ns)
    gap = abs(base - mixed)
    return _result("combiner-scale-invariance", gap <= 1e-10, f"rate gap {gap:.3e}")


def check_hybrid_dominance() -> CheckResult:
    """Hybrids never beat the digital benchmark; OMP beats phase extraction.

    The greedy-vs-phase ordering is a property of the stream-rich desk
    scenario (16x16 grids, 16 streams); small arrays with few streams favor
    phase copying and are out of scope for this check.
    """
    from .scenario import ArrayConfig, Scenario, ScenarioConfig

    config = ScenarioConfig(
        frequency_ghz=28.0,
        distance_m=50.0,
        tx=ArrayConfig(n_v=16, n_h=16),
        rx=ArrayConfig(n_v=16, n_h=16),
        ns=16,
        ns_split=(4, 4),
        n_rf_tx=16,
        n_rf_rx=16,
        snr_db=(0.0,),
        schemes=("digital-uniform",),
    )
    scenario = Scenario(config, 0.0)
    digital = scenario.rate("digital-uniform", 1.0)
    rates = {s: scenario.rate(s, 1.0) for s in ("asymptotic-hybrid", "omp-hybrid", "phase-extract")}
    ok = all(r <= digital + 1e-9 for r in rates.values())
    ok = ok and rates["omp-hybrid"] >= rates["phase-extract"] - 1e-9
    detail = ", ".join(f"{k}={v:.4f}" for k, v in rates.items()) + f", digital={digital:.4f}"
    return _result("hybrid-dominance", ok, detail)


def check_eigen_reconstruction(seed=0) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    h = 0.5 * (x + x.conj().T)
    spec = eig_hermitian(h)
    recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.conj().T
    rel = float(np.linalg.norm(recon - h) / np.linalg.norm(h))
    orth = float(np.abs(spec.vectors.conj().T @ spec.vectors - np.eye(24)).max())
    ok = rel <= 1e-8 and orth <= 1e-9
    return _result("eigen-reconstruction", ok, f"residual {rel:.3e}, orthogonality {orth:.3e}")


ALL_CHECKS = (
    check_channel_normalization,
    check_fresnel_recomposition,
    check_fresnel_gap_monotone,
    check_kron_factorization,
    check_gram_kron,
    check_doubly_block_toeplitz,
    check_prolate_scaling,
    check_dft_unitarity,
    check_dictionary_unitarity,
    check_water_filling_kkt,
    check_rate_eigsum_identity,
    check_combiner_scale_invariance,
    check_hybrid_dominance,
    check_eigen_reconstruction,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    results = []
    for fn in ALL_CHECKS:
        if fn in (check_channel_normalization, check_water_filling_kkt, check_eigen_reconstruction):
            results.append(fn(seed=seed))
        else:
            results.append(fn())
    return results
