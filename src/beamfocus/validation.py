"""Cross-module invariant checks: the one implementation of each invariant.

Each check owns its formula and its bound and returns a CheckResult. The
case it judges belongs to the caller and comes in as keyword arguments; the
defaults are the cases the ``validate`` CLI command runs. The acceptance
suite and the unit tests call the same checks with their own cases.

A link is a ``(spec_t, spec_r, params)`` tuple: two array specs facing each
other across ``params.distance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import beamforming, channel, geometry, spectral
from .linalg import ConvergenceError, dft_matrix, eig_hermitian, subspace_svd, svd
from .scenario import SPEED_OF_LIGHT, ArrayConfig, Scenario, ScenarioConfig

LAMBDA_28GHZ = SPEED_OF_LIGHT / 28e9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def square_link(side=8, ns_axis=2, wavelength=LAMBDA_28GHZ, distance=50.0, theta=0.0, phi=0.0):
    """Two equal side x side arrays at the spacing that carries ns_axis streams per axis."""
    d = geometry.optimal_spacing(side, side, ns_axis, wavelength, distance)
    spec = geometry.ArraySpec(n_v=side, n_h=side, d_v=d, d_h=d, theta=theta, phi=phi)
    return spec, spec, channel.ChannelParams(wavelength=wavelength, distance=distance)


def _realized(link):
    """A link's (tx layout, rx layout, params): the arguments of the channel functions."""
    spec_t, spec_r, params = link
    return (*channel.layout_pair(spec_t, spec_r, params.distance), params)


def desk_config(**overrides) -> ScenarioConfig:
    """The paper's desk scenario: 16x16 arrays 50 m apart at 28 GHz, 16 streams and RF chains."""
    base = dict(
        frequency_ghz=28.0,
        distance_m=50.0,
        tx=ArrayConfig(n_v=16, n_h=16),
        rx=ArrayConfig(n_v=16, n_h=16),
        ns=16,
        ns_split=(4, 4),
        n_rf_tx=16,
        n_rf_rx=16,
        snr_db=(-10.0, 0.0, 10.0),
        schemes=("digital-uniform", "digital-wf", "asymptotic-hybrid", "omp-hybrid", "phase-extract"),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def _random_links(seed, cases):
    rng = np.random.default_rng(seed)
    links = []
    for _ in range(cases):
        lam = float(rng.uniform(0.005, 0.02))
        dist = float(rng.uniform(10.0, 100.0))
        spec_t, spec_r = (
            geometry.ArraySpec(
                n_v=int(rng.integers(1, 5)), n_h=int(rng.integers(1, 5)),
                d_v=float(rng.uniform(0.01, 0.5)), d_h=float(rng.uniform(0.01, 0.5)),
                theta=float(rng.uniform(-0.6, 0.6)), phi=float(rng.uniform(-0.6, 0.6)),
            )
            for _ in range(2)
        )
        links.append((spec_t, spec_r, channel.ChannelParams(wavelength=lam, distance=dist)))
    return links


def _worst(deviations) -> float:
    """The largest deviation; a NaN anywhere comes through, so it fails every bound."""
    return float(np.max(deviations, initial=0.0))


def _unitarity_gap(a):
    return np.abs(a.conj().T @ a - np.eye(a.shape[1])).max()


def check_channel_normalization(seed=0, cases=20, links=None) -> CheckResult:
    """Every exact channel is unit-modulus with squared Frobenius norm N*M.

    ``links`` defaults to ``cases`` random links drawn from ``seed``.
    """
    deviations = []
    for link in links if links is not None else _random_links(seed, cases):
        h = channel.exact_channel(*_realized(link))
        deviations += [abs(np.linalg.norm(h) ** 2 - h.size) / h.size, np.abs(np.abs(h) - 1.0).max()]
    worst = _worst(deviations)
    return _result("channel-normalization", worst <= 1e-12, f"worst deviation {worst:.3e}")


def check_fresnel_recomposition(link=None) -> CheckResult:
    """conj(D_r) H~ D_t reproduces the quadratic-phase channel entrywise."""
    args = _realized(link or square_link())
    reference = channel.taylor_channel(*args)
    gap = float(np.abs(channel.fresnel_factors(*args).recompose() - reference).max())
    return _result("fresnel-recomposition", gap <= 1e-10, f"max entry gap {gap:.3e}")


def check_fresnel_gap_monotone(link=None) -> CheckResult:
    """Exact-vs-factored spectrum gap shrinks as the link's arrays move apart from 25 to 100 m."""
    spec_t, spec_r, params = link or square_link()
    gaps = []
    for dist in (25.0, 50.0, 100.0):
        args = _realized((spec_t, spec_r, channel.ChannelParams(params.wavelength, dist)))
        h = channel.exact_channel(*args)
        h_tilde = channel.fresnel_factors(*args).h_tilde
        w_exact = eig_hermitian(channel.gram(h, geometry.Side.TX)).values
        w_tilde = eig_hermitian(channel.gram(h_tilde, geometry.Side.TX)).values
        gaps.append(float(np.abs(w_exact - w_tilde).max()) / h.size)
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    return _result("fresnel-gap-monotone", ok, f"gaps over distance {[f'{g:.3e}' for g in gaps]}")


def _core_and_axis_factors(link):
    """The Fresnel core of a parallelogram pair, tilted by default, and its per-axis factors."""
    link = link or square_link(side=4, theta=0.35, phi=-0.2)
    return channel.fresnel_factors(*_realized(link)).h_tilde, *channel.kron_factor_channel(*link)


def check_kron_factorization(link=None) -> CheckResult:
    """A parallelogram pair's core equals the Kronecker product of its axis factors."""
    h_tilde, h_linv, h_linh = _core_and_axis_factors(link)
    gap = float(np.abs(np.kron(h_linv, h_linh) - h_tilde).max())
    return _result("kron-factorization", gap <= 1e-12, f"max entry gap {gap:.3e}")


def check_gram_kron_identity(link=None) -> CheckResult:
    """Gain matrix of a parallelogram pair factors as the Kronecker of axis Grams."""
    h_tilde, h_linv, h_linh = _core_and_axis_factors(link)
    g_kron = np.kron(channel.gram(h_linv, geometry.Side.TX), channel.gram(h_linh, geometry.Side.TX))
    gap = float(np.abs(channel.gram(h_tilde, geometry.Side.TX) - g_kron).max())
    return _result("gram-kron-identity", gap <= 1e-9, f"max entry gap {gap:.3e}")


def check_doubly_block_toeplitz(link=None) -> CheckResult:
    """Gain matrix entries depend only on the vertical/horizontal index lags."""
    link = link or square_link(side=4)
    g = channel.gram(channel.fresnel_factors(*_realized(link)).h_tilde, geometry.Side.TX)
    n_h = link[0].n_h
    lags, scatter = {}, []
    for i in range(g.shape[0]):
        for k in range(g.shape[1]):
            first = lags.setdefault((i // n_h - k // n_h, i % n_h - k % n_h), g[i, k])
            scatter.append(abs(g[i, k] - first))
    worst = _worst(scatter)
    return _result("doubly-block-toeplitz", worst <= 1e-10, f"max lag scatter {worst:.3e}")


def check_prolate_scaling(link=None) -> CheckResult:
    """Axis Gram of a square link equals a unit-modulus phase times the scaled sine-ratio matrix."""
    spec_t, spec_r, params = link or square_link()
    h_linv, _ = channel.kron_factor_channel(spec_t, spec_r, params)
    g = channel.gram(h_linv, geometry.Side.TX)
    n = spec_t.n_v
    delta = geometry.spacing_ratio(
        spec_t.d_v, spec_r.d_v, spec_r.n_v, n, params.wavelength, params.distance
    )
    alpha = n / delta
    b = channel.prolate_matrix(alpha, n - 1, n)
    lag = np.arange(n)[:, None] - np.arange(n)[None, :]
    phase = np.exp(-1j * np.pi * delta * lag * (n - 1) / n)
    gap = float(np.abs(g - phase * (n / delta) * b).max())
    trace_gap = abs(np.trace(b) - n * n / alpha)
    ok = gap <= 1e-10 and trace_gap <= 1e-10
    return _result("prolate-scaling", ok, f"entry gap {gap:.3e}, trace gap {trace_gap:.3e}")


def check_dft_unitarity(sizes=(1, 2, 3, 4, 16, 256)) -> CheckResult:
    worst = _worst([_unitarity_gap(dft_matrix(k)) for k in sizes])
    return _result("dft-unitarity", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_dictionary_unitarity(link=None) -> CheckResult:
    tx, rx, params = _realized(link or square_link())
    worst = _worst([
        _unitarity_gap(beamforming.dictionary_tx(tx, params).dense()),
        _unitarity_gap(beamforming.dictionary_rx(rx, params).dense()),
    ])
    return _result("dictionary-unitarity", worst <= 1e-10, f"max deviation {worst:.3e}")


def _random_spectra(seed, cases):
    rng = np.random.default_rng(seed)
    spectra = []
    for _ in range(cases):
        n = int(rng.integers(1, 12))
        lam = np.sort(rng.uniform(0.0, 10.0, n))[::-1]
        if lam.max() <= 0:
            lam[0] = 1.0
        spectra.append((lam, float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.05, 20.0))))
    return spectra


def check_water_filling_kkt(seed=0, cases=50, spectra=None) -> CheckResult:
    """Water-filling meets its KKT conditions and spends exactly the power budget.

    ``spectra`` holds ``(eigenvalues, p_total, gain_over_noise)`` triples and
    defaults to ``cases`` random ones drawn from ``seed``.
    """
    deviations = []
    for lam, p_total, g in spectra if spectra is not None else _random_spectra(seed, cases):
        alloc = spectral.water_filling(lam, p_total, g)
        deviations.append(abs(alloc.powers.sum() - p_total))
        for lam_i, p_i in zip(lam, alloc.powers):
            floor = 1.0 / (g * lam_i) if lam_i > 0 else math.inf
            if p_i > 0:
                deviations.append(abs(alloc.water_level - floor - p_i))
            elif p_i == 0:
                deviations.append(alloc.water_level - floor)
            else:
                deviations.append(math.inf)  # a negative or NaN power gets no tolerance
    worst = _worst(deviations)
    return _result("water-filling-kkt", worst <= 1e-9, f"worst KKT violation {worst:.3e}")


def check_rate_eigsum_identity(scenario=None, snrs=(0.1, 1.0, 10.0)) -> CheckResult:
    """Scenario.rate's digital rates, read off sigma, equal spectral.rate on the SVD beams.

    The precoder carries unit stream powers, or at each SNR the water-filled
    ones scaled to trace ns. Default: the desk scenario at 0 deg.
    """
    scenario = Scenario(desk_config(), 0.0) if scenario is None else scenario
    h, dig, ns = scenario.h, scenario.digital, scenario.config.ns
    curves = {s: scenario.rate(s, np.asarray(snrs)) for s in ("digital-uniform", "digital-wf")}
    gaps = []
    for i, snr in enumerate(snrs):
        powers = spectral.water_filling(dig.singular_values**2, 1.0, snr).powers
        filled = math.sqrt(ns) * (dig.precoder * np.sqrt(powers))
        for scheme, precoder in (("digital-uniform", dig.precoder), ("digital-wf", filled)):
            gaps.append(abs(curves[scheme][i] - spectral.rate(h, precoder, dig.combiner, snr, ns)))
    worst = _worst(gaps)
    return _result("rate-eigsum-identity", worst <= 1e-9, f"worst gap {worst:.3e}")


def check_combiner_scale_invariance(
    h=None, precoder=None, combiner=None, unitary=None, mix=None, snr=1.0
) -> CheckResult:
    """rate(h, F U, W M) equals rate(h, F, W) for unitary U and invertible M.

    The rate depends on F F* and on the span of W only. Whitening W M loses
    about cond(M* M) * eps, so the bound is relative and grows with it.
    Defaults: the digital beams of the 4x4 link and a seeded M = X + 3 I.
    """
    h = channel.exact_channel(*_realized(square_link(side=4))) if h is None else h
    if precoder is None:
        dig = beamforming.digital_svd(h, 4)
        precoder, combiner = dig.precoder, dig.combiner
    ns = precoder.shape[1]
    if mix is None:
        rng = np.random.default_rng(7)
        mix = rng.standard_normal((ns, ns)) + 1j * rng.standard_normal((ns, ns)) + 3.0 * np.eye(ns)
    rotated = precoder if unitary is None else precoder @ unitary
    base = spectral.rate(h, precoder, combiner, snr, ns)
    gap = abs(base - spectral.rate(h, rotated, combiner @ mix, snr, ns))
    bound = (1e-12 + 1e-14 * np.linalg.cond(mix) ** 2) * base
    return _result("combiner-scale-invariance", gap <= bound, f"rate gap {gap:.3e}")


def check_hybrid_dominance(scenario=None, snrs=(1.0,)) -> CheckResult:
    """Hybrids never beat the digital benchmark; OMP beats phase extraction.

    The greedy-vs-phase ordering is a property of the stream-rich desk
    scenario (16x16 grids, 16 streams); small arrays with few streams favor
    phase copying and are out of scope for this check.
    """
    scenario = Scenario(desk_config(), 0.0) if scenario is None else scenario
    hybrids = ("asymptotic-hybrid", "omp-hybrid", "phase-extract")
    ok, details = True, []
    for snr in snrs:
        digital = scenario.rate("digital-uniform", snr)
        rates = {s: scenario.rate(s, snr) for s in hybrids}
        ok = ok and all(r <= digital + 1e-9 for r in rates.values())
        ok = ok and rates["omp-hybrid"] >= rates["phase-extract"] - 1e-9
        rows = [f"{k}={v:.4f}" for k, v in rates.items()] + [f"digital={digital:.4f}"]
        details.append(", ".join(rows))
    return _result("hybrid-dominance", ok, "; ".join(details))


def check_eigen_reconstruction(seed=0) -> CheckResult:
    """A random Hermitian matrix's eigenpairs rebuild it and are orthonormal."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    h = 0.5 * (x + x.conj().T)
    spec = eig_hermitian(h)
    recon = spec.vectors @ np.diag(spec.values) @ spec.vectors.conj().T
    rel = float(np.linalg.norm(recon - h) / np.linalg.norm(h))
    orth = float(_unitarity_gap(spec.vectors))
    ok = rel <= 1e-8 and orth <= 1e-9
    return _result("eigen-reconstruction", ok, f"residual {rel:.3e}, orthogonality {orth:.3e}")


def check_subspace_svd(scenario=None) -> CheckResult:
    """The Fresnel-started subspace SVD agrees with LAPACK's dense SVD on the top ns triplets.

    The singular values agree within 1e-13 * sigma_0, the residuals
    ``||h v_i - s_i u_i||`` and ``||h^H u_i - s_i v_i||`` of the subspace
    triplets are within 1e-12 * sigma_0, and the subspace's ns right vectors
    leave the dense ones' span by at most 1e-12 * sigma_0 over the gap below
    sigma_ns in Frobenius norm (Wedin's bound, with room for rounding).
    Default: the desk scenario at 0 deg. A scenario that keeps the dense path
    fails, since it checks nothing.
    """
    scenario = Scenario(desk_config(), 0.0) if scenario is None else scenario
    h, ns = scenario.h, scenario.config.ns
    start = beamforming.fresnel_start(
        scenario.tx_spec, scenario.rx_spec, lambda: scenario.tx_dictionary, scenario.params, ns
    )
    if start is None:
        return _result("subspace-svd", False, "the scenario keeps the dense SVD")
    try:
        sub = subspace_svd(h, ns, start)
    except ConvergenceError as exc:
        return _result("subspace-svd", False, str(exc))
    dense = svd(h, ns)
    s_d, v_d = dense.singular_values, dense.right[:, :ns]
    u, s, v = sub.left[:, :ns], sub.singular_values[:ns], sub.right[:, :ns]
    value_gap = _worst(np.abs(s - s_d[:ns])) / s_d[0]
    resid = _worst(np.concatenate([
        np.linalg.norm(h @ v - u * s, axis=0), np.linalg.norm(h.conj().T @ u - v * s, axis=0),
    ])) / s_d[0]
    span = float(np.linalg.norm(v - v_d @ (v_d.conj().T @ v)))
    span_bound = 1e-12 * s_d[0] / (s_d[ns - 1] - s_d[ns])
    ok = value_gap <= 1e-13 and resid <= 1e-12 and span <= span_bound
    return _result(
        "subspace-svd", ok,
        f"k={start.shape[1]}: value gap {value_gap:.3e}, residual {resid:.3e}, "
        f"span gap {span:.3e} (bound {span_bound:.1e})",
    )


def run_all(seed: int = 0) -> list[CheckResult]:
    """Every check on its default case; ``seed`` drives the random ones."""
    return [
        check_channel_normalization(seed=seed),
        check_fresnel_recomposition(),
        check_fresnel_gap_monotone(),
        check_kron_factorization(),
        check_gram_kron_identity(),
        check_doubly_block_toeplitz(),
        check_prolate_scaling(),
        check_dft_unitarity(),
        check_dictionary_unitarity(),
        check_water_filling_kkt(seed=seed),
        check_rate_eigsum_identity(),
        check_combiner_scale_invariance(),
        check_hybrid_dominance(),
        check_eigen_reconstruction(seed=seed),
        check_subspace_svd(),
    ]
