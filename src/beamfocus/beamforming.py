"""Fully-digital SVD beamformers, DFT-dictionary hybrids, OMP, and the
phase-extraction baseline.

Power convention: digital precoders keep orthonormal columns (trace ns
before water-fill scaling); hybrid transmit products are normalized to
unit trace and scaled back to trace ns by the evaluation layer. Combiners
carry no power constraint since the rate formula whitens them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams
from .geometry import AntennaLayout, Side
from .linalg import SVD_RANK_RTOL, SvdResult, dft_matrix, kron, least_squares, svd
from .spectral import PowerAllocation, water_filling

# digital beamformer entries this far below their column's largest are
# rounding noise (exact zeros by the array symmetry), so they get phase 0
PHASE_FLOOR_RTOL = 1e-9


class DictionaryExhaustedError(ValueError):
    pass


@dataclass(frozen=True)
class DigitalBeamformer:
    """Top singular-vector precoder/combiner pair, optionally water-filled."""

    precoder: np.ndarray
    combiner: np.ndarray
    powers: PowerAllocation | None
    singular_values: np.ndarray
    rank_deficient: bool


@dataclass(frozen=True)
class HybridBeamformer:
    """Constant-modulus analog stage times a low-dimensional baseband stage."""

    analog: np.ndarray
    baseband: np.ndarray
    side: Side
    n_rf: int
    residual_norms: tuple = field(default=(), compare=False)

    def product(self) -> np.ndarray:
        return self.analog @ self.baseband


def digital_svd(h, ns: int, power: tuple | None = None) -> DigitalBeamformer:
    """Precoder/combiner from the top ns singular vectors of the channel.

    ``power=None`` keeps orthonormal columns (uniform split downstream);
    ``power=(p_total, gain_over_noise)`` water-fills over the top singular
    values and scales precoder columns by sqrt(p_i).
    """
    res: SvdResult = svd(h)
    n, m = np.asarray(h).shape
    if ns > min(n, m):
        raise ValueError(f"ns={ns} exceeds min(N, M)={min(n, m)}")
    sigma = res.singular_values
    rank = int((sigma > SVD_RANK_RTOL * sigma[0]).sum()) if sigma[0] > 0 else 0
    precoder = res.right[:, :ns].copy()
    combiner = res.left[:, :ns].copy()
    allocation = None
    if power is not None:
        p_total, gain_over_noise = power
        allocation = water_filling(sigma[:ns] ** 2, p_total, gain_over_noise)
        precoder = precoder * np.sqrt(allocation.powers)[None, :]
    return DigitalBeamformer(
        precoder=precoder,
        combiner=combiner,
        powers=allocation,
        singular_values=sigma[:ns].copy(),
        rank_deficient=rank < ns,
    )


def _twisted_dft(diag_phase: np.ndarray, nv: int, nh: int) -> np.ndarray:
    # conj(diagonal) times the conjugate-transposed 2-D DFT; unitary by construction
    return np.conj(diag_phase)[:, None] * kron(dft_matrix(nv), dft_matrix(nh)).conj().T


def dictionary_tx(layout: AntennaLayout, params: ChannelParams, nv: int, nh: int) -> np.ndarray:
    """Transmit-side unitary dictionary: quadratic-phase twist times 2-D DFT."""
    if layout.count != nv * nh:
        raise ValueError(f"layout has {layout.count} antennas, expected {nv * nh}")
    x, y, z = layout.coords
    d = params.distance
    d_t = np.exp(2j * np.pi / params.wavelength * (z - (x**2 + y**2) / (2.0 * d)))
    return _twisted_dft(d_t, nv, nh)


def dictionary_rx(layout: AntennaLayout, params: ChannelParams, nv: int, nh: int) -> np.ndarray:
    """Receive-side unitary dictionary; the twist includes the link-distance phase."""
    if layout.count != nv * nh:
        raise ValueError(f"layout has {layout.count} antennas, expected {nv * nh}")
    x, y, z_abs = layout.coords
    d = params.distance
    z = z_abs - d
    d_r = np.exp(2j * np.pi / params.wavelength * (d + z + (x**2 + y**2) / (2.0 * d)))
    return _twisted_dft(d_r, nv, nh)


def _ranked_columns(dictionary: np.ndarray, channel: np.ndarray, count: int, tx_side: bool):
    gains = np.linalg.norm(channel @ dictionary if tx_side else channel.conj().T @ dictionary, axis=0)
    return np.argsort(-gains, kind="stable")[:count]


def asymptotic_hybrid(
    tx_dict: np.ndarray,
    rx_dict: np.ndarray,
    h: np.ndarray,
    ns: int,
    selection: str = "gain-ranked",
) -> tuple[HybridBeamformer, HybridBeamformer]:
    """Closed-form hybrid pair: ns dictionary columns with identity baseband.

    ``gain-ranked`` picks the columns with the largest effective channel
    gain; ``first-columns`` takes the leading columns literally.
    """
    if ns > min(tx_dict.shape[1], rx_dict.shape[1]):
        raise ValueError(f"ns={ns} exceeds dictionary column counts")
    if selection == "gain-ranked":
        sel_t = _ranked_columns(tx_dict, h, ns, tx_side=True)
        sel_r = _ranked_columns(rx_dict, h, ns, tx_side=False)
    elif selection == "first-columns":
        sel_t = np.arange(ns)
        sel_r = np.arange(ns)
    else:
        raise ValueError(f"unknown selection rule {selection!r}")
    f_rf = tx_dict[:, sel_t]
    w_rf = rx_dict[:, sel_r]
    f_bb = np.eye(ns, dtype=np.complex128)
    f_bb /= np.linalg.norm(f_rf @ f_bb)
    w_bb = np.eye(ns, dtype=np.complex128)
    tx = HybridBeamformer(analog=f_rf, baseband=f_bb, side=Side.TX, n_rf=ns)
    rx = HybridBeamformer(analog=w_rf, baseband=w_bb, side=Side.RX, n_rf=ns)
    return tx, rx


def omp_hybrid(
    target: np.ndarray,
    dictionary: np.ndarray,
    n_rf: int,
    side: Side = Side.TX,
) -> HybridBeamformer:
    """Greedy sparse reconstruction of a beamformer over a unitary dictionary.

    Runs exactly n_rf iterations: pick the dictionary column with the
    largest residual projection (never re-selecting), refit the baseband by
    least squares, renormalize the residual by its squared Frobenius norm.
    """
    target = np.asarray(target, dtype=np.complex128)
    dictionary = np.asarray(dictionary, dtype=np.complex128)
    if n_rf > dictionary.shape[1]:
        raise DictionaryExhaustedError(
            f"n_rf={n_rf} exceeds dictionary size {dictionary.shape[1]}"
        )
    if n_rf < target.shape[1]:
        raise ValueError(f"n_rf={n_rf} below stream count {target.shape[1]}")
    selected: list[int] = []
    residual = target.copy()
    baseband = None
    norms = []
    for _ in range(n_rf):
        metric = (np.abs(dictionary.conj().T @ residual) ** 2).sum(axis=1)
        if selected:
            metric[selected] = -1.0
        selected.append(int(np.argmax(metric)))
        analog = dictionary[:, selected]
        baseband = least_squares(analog, target)
        raw = target - analog @ baseband
        raw_sq = float(np.linalg.norm(raw)) ** 2
        norms.append(math.sqrt(raw_sq))
        residual = raw / raw_sq if raw_sq > 1e-300 else np.zeros_like(raw)
    analog = dictionary[:, selected]
    if side is Side.TX:
        baseband = baseband / np.linalg.norm(analog @ baseband)
    return HybridBeamformer(
        analog=analog,
        baseband=baseband,
        side=side,
        n_rf=n_rf,
        residual_norms=tuple(norms),
    )


def phase_extraction_hybrid(
    h: np.ndarray,
    digital: DigitalBeamformer,
    n_rf: int,
    n_rf_rx: int | None = None,
) -> tuple[HybridBeamformer, HybridBeamformer]:
    """Baseline: analog stages carry the phases of the digital beamformers.

    ``n_rf`` RF chains transmit and ``n_rf_rx`` (default ``n_rf``) receive.
    Entries below PHASE_FLOOR_RTOL of their column's largest magnitude get
    phase 0. Extra RF chains beyond ns are filled with unused gain-ranked
    columns of the plain 2-D DFT; basebands come from the SVD of the
    effective channel.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, m = h.shape
    ns = digital.precoder.shape[1]
    n_rf_rx = n_rf if n_rf_rx is None else n_rf_rx
    if min(n_rf, n_rf_rx) < ns:
        raise ValueError(f"n_rf={min(n_rf, n_rf_rx)} below stream count {ns}")

    def analog_stage(opt: np.ndarray, dim: int, count: int, tx_side: bool) -> np.ndarray:
        mag = np.abs(opt)
        phase = np.where(mag < PHASE_FLOOR_RTOL * mag.max(axis=0), 0.0, np.angle(opt))
        stage = np.exp(1j * phase) / math.sqrt(dim)
        if count > ns:
            dic = dft_matrix(dim)
            gains = np.linalg.norm(h @ dic if tx_side else h.conj().T @ dic, axis=0)
            order = np.argsort(-gains, kind="stable")
            pads = []
            for k in order:
                overlap = np.abs(stage.conj().T @ dic[:, k]).max()
                if overlap < 1.0 - 1e-9:
                    pads.append(dic[:, k])
                if len(pads) == count - ns:
                    break
            if len(pads) < count - ns:
                raise ValueError(f"cannot pad to n_rf={count} with {dim} antennas")
            stage = np.hstack([stage, np.column_stack(pads)])
        return stage

    f_rf = analog_stage(digital.precoder, m, n_rf, tx_side=True)
    w_rf = analog_stage(digital.combiner, n, n_rf_rx, tx_side=False)
    effective = w_rf.conj().T @ h @ f_rf
    eff = svd(effective)
    f_bb = eff.right[:, :ns].copy()
    w_bb = eff.left[:, :ns].copy()
    f_bb /= np.linalg.norm(f_rf @ f_bb)
    tx = HybridBeamformer(analog=f_rf, baseband=f_bb, side=Side.TX, n_rf=n_rf)
    rx = HybridBeamformer(analog=w_rf, baseband=w_bb, side=Side.RX, n_rf=n_rf_rx)
    return tx, rx
