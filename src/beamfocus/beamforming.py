"""Fully-digital SVD beamformers, DFT-dictionary hybrids, OMP, and the
phase-extraction baseline.

Power convention: digital precoders keep orthonormal columns (trace ns;
the evaluation layer water-fills over the singular values); hybrid
transmit products are normalized to unit trace and scaled back to trace
ns by the evaluation layer. Combiners carry no power constraint since the
rate formula whitens them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, quadratic_phase
from .geometry import AntennaLayout, Side
from .linalg import SvdResult, dft_matrix, kron, least_squares, svd

# digital beamformer entries this far below their column's largest are
# rounding noise (exact zeros by the array symmetry), so they get phase 0
PHASE_FLOOR_RTOL = 1e-9


class DictionaryExhaustedError(ValueError):
    pass


@dataclass(frozen=True)
class DigitalBeamformer:
    """Top singular-vector precoder/combiner pair and their singular values."""

    precoder: np.ndarray
    combiner: np.ndarray
    singular_values: np.ndarray


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


def digital_svd(h, ns: int) -> DigitalBeamformer:
    """Precoder/combiner from the top ns singular vectors of the channel.

    Columns stay orthonormal; Scenario.rate water-fills over the returned
    singular values for the ``digital-wf`` scheme.
    """
    res: SvdResult = svd(h)
    n, m = np.asarray(h).shape
    if ns > min(n, m):
        raise ValueError(f"ns={ns} exceeds min(N, M)={min(n, m)}")
    return DigitalBeamformer(
        precoder=res.right[:, :ns].copy(),
        combiner=res.left[:, :ns].copy(),
        singular_values=res.singular_values[:ns].copy(),
    )


def _twisted_dft(layout: AntennaLayout, params: ChannelParams, side: Side) -> np.ndarray:
    # conj(diagonal) times the conjugate-transposed 2-D DFT; unitary by construction
    if layout.side is not side:
        raise ValueError(f"expected a {side.value} layout, got {layout.side.value}")
    twist = np.conj(quadratic_phase(layout, params))
    return twist[:, None] * kron(dft_matrix(layout.n_v), dft_matrix(layout.n_h)).conj().T


def dictionary_tx(layout: AntennaLayout, params: ChannelParams) -> np.ndarray:
    """Transmit-side unitary dictionary: conj(d_t) twist times the 2-D DFT."""
    return _twisted_dft(layout, params, Side.TX)


def dictionary_rx(layout: AntennaLayout, params: ChannelParams) -> np.ndarray:
    """Receive-side unitary dictionary; its d_r twist includes the link-distance phase."""
    return _twisted_dft(layout, params, Side.RX)


def _gain_order(dictionary: np.ndarray, h: np.ndarray, side: Side) -> np.ndarray:
    """Dictionary column indices by effective channel gain, largest first, ties by index."""
    effective = h @ dictionary if side is Side.TX else h.conj().T @ dictionary
    return np.argsort(-np.linalg.norm(effective, axis=0), kind="stable")


def asymptotic_hybrid(
    tx_dict: np.ndarray,
    rx_dict: np.ndarray,
    h: np.ndarray,
    ns: int,
) -> tuple[HybridBeamformer, HybridBeamformer]:
    """Closed-form hybrid pair: ns dictionary columns with identity baseband.

    Each side takes the ns columns with the largest effective channel gain.
    """
    if ns > min(tx_dict.shape[1], rx_dict.shape[1]):
        raise ValueError(f"ns={ns} exceeds dictionary column counts")
    f_rf = tx_dict[:, _gain_order(tx_dict, h, Side.TX)[:ns]]
    w_rf = rx_dict[:, _gain_order(rx_dict, h, Side.RX)[:ns]]
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
    phase 0. Extra RF chains beyond ns are filled with gain-ranked columns
    of the 1-D DFT matrix of the side's antenna count (``dft_matrix(dim)``,
    not the 2-D DFT of the dictionaries), skipping columns that repeat an
    analog column; basebands come from the SVD of the effective channel.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, m = h.shape
    ns = digital.precoder.shape[1]
    n_rf_rx = n_rf if n_rf_rx is None else n_rf_rx
    if min(n_rf, n_rf_rx) < ns:
        raise ValueError(f"n_rf={min(n_rf, n_rf_rx)} below stream count {ns}")

    def analog_stage(opt: np.ndarray, dim: int, count: int, side: Side) -> np.ndarray:
        mag = np.abs(opt)
        phase = np.where(mag < PHASE_FLOOR_RTOL * mag.max(axis=0), 0.0, np.angle(opt))
        stage = np.exp(1j * phase) / math.sqrt(dim)
        if count > ns:
            dic = dft_matrix(dim)
            pads = []
            for k in _gain_order(dic, h, side):
                overlap = np.abs(stage.conj().T @ dic[:, k]).max()
                if overlap < 1.0 - 1e-9:
                    pads.append(dic[:, k])
                if len(pads) == count - ns:
                    break
            if len(pads) < count - ns:
                raise ValueError(f"cannot pad to n_rf={count} with {dim} antennas")
            stage = np.hstack([stage, np.column_stack(pads)])
        return stage

    f_rf = analog_stage(digital.precoder, m, n_rf, Side.TX)
    w_rf = analog_stage(digital.combiner, n, n_rf_rx, Side.RX)
    effective = w_rf.conj().T @ h @ f_rf
    eff = svd(effective)
    f_bb = eff.right[:, :ns].copy()
    w_bb = eff.left[:, :ns].copy()
    f_bb /= np.linalg.norm(f_rf @ f_bb)
    tx = HybridBeamformer(analog=f_rf, baseband=f_bb, side=Side.TX, n_rf=n_rf)
    rx = HybridBeamformer(analog=w_rf, baseband=w_bb, side=Side.RX, n_rf=n_rf_rx)
    return tx, rx
