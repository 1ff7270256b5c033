"""Fully-digital SVD beamformers, DFT-dictionary hybrids, OMP, and the
phase-extraction baseline.

Power convention: the builders carry no transmit power. Digital precoders
keep orthonormal columns, and each hybrid builder returns the analog and
baseband stages it built, unscaled. ``Scenario`` sets every hybrid precoder
to trace ns and the digital stream powers. Combiners carry no power
constraint since the rate formula whitens them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, has_kron_core, kron_factor_channel, quadratic_phase
from .geometry import AntennaLayout, ArraySpec, Side
from .linalg import SVD_RANK_RTOL, ConvergenceError, SvdResult, dft_matrix, subspace_svd, svd

# digital beamformer entries this far below their column's largest are
# rounding noise (exact zeros by the array symmetry), so they get phase 0
PHASE_FLOOR_RTOL = 1e-9

# fresnel_start's gates on the Fresnel spectrum s, in non-increasing order: the
# ns-th value at least SUBSPACE_SIGMA_RTOL of the first, the first value past
# the block at most SUBSPACE_GAP of the ns-th, and min(N, M) at least four block
# widths and at least SUBSPACE_MIN_DIM, about where the iteration and LAPACK's
# dense SVD cost the same (8 x 8 arrays per side, 1.6 ms each on 2 vCPUs)
SUBSPACE_SIGMA_RTOL = 0.1
SUBSPACE_GAP = 0.1
SUBSPACE_MIN_DIM = 64


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
    residual_norms: tuple = field(default=(), compare=False)

    def product(self) -> np.ndarray:
        return self.analog @ self.baseband


def digital_svd(h, ns: int, start=None) -> DigitalBeamformer:
    """Precoder/combiner from the top ns singular vectors of the channel.

    ``start`` is an M x k block from ``fresnel_start``: the top singular
    triplets then come from ``subspace_svd`` started from its span, or from
    ``svd`` should that not converge. ``None`` is the k = min(N, M) case, the
    whole space, which ``svd`` factors densely. Columns stay orthonormal;
    Scenario.rate water-fills over the returned singular values for the
    ``digital-wf`` scheme.
    """
    n, m = np.asarray(h).shape
    if ns > min(n, m):
        raise ValueError(f"ns={ns} exceeds min(N, M)={min(n, m)}")
    try:
        res: SvdResult = svd(h, ns) if start is None else subspace_svd(h, ns, start)
    except ConvergenceError:
        if start is None:
            raise
        # the Fresnel spectrum promised a gap the channel does not have, as
        # where an aperture is not small against the distance: factor densely
        res = svd(h, ns)
    return DigitalBeamformer(
        precoder=res.right[:, :ns].copy(),
        combiner=res.left[:, :ns].copy(),
        singular_values=res.singular_values[:ns].copy(),
    )


def fresnel_start(
    spec_tx: ArraySpec, spec_rx: ArraySpec, tx: AntennaLayout, params: ChannelParams, ns: int
):
    """Start block of ``digital_svd``'s subspace iteration, or None where the dense SVD runs.

    With a Kronecker core, the Fresnel model ``conj(D_r) kron(h_v, h_h) D_t``
    of the channel has the right singular vectors ``conj(d_t) * kron(v_v, v_h)``
    for the per-axis right vectors of ``channel.kron_factor_channel``, with
    singular values the products ``s = sigma_v sigma_h``. The block holds the
    first k of them, ordered by s with ``_gain_order``'s tie rule; ``tx`` is
    the layout ``d_t`` comes from.

    Column ns - 1 converges like (s[k] / s[ns - 1])^2 per pass, so k is the
    smallest width with s[k] <= SUBSPACE_GAP * s[ns - 1]. None stands for k =
    min(N, M), the whole space: it is returned for a channel without a
    Kronecker core, with s[ns - 1] below SUBSPACE_SIGMA_RTOL * s[0] (rank
    below ns, say), without such a k, with min(N, M) below 4 k, or smaller
    than SUBSPACE_MIN_DIM.
    """
    n, m = spec_rx.n_v * spec_rx.n_h, spec_tx.n_v * spec_tx.n_h
    if min(n, m) < SUBSPACE_MIN_DIM or not has_kron_core(spec_tx, spec_rx):
        return None
    (_, s_v, v_v), (_, s_h, v_h) = (
        np.linalg.svd(factor, full_matrices=False)
        for factor in kron_factor_channel(spec_tx, spec_rx, params)
    )
    s = np.outer(s_v, s_h).ravel()
    order = _gain_order(s)
    s = s[order]
    if s[ns - 1] < SUBSPACE_SIGMA_RTOL * s[0]:
        return None
    past = np.flatnonzero(s[ns:] <= SUBSPACE_GAP * s[ns - 1])
    k = ns + past[0] if past.size else min(n, m)
    if 4 * k > min(n, m):
        return None
    i, j = np.divmod(order[:k], s_h.size)
    # rows of v^H are the conjugated right vectors
    cols = (v_v[i].conj()[:, :, None] * v_h[j].conj()[:, None, :]).reshape(i.size, -1)
    return np.conj(quadratic_phase(tx, params))[:, None] * cols.T


@dataclass(frozen=True, eq=False)
class TwistedDft:
    """Unitary dictionary ``diag(twist) @ kron(f_v, f_h).conj().T``, kept as its factors.

    Atom ``q = i * n_h + j`` is row (i, j) of the 2-D DFT, conjugated and
    multiplied entrywise by the per-antenna twist. Memory is O(N) for N
    antennas; only ``dense`` forms the N x N matrix, and it is for checks
    on small arrays.
    """

    twist: np.ndarray
    f_v: np.ndarray
    f_h: np.ndarray

    @property
    def size(self) -> int:
        """Atom count, equal to the antenna count."""
        return self.twist.shape[0]

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``D^H @ x`` for an N x k matrix x, by one DFT product per axis."""
        n_v, n_h = self.f_v.shape[0], self.f_h.shape[0]
        y = (np.conj(self.twist)[:, None] * x).reshape(n_v, -1)
        z = (self.f_v @ y).reshape(n_v, n_h, -1)
        return (self.f_h @ z).reshape(self.size, -1)

    def columns(self, idx) -> np.ndarray:
        """Atoms ``idx`` as columns, bitwise equal to ``dense()[:, idx]``."""
        i, j = np.divmod(np.asarray(idx, dtype=np.intp), self.f_h.shape[0])
        rows = (self.f_v[i][:, :, None] * self.f_h[j][:, None, :]).reshape(i.size, -1)
        return self.twist[:, None] * rows.conj().T

    def dense(self) -> np.ndarray:
        """The full N x N matrix, for checks on small arrays only."""
        return self.twist[:, None] * np.kron(self.f_v, self.f_h).conj().T


def _twisted_dft(layout: AntennaLayout, params: ChannelParams, side: Side) -> TwistedDft:
    # conj(diagonal) times the conjugate-transposed 2-D DFT; unitary by construction
    if layout.side is not side:
        raise ValueError(f"expected a {side.value} layout, got {layout.side.value}")
    return TwistedDft(
        twist=np.conj(quadratic_phase(layout, params)),
        f_v=dft_matrix(layout.n_v),
        f_h=dft_matrix(layout.n_h),
    )


def dictionary_tx(layout: AntennaLayout, params: ChannelParams) -> TwistedDft:
    """Transmit-side unitary dictionary: conj(d_t) twist times the 2-D DFT."""
    return _twisted_dft(layout, params, Side.TX)


def dictionary_rx(layout: AntennaLayout, params: ChannelParams) -> TwistedDft:
    """Receive-side unitary dictionary; its d_r twist includes the link-distance phase."""
    return _twisted_dft(layout, params, Side.RX)


def _gain_order(gains: np.ndarray) -> np.ndarray:
    """Indices by gain, largest first, ties by index.

    Gains are compared in steps of SVD_RANK_RTOL of the largest, so gains
    that are equal up to rounding noise tie, whatever order the arithmetic
    that produced them happened to use.
    """
    step = SVD_RANK_RTOL * gains.max()
    key = np.rint(gains / step) if step > 0 else gains
    return np.argsort(-key, kind="stable")


def _svd_basebands(h: np.ndarray, f_rf: np.ndarray, w_rf: np.ndarray, ns: int):
    """Top-ns right and left singular vectors of the effective channel ``W_RF^H h F_RF``."""
    eff = svd(w_rf.conj().T @ h @ f_rf, ns)
    return eff.right[:, :ns].copy(), eff.left[:, :ns].copy()


def asymptotic_hybrid(
    tx_dict: TwistedDft,
    rx_dict: TwistedDft,
    h: np.ndarray,
    ns: int,
    n_rf_tx: int,
    n_rf_rx: int,
) -> tuple[HybridBeamformer, HybridBeamformer]:
    """Closed-form hybrid pair from the dictionary columns of largest gain.

    Each side takes its ``n_rf_tx``/``n_rf_rx`` columns with the
    largest effective channel gain, the column norms of ``h @ V`` and
    ``h^H @ U``. With ns columns per side the baseband is the identity (any
    unitary one gives the same rate); with more, it is the top-ns SVD of the
    effective channel, as in phase extraction.
    """
    if not ns <= min(n_rf_tx, n_rf_rx) or n_rf_tx > tx_dict.size or n_rf_rx > rx_dict.size:
        raise ValueError(f"need ns={ns} <= n_rf={n_rf_tx}/{n_rf_rx} <= dictionary column counts")
    f_rf = tx_dict.columns(_gain_order(np.linalg.norm(tx_dict.adjoint(h.conj().T), axis=1))[:n_rf_tx])
    w_rf = rx_dict.columns(_gain_order(np.linalg.norm(rx_dict.adjoint(h), axis=1))[:n_rf_rx])
    if max(n_rf_tx, n_rf_rx) > ns:
        f_bb, w_bb = _svd_basebands(h, f_rf, w_rf, ns)
    else:
        f_bb = w_bb = np.eye(ns, dtype=np.complex128)
    return HybridBeamformer(f_rf, f_bb), HybridBeamformer(w_rf, w_bb)


def omp_hybrid(target: np.ndarray, dictionary: TwistedDft, n_rf: int) -> HybridBeamformer:
    """Orthogonal matching pursuit of a beamformer over a unitary dictionary, in closed form.

    A pick never changes the residual's projection onto an unpicked atom, so
    the picks are the n_rf rows of ``y = D^H target`` of largest energy (ties
    as in ``_gain_order``), the baseband is those rows, and the residual norm
    after k picks is the root of the energy in the rows left unpicked.
    """
    target = np.asarray(target, dtype=np.complex128)
    if n_rf > dictionary.size:
        raise DictionaryExhaustedError(
            f"n_rf={n_rf} exceeds dictionary size {dictionary.size}"
        )
    if n_rf < target.shape[1]:
        raise ValueError(f"n_rf={n_rf} below stream count {target.shape[1]}")
    y = dictionary.adjoint(target)
    energy = (y.real**2 + y.imag**2).sum(axis=1)
    order = _gain_order(energy)
    # left[k]: the energy after k picks, summed over the sorted tail rather than
    # subtracted from the total, so a target the picks hold exactly leaves ~0
    left = np.append(np.cumsum(energy[order[::-1]])[::-1], 0.0)
    picks = order[:n_rf]
    return HybridBeamformer(dictionary.columns(picks), y[picks], tuple(np.sqrt(left[1 : n_rf + 1]).tolist()))


def phase_extraction_hybrid(
    h: np.ndarray,
    digital: DigitalBeamformer,
    n_rf_tx: int,
    n_rf_rx: int,
) -> tuple[HybridBeamformer, HybridBeamformer]:
    """Baseline: analog stages carry the phases of the digital beamformers.

    ``n_rf_tx`` RF chains transmit and ``n_rf_rx`` receive.
    Entries below PHASE_FLOOR_RTOL of their column's largest magnitude get
    phase 0. Extra RF chains beyond ns are filled with columns of the 1-D
    DFT matrix of the side's antenna count (``dft_matrix(dim)``, not the 2-D
    DFT of the dictionaries), ranked by their gains ``||h F||`` or
    ``||h^H F||`` read off an FFT of h, skipping columns that repeat an
    analog column. Only the best ``n_rf_tx``/``n_rf_rx`` columns are built,
    never the full matrix. Basebands come from the SVD of the effective
    channel.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, m = h.shape
    ns = digital.precoder.shape[1]
    if min(n_rf_tx, n_rf_rx) < ns:
        raise ValueError(f"n_rf={min(n_rf_tx, n_rf_rx)} below stream count {ns}")

    def analog_stage(opt: np.ndarray, dim: int, count: int, side: Side) -> np.ndarray:
        mag = np.abs(opt)
        phase = np.where(mag < PHASE_FLOOR_RTOL * mag.max(axis=0), 0.0, np.angle(opt))
        stage = np.exp(1j * phase) / math.sqrt(dim)
        if count > ns:
            # column b of h F (TX) or h^H F (RX) is an FFT along the side's axis
            spectrum = np.fft.fft(h.T if side is Side.TX else h.conj(), axis=0)
            # each unit-norm stage column repeats at most one of the orthonormal
            # DFT columns, so the best `count` of them hold enough pads
            candidates = dft_matrix(dim, _gain_order(np.linalg.norm(spectrum, axis=1))[:count])
            fresh = np.abs(stage.conj().T @ candidates).max(axis=0) < 1.0 - 1e-9
            pads = candidates[:, fresh][:, : count - ns]
            if pads.shape[1] < count - ns:
                raise ValueError(f"cannot pad to n_rf={count} with {dim} antennas")
            stage = np.hstack([stage, pads])
        return stage

    f_rf = analog_stage(digital.precoder, m, n_rf_tx, Side.TX)
    w_rf = analog_stage(digital.combiner, n, n_rf_rx, Side.RX)
    f_bb, w_bb = _svd_basebands(h, f_rf, w_rf, ns)
    return HybridBeamformer(f_rf, f_bb), HybridBeamformer(w_rf, w_bb)
