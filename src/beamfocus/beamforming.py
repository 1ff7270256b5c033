"""Fully-digital SVD beamformers, DFT-dictionary hybrids, OMP, and the
phase-extraction baseline.

Every builder takes one channel or a stack of them, one per rotation of a
sweep, along a leading axis of its arrays (the twist of a ``TwistedDft``
too), and returns its beamformers with the same leading axis. A stack is
built in stacked numpy calls, each element bitwise as it is built alone.

Power convention: the builders carry no transmit power. Digital precoders
keep orthonormal columns, and each hybrid builder returns the analog and
baseband stages it built, unscaled. ``Scenario`` sets every hybrid precoder
to trace ns and the digital stream powers. Combiners carry no power
constraint since the rate formula whitens them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelParams, has_kron_core, kron_factor_channel, quadratic_phase
from .geometry import AntennaLayout, ArraySpec, Side
from .linalg import SVD_RANK_RTOL, ConvergenceError, SvdResult, dft_matrix, subspace_svd, svd, svd_stack

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

# entries per block of _row_energies. 2**14 complex entries are 256 KiB, so
# the three blocks a ranking holds at once (a conjugated block and the
# adjoint's two stages) stay under the 1 MiB of a 256 x 256 channel, and a
# block stays in a core's L2 cache through both per-axis products. Both
# asymptotic rankings took 2.6 ms on desk and 324 ms at 48 x 48 per side (1
# BLAS thread, 2 vCPUs), against 3.5 and 404 ms at 2**12, 4.9 and 337 ms at
# 2**16, and 4.9 and 554 ms for the whole N x M products. At 64 x 64 a block
# is four columns and the rankings are no faster than those products (1.6
# against 1.8 s at 2 BLAS threads): the second axis's product is then 64
# small matmuls a block
GAIN_BLOCK_ENTRIES = 2**14


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
    whole space, which ``svd`` factors densely. For a stack of channels,
    ``start`` holds one block or None per channel (None for all if None):
    a stack with no block is factored in one ``svd_stack`` call, otherwise
    each channel alone. Columns stay orthonormal; Scenario.rate water-fills
    over the returned singular values for the ``digital-wf`` scheme.
    """
    h = np.asarray(h)
    n, m = h.shape[-2:]
    if ns > min(n, m):
        raise ValueError(f"ns={ns} exceeds min(N, M)={min(n, m)}")
    if h.ndim == 3 and start is not None and any(block is not None for block in start):
        # a start block per channel: each iterates alone
        each = [_top_triplets(one, ns, block) for one, block in zip(h, start)]
        return DigitalBeamformer(
            precoder=np.stack([r.right[:, :ns] for r in each]),
            combiner=np.stack([r.left[:, :ns] for r in each]),
            singular_values=np.stack([r.singular_values[:ns] for r in each]),
        )
    res = _top_triplets(h, ns, start) if h.ndim == 2 else svd_stack(h, ns)
    return DigitalBeamformer(
        precoder=res.right[..., :ns].copy(),
        combiner=res.left[..., :ns].copy(),
        singular_values=res.singular_values[..., :ns].copy(),
    )


def _top_triplets(h: np.ndarray, ns: int, start) -> SvdResult:
    """The SVD of one channel that ``digital_svd`` reads, from ``start`` as it documents."""
    if start is None:
        return svd(h, ns)
    try:
        return subspace_svd(h, ns, start)
    except ConvergenceError:
        # the Fresnel spectrum promised a gap the channel does not have, as
        # where an aperture is not small against the distance: factor densely
        return svd(h, ns)


def fresnel_start(
    spec_tx: ArraySpec,
    spec_rx: ArraySpec,
    tx_dict: Callable[[], TwistedDft],
    params: ChannelParams,
    ns: int,
):
    """Start block of ``digital_svd``'s subspace iteration, or None where the dense SVD runs.

    With a Kronecker core, the Fresnel model ``conj(D_r) kron(h_v, h_h) D_t``
    of the channel has singular values the products ``s = sigma_v sigma_h`` of
    the axis factors of ``channel.kron_factor_channel``, and its right singular
    vectors are the atoms of the TX dictionary with each axis's DFT swapped
    for the rows of that axis's v^H. The block holds the first k of them,
    ordered by s with ``_gain_order``'s tie rule. ``tx_dict`` returns that
    dictionary and is called only past the gates below, so a call that
    returns None builds none.

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
    (_, s_v, vh_v), (_, s_h, vh_h) = (
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
    return replace(tx_dict(), f_v=vh_v, f_h=vh_h).columns(order[:k])


@dataclass(frozen=True, eq=False)
class TwistedDft:
    """Dictionary ``diag(twist) @ kron(f_v, f_h).conj().T``, kept as its factors.

    For an n_v x n_h array, ``f_v`` is r_v x n_v and ``f_h`` is r_h x n_h:
    the square DFTs of ``dictionary_tx``/``dictionary_rx``, or others, such
    as the per-axis right vectors that ``fresnel_start`` passes. Atom ``q = i *
    r_h + j`` is the conjugated Kronecker product of row i of f_v and row j of
    f_h, multiplied entrywise by the per-antenna twist. There are r_v * r_h
    atoms, and the dictionary is unitary only when both factors are. It holds
    N + r_v n_v + r_h n_h entries for N antennas, O(N) on a square array;
    only ``dense`` forms the full matrix, and it is for checks on small arrays.
    A B x N twist holds B dictionaries over the same factors, one per
    rotation of a sweep; the methods then take and return stacks.
    """

    twist: np.ndarray
    f_v: np.ndarray
    f_h: np.ndarray

    @property
    def size(self) -> int:
        """Atom count, rows(f_v) * rows(f_h): the antenna count for square factors."""
        return self.f_v.shape[0] * self.f_h.shape[0]

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """``D^H @ x`` for an N x k matrix x (B x N x k on a stack), by one factor product per axis."""
        # one name for each stage's result, so a stage's input is freed as it ends
        y = np.conj(self.twist)[..., None] * x
        lead = y.shape[:-2]
        y = y.reshape(*lead, self.f_v.shape[1], -1)
        y = (self.f_v @ y).reshape(*lead, self.f_v.shape[0], self.f_h.shape[1], -1)
        return (self.f_h @ y).reshape(*lead, self.size, -1)

    def columns(self, idx) -> np.ndarray:
        """Atoms ``idx`` as columns, bitwise equal to ``dense()[:, idx]``; B x k indices on a stack."""
        i, j = np.divmod(np.asarray(idx, dtype=np.intp), self.f_h.shape[0])
        rows = (self.f_v[i].conj()[..., :, None] * self.f_h[j].conj()[..., None, :]).reshape(*i.shape, -1)
        return self.twist[..., :, None] * np.swapaxes(rows, -1, -2)

    def dense(self) -> np.ndarray:
        """The full N x size matrix, for checks on small arrays only."""
        return self.twist[..., :, None] * np.kron(self.f_v, self.f_h).conj().T


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
    """Transmit-side unitary dictionary: conj(d_t) twist times the 2-D DFT.

    A stacked layout of one array (the rotations of a sweep, from
    ``geometry.build_layouts``) gives the stacked dictionary, one twist row
    per layout over the factors built once.
    """
    return _twisted_dft(layout, params, Side.TX)


def dictionary_rx(layout: AntennaLayout, params: ChannelParams) -> TwistedDft:
    """Receive-side unitary dictionary; its d_r twist includes the link-distance phase.

    A stacked layout gives the stacked dictionary, as for ``dictionary_tx``.
    """
    return _twisted_dft(layout, params, Side.RX)


def _gain_order(gains: np.ndarray) -> np.ndarray:
    """Indices by gain along the last axis, largest first, ties by index.

    Gains are compared in steps of SVD_RANK_RTOL of the largest, so gains
    that are equal up to rounding noise tie, whatever order the arithmetic
    that produced them happened to use. Leading axes order each row alone.
    """
    step = SVD_RANK_RTOL * gains.max(axis=-1, keepdims=True)
    # a row of zero gains keeps its zeros
    key = np.rint(gains / np.where(step > 0, step, 1.0))
    return np.argsort(-key, axis=-1, kind="stable")


def _row_energies(transform, x: np.ndarray) -> np.ndarray:
    """Row energies ``(abs(transform(x)) ** 2).sum(axis=-1)``, one block of x's columns at a time.

    ``transform`` must act on each column alone, as ``TwistedDft.adjoint``
    and an FFT along axis -2 do. A block holds GAIN_BLOCK_ENTRIES entries of
    each matrix of a stack (at least one column), so no temporary grows with
    x's column count, and each matrix's energies sum as they would alone.
    """
    step = max(1, GAIN_BLOCK_ENTRIES // x.shape[-2])
    energy = 0.0
    for lo in range(0, x.shape[-1], step):
        y = transform(x[..., lo : lo + step])
        # einsum sums the squares with no block-sized temporary
        energy = energy + np.einsum("...ij,...ij->...i", y.real, y.real) + np.einsum(
            "...ij,...ij->...i", y.imag, y.imag
        )
        del y  # freed before the next block's transform runs
    return energy


def _dft_energies(h: np.ndarray, side: Side) -> np.ndarray:
    """Energies of the columns of ``h @ F`` (TX) or ``h^H @ F`` (RX), F the unitary 1-D DFT.

    Column b of either product is entry b of an FFT along that side's axis,
    taken over blocks of h's rows (TX) or columns (RX).
    """
    if side is Side.TX:
        return _row_energies(lambda b: np.fft.fft(b, axis=-2, norm="ortho"), np.swapaxes(h, -1, -2))
    return _row_energies(lambda b: np.fft.fft(b.conj(), axis=-2, norm="ortho"), h)


def _svd(a: np.ndarray, rank: int) -> SvdResult:
    """``svd`` of one matrix, or of each matrix of a stack in one LAPACK call."""
    return svd(a, rank) if a.ndim == 2 else svd_stack(a, rank)


def _svd_basebands(h: np.ndarray, f_rf: np.ndarray, w_rf: np.ndarray, ns: int):
    """Top-ns right and left singular vectors of the effective channel ``W_RF^H h F_RF``."""
    eff = _svd(np.swapaxes(w_rf.conj(), -1, -2) @ h @ f_rf, ns)
    return eff.right[..., :ns].copy(), eff.left[..., :ns].copy()


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
    ``h^H @ U``. They are read off ``V^H h^H`` and ``U^H h`` by
    ``_row_energies``, over blocks of h's rows (TX) or columns (RX), so
    beside h only blocks of GAIN_BLOCK_ENTRIES entries are held, never an
    N x M product. With ns columns per side the baseband is the identity
    (any unitary one gives the same rate); with more, it is the top-ns SVD
    of the effective channel, as in phase extraction.
    """
    if not ns <= min(n_rf_tx, n_rf_rx) or n_rf_tx > tx_dict.size or n_rf_rx > rx_dict.size:
        raise ValueError(f"need ns={ns} <= n_rf={n_rf_tx}/{n_rf_rx} <= dictionary column counts")
    # a C-ordered conjugate, so the adjoint's reshape is a view, not another copy
    tx_gain = np.sqrt(
        _row_energies(lambda b: tx_dict.adjoint(np.conjugate(b, order="C")), np.swapaxes(h, -1, -2))
    )
    rx_gain = np.sqrt(_row_energies(rx_dict.adjoint, h))
    f_rf = tx_dict.columns(_gain_order(tx_gain)[..., :n_rf_tx])
    w_rf = rx_dict.columns(_gain_order(rx_gain)[..., :n_rf_rx])
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
    after k picks is the root of the energy in the rows left unpicked. On a
    stack of targets (and dictionaries) the residual norms hold one list per
    target.
    """
    target = np.asarray(target, dtype=np.complex128)
    if n_rf > dictionary.size:
        raise DictionaryExhaustedError(
            f"n_rf={n_rf} exceeds dictionary size {dictionary.size}"
        )
    if n_rf < target.shape[-1]:
        raise ValueError(f"n_rf={n_rf} below stream count {target.shape[-1]}")
    y = dictionary.adjoint(target)
    energy = (y.real**2 + y.imag**2).sum(axis=-1)
    order = _gain_order(energy)
    # left[k]: the energy after k picks, summed over the sorted tail rather than
    # subtracted from the total, so a target the picks hold exactly leaves ~0
    left = np.cumsum(np.take_along_axis(energy, order[..., ::-1], axis=-1), axis=-1)[..., ::-1]
    left = np.concatenate([left, np.zeros((*left.shape[:-1], 1))], axis=-1)
    picks = order[..., :n_rf]
    return HybridBeamformer(
        dictionary.columns(picks),
        np.take_along_axis(y, picks[..., None], axis=-2),
        tuple(np.sqrt(left[..., 1 : n_rf + 1]).tolist()),
    )


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
    ``||h^H F||`` read off FFTs of blocks of h (``_dft_energies``), skipping
    columns that repeat an analog column. Only the best
    ``n_rf_tx``/``n_rf_rx`` columns are built, never the full matrix, and no
    N x M temporary is formed. Basebands come from the SVD of the effective
    channel.
    """
    h = np.asarray(h, dtype=np.complex128)
    n, m = h.shape[-2:]
    ns = digital.precoder.shape[-1]
    if min(n_rf_tx, n_rf_rx) < ns:
        raise ValueError(f"n_rf={min(n_rf_tx, n_rf_rx)} below stream count {ns}")

    def analog_stage(opt: np.ndarray, dim: int, count: int, side: Side) -> np.ndarray:
        mag = np.abs(opt)
        phase = np.where(mag < PHASE_FLOOR_RTOL * mag.max(axis=-2, keepdims=True), 0.0, np.angle(opt))
        del mag
        stage = np.exp(1j * phase) / math.sqrt(dim)
        del phase
        if count > ns:
            # each unit-norm stage column repeats at most one of the orthonormal
            # DFT columns, so the best `count` of them hold enough pads
            gains = np.sqrt(_dft_energies(h, side))
            candidates = dft_matrix(dim, _gain_order(gains)[..., :count])
            overlap = np.abs(np.swapaxes(stage.conj(), -1, -2) @ candidates).max(axis=-2)
            fresh = overlap < 1.0 - 1e-9
            if (np.count_nonzero(fresh, axis=-1) < count - ns).any():
                raise ValueError(f"cannot pad to n_rf={count} with {dim} antennas")
            # the first count - ns fresh candidates, in gain order: a stable sort
            # puts them first. Only the pads are copied out, and the candidates
            # go before the stage grows
            first = np.argsort(~fresh, axis=-1, kind="stable")[..., None, : count - ns]
            pads = np.take_along_axis(candidates, first, axis=-1)
            del candidates
            stage = np.concatenate([stage, pads], axis=-1)
        return stage

    f_rf = analog_stage(digital.precoder, m, n_rf_tx, Side.TX)
    w_rf = analog_stage(digital.combiner, n, n_rf_rx, Side.RX)
    f_bb, w_bb = _svd_basebands(h, f_rf, w_rf, ns)
    return HybridBeamformer(f_rf, f_bb), HybridBeamformer(w_rf, w_bb)
