"""Transition-band bound, water-filling, and rate formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import eig_hermitian, eig_hermitian_stack

COMBINER_COND_LIMIT = 1e12


class BadEpsilonError(ValueError):
    pass


class AllZeroEigenvaluesError(ValueError):
    pass


class SingularCombinerError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class PowerAllocation:
    """Stream powers along the last axis and the water level, per gain of ``water_filling``."""

    powers: np.ndarray
    water_level: float | np.ndarray


def transition_band(n_i: int, m_i: int, delta: float, eps: float) -> float:
    """Bound-scale term R for eigenvalues caught between the two clusters.

    Two-term expression in natural logs; the second term clamps at zero and
    blows up to +inf when the oversampling ratio max(n,m)/(m*delta) hits 1.
    """
    if not 0.0 < eps < 0.5:
        raise BadEpsilonError(f"eps must lie in (0, 0.5), got {eps}")
    if delta <= 0 or m_i < 1 or n_i < 1:
        raise ValueError("need positive delta and counts")
    first = (4.0 / math.pi**2 * math.log(8.0 * m_i) + 6.0) * math.log(16.0 / eps)
    ratio = max(n_i, m_i) / (m_i * delta)
    if ratio <= 1.0:
        return math.inf
    inner = math.pi / 32.0 * eps * (ratio**2 - 1.0)
    second = 2.0 * max(0.0, -math.log(inner) / math.log(ratio))
    return first + second


def water_filling(eigs, p_total: float, gain_over_noise) -> PowerAllocation:
    """Power allocation maximizing sum log(1 + g * lambda_i * p_i), sum p_i = p_total.

    eigs must be finite, non-negative and non-increasing, each step up at
    most 1e-12 of the largest value (rounding in a tie). Streams whose
    inverse gain sits above the water level get zero power. The active count
    k is the largest whose level ``(p_total + sum(floors[:k])) / k`` clears
    the largest of the first k floors (the k-th, on a sorted spectrum); the
    running sums that pick it may round differently from the level's own
    sum only where stream k would get zero power anyway.

    An array ``gain_over_noise`` of shape S allocates at each of its values
    at once: the powers get shape ``(*S, len(eigs))`` and the level shape S,
    each bitwise equal to the scalar call at that value. A scalar gives
    powers of the shape of eigs and a float level. Leading axes of ``eigs``
    hold a batch of spectra, each checked and allocated as alone: powers
    ``(*B, *S, n)`` and levels ``(*B, *S)`` for eigs of shape ``(*B, n)``.
    """
    lam = np.asarray(eigs, dtype=float)
    gains = np.asarray(gain_over_noise, dtype=float)
    if lam.size == 0 or not np.isfinite(lam).all():
        raise ValueError("eigenvalues must be finite and non-empty")
    if (lam < 0).any() or (lam[..., 1:] - lam[..., :-1] > 1e-12 * lam.max(axis=-1, keepdims=True)).any():
        raise ValueError("eigenvalues must be non-negative and non-increasing")
    if not (math.isfinite(p_total) and np.isfinite(gains).all()):
        raise ValueError("p_total and gain_over_noise must be finite")
    if p_total <= 0 or (gains <= 0).any():
        raise ValueError("p_total and gain_over_noise must be positive")
    # positive eigenvalues lead, since the spectrum is non-increasing; a value
    # the tolerance lets rise after a zero is rounding and counts as zero too
    positive = np.minimum.accumulate(lam, axis=-1) > 0.0
    if not positive[..., 0].all():
        raise AllZeroEigenvaluesError("cannot allocate power over an all-zero spectrum")
    lam, positive = (per_snr(x, gains) for x in (lam, positive))
    prod = gains[..., None] * lam
    # a zero eigenvalue's floor is infinite: its stream never clears the level
    floors = np.divide(1.0, prod, out=np.full(prod.shape, np.inf), where=positive)
    if np.isinf(floors[..., 0]).any():
        raise ValueError("gain_over_noise * largest eigenvalue underflows to zero")
    n = lam.shape[-1]
    levels = (p_total + np.cumsum(floors, axis=-1)) / np.arange(1, n + 1)
    # the running max equals floors on a sorted spectrum; on a tie that rises
    # within the tolerance it keeps every active power non-negative
    clears = np.subtract(
        levels, np.maximum.accumulate(floors, axis=-1), out=np.full(floors.shape, -1.0), where=positive
    ) >= 0.0
    counts = n - np.argmax(clears[..., ::-1], axis=-1)
    level = np.empty(counts.shape)
    powers = np.zeros(floors.shape)
    # a set, not np.unique: its first call imports numpy.ma, 10 ms
    for k in set(counts.ravel().tolist()):
        # each level sums exactly its own k floors, in the scalar call's order
        rows = counts == k
        level[rows] = (p_total + floors[rows, :k].sum(axis=-1)) / k
        powers[rows, :k] = level[rows, None] - floors[rows, :k]
    return PowerAllocation(powers=powers, water_level=level if level.ndim else float(level))


def per_snr(values: np.ndarray, snr) -> np.ndarray:
    """``values`` (..., n) as (..., 1, ..., 1, n), with a unit axis for each axis of ``snr``.

    A batch of per-stream gains then broadcasts against the SNRs of a curve:
    ``stream_rate`` at SNRs of shape S returns (..., *S).
    """
    return values.reshape(values.shape[:-1] + (1,) * np.ndim(snr) + values.shape[-1:])


def stream_rate(snr, gains, ns: int = 1):
    """Rate sum_i log2(1 + snr/ns * g_i) in b/s/Hz of parallel streams at each SNR, clamped at 0.

    The gains run along the last axis and broadcast against the SNRs: ``per_snr``
    gives a batch of spectra the axes for a curve of rates per spectrum. 1 + x
    rounds first, as in a determinant: below x ~ 1e-4, log1p would differ by
    over 1e-12 relative.
    """
    snrs = np.asarray(snr, dtype=float)
    if not np.isfinite(snrs).all() or (snrs < 0).any():
        raise ValueError(f"snr must be finite and non-negative, got {snr}")
    return np.maximum(np.log2(1.0 + (snrs / ns)[..., None] * gains).sum(axis=-1), 0.0)


def _eigh(a: np.ndarray):
    """eig_hermitian of one matrix, or of each matrix of a stack in one LAPACK call."""
    return eig_hermitian(a) if a.ndim == 2 else eig_hermitian_stack(a)


def rate(h, f, w, snr, ns: int):
    """Spectral efficiency log2 det(I + snr/ns * F*H* P_W H F) in b/s/Hz, at each SNR of ``snr``.

    P_W = W (W*W)^+ W* projects onto the range of the combiner, so a rank-deficient W
    (an OMP combiner whose atoms tie at the cut, say) is scored on its range; only a
    zero W raises SingularCombinerError. W is whitened with the eigenpairs (V, Lambda)
    of its Gram W*W, keeping those above lambda_max / COMBINER_COND_LIMIT (all of them
    on a well-conditioned W). C = Lambda^-1/2 V* W* H F on the r kept rows does not
    depend on the SNR: the rate is stream_rate over the eigenvalues of the r x r C C*,
    one eigensolve for every SNR. The relative error grows like cond(W*W) * eps over
    the kept pairs: rounding level for the combiners the schemes build (cond below
    10), about 1e-7 near cond 1e9.

    Leading axes of h, f and w hold a batch of links, rated in stacked calls:
    the rates get shape ``(*B, *snr.shape)``, each bitwise the link's own call.
    A link that keeps fewer than ns pairs is rated alone.
    """
    h = np.asarray(h, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if f.shape[-1] != ns or w.shape[-1] != ns:
        raise DimensionMismatchError(
            f"precoder/combiner must have ns={ns} columns, got {f.shape[-1]}, {w.shape[-1]}"
        )
    w_h = np.swapaxes(w.conj(), -1, -2)
    spec_w = _eigh(w_h @ w)
    lmax = spec_w.values[..., :1]
    if (lmax <= 0).any():
        raise SingularCombinerError("combiner is zero")
    keep = np.count_nonzero(spec_w.values > lmax / COMBINER_COND_LIMIT, axis=-1)

    def curve(values, vectors, w_h, h, f):
        c = (np.swapaxes(vectors.conj(), -1, -2) @ w_h @ h @ f) / np.sqrt(values)[..., None]
        gains = _eigh(c @ np.swapaxes(c.conj(), -1, -2)).values
        return stream_rate(snr, per_snr(gains, snr), ns)

    full = keep == ns
    if full.all():
        return curve(spec_w.values, spec_w.vectors, w_h, h, f)
    rates = np.empty(keep.shape + np.shape(snr))
    if full.any():
        rates[full] = curve(*(x[full] for x in (spec_w.values, spec_w.vectors, w_h, h, f)))
    for b in zip(*np.nonzero(~full)) if keep.ndim else [()]:
        k = keep[b]
        rates[b] = curve(spec_w.values[b][:k], spec_w.vectors[b][:, :k], w_h[b], h[b], f[b])
    return rates if rates.ndim else rates[()]


def rate_upper_bound(n: int, m: int, ns: int, snr: float) -> float:
    """Best case of ns equal-gain streams: ns * log2(1 + snr * n * m / ns^2)."""
    if ns < 1:
        raise ValueError(f"ns must be >= 1, got {ns}")
    return ns * math.log2(1.0 + snr * n * m / ns**2)
