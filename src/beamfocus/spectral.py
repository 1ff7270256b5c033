"""Eigenvalue clustering diagnostics, water-filling, and rate formulas."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import stream_floor
from .linalg import EigenSpectrum, dft_matrix, eig_hermitian, kron

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
class ClusterReport:
    """Counts of normalized eigenvalues near one, near zero, and in between."""

    eps: float
    count_near_one: int
    count_near_zero: int
    transition_count: int
    predicted_rank: int
    transition_bound: float


@dataclass(frozen=True)
class PowerAllocation:
    powers: np.ndarray
    water_level: float


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


def cluster_report(
    spectrum: EigenSpectrum,
    normalizer: float,
    eps: float,
    delta: float,
    n_min: int,
    n_max: int,
    m_dim: int,
) -> ClusterReport:
    """Classify a gain spectrum against the two-cluster prediction for one axis."""
    if not 0.0 < eps < 0.5:
        raise BadEpsilonError(f"eps must lie in (0, 0.5), got {eps}")
    if normalizer <= 0:
        raise ValueError(f"normalizer must be positive, got {normalizer}")
    omega = spectrum.values / normalizer
    near_one = int((omega >= 1.0 - eps).sum())
    near_zero = int((omega <= eps).sum())
    transition = omega.size - near_one - near_zero
    predicted = 2 * stream_floor(delta * n_min / 2.0)
    bound = 2.0 * transition_band(n_max, m_dim, delta, eps)
    return ClusterReport(
        eps=eps,
        count_near_one=near_one,
        count_near_zero=near_zero,
        transition_count=transition,
        predicted_rank=predicted,
        transition_bound=bound,
    )


def water_filling(eigs, p_total: float, gain_over_noise: float) -> PowerAllocation:
    """Power allocation maximizing sum log(1 + g * lambda_i * p_i), sum p_i = p_total.

    eigs must be finite, non-negative and non-increasing, each step up at
    most 1e-12 of the largest value (rounding in a tie). Streams whose
    inverse gain sits above the water level get zero power. The active count
    k is the largest whose level ``(p_total + sum(floors[:k])) / k`` clears
    the largest of the first k floors (the k-th, on a sorted spectrum); the
    running sums that pick it may round differently from the level's own
    sum only where stream k would get zero power anyway.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.size == 0 or not np.isfinite(lam).all():
        raise ValueError("eigenvalues must be finite and non-empty")
    if (lam < 0).any() or (lam[1:] - lam[:-1] > 1e-12 * lam.max()).any():
        raise ValueError("eigenvalues must be non-negative and non-increasing")
    if not (math.isfinite(p_total) and math.isfinite(gain_over_noise)):
        raise ValueError("p_total and gain_over_noise must be finite")
    if p_total <= 0 or gain_over_noise <= 0:
        raise ValueError("p_total and gain_over_noise must be positive")
    # positive eigenvalues lead, since the spectrum is non-increasing; a value
    # the tolerance lets rise after a zero is rounding and counts as zero too
    n_pos = lam.size - np.count_nonzero(np.minimum.accumulate(lam) == 0.0)
    if n_pos == 0:
        raise AllZeroEigenvaluesError("cannot allocate power over an all-zero spectrum")
    floors = 1.0 / (gain_over_noise * lam[:n_pos])
    if math.isinf(floors[0]):
        raise ValueError("gain_over_noise * largest eigenvalue underflows to zero")
    levels = (p_total + np.cumsum(floors)) / np.arange(1, n_pos + 1)
    # the running max equals floors on a sorted spectrum; on a tie that rises
    # within the tolerance it keeps every active power non-negative
    k = int(np.flatnonzero(levels - np.maximum.accumulate(floors) >= 0.0)[-1]) + 1
    level = (p_total + floors[:k].sum()) / k
    powers = np.zeros(lam.shape)
    powers[:k] = level - floors[:k]
    return PowerAllocation(powers=powers, water_level=float(level))


def rate(h, f, w, snr: float, ns: int) -> float:
    """Spectral efficiency log2 det(I + snr/ns * F*H* P_W H F) in b/s/Hz.

    P_W = W (W*W)^+ W* projects onto the range of the combiner, so a
    rank-deficient W (an OMP combiner whose atoms tie at the cut, say) is
    scored on its range; only a zero W raises SingularCombinerError. W is
    whitened with the eigenpairs (V, Lambda) of its Gram W*W, keeping those
    above lambda_max / COMBINER_COND_LIMIT (all of them on a well-conditioned
    W): with C = Lambda^-1/2 V* W* H F, the rate is log2 det(I + snr/ns * C*C),
    taken as det(I + snr/ns * C C*) when pairs were dropped, clamped at zero.
    The relative error grows like cond(W*W) * eps over the kept pairs:
    rounding level for the combiners the schemes build (cond below 10), about
    1e-7 near cond 1e9.
    """
    h = np.asarray(h, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if f.shape[1] != ns or w.shape[1] != ns:
        raise DimensionMismatchError(
            f"precoder/combiner must have ns={ns} columns, got {f.shape[1]}, {w.shape[1]}"
        )
    if not math.isfinite(snr) or snr < 0:
        raise ValueError(f"snr must be finite and non-negative, got {snr}")
    w_h = w.conj().T
    spec_w = eig_hermitian(w_h @ w)
    lam, vectors = spec_w.values, spec_w.vectors
    lmax, lmin = float(lam[0]), float(lam[-1])
    if lmax <= 0:
        raise SingularCombinerError("combiner is zero")
    if lmin <= 0 or lmax / lmin > COMBINER_COND_LIMIT:
        keep = int(np.count_nonzero(lam > lmax / COMBINER_COND_LIMIT))
        lam, vectors = lam[:keep], vectors[:, :keep]
    c = (vectors.conj().T @ w_h @ h @ f) / np.sqrt(lam)[:, None]
    # det(I + a C*C) = det(I + a CC*); on fewer rows than ns the short side
    # spares the determinant the cancellation of a rank-deficient C*C
    m = (snr / ns) * (c.conj().T @ c if c.shape[0] == ns else c @ c.conj().T)
    m.flat[:: m.shape[0] + 1] += 1.0
    sign, logdet = np.linalg.slogdet(m)
    return max(float(logdet) / math.log(2.0), 0.0)


def rate_upper_bound(n: int, m: int, ns: int, snr: float) -> float:
    """Best case of ns equal-gain streams: ns * log2(1 + snr * n * m / ns^2)."""
    if ns < 1:
        raise ValueError(f"ns must be >= 1, got {ns}")
    return ns * math.log2(1.0 + snr * n * m / ns**2)


def dft_diag_quality(g, nv: int, nh: int) -> float:
    """Off-diagonal Frobenius share left after conjugating by the 2-D DFT.

    Zero means the 2-D DFT diagonalizes g exactly (circulant structure);
    the share shrinks toward zero as block-Toeplitz dimensions grow.
    """
    g = np.asarray(g, dtype=np.complex128)
    dim = nv * nh
    if g.shape != (dim, dim):
        raise DimensionMismatchError(f"expected {dim}x{dim} matrix, got {g.shape}")
    f2 = kron(dft_matrix(nv), dft_matrix(nh))
    q = f2.conj().T @ g @ f2
    total = float(np.linalg.norm(q))
    if total == 0.0:
        return 0.0
    off = float(np.linalg.norm(q - np.diag(np.diag(q))))
    return off / total
