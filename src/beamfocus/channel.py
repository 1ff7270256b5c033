"""Spherical-wavefront LoS channel construction and its quadratic-phase factors.

The exact channel carries the full Euclidean distance phase per antenna
pair. Its second-order expansion in 1/D separates into per-side diagonal
phase factors and a core matrix that depends only on transverse (xy)
coordinates; that core is what all the spacing and spectrum analysis
operates on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import AntennaLayout, ArraySpec, LayoutKind, Side, aperture, build_layout


@dataclass(frozen=True)
class ChannelParams:
    """Carrier wavelength and link distance, both in meters.

    Rates use a normalized SNR, so the paper's path loss (lambda / 4 pi D)^2 is not modelled.
    """

    wavelength: float
    distance: float

    def __post_init__(self):
        for name in ("wavelength", "distance"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True)
class ChannelSet:
    """The quadratic-phase factorization: xy core and per-side diagonals."""

    h_tilde: np.ndarray
    d_t: np.ndarray
    d_r: np.ndarray

    def recompose(self) -> np.ndarray:
        """conj(D_r) * h_tilde * D_t, which equals taylor_channel."""
        return np.conj(self.d_r)[:, None] * self.h_tilde * self.d_t[None, :]


def exact_channel(tx: AntennaLayout, rx: AntennaLayout, params: ChannelParams) -> np.ndarray:
    """Unit-modulus N x M channel with exact pairwise-distance phases; see ``exact_channels``."""
    return exact_channels(tx, rx, params)


def exact_channels(tx: AntennaLayout, rx: AntennaLayout, params: ChannelParams) -> np.ndarray:
    """``exact_channel`` of two layouts, or of two stacks of R layouts (R x N x M) in one pass.

    The distances are built in the real part of the output, with the
    imaginary part as scratch, so no N x M x 3 difference tensor is made.
    dx^2, dy^2 and dz^2 are summed in that order, so each channel of a
    stack is bitwise the one its layouts give alone.
    """
    out = np.zeros((*rx.coords.shape[:-2], rx.count, tx.count), dtype=np.complex128)
    dist, scratch = out.real, out.imag
    for axis in range(3):
        np.subtract(rx.coords[..., axis, :, None], tx.coords[..., axis, None, :], out=scratch)
        np.square(scratch, out=scratch)
        dist += scratch
    np.sqrt(dist, out=dist)
    np.multiply(dist, -2.0 * np.pi / params.wavelength, out=scratch)
    dist[...] = 0.0
    return np.exp(out, out=out)


def taylor_channel(tx: AntennaLayout, rx: AntennaLayout, params: ChannelParams) -> np.ndarray:
    """Channel built from the second-order distance expansion in 1/D."""
    d = params.distance
    tx_x, tx_y, tx_z = tx.coords
    rx_x, rx_y = rx.coords[0], rx.coords[1]
    rx_z = rx.coords[2] - d
    approx = (
        d
        + rx_z[:, None]
        - tx_z[None, :]
        + ((rx_x[:, None] - tx_x[None, :]) ** 2 + (rx_y[:, None] - tx_y[None, :]) ** 2)
        / (2.0 * d)
    )
    return np.exp(-2j * np.pi / params.wavelength * approx)


def quadratic_phase(layout: AntennaLayout, params: ChannelParams) -> np.ndarray:
    """Per-side diagonal of the quadratic-phase factorization.

    d_t for a transmit layout, d_r (which carries the link-distance phase)
    for a receive layout. fresnel_factors and both beamforming
    dictionaries take their diagonals from here. A stack of R layouts gives
    R diagonals, each bitwise its layout's own.
    """
    d = params.distance
    x, y, z = (layout.coords[..., axis, :] for axis in range(3))
    if layout.side is Side.TX:
        phase = z - (x**2 + y**2) / (2.0 * d)
    else:
        phase = d + (z - d) + (x**2 + y**2) / (2.0 * d)
    return np.exp(2j * np.pi / params.wavelength * phase)


def warn_large_aperture(tx: AntennaLayout, rx: AntennaLayout, params: ChannelParams) -> None:
    """Warn (RuntimeWarning) when an aperture is not small against the link distance.

    There the quadratic-phase factorization stops describing the exact
    channel. fresnel_factors and the Kronecker spectrum both warn from here.
    """
    big = max(aperture(tx), aperture(rx))
    if big >= params.distance:
        warnings.warn(
            f"aperture {big:.3g} m is not small against distance {params.distance:.3g} m; "
            "quadratic-phase factors may be inaccurate",
            RuntimeWarning,
            stacklevel=3,
        )


def fresnel_factors(tx: AntennaLayout, rx: AntennaLayout, params: ChannelParams) -> ChannelSet:
    """Factor the quadratic-phase channel into per-side diagonals and the xy core.

    The recomposition conj(d_r) * h_tilde * d_t reproduces taylor_channel
    exactly; the gap to the exact channel is the Taylor remainder, which
    shrinks as the link distance grows relative to the apertures, as
    warn_large_aperture checks.
    """
    d = params.distance
    warn_large_aperture(tx, rx, params)
    tx_x, tx_y = tx.coords[0], tx.coords[1]
    rx_x, rx_y = rx.coords[0], rx.coords[1]
    h_tilde = np.exp(
        2j * np.pi / params.wavelength * (np.outer(rx_x, tx_x) + np.outer(rx_y, tx_y)) / d
    )
    return ChannelSet(
        h_tilde=h_tilde,
        d_t=quadratic_phase(tx, params),
        d_r=quadratic_phase(rx, params),
    )


def has_kron_core(*specs: ArraySpec) -> bool:
    """True when the Fresnel core of arrays laid out from ``specs`` is a Kronecker product.

    A parallelogram layout keeps the xy grid at every tilt, so it always
    has one; a rigidly rotated UPA shears that grid, so only its flat case does.
    """
    return all(
        spec.layout_kind is not LayoutKind.ROTATED_UPA or (spec.theta == 0.0 and spec.phi == 0.0)
        for spec in specs
    )


def kron_factor_channel(
    spec_tx: ArraySpec, spec_rx: ArraySpec, params: ChannelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Vertical and horizontal linear-array factors of the planar core.

    kron(h_linv, h_linh) equals the h_tilde of the full planar pair, thanks
    to the vertical-major element enumeration. Raises ValueError for a pair
    that has_kron_core rejects.
    """
    if not has_kron_core(spec_tx, spec_rx):
        raise ValueError("a rotated UPA has no Kronecker core unless theta = phi = 0")
    lam, dist = params.wavelength, params.distance

    def factor(n_rx, d_rx, n_tx, d_tx):
        n = np.arange(n_rx)
        m = np.arange(n_tx)
        return np.exp(2j * np.pi / lam * (d_rx * d_tx * np.outer(n, m)) / dist)

    h_linv = factor(spec_rx.n_v, spec_rx.d_v, spec_tx.n_v, spec_tx.d_v)
    h_linh = factor(spec_rx.n_h, spec_rx.d_h, spec_tx.n_h, spec_tx.d_h)
    return h_linv, h_linh


def gram(h: np.ndarray, side: Side) -> np.ndarray:
    """Channel gain matrix: H*H for the transmit side, HH* for the receive side."""
    h = np.asarray(h, dtype=np.complex128)
    if h.size == 0:
        raise ValueError("expected a non-empty matrix")
    if side is Side.TX:
        return h.conj().T @ h
    return h @ h.conj().T


def prolate_matrix(alpha: float, k_param: int, dim: int) -> np.ndarray:
    """Symmetric sine-ratio matrix whose spectrum concentrates near 0 and 1.

    Entry (i, k) is sin(pi (i-k)(K+1)/alpha) / (alpha sin(pi (i-k)/alpha)).
    Where (i-k)/alpha hits an integer p the ratio is evaluated by its limit
    (K+1)/alpha * (-1)^(p K); the diagonal is the p = 0 case.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if dim < 1 or k_param < 0:
        raise ValueError(f"need dim >= 1 and k_param >= 0, got {dim}, {k_param}")
    i = np.arange(dim)
    d = i[:, None] - i[None, :]
    den = np.sin(np.pi * d / alpha)
    singular = np.abs(den) < 1e-9
    p = np.rint(d / alpha).astype(np.int64)
    sign = np.where((p * k_param) % 2 == 0, 1.0, -1.0)
    limit = (k_param + 1) / alpha * sign
    num = np.sin(np.pi * d * (k_param + 1) / alpha)
    safe_den = np.where(singular, 1.0, den)
    return np.where(singular, limit, num / safe_den / alpha)


def layout_pair(
    spec_tx: ArraySpec, spec_rx: ArraySpec, distance: float
) -> tuple[AntennaLayout, AntennaLayout]:
    """Convenience pair builder used by sweeps and fixtures."""
    return (
        build_layout(spec_tx, Side.TX, distance),
        build_layout(spec_rx, Side.RX, distance),
    )
