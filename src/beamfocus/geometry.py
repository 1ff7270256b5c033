"""Planar array layouts, rate-optimal antenna spacing, and aperture checks.

Coordinates live in 3-D with the z axis along the communication link. The
transmit plane passes through the origin; the receive plane through
(0, 0, D). Antennas are enumerated m = m_v * n_h + m_h, vertical index
major, so vertical factors come first in Kronecker identities downstream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

DEGENERATE_PLANE_TOL = 1e-6
# dimensionless floor arguments sit exactly on integer edges at the optimal
# spacing; the nudge keeps rounding noise from dropping a whole stream pair
FLOOR_NUDGE = 1e-9


class OddStreamCountError(ValueError):
    pass


class StreamExceedsArrayError(ValueError):
    pass


class DegeneratePlaneError(ValueError):
    pass


class LayoutKind(enum.Enum):
    PARALLELOGRAM_OPTIMAL = "parallelogram"
    ROTATED_UPA = "rotated-upa"


class Side(enum.Enum):
    TX = "tx"
    RX = "rx"


@dataclass(frozen=True)
class ArraySpec:
    """Logical planar-array parameters before realization in 3-D."""

    n_v: int
    n_h: int
    d_v: float
    d_h: float
    theta: float = 0.0
    phi: float = 0.0
    layout_kind: LayoutKind = LayoutKind.PARALLELOGRAM_OPTIMAL

    def __post_init__(self):
        if self.n_v < 1 or self.n_h < 1:
            raise ValueError(f"element counts must be >= 1, got {self.n_v}x{self.n_h}")
        if self.d_v <= 0 or self.d_h <= 0:
            raise ValueError(f"spacings must be positive, got {self.d_v}, {self.d_h}")

    @property
    def count(self) -> int:
        return self.n_v * self.n_h


@dataclass(frozen=True)
class AntennaLayout:
    """Realized antenna positions: 3 x K matrix of Cartesian coordinates in meters.

    Receive-side layouts carry the link distance as a z offset, so coords
    are absolute for both sides. The layouts of one array at R tilts (the
    rotations of a sweep) can be one layout whose coords are R x 3 x K.
    """

    coords: np.ndarray
    side: Side
    n_v: int
    n_h: int

    @property
    def count(self) -> int:
        return self.coords.shape[-1]


def spacing_ratio(
    d_t: float, d_r: float, n_i: int, m_i: int, wavelength: float, distance: float
) -> float:
    """delta = d_t d_r max(n_i, m_i) / (lambda D), one axis's spacing ratio."""
    return d_t * d_r * max(n_i, m_i) / (wavelength * distance)


def axis_streams(delta: float, n_i: int, m_i: int) -> int:
    """Streams one axis supports at spacing ratio delta: 2 floor(delta min(n_i, m_i) / 2)."""
    return 2 * int(math.floor(delta * min(n_i, m_i) / 2.0 + FLOOR_NUDGE))


def check_axis_streams(ns_i: int, n_i: int, m_i: int) -> None:
    """Reject a per-axis stream count that is odd, below 2 or above min(n_i, m_i)."""
    if ns_i % 2 != 0 or ns_i < 2:
        raise OddStreamCountError(
            f"per-axis stream count must be even and >= 2, got {ns_i}"
        )
    if ns_i > min(n_i, m_i):
        raise StreamExceedsArrayError(
            f"ns_i={ns_i} exceeds min(n_i, m_i)={min(n_i, m_i)}"
        )


def optimal_spacing(
    n_i: int,
    m_i: int,
    ns_i: int,
    wavelength: float,
    distance: float,
) -> float:
    """Spacing that both sides use on one axis to carry exactly ns_i streams there.

    Only the product d_t d_r = ns_i lambda D / (n_i m_i) is fixed, and both
    sides get its square root. That product puts ``spacing_ratio`` at the
    lower edge of its ``axis_streams`` floor interval, so exactly ns_i
    streams are realized.
    """
    check_axis_streams(ns_i, n_i, m_i)
    if wavelength <= 0 or distance <= 0:
        raise ValueError("wavelength and distance must be positive")
    return math.sqrt(ns_i * wavelength * distance / (n_i * m_i))


def _rotation_xy(specs) -> np.ndarray:
    # rigid rotation about x by theta, then about y by phi: one 3 x 3 per spec
    rot_x, rot_y = [], []
    for spec in specs:
        ct, st = math.cos(spec.theta), math.sin(spec.theta)
        cp, sp = math.cos(spec.phi), math.sin(spec.phi)
        rot_x.append([[1.0, 0.0, 0.0], [0.0, ct, -st], [0.0, st, ct]])
        rot_y.append([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    return np.array(rot_y) @ np.array(rot_x)


def plane_cosine(theta: float, phi: float) -> float:
    """cos(theta) cos(phi), the link-axis component of a tilted array's normal.

    Raises DegeneratePlaneError when it is within DEGENERATE_PLANE_TOL of
    zero: the array plane then contains the link axis, and the parallelogram
    layout cannot put its elements on it.
    """
    cc = math.cos(theta) * math.cos(phi)
    if abs(cc) <= DEGENERATE_PLANE_TOL:
        raise DegeneratePlaneError(
            f"|cos(theta) cos(phi)| = {abs(cc):.2e}: array plane contains the link axis"
        )
    return cc


def build_layout(spec: ArraySpec, side: Side, distance: float) -> AntennaLayout:
    """Realize an ArraySpec as 3-D antenna coordinates.

    Parallelogram layouts keep the xy grid of the parallel setup and shear
    the z coordinate so every element stays on the tilted array plane.
    Rotated-UPA layouts rigidly rotate the flat grid instead (the baseline
    geometry a conventional tilted array would have).
    """
    return build_layouts(spec, side, distance)


def build_layouts(specs, side: Side, distance: float) -> AntennaLayout:
    """``build_layout`` of one spec, or of a sequence of specs of one array in one pass.

    The specs of a sequence differ only in their tilt, as a rotation
    sweep's do, and give one layout whose coords are R x 3 x K, each tilt's
    bitwise as ``build_layout`` realizes it alone: each tilt's trigonometry
    is ``math``'s, as np.cos need not round as math.cos does, and a stack of
    rotations multiplies the grid as each one does.
    """
    one = isinstance(specs, ArraySpec)
    specs = (specs,) if one else tuple(specs)
    spec = specs[0]
    shape = (spec.n_v, spec.n_h, spec.d_v, spec.d_h, spec.layout_kind)
    if any((s.n_v, s.n_h, s.d_v, s.d_h, s.layout_kind) != shape for s in specs):
        raise ValueError("the specs of a stack of layouts may differ only in theta and phi")
    batch = () if one else (len(specs),)
    idx = np.arange(spec.count)
    mv = idx // spec.n_h
    mh = idx % spec.n_h
    x = spec.d_v * mv.astype(float)
    y = spec.d_h * mh.astype(float)

    if spec.layout_kind is LayoutKind.PARALLELOGRAM_OPTIMAL:
        # the plane cos(theta) sin(phi) x + sin(theta) y + cc z = 0, per tilt
        tilts = [(math.cos(s.theta) * math.sin(s.phi), math.sin(s.theta), plane_cosine(s.theta, s.phi))
                 for s in specs]
        a, b, cc = np.array(tilts).T.reshape(3, *batch, 1)
        coords = np.empty((*batch, 3, spec.count))
        coords[..., 0, :], coords[..., 1, :] = x, y
        np.divide(a * x + b * y, -cc if side is Side.TX else cc, out=coords[..., 2, :])
    else:
        flat = np.vstack([x, y, np.zeros_like(x)])
        coords = _rotation_xy(specs).reshape(*batch, 3, 3) @ flat

    if side is Side.RX:
        coords = coords + np.array([[0.0], [0.0], [distance]])
    return AntennaLayout(coords=coords, side=side, n_v=spec.n_v, n_h=spec.n_h)


def check_one_layout(reader: str, *layouts: AntennaLayout) -> None:
    """Raise ValueError naming ``reader``, which reads 3 x K coords, for a stack (R x 3 x K)."""
    for layout in layouts:
        if layout.coords.ndim != 2:
            raise ValueError(f"{reader} takes one layout, got a stack of coords {layout.coords.shape}")


def aperture(layout: AntennaLayout) -> float:
    """Largest Euclidean distance between two elements of the array.

    Every layout from build_layout is an affine image of the n_v x n_h
    grid, and the farthest pair of points of a parallelogram is a pair of
    its corners, so only the four corner elements are compared.
    """
    check_one_layout("aperture", layout)
    n_v, n_h = layout.n_v, layout.n_h
    corners = layout.coords[:, [0, n_h - 1, (n_v - 1) * n_h, n_v * n_h - 1]].T
    diff = corners[:, None, :] - corners[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


def aperture_feasible(
    l_t: float, l_r: float, ns: int, wavelength: float, distance: float
) -> bool:
    """True iff the aperture product can support ns streams: Lt*Lr >= 2 sqrt(ns) lambda D.

    The inequality is closed at the boundary; a relative slack of 1e-9
    keeps optimally sized arrays, which land exactly on it, feasible under
    rounding.
    """
    if min(l_t, l_r, wavelength, distance) <= 0 or ns < 1:
        raise ValueError("apertures, wavelength, distance must be positive and ns >= 1")
    threshold = 2.0 * math.sqrt(ns) * wavelength * distance
    return l_t * l_r >= threshold * (1.0 - 1e-9)


def nominal_extent(n_v: int, n_h: int, d_v: float, d_h: float) -> float:
    """Grid-extent aperture sqrt((n_v d_v)^2 + (n_h d_h)^2).

    Counts full element pitches rather than realized corner distances; this
    is the scale on which the feasibility threshold is exact for optimally
    spaced arrays.
    """
    return math.sqrt((n_v * d_v) ** 2 + (n_h * d_h) ** 2)
