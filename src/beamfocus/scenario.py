"""Scenario configs (YAML), layout/channel assembly, and scheme evaluation.

A scenario is one config at one rotation angle, or at every angle of a
sweep at once: realized layouts, the exact channels, and lazily built
beamformers shared across the SNR grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np
import yaml

from . import beamforming, channel, geometry, spectral
from .linalg import _frobenius, eig_hermitian

SPEED_OF_LIGHT = 299_792_458.0

SCHEMES = (
    "asymptotic-hybrid",
    "digital-uniform",
    "digital-wf",
    "omp-hybrid",
    "phase-extract",
)
SPACING_MODES = ("optimal", "half-wavelength", "explicit")


class ConfigError(ValueError):
    def __init__(self, path: tuple, message: str, line: int | None = None):
        self.path = path  # the document keys that lead to the field
        self.message = message
        self.line = line
        where = ".".join(map(str, path)) + (f" (line {line})" if line else "")
        super().__init__(f"config field {where}: {message}")


@dataclass(frozen=True)
class ArrayConfig:
    n_v: int
    n_h: int
    d_v: float | None = None
    d_h: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    frequency_ghz: float
    distance_m: float
    tx: ArrayConfig
    rx: ArrayConfig
    ns: int
    ns_split: tuple[int, int]
    n_rf_tx: int
    n_rf_rx: int
    snr_db: tuple[float, ...]
    schemes: tuple[str, ...]
    spacing_mode: str = "optimal"
    rotation_deg: tuple[float, ...] = (0.0,)
    layout: geometry.LayoutKind = geometry.LayoutKind.PARALLELOGRAM_OPTIMAL
    cluster_eps: float = 0.1

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / (self.frequency_ghz * 1e9)


# the keys a config may hold: a key that parse_config would not read is an error
CONFIG_KEYS = tuple(field.name for field in fields(ScenarioConfig))
ARRAY_KEYS = tuple(field.name for field in fields(ArrayConfig))


def _number(value, path: tuple, kind=float):
    """The one numeric check: an int (or, for a float field, a float) that is finite as a float.

    bool is an int subclass, so it is rejected apart; a float field's value
    comes back as a float.
    """
    accepted = (int, float) if kind is float else int
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(path, f"expected {kind.__name__}, got {type(value).__name__}")
    try:
        as_float = float(value)
    except OverflowError:
        raise ConfigError(path, "integer too large for a float") from None
    if not math.isfinite(as_float):
        raise ConfigError(path, f"must be finite, got {value}")
    return as_float if kind is float else value


def _numbers(values, path: tuple, kind=float) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(path, f"expected a list, got {type(values).__name__}")
    return tuple(_number(v, path, kind) for v in values)


def _known_keys(mapping: dict, keys: tuple, prefix: tuple = ()) -> None:
    for key in mapping:
        if key not in keys:
            raise ConfigError((*prefix, key), f"not a config field; the fields are {keys}")


def _distinct(values: tuple, path: tuple) -> tuple:
    """A grid axis: each value once, so each grid point is evaluated once."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(path, f"{value!r} appears more than once")
    return values


def _positive(mapping: dict, path: tuple, kind=float):
    """The required number under the last key of ``path``, checked by _number and > 0."""
    key = path[-1]
    if key not in mapping:
        raise ConfigError(path, "missing")
    value = _number(mapping[key], path, kind)
    if value <= 0:
        raise ConfigError(path, f"must be positive, got {value}")
    return value


def _array_config(data: dict, path: tuple, need_spacing: bool) -> ArrayConfig:
    mapping = data.get(path[-1])
    if not isinstance(mapping, dict):
        raise ConfigError(path, "missing" if mapping is None else "expected a mapping")
    _known_keys(mapping, ARRAY_KEYS, path)
    for key in ("d_v", "d_h"):
        if key in mapping and not need_spacing:
            raise ConfigError((*path, key), "read only under spacing_mode: explicit")
    n_v, n_h = (_positive(mapping, (*path, key), int) for key in ("n_v", "n_h"))
    spacings = (_positive(mapping, (*path, key)) for key in ("d_v", "d_h"))
    d_v, d_h = spacings if need_spacing else (None, None)
    return ArrayConfig(n_v=n_v, n_h=n_h, d_v=d_v, d_h=d_h)


def parse_config(data: dict) -> ScenarioConfig:
    """Validate a parsed config mapping; each ConfigError names the field at fault."""
    if not isinstance(data, dict):
        raise ConfigError(("<root>",), "config document must be a mapping")
    _known_keys(data, CONFIG_KEYS)
    defaults = {field.name: field.default for field in fields(ScenarioConfig)}
    freq = _positive(data, ("frequency_ghz",))
    dist = _positive(data, ("distance_m",))

    spacing_mode = data.get("spacing_mode", defaults["spacing_mode"])
    if spacing_mode not in SPACING_MODES:
        raise ConfigError(("spacing_mode",), f"must be one of {SPACING_MODES}")
    tx = _array_config(data, ("tx",), spacing_mode == "explicit")
    rx = _array_config(data, ("rx",), spacing_mode == "explicit")

    ns = _positive(data, ("ns",), int)
    if "ns_split" in data:
        ns_split = _numbers(data["ns_split"], ("ns_split",), int)
        if len(ns_split) != 2:
            raise ConfigError(("ns_split",), "expected a pair of integers")
    else:
        root = math.isqrt(ns)
        if root * root != ns or root % 2 != 0:
            raise ConfigError(("ns_split",), f"required: ns={ns} has no even balanced split")
        ns_split = (root, root)
    if ns_split[0] * ns_split[1] != ns:
        raise ConfigError(("ns_split",), f"product must equal ns={ns}")
    per_axis = ((ns_split[0], rx.n_v, tx.n_v), (ns_split[1], rx.n_h, tx.n_h))
    for axis, (ns_i, n_i, m_i) in zip("vh", per_axis):
        try:
            geometry.check_axis_streams(ns_i, n_i, m_i)
        except (geometry.OddStreamCountError, geometry.StreamExceedsArrayError) as exc:
            raise ConfigError(("ns_split",), f"axis {axis}: {exc}") from exc

    # each side's hybrid picks its RF chains among that side's antennas
    n_rf = {}
    for side, array in (("tx", tx), ("rx", rx)):
        field, count = f"n_rf_{side}", array.n_v * array.n_h
        n_rf[side] = _positive(data, (field,), int)
        if not ns <= n_rf[side] <= count:
            raise ConfigError(
                (field,), f"need ns={ns} <= {field} <= {count}, the {side.upper()} antenna count"
            )

    snr_db = _distinct(_numbers(data.get("snr_db"), ("snr_db",)), ("snr_db",))
    if not snr_db:
        raise ConfigError(("snr_db",), "expected a non-empty list")

    schemes = data.get("schemes")
    if not isinstance(schemes, (list, tuple)) or not schemes:
        raise ConfigError(("schemes",), "expected a non-empty list")
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError(("schemes",), f"unknown scheme {s!r}, valid: {SCHEMES}")
    schemes = _distinct(tuple(schemes), ("schemes",))

    rotation = data.get("rotation_deg")
    rotation = () if rotation is None else _numbers(rotation, ("rotation_deg",))
    rotation = _distinct(rotation or defaults["rotation_deg"], ("rotation_deg",))

    try:
        layout = geometry.LayoutKind(data.get("layout", defaults["layout"]))
    except ValueError:
        names = tuple(kind.value for kind in geometry.LayoutKind)
        raise ConfigError(("layout",), f"must be one of {names}") from None
    if layout is geometry.LayoutKind.PARALLELOGRAM_OPTIMAL:
        for r in rotation:
            try:
                geometry.plane_cosine(math.radians(r), math.radians(r))
            except geometry.DegeneratePlaneError as exc:
                raise ConfigError(("rotation_deg",), f"{r:g} deg: {exc}") from exc

    cluster_eps = _number(data.get("cluster_eps", defaults["cluster_eps"]), ("cluster_eps",))
    if not 0.0 < cluster_eps < 0.5:
        raise ConfigError(("cluster_eps",), "must lie in (0, 0.5)")

    return ScenarioConfig(
        frequency_ghz=freq,
        distance_m=dist,
        tx=tx,
        rx=rx,
        ns=ns,
        ns_split=ns_split,
        n_rf_tx=n_rf["tx"],
        n_rf_rx=n_rf["rx"],
        snr_db=snr_db,
        schemes=schemes,
        spacing_mode=spacing_mode,
        rotation_deg=rotation,
        layout=layout,
        cluster_eps=cluster_eps,
    )


def load_config(path: str) -> ScenarioConfig:
    """Read and validate a YAML config; a ConfigError carries the failing key's line."""
    # libyaml when present: same constructor and resolver, so the same objects
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        data = yaml.load(raw, Loader=loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(("<document>",), f"cannot read: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError(("<document>",), f"not valid YAML: {exc}", line) from exc
    try:
        return parse_config(data)
    except ConfigError as exc:
        # error path only: follow the path down the node tree as far as the document holds
        # it, matching keys as the loader constructs them, identity first as in a dict (.nan);
        # the last of repeated keys wins; a missing top-level key gets no line
        walker, line = loader(raw), None
        node = walker.get_single_node()
        for key in exc.path:
            if not isinstance(node, yaml.MappingNode):
                break
            walker.flatten_mapping(node)
            pairs = [(k, v) for k, v in node.value
                     if (built := walker.construct_object(k)) is key or built == key]
            if not pairs:
                break
            key_node, node = pairs[-1]
            line = key_node.start_mark.line + 1
        raise ConfigError(exc.path, exc.message, line) from None


def axis_spacings(config: ScenarioConfig, scale: float = 1.0):
    """Per-axis (tx, rx) spacing pairs for the configured spacing mode."""
    lam, dist = config.wavelength, config.distance_m
    if config.spacing_mode == "optimal":
        d_tv = d_rv = geometry.optimal_spacing(
            config.rx.n_v, config.tx.n_v, config.ns_split[0], lam, dist
        )
        d_th = d_rh = geometry.optimal_spacing(
            config.rx.n_h, config.tx.n_h, config.ns_split[1], lam, dist
        )
    elif config.spacing_mode == "half-wavelength":
        d_tv = d_rv = d_th = d_rh = lam / 2.0
    else:
        d_tv, d_th = config.tx.d_v, config.tx.d_h
        d_rv, d_rh = config.rx.d_v, config.rx.d_h
    return (d_tv * scale, d_th * scale), (d_rv * scale, d_rh * scale)


class Scenario:
    """One config at one rotation angle, or at each angle of a sweep: channels and beamformers.

    ``rotation_deg`` is one angle, or a sequence of them. Every array then
    carries the batch shape of ``rotation_deg``: () for one angle, (R,) for
    R of them, ahead of its own axes, so ``h`` is N x M or R x N x M and
    ``rate`` returns the SNR shape or R rows of it. The specs are one
    object, or a tuple of one per angle; each layout is one, stacked for a
    sweep (``geometry.build_layouts``). A sweep of R angles builds its
    layouts, channels and dictionaries and runs every numeric layer once,
    in stacked calls, and each of its rows is bitwise the one the angle's
    own scenario gives.

    The heavy artifacts are built on first use and shared across the SNR
    grid. This is the one place that sets transmit power: trace ns for the
    hybrid precoders in ``beams`` and the digital stream powers in ``rate``.
    """

    def __init__(self, config: ScenarioConfig, rotation_deg, spacing_scale: float = 1.0):
        self.config = config
        self.rotation_deg = rotation_deg
        self.spacing_scale = spacing_scale
        self._one = np.ndim(rotation_deg) == 0
        angles = (rotation_deg,) if self._one else tuple(rotation_deg)
        tilts = [math.radians(angle) for angle in angles]
        tx_specs, rx_specs = (
            [
                geometry.ArraySpec(n_v=array.n_v, n_h=array.n_h, d_v=d_v, d_h=d_h,
                                   theta=tilt, phi=tilt, layout_kind=config.layout)
                for tilt in tilts
            ]
            for array, (d_v, d_h) in zip((config.tx, config.rx), axis_spacings(config, spacing_scale))
        )
        self._spec_pairs = list(zip(tx_specs, rx_specs))
        self.tx_spec, self.rx_spec = self._batch(tx_specs), self._batch(rx_specs)
        self.params = channel.ChannelParams(wavelength=config.wavelength, distance=config.distance_m)
        self.tx_layout = geometry.build_layouts(self.tx_spec, geometry.Side.TX, config.distance_m)
        self.rx_layout = geometry.build_layouts(self.rx_spec, geometry.Side.RX, config.distance_m)
        self._beams: dict = {}

    def _batch(self, items: list):
        """Per-angle items in the batch shape: the one item for one angle, else a tuple."""
        return items[0] if self._one else tuple(items)

    @functools.cached_property
    def h(self) -> np.ndarray:
        return channel.exact_channels(self.tx_layout, self.rx_layout, self.params)

    @functools.cached_property
    def digital(self) -> beamforming.DigitalBeamformer:
        # h before the start block: the other order raises desk-sweep's peak RSS by 0.4 MiB
        h, ns = self.h, self.config.ns
        twists = self.tx_dictionary.twist.reshape(-1, self.tx_layout.count)
        starts = [
            beamforming.fresnel_start(tx, rx, twist, self.params, ns)
            for (tx, rx), twist in zip(self._spec_pairs, twists)
        ]
        return beamforming.digital_svd(h, ns, self._batch(starts))

    @functools.cached_property
    def tx_dictionary(self) -> beamforming.TwistedDft:
        return beamforming.dictionary_tx(self.tx_layout, self.params)

    @functools.cached_property
    def rx_dictionary(self) -> beamforming.TwistedDft:
        return beamforming.dictionary_rx(self.rx_layout, self.params)

    def hybrid(self, scheme: str):
        """The (transmit, receive) stages of a hybrid scheme, as its builder returns them."""
        config = self.config
        if scheme == "asymptotic-hybrid":
            return beamforming.asymptotic_hybrid(
                self.tx_dictionary, self.rx_dictionary, self.h, config.ns,
                config.n_rf_tx, config.n_rf_rx,
            )
        if scheme == "omp-hybrid":
            return (
                beamforming.omp_hybrid(self.digital.precoder, self.tx_dictionary, config.n_rf_tx),
                beamforming.omp_hybrid(self.digital.combiner, self.rx_dictionary, config.n_rf_rx),
            )
        if scheme == "phase-extract":
            return beamforming.phase_extraction_hybrid(
                self.h, self.digital, config.n_rf_tx, config.n_rf_rx
            )
        raise ValueError(f"not a hybrid scheme: {scheme}")

    def beams(self, scheme: str) -> tuple[np.ndarray, np.ndarray]:
        """Trace-ns precoder and combiner of a hybrid scheme, built once per scenario."""
        if scheme not in self._beams:
            tx, rx = self.hybrid(scheme)
            # ||F_RF F_BB||_F^2 = ns; scaling the baseband before the
            # product keeps the rounding of the committed CSVs
            unit = tx.analog @ (tx.baseband / _frobenius(tx.product()))
            self._beams[scheme] = math.sqrt(self.config.ns) * unit, rx.product()
        return self._beams[scheme]

    def rate(self, scheme: str, snr):
        """Spectral efficiency of one scheme at each linear SNR of ``snr``: the batch shape, then snr's.

        Digital rates come from the singular values: digital-uniform gives each
        stream power 1, digital-wf ns times the water_filling share at each SNR,
        from one water_filling call over the whole curve (every angle's).
        """
        if scheme not in ("digital-uniform", "digital-wf"):
            return spectral.rate(self.h, *self.beams(scheme), snr, self.config.ns)
        if scheme == "digital-uniform":
            return uniform_rate(self.digital.singular_values, snr, self.config.ns)
        gains = self.digital.singular_values**2
        snrs = np.asarray(snr, dtype=float)
        # any allocation gives rate 0 at SNR 0; stream_rate rejects a bad SNR
        live = (0 < snrs) & (snrs < math.inf)
        powers = np.zeros((*gains.shape[:-1], *snrs.shape, gains.shape[-1]))
        if live.any():
            powers[..., live, :] = spectral.water_filling(gains, 1.0, snrs[live]).powers
        return spectral.stream_rate(snrs, powers * spectral.per_snr(gains, snrs))


def uniform_rate(sigma: np.ndarray, snr, ns: int):
    """digital-uniform's rate from the singular values ``sigma``: each stream at power 1.

    The rate at each linear SNR of ``snr``, with the batch shape of
    ``sigma`` (its leading axes) ahead of snr's.
    """
    return spectral.stream_rate(snr, spectral.per_snr(sigma**2, snr), ns)


# rounding leaves the centred Gram's imaginary part near 1e-14 of its real
# part; a layout whose RX points are not point-symmetric leaves O(1)
CENTRED_GRAM_IMAG_RTOL = 1e-8


def _centred_tx_gram(
    tx: geometry.AntennaLayout, rx: geometry.AntennaLayout, params: channel.ChannelParams
) -> np.ndarray:
    """Transmit Gram of the Fresnel core with the RX-centroid phase taken off.

    With (xr, yr) the RX centroid, each TX column t of h_tilde is multiplied
    by conj(c_t), c_t = exp(2j pi / (lambda D) * (xr x_t + yr y_t)). That is a
    diagonal unitary on the TX side, so the Gram keeps its eigenvalues.
    Every layout build_layout makes is an affine image of the grid, so the
    RX xy points are point-symmetric about their centroid, and the Gram
    becomes real symmetric up to rounding.
    """
    h_tilde = channel.fresnel_factors(tx, rx, params).h_tilde
    centre_x, centre_y = rx.coords[0].mean(), rx.coords[1].mean()
    h_tilde *= np.exp(
        -2j * np.pi / params.wavelength * (centre_x * tx.coords[0] + centre_y * tx.coords[1])
        / params.distance
    )
    return channel.gram(h_tilde, geometry.Side.TX)


def _tx_gain_values(scenario: Scenario) -> np.ndarray:
    """Eigenvalues of the transmit Gram of the Fresnel core, in non-increasing order.

    With a Kronecker core (channel.has_kron_core) that Gram is the Kronecker
    product of the two per-axis Grams, so its eigenvalues are the products of
    two per-axis prolate spectra (Slepian 1978): an n_v x n_v and an n_h x n_h
    eigensolve. Each per-axis spectrum is clamped at 0 first, so a
    rounding-level negative cannot give a product of either sign. A tilted
    rotated UPA has no such core: its eigensolve runs on the real part of
    ``_centred_tx_gram``, which has the same spectrum as the plain Gram at
    the cost of a real solver.
    """
    ts, rs, params = scenario.tx_spec, scenario.rx_spec, scenario.params
    if channel.has_kron_core(ts, rs):
        channel.warn_large_aperture(scenario.tx_layout, scenario.rx_layout, params)
        per_axis = [
            np.maximum(eig_hermitian(channel.gram(factor, geometry.Side.TX)).values, 0.0)
            for factor in channel.kron_factor_channel(ts, rs, params)
        ]
        return np.sort(np.outer(*per_axis), axis=None)[::-1]
    g = _centred_tx_gram(scenario.tx_layout, scenario.rx_layout, params)
    imag, real = np.abs(g.imag).max(), np.abs(g.real).max()
    if imag > CENTRED_GRAM_IMAG_RTOL * real:
        # a broken symmetry assumption is a bug, not a numeric failure
        raise RuntimeError(
            f"centred transmit Gram is not real: max |Im| {imag:.3e} against max |Re| {real:.3e}"
        )
    return eig_hermitian(g.real).values


def spectrum_data(config: ScenarioConfig):
    """Eigenvalues of the transmit gain matrix, their cluster counts and the per-axis predictions.

    The spectrum is that of the config's first ``rotation_deg`` entry; see
    ``_tx_gain_values`` for how it is solved.
    """
    scenario = Scenario(config, config.rotation_deg[0])
    values = _tx_gain_values(scenario)
    normalizer = scenario.tx_layout.count * scenario.rx_layout.count / config.ns
    omega = values / normalizer
    eps = config.cluster_eps
    ts, rs = scenario.tx_spec, scenario.rx_spec
    axes = []  # (delta, predicted streams, transition bound) of the v, then the h axis
    for n_i, m_i, d_t, d_r in ((rs.n_v, ts.n_v, ts.d_v, rs.d_v), (rs.n_h, ts.n_h, ts.d_h, rs.d_h)):
        delta = geometry.spacing_ratio(d_t, d_r, n_i, m_i, config.wavelength, config.distance_m)
        bound = 2.0 * spectral.transition_band(max(n_i, m_i), m_i, delta, eps)
        axes.append((delta, geometry.axis_streams(delta, n_i, m_i), bound))
    (delta_v, streams_v, bound_v), (delta_h, streams_h, bound_h) = axes

    near_one, near_zero = int((omega >= 1.0 - eps).sum()), int((omega <= eps).sum())
    summary = {
        "eps": eps,
        "normalizer": normalizer,
        "count_near_one": near_one,
        "count_near_zero": near_zero,
        "transition_count": omega.size - near_one - near_zero,
        "predicted_rank": streams_v * streams_h,
        "delta_v": delta_v,
        "delta_h": delta_h,
        "transition_bound_v": bound_v,
        "transition_bound_h": bound_h,
    }
    return values, omega, summary
