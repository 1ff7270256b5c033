"""Scenario configs (YAML), layout/channel assembly, and scheme evaluation.

A scenario is one rotation angle of one config: realized layouts, the
exact channel, and lazily built beamformers shared across the SNR grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import yaml

from . import beamforming, channel, geometry, spectral
from .linalg import eig_hermitian

SPEED_OF_LIGHT = 299_792_458.0

SCHEMES = (
    "asymptotic-hybrid",
    "digital-uniform",
    "digital-wf",
    "omp-hybrid",
    "phase-extract",
)
SPACING_MODES = ("optimal", "half-wavelength", "explicit")
LAYOUT_NAMES = {
    "parallelogram": geometry.LayoutKind.PARALLELOGRAM_OPTIMAL,
    "rotated-upa": geometry.LayoutKind.ROTATED_UPA,
}


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str, line: int | None = None):
        self.field_path = field_path
        self.line = line
        where = f"{field_path}" + (f" (line {line})" if line else "")
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
    layout: str = "parallelogram"
    output_path: str | None = None
    cluster_eps: float = 0.1

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / (self.frequency_ghz * 1e9)


def _line_of(raw_text: str | None, key: str) -> int | None:
    if not raw_text:
        return None
    token = key.split(".")[-1] + ":"
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        if line.strip().startswith(token):
            return lineno
    return None


def _require(mapping, key, kind, raw_text, path=""):
    full = f"{path}{key}"
    if key not in mapping:
        raise ConfigError(full, "missing", _line_of(raw_text, full))
    value = mapping[key]
    # a float field takes an integer too; bool is an int subclass, so test it apart
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            full, f"expected {kind.__name__}, got {type(value).__name__}", _line_of(raw_text, full)
        )
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(full, "integer too large for a float", _line_of(raw_text, full)) from None
        if not math.isfinite(value):
            raise ConfigError(full, f"must be finite, got {value}", _line_of(raw_text, full))
    return value


def _is_finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _array_config(mapping, path, raw_text, need_spacing):
    if not isinstance(mapping, dict):
        raise ConfigError(path.rstrip("."), "expected a mapping", _line_of(raw_text, path.rstrip(".")))
    n_v = _require(mapping, "n_v", int, raw_text, path)
    n_h = _require(mapping, "n_h", int, raw_text, path)
    if n_v < 1 or n_h < 1:
        raise ConfigError(f"{path}n_v", "element counts must be >= 1", _line_of(raw_text, f"{path}n_v"))
    d_v = d_h = None
    if need_spacing:
        d_v = _require(mapping, "d_v", float, raw_text, path)
        d_h = _require(mapping, "d_h", float, raw_text, path)
        if d_v <= 0 or d_h <= 0:
            raise ConfigError(f"{path}d_v", "spacings must be positive", _line_of(raw_text, f"{path}d_v"))
    return ArrayConfig(n_v=n_v, n_h=n_h, d_v=d_v, d_h=d_h)


def parse_config(data: dict, raw_text: str | None = None) -> ScenarioConfig:
    """Validate a parsed config mapping; errors name the offending field."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config document must be a mapping")
    freq = _require(data, "frequency_ghz", float, raw_text)
    dist = _require(data, "distance_m", float, raw_text)
    if freq <= 0:
        raise ConfigError("frequency_ghz", "must be positive", _line_of(raw_text, "frequency_ghz"))
    if dist <= 0:
        raise ConfigError("distance_m", "must be positive", _line_of(raw_text, "distance_m"))

    spacing_mode = data.get("spacing_mode", "optimal")
    if spacing_mode not in SPACING_MODES:
        raise ConfigError("spacing_mode", f"must be one of {SPACING_MODES}", _line_of(raw_text, "spacing_mode"))
    tx = _array_config(_require(data, "tx", dict, raw_text), "tx.", raw_text, spacing_mode == "explicit")
    rx = _array_config(_require(data, "rx", dict, raw_text), "rx.", raw_text, spacing_mode == "explicit")

    ns = _require(data, "ns", int, raw_text)
    if ns < 1:
        raise ConfigError("ns", "must be >= 1", _line_of(raw_text, "ns"))
    if "ns_split" in data:
        split = data["ns_split"]
        if (
            not isinstance(split, (list, tuple))
            or len(split) != 2
            or not all(isinstance(s, int) and not isinstance(s, bool) for s in split)
        ):
            raise ConfigError("ns_split", "expected a pair of integers", _line_of(raw_text, "ns_split"))
        ns_split = (split[0], split[1])
    else:
        root = math.isqrt(ns)
        if root * root != ns or root % 2 != 0:
            raise ConfigError(
                "ns_split",
                f"required: ns={ns} has no even balanced split",
                _line_of(raw_text, "ns"),
            )
        ns_split = (root, root)
    if ns_split[0] * ns_split[1] != ns:
        raise ConfigError("ns_split", f"product must equal ns={ns}", _line_of(raw_text, "ns_split"))
    for i, s in enumerate(ns_split):
        if s % 2 != 0 or s < 2:
            raise ConfigError("ns_split", f"entry {i} must be even and >= 2, got {s}", _line_of(raw_text, "ns_split"))

    n_rf_tx = _require(data, "n_rf_tx", int, raw_text)
    n_rf_rx = _require(data, "n_rf_rx", int, raw_text)
    n_min = min(tx.n_v * tx.n_h, rx.n_v * rx.n_h)
    if not ns <= min(n_rf_tx, n_rf_rx) <= n_min:
        raise ConfigError(
            "n_rf_tx",
            f"need ns <= min(n_rf_tx, n_rf_rx) <= min(N, M) = {n_min}",
            _line_of(raw_text, "n_rf_tx"),
        )

    snr_db = data.get("snr_db")
    if not isinstance(snr_db, (list, tuple)) or not snr_db or not all(map(_is_finite_number, snr_db)):
        raise ConfigError("snr_db", "expected a non-empty list of finite numbers", _line_of(raw_text, "snr_db"))

    schemes = data.get("schemes")
    if not isinstance(schemes, (list, tuple)) or not schemes:
        raise ConfigError("schemes", "expected a non-empty list", _line_of(raw_text, "schemes"))
    for s in schemes:
        if s not in SCHEMES:
            raise ConfigError("schemes", f"unknown scheme {s!r}, valid: {SCHEMES}", _line_of(raw_text, "schemes"))

    rotation = data.get("rotation_deg", [])
    if rotation is None:
        rotation = []
    if not isinstance(rotation, (list, tuple)) or not all(map(_is_finite_number, rotation)):
        raise ConfigError("rotation_deg", "expected a list of finite numbers", _line_of(raw_text, "rotation_deg"))
    rotation = tuple(float(r) for r in rotation) or (0.0,)

    layout = data.get("layout", "parallelogram")
    if layout not in LAYOUT_NAMES:
        raise ConfigError("layout", f"must be one of {tuple(LAYOUT_NAMES)}", _line_of(raw_text, "layout"))
    if LAYOUT_NAMES[layout] is geometry.LayoutKind.PARALLELOGRAM_OPTIMAL:
        for r in rotation:
            try:
                geometry.plane_cosine(math.radians(r), math.radians(r))
            except geometry.DegeneratePlaneError as exc:
                raise ConfigError(
                    "rotation_deg", f"{r:g} deg: {exc}", _line_of(raw_text, "rotation_deg")
                ) from exc

    output_path = data.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path", "expected a string", _line_of(raw_text, "output_path"))

    cluster_eps = data.get("cluster_eps", 0.1)
    if not isinstance(cluster_eps, (int, float)) or not 0.0 < cluster_eps < 0.5:
        raise ConfigError("cluster_eps", "must lie in (0, 0.5)", _line_of(raw_text, "cluster_eps"))

    per_axis = ((rx.n_v, tx.n_v, ns_split[0]), (rx.n_h, tx.n_h, ns_split[1]))
    for axis, (n_i, m_i, ns_i) in zip("vh", per_axis):
        if ns_i > min(n_i, m_i):
            raise ConfigError(
                "ns_split",
                f"axis {axis}: per-axis streams {ns_i} exceed min element count {min(n_i, m_i)}",
                _line_of(raw_text, "ns_split"),
            )

    return ScenarioConfig(
        frequency_ghz=freq,
        distance_m=dist,
        tx=tx,
        rx=rx,
        ns=ns,
        ns_split=ns_split,
        n_rf_tx=n_rf_tx,
        n_rf_rx=n_rf_rx,
        snr_db=tuple(float(s) for s in snr_db),
        schemes=tuple(schemes),
        spacing_mode=spacing_mode,
        rotation_deg=rotation,
        layout=layout,
        output_path=output_path,
        cluster_eps=float(cluster_eps),
    )


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    try:
        # libyaml when present: same constructor and resolver, so the same objects
        data = yaml.load(raw, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise ConfigError("<document>", f"not valid YAML: {exc}", line) from exc
    return parse_config(data, raw)


def axis_spacings(config: ScenarioConfig, scale: float = 1.0):
    """Per-axis (tx, rx) spacing pairs for the configured spacing mode."""
    lam, dist = config.wavelength, config.distance_m
    if config.spacing_mode == "optimal":
        sol_v = geometry.optimal_spacing(
            config.rx.n_v, config.tx.n_v, config.ns_split[0], lam, dist
        )
        sol_h = geometry.optimal_spacing(
            config.rx.n_h, config.tx.n_h, config.ns_split[1], lam, dist
        )
        d_tv, d_rv, d_th, d_rh = sol_v.d_t, sol_v.d_r, sol_h.d_t, sol_h.d_r
    elif config.spacing_mode == "half-wavelength":
        d_tv = d_rv = d_th = d_rh = lam / 2.0
    else:
        d_tv, d_th = config.tx.d_v, config.tx.d_h
        d_rv, d_rh = config.rx.d_v, config.rx.d_h
    return (d_tv * scale, d_th * scale), (d_rv * scale, d_rh * scale)


class Scenario:
    """One rotation point of a config with lazily cached heavy artifacts."""

    def __init__(self, config: ScenarioConfig, rotation_deg: float, spacing_scale: float = 1.0):
        self.config = config
        self.rotation_deg = rotation_deg
        self.spacing_scale = spacing_scale
        theta = math.radians(rotation_deg)
        kind = LAYOUT_NAMES[config.layout]
        (d_tv, d_th), (d_rv, d_rh) = axis_spacings(config, spacing_scale)
        self.tx_spec = geometry.ArraySpec(
            n_v=config.tx.n_v, n_h=config.tx.n_h, d_v=d_tv, d_h=d_th,
            theta=theta, phi=theta, layout_kind=kind,
        )
        self.rx_spec = geometry.ArraySpec(
            n_v=config.rx.n_v, n_h=config.rx.n_h, d_v=d_rv, d_h=d_rh,
            theta=theta, phi=theta, layout_kind=kind,
        )
        self.params = channel.ChannelParams(wavelength=config.wavelength, distance=config.distance_m)
        self.tx_layout = geometry.build_layout(self.tx_spec, geometry.Side.TX, config.distance_m)
        self.rx_layout = geometry.build_layout(self.rx_spec, geometry.Side.RX, config.distance_m)
        self._cache: dict = {}

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def h(self) -> np.ndarray:
        return self._memo("h", lambda: channel.exact_channel(self.tx_layout, self.rx_layout, self.params))

    @property
    def digital(self) -> beamforming.DigitalBeamformer:
        return self._memo("digital", lambda: beamforming.digital_svd(self.h, self.config.ns))

    @property
    def tx_dictionary(self) -> beamforming.TwistedDft:
        return self._memo(
            "tx_dict",
            lambda: beamforming.dictionary_tx(self.tx_layout, self.params),
        )

    @property
    def rx_dictionary(self) -> beamforming.TwistedDft:
        return self._memo(
            "rx_dict",
            lambda: beamforming.dictionary_rx(self.rx_layout, self.params),
        )

    def hybrid(self, scheme: str):
        ns = self.config.ns
        if scheme == "asymptotic-hybrid":
            return self._memo(
                "asymptotic",
                lambda: beamforming.asymptotic_hybrid(
                    self.tx_dictionary, self.rx_dictionary, self.h, ns,
                    self.config.n_rf_tx, self.config.n_rf_rx,
                ),
            )
        if scheme == "omp-hybrid":
            def build():
                tx = beamforming.omp_hybrid(
                    self.digital.precoder, self.tx_dictionary, self.config.n_rf_tx, geometry.Side.TX
                )
                rx = beamforming.omp_hybrid(
                    self.digital.combiner, self.rx_dictionary, self.config.n_rf_rx, geometry.Side.RX
                )
                return tx, rx

            return self._memo("omp", build)
        if scheme == "phase-extract":
            return self._memo(
                "phase-extract",
                lambda: beamforming.phase_extraction_hybrid(
                    self.h, self.digital, self.config.n_rf_tx, self.config.n_rf_rx
                ),
            )
        raise ValueError(f"not a hybrid scheme: {scheme}")

    def rate(self, scheme: str, snr: float) -> float:
        """Spectral efficiency of one scheme at one linear SNR."""
        ns = self.config.ns
        root = math.sqrt(ns)
        if scheme == "digital-uniform":
            dig = self.digital
            return spectral.rate(self.h, dig.precoder, dig.combiner, snr, ns)
        if scheme == "digital-wf":
            dig = self.digital
            alloc = spectral.water_filling(dig.singular_values**2, 1.0, snr)
            scaled = dig.precoder * np.sqrt(alloc.powers)[None, :]
            # trace-1 precoder with the plain snr prefactor == sqrt(ns)-scaled
            # precoder under the uniform formula
            return spectral.rate(self.h, root * scaled, dig.combiner, snr, ns)

        key = ("products", scheme)
        if key not in self._cache:
            # built once per scenario and shared across the SNR grid
            tx, rx = self.hybrid(scheme)
            self._cache[key] = (root * tx.product(), rx.product())
        precoder, combiner = self._cache[key]
        return spectral.rate(self.h, precoder, combiner, snr, ns)


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


def spectrum_data(config: ScenarioConfig):
    """Eigenvalues of the transmit gain matrix plus per-axis cluster reports.

    The eigensolve runs on the real part of ``_centred_tx_gram``, which has
    the same spectrum as the plain Gram at the cost of a real solver.
    """
    scenario = Scenario(config, config.rotation_deg[0])
    g = _centred_tx_gram(scenario.tx_layout, scenario.rx_layout, scenario.params)
    imag, real = np.abs(g.imag).max(), np.abs(g.real).max()
    if imag > CENTRED_GRAM_IMAG_RTOL * real:
        # a broken symmetry assumption is a bug, not a numeric failure
        raise RuntimeError(
            f"centred transmit Gram is not real: max |Im| {imag:.3e} against max |Re| {real:.3e}"
        )
    eig = eig_hermitian(g.real)
    normalizer = scenario.tx_layout.count * scenario.rx_layout.count / config.ns
    lam, dist, eps = config.wavelength, config.distance_m, config.cluster_eps
    (d_tv, d_th), (d_rv, d_rh) = axis_spacings(config)

    deltas, reports = {}, {}
    for name, (n_i, m_i, d_t, d_r) in {
        "v": (config.rx.n_v, config.tx.n_v, d_tv, d_rv),
        "h": (config.rx.n_h, config.tx.n_h, d_th, d_rh),
    }.items():
        n_max, n_min = max(n_i, m_i), min(n_i, m_i)
        deltas[name] = d_t * d_r * n_max / (lam * dist)
        reports[name] = spectral.cluster_report(eig, normalizer, eps, deltas[name], n_min, n_max, m_i)

    # the counts classify the whole 2-D spectrum, so both axis reports agree on them
    rep_v, rep_h = reports["v"], reports["h"]
    summary = {
        "eps": eps,
        "normalizer": normalizer,
        "count_near_one": rep_v.count_near_one,
        "count_near_zero": rep_v.count_near_zero,
        "transition_count": rep_v.transition_count,
        "predicted_rank": rep_v.predicted_rank * rep_h.predicted_rank,
        "delta_v": deltas["v"],
        "delta_h": deltas["h"],
        "transition_bound_v": rep_v.transition_bound,
        "transition_bound_h": rep_h.transition_bound,
    }
    return eig.values, eig.values / normalizer, summary
