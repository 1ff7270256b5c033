"""Command-line harness: spectrum dumps, rate sweeps, aperture sweeps, validation.

Exit codes: 0 ok, 1 invariant failure, 2 config error, 3 numeric failure.
CSV output is UTF-8 with LF endings and 12-significant-digit floats;
identical configs produce byte-identical files (timings are opt-in).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .geometry import aperture, aperture_feasible, nominal_extent
from .linalg import ConvergenceError, active_backend
from .scenario import ConfigError, Scenario, ScenarioConfig, load_config, spectrum_data

# what a grid point's numerics can raise; anything else is a bug and surfaces
# as a traceback rather than as exit code 3
NUMERIC_ERRORS = (ArithmeticError, ValueError, np.linalg.LinAlgError, ConvergenceError)


class GridPointError(RuntimeError):
    def __init__(self, scheme, snr_db, rotation_deg, cause):
        self.scheme = scheme
        self.snr_db = snr_db
        self.rotation_deg = rotation_deg
        super().__init__(
            f"numeric failure at scheme={scheme} snr_db={snr_db} rotation_deg={rotation_deg}: {cause}"
        )


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _grid_rate(scenario: Scenario, scheme: str, snr_db: float) -> float:
    """Scenario.rate at one grid point, numeric failures raised as GridPointError."""
    try:
        return scenario.rate(scheme, 10 ** (snr_db / 10.0))
    except NUMERIC_ERRORS as exc:
        raise GridPointError(scheme, snr_db, scenario.rotation_deg, exc) from exc


def _parse_scales(text: str) -> list[float]:
    """The --scales list; anything but a non-empty list of positive finite numbers is a ConfigError."""
    try:
        scales = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError("scales", f"not a comma-separated list of numbers: {text!r}") from exc
    if not scales:
        raise ConfigError("scales", f"no scale given: {text!r}")
    if not all(0.0 < s < math.inf for s in scales):
        raise ConfigError("scales", f"scales must be positive and finite: {text!r}")
    return scales


def run_rate_sweep(config: ScenarioConfig, threads: int = 1, timing: bool = False):
    """Evaluate every (scheme, snr, rotation) grid point; rows come back sorted.

    Parallelism is per rotation so each scenario's beamformer cache stays
    single-threaded; rows are sorted afterwards, so ordering never depends
    on scheduling.
    """

    def evaluate_rotation(rot):
        scenario = Scenario(config, rot)
        reference = {}
        out = []
        for snr_db in config.snr_db:
            reference[snr_db] = _grid_rate(scenario, "digital-uniform", snr_db)
        for scheme in config.schemes:
            for snr_db in config.snr_db:
                start = time.perf_counter()
                rate = _grid_rate(scenario, scheme, snr_db)
                elapsed_ms = (time.perf_counter() - start) * 1e3
                ref = reference[snr_db]
                gap = rate / ref if ref > 0 else float("nan")
                out.append((scheme, snr_db, rot, rate, gap, elapsed_ms))
        return out

    if threads > 1 and len(config.rotation_deg) > 1:
        # imported on use, like validation below: every CLI start pays for its imports
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(evaluate_rotation, config.rotation_deg))
    else:
        chunks = [evaluate_rotation(rot) for rot in config.rotation_deg]

    rows = []
    for chunk in chunks:
        for scheme, snr_db, rot, rate, gap, elapsed_ms in chunk:
            row = [scheme, snr_db, rot, rate, gap]
            if timing:
                row.append(elapsed_ms)
            rows.append(tuple(row))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    header = ["scheme", "snr_db", "rotation_deg", "rate_bps_hz", "digital_gap_ratio"]
    if timing:
        header.append("wall_time_ms")
    return header, rows


def run_spectrum(config: ScenarioConfig):
    values, omega, summary = spectrum_data(config)
    rows = [("eigenvalue", str(i), float(v), float(w)) for i, (v, w) in enumerate(zip(values, omega))]
    for key, val in summary.items():
        rows.append(("summary", key, float(val), ""))
    header = ["row_type", "key", "raw_value", "normalized_value"]
    return header, rows


def run_aperture_sweep(config: ScenarioConfig, scales):
    """Digital-uniform rate vs spacing scale at the first SNR/rotation point.

    The feasibility flag tests the nominal grid extent (n*d per side), the
    scale on which the threshold is exact for optimally spaced arrays; the
    l_t/l_r columns report realized corner-to-corner apertures. ``scales``
    must be positive and finite, as ``_parse_scales`` checks.
    """
    snr_db = config.snr_db[0]
    rot = config.rotation_deg[0]
    rows = []
    for scale in sorted(scales):
        scenario = Scenario(config, rot, spacing_scale=scale)
        l_t = aperture(scenario.tx_layout)
        l_r = aperture(scenario.rx_layout)
        ts, rs = scenario.tx_spec, scenario.rx_spec
        nominal_t = nominal_extent(ts.n_v, ts.n_h, ts.d_v, ts.d_h)
        nominal_r = nominal_extent(rs.n_v, rs.n_h, rs.d_v, rs.d_h)
        feasible = aperture_feasible(
            nominal_t, nominal_r, config.ns, config.wavelength, config.distance_m
        )
        rate = _grid_rate(scenario, "digital-uniform", snr_db)
        rows.append((scale, l_t, l_r, nominal_t * nominal_r, feasible, rate))
    header = ["scale", "l_t_m", "l_r_m", "nominal_product_m2", "feasible", "rate_bps_hz"]
    return header, rows


def run_validate(seed: int = 0) -> int:
    from . import validation

    results = validation.run_all(seed=seed)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} invariants passed "
          f"(solver: {active_backend()})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beamfocus",
        description="Near-field LoS MIMO spectrum analyses and beam focusing rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML scenario config")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--threads", type=int, default=1, help="parallel grid evaluation")

    p_spec = sub.add_parser("spectrum", help="eigenvalue spectrum and cluster summary")
    add_common(p_spec)
    for name in ("rate-sweep", "rotation-sweep"):
        p = sub.add_parser(name, help="rates for every scheme/SNR/rotation grid point")
        add_common(p)
        p.add_argument("--timing", action="store_true", help="append wall_time_ms column")
    p_ap = sub.add_parser("aperture-sweep", help="digital rate vs spacing scale")
    add_common(p_ap)
    p_ap.add_argument("--scales", default="0.25,0.5,0.75,1.0,1.5",
                      help="comma-separated spacing scale factors")
    p_val = sub.add_parser("validate", help="run the cross-module invariant suite")
    p_val.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "validate":
        return run_validate(seed=args.seed)

    try:
        config = load_config(args.config)
        if args.command == "spectrum":
            header, rows = run_spectrum(config)
        elif args.command in ("rate-sweep", "rotation-sweep"):
            header, rows = run_rate_sweep(config, threads=args.threads, timing=args.timing)
        else:
            header, rows = run_aperture_sweep(config, _parse_scales(args.scales))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridPointError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3

    _write_csv(args.out, header, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
