"""Command-line harness: spectrum dumps, rate sweeps, aperture sweeps, validation.

Exit codes: 0 ok, 1 invariant failure, 2 config error, 3 numeric failure.
CSV output is UTF-8 with LF endings and 12-significant-digit floats;
identical configs produce byte-identical files (timings are opt-in).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np

from .geometry import aperture, aperture_feasible, nominal_extent
from .linalg import ConvergenceError, active_backend, singular_values
from .scenario import (
    ConfigError, Scenario, ScenarioConfig, _distinct, load_config, spectrum_data, uniform_rate,
)

# what a grid point's numerics can raise; anything else is a bug and surfaces
# as a traceback rather than as exit code 3
NUMERIC_ERRORS = (ArithmeticError, ValueError, np.linalg.LinAlgError, ConvergenceError)


class GridPointError(RuntimeError):
    def __init__(self, scheme, snr_db, rotation_deg, cause, spacing_scale=None):
        points = ",".join(map(str, snr_db))  # the SNR grid of the failing curve
        # an aperture sweep's point has a spacing scale too; a rate sweep's has none
        scale = "" if spacing_scale is None else f" spacing_scale={spacing_scale}"
        super().__init__(
            f"numeric failure at scheme={scheme} snr_db={points} rotation_deg={rotation_deg}{scale}: {cause}"
        )


# Each command formats its rows with %-formats: a row at a time, or for
# rate-sweep a group of rows at a time. '%.12g' % x is f'{x:.12g}' for every
# float (nan, inf, -0.0 and subnormals too), so the bytes are those of a
# value-by-value format.
def _rate_lines(groups):
    """The text of rate-sweep's rows, one string per group of ``run_rate_sweep``.

    The rows of a group share their scheme and snr cells, and the groups of
    a sweep share one tuple of rotations, so each of those cells is
    formatted once: the sweep's rotation cells when a group brings another
    tuple (compared by identity, so -0.0 and 0.0 or two NaNs stay apart),
    and a group's key cells and --timing cell into a template of all its
    rows, which its rates and gaps fill in one %-format.
    """
    last = cells = None
    for scheme, snr_db, rotations, rates, gaps, *timing in groups:
        if rotations is not last:
            last, cells = rotations, ["%.12g,%%.12g,%%.12g" % rot for rot in rotations]
        # a key cell's own '%' must not read as a conversion
        head = ("%s,%.12g," % (scheme, snr_db)).replace("%", "%%")
        tail = "".join(",%.12g" % ms for ms in timing) + "\n"
        values = [None] * (2 * len(cells))
        values[0::2], values[1::2] = rates, gaps
        yield (head + (tail + head).join(cells) + tail if cells else "") % tuple(values)


def _spectrum_line(row: tuple) -> str:
    # a summary row leaves its normalized_value cell empty
    return ("%s,%s,%.12g,%.12g\n" if row[0] == "eigenvalue" else "%s,%s,%.12g,%s\n") % row


def _aperture_line(row: tuple) -> str:
    scale, l_t, l_r, product, feasible, rate = row
    flag = "true" if feasible else "false"
    return "%.12g,%.12g,%.12g,%.12g,%s,%.12g\n" % (scale, l_t, l_r, product, flag, rate)


def _write_csv(path: str, header: list[str], lines) -> None:
    """Write the header, then each string of ``lines`` (one or more rows' text), streamed to the file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _rate_curve(scenario: Scenario, scheme: str, snr_db: tuple) -> np.ndarray:
    """Scenario.rate at each SNR of ``snr_db``: the scenario's batch shape, then the SNRs'.

    A numeric failure is raised as GridPointError naming the rotation. A
    sweep's batch does not say which of its angles failed, so on that error
    path only, the scheme is rated again one angle at a time.
    """
    snrs = np.array([10 ** (s / 10.0) for s in snr_db])
    try:
        return scenario.rate(scheme, snrs)
    except NUMERIC_ERRORS as exc:
        failure, rotation = exc, scenario.rotation_deg
    if np.ndim(rotation):
        for rot in rotation:
            try:
                Scenario(scenario.config, rot, scenario.spacing_scale).rate(scheme, snrs)
            except NUMERIC_ERRORS as exc:
                failure, rotation = exc, rot
                break
    raise GridPointError(scheme, snr_db, rotation, failure) from failure


def _parse_scales(text: str) -> tuple[float, ...]:
    """The --scales list: distinct positive finite numbers, at least one, else a ConfigError."""
    try:
        scales = [float(s) for s in text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(("scales",), f"not a comma-separated list of numbers: {text!r}") from exc
    if not scales:
        raise ConfigError(("scales",), f"no scale given: {text!r}")
    if not all(0.0 < s < math.inf for s in scales):
        raise ConfigError(("scales",), f"scales must be positive and finite: {text!r}")
    return _distinct(tuple(scales), ("scales",))


def _check_out(path: str) -> None:
    """A --out that is a directory or in a missing one is a ConfigError, raised before any work."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(("out",), f"not a file in an existing directory: {path!r}")


def run_rate_sweep(config: ScenarioConfig, timing: bool = False):
    """Evaluate every (scheme, snr, rotation) grid point; rows come back by (scheme, snr) group.

    One Scenario holds every rotation, so each scheme's rates come from one
    batched call as a rotations x SNRs array, and digital-uniform's, rated
    first, is also every scheme's gap reference. One angle is the scenario
    of batch shape (), whose arrays are the plain matrices.

    A group ``(scheme, snr_db, rotations, rates, gaps)``, with ``wall_time_ms``
    appended under ``timing``, holds one row per rotation: ``rotations`` is
    the sorted angles, one tuple shared by every group, and ``rates`` and
    ``gaps`` are lists in that order. The groups come by sorted scheme, then
    SNR. The grid's values are distinct (``_distinct``), so the rows come in
    the order a sort by (scheme, snr, rotation) would give.
    """
    snr_db, rotations = config.snr_db, config.rotation_deg
    one = len(rotations) == 1
    scenario = Scenario(config, rotations[0] if one else rotations)
    shape = (len(rotations), len(snr_db))
    rates, timed = {}, {}
    for scheme in dict.fromkeys(("digital-uniform", *config.schemes)):
        start = time.perf_counter()
        rates[scheme] = _rate_curve(scenario, scheme, snr_db).reshape(shape)
        # the batch's time shared by its rows. Each shared build is charged to
        # the first scheme that reads it: the channels and the digital SVD to
        # digital-uniform. The column sums to the evaluation time only if
        # digital-uniform is listed: otherwise it is timed but has no rows.
        timed[scheme] = ((time.perf_counter() - start) * 1e3 / math.prod(shape),) if timing else ()
    reference = rates["digital-uniform"]
    snr_order = sorted(range(len(snr_db)), key=snr_db.__getitem__)
    rot_order = sorted(range(len(rotations)), key=rotations.__getitem__)
    angles = tuple(rotations[i] for i in rot_order)
    key_order = np.ix_(rot_order, snr_order)
    groups = []
    for scheme in sorted(config.schemes):
        curves = rates[scheme]
        gaps = np.divide(curves, reference, out=np.full(shape, math.nan), where=reference > 0)
        # in key order, one list of rotations per SNR
        rate_rows, gap_rows = (values[key_order].T.tolist() for values in (curves, gaps))
        groups += [
            (scheme, snr_db[j], angles, rate_row, gap_row, *timed[scheme])
            for j, rate_row, gap_row in zip(snr_order, rate_rows, gap_rows)
        ]
    header = ["scheme", "snr_db", "rotation_deg", "rate_bps_hz", "digital_gap_ratio"]
    return header + (["wall_time_ms"] if timing else []), groups


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
    must be distinct, positive and finite, as ``_parse_scales`` checks.

    The rate is a function of the singular values alone, and no beam is
    built for it: each scale's channel is factored values-only by
    ``linalg.singular_values``. The scales run one at a time, so one
    channel is held at once. A numeric failure is raised as GridPointError
    naming the scale.
    """
    snr_db = config.snr_db[0]
    snr = 10 ** (snr_db / 10.0)
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
        try:
            rate = float(uniform_rate(singular_values(scenario.h)[: config.ns], snr, config.ns))
        except NUMERIC_ERRORS as exc:
            raise GridPointError("digital-uniform", (snr_db,), rot, exc, spacing_scale=scale) from exc
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
        # kept so that existing scripts run: a sweep is one batch, with nothing to split
        p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")

    p_spec = sub.add_parser("spectrum", help="eigenvalue spectrum and cluster summary")
    add_common(p_spec)
    for name in ("rate-sweep", "rotation-sweep"):
        p = sub.add_parser(name, help="rates for every scheme/SNR/rotation grid point")
        add_common(p)
        p.add_argument("--timing", action="store_true",
                       help="append wall_time_ms: each scheme's batch time / (rotations x SNRs)")
    p_ap = sub.add_parser("aperture-sweep", help="digital rate vs spacing scale")
    add_common(p_ap)
    p_ap.add_argument("--scales", default="0.25,0.5,0.75,1.0,1.5",
                      help="comma-separated spacing scale factors")
    p_val = sub.add_parser("validate", help="run the cross-module invariant suite")
    p_val.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "validate":
        if args.seed < 0:  # numpy seeds are non-negative; exit 2 before the suite runs
            p_val.error(f"argument --seed: must be non-negative, got {args.seed}")
        return run_validate(seed=args.seed)

    try:
        _check_out(args.out)
        config = load_config(args.config)
        if args.command == "spectrum":
            header, rows = run_spectrum(config)
            lines, count = map(_spectrum_line, rows), len(rows)
        elif args.command in ("rate-sweep", "rotation-sweep"):
            header, groups = run_rate_sweep(config, timing=args.timing)
            lines, count = _rate_lines(groups), len(groups) * len(config.rotation_deg)
        else:
            header, rows = run_aperture_sweep(config, _parse_scales(args.scales))
            lines, count = map(_aperture_line, rows), len(rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GridPointError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3

    _write_csv(args.out, header, lines)
    print(f"wrote {count} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
