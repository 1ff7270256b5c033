"""Output checks on the CSVs the CLI jobs write.

The checks depend on the physics and on this benchmark's inputs, not on
which solver the program uses: a rate never beats the water-filled digital
rate or the equal-gain bound at the same grid point, Gram eigenvalues sum to
the channel's squared Frobenius norm N*M, and apertures follow from the
optimal-spacing formula. Every expected CSV row counts once; a row fails if
it is missing or fails a check. ``failed / expected`` is the workload's
``failed_frac``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import APERTURE_SCALES, Job

SPEED_OF_LIGHT = 299_792_458.0
RATE_RTOL = 1e-9  # rate vs digital-wf and vs the equal-gain bound
REFERENCE_RTOL = 1e-6  # desk digital rates vs the reference commit
EIGEN_SUM_RTOL = 1e-9
APERTURE_RTOL = 1e-10  # the CSV's 12-digit floats differ by up to ~3e-12
CLUSTER_KEYS = ("count_near_one", "count_near_zero", "transition_count")


@dataclass
class Outcome:
    expected: int
    failed: int = 0
    rows: int = 0
    problems: list[str] = field(default_factory=list)

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)

    def fail(self, rows: int, problem: str) -> None:
        self.failed += rows
        self.note(problem)


def _count(side: dict) -> int:
    return side["n_v"] * side["n_h"]


def _rotations(config: dict) -> list[float]:
    return [float(r) for r in config.get("rotation_deg") or [0.0]]


def rate_upper_bound(n: int, m: int, ns: int, snr_db: float) -> float:
    """Equal-gain bound ns * log2(1 + snr * N * M / ns^2), as in spectral.rate_upper_bound."""
    return ns * math.log2(1.0 + 10 ** (snr_db / 10.0) * n * m / ns**2)


def expected_rows(job: Job) -> int:
    cfg = job.config
    if job.command in ("rate-sweep", "rotation-sweep"):
        return len(cfg["schemes"]) * len(cfg["snr_db"]) * len(_rotations(cfg))
    if job.command == "spectrum":
        return _count(cfg["tx"]) + len(CLUSTER_KEYS)
    if job.command == "aperture-sweep":
        return len(APERTURE_SCALES)
    raise ValueError(f"no check for command {job.command!r}")


def _read(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _number(text) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def _check_rates(job: Job, rows: list[dict], reference: dict | None, out: Outcome) -> None:
    cfg = job.config
    n, m, ns = _count(cfg["rx"]), _count(cfg["tx"]), cfg["ns"]
    snrs = [float(s) for s in cfg["snr_db"]]
    rots = [round(r, 6) for r in _rotations(cfg)]
    expected = {(s, snr, rot) for s in cfg["schemes"] for snr in snrs for rot in rots}
    got: dict[tuple, float] = {}
    for row in rows:
        key = (row.get("scheme"), _number(row.get("snr_db")), round(_number(row.get("rotation_deg")), 6))
        if key not in expected or key in got:
            out.note(f"unexpected or duplicate row {key}")
            continue
        got[key] = _number(row.get("rate_bps_hz"))
    for scheme, snr, rot in sorted(expected):
        where = f"{scheme} snr_db={snr:g} rotation_deg={rot:g}"
        rate = got.get((scheme, snr, rot))
        if rate is None:
            out.fail(1, f"missing row {where}")
            continue
        if not math.isfinite(rate):
            out.fail(1, f"non-finite rate at {where}")
            continue
        bound = rate_upper_bound(n, m, ns, snr)
        if rate > bound * (1.0 + RATE_RTOL):
            out.fail(1, f"rate {rate} above equal-gain bound {bound} at {where}")
            continue
        wf = got.get(("digital-wf", snr, rot))
        if wf is not None and rate > wf * (1.0 + RATE_RTOL):
            out.fail(1, f"rate {rate} above digital-wf {wf} at {where}")
            continue
        ref = (reference or {}).get(scheme, {}).get(f"{snr:g}")
        if ref is not None and abs(rate - ref) > REFERENCE_RTOL * abs(ref):
            out.fail(1, f"rate {rate} differs from reference {ref} at {where}")


def _check_spectrum(job: Job, rows: list[dict], reference: dict, out: Outcome) -> None:
    cfg = job.config
    n, m = _count(cfg["rx"]), _count(cfg["tx"])
    eigen = [_number(r.get("raw_value")) for r in rows if r.get("row_type") == "eigenvalue"]
    summary = {r.get("key"): _number(r.get("raw_value")) for r in rows if r.get("row_type") == "summary"}
    if len(eigen) > m:
        out.note(f"{len(eigen)} eigenvalue rows, expected {m}")
    missing = max(m - len(eigen), 0)
    if missing:
        out.fail(missing, f"{missing} of {m} eigenvalue rows missing")
    total = math.fsum(eigen)
    if not all(math.isfinite(v) for v in eigen) or abs(total - n * m) > EIGEN_SUM_RTOL * n * m:
        out.fail(m - missing, f"eigenvalue sum {total} differs from N*M = {n * m}")
    for key in CLUSTER_KEYS:
        if summary.get(key) != reference[key]:
            out.fail(1, f"summary {key} = {summary.get(key)}, reference {reference[key]}")


def _corner_distance(side: dict, spacing: tuple[float, float]) -> float:
    return math.hypot((side["n_v"] - 1) * spacing[0], (side["n_h"] - 1) * spacing[1])


def _check_apertures(job: Job, rows: list[dict], out: Outcome) -> None:
    cfg = job.config
    if cfg["spacing_mode"] != "optimal" or _rotations(cfg)[0] != 0.0:
        raise ValueError("aperture check assumes optimal spacing at rotation 0")
    lam = SPEED_OF_LIGHT / (cfg["frequency_ghz"] * 1e9)
    dist = cfg["distance_m"]
    tx, rx = cfg["tx"], cfg["rx"]
    # optimal_spacing with split 1 gives d_t = d_r = sqrt(ns_i lambda D / (n_i m_i)) per axis
    spacing = tuple(
        math.sqrt(ns_i * lam * dist / (rx[axis] * tx[axis]))
        for ns_i, axis in zip(cfg["ns_split"], ("n_v", "n_h"))
    )
    l_t, l_r = _corner_distance(tx, spacing), _corner_distance(rx, spacing)
    bound = rate_upper_bound(_count(rx), _count(tx), cfg["ns"], float(cfg["snr_db"][0]))
    by_scale = {_number(r.get("scale")): r for r in rows}
    for scale in APERTURE_SCALES:
        row = by_scale.get(scale)
        if row is None:
            out.fail(1, f"missing aperture row for scale {scale}")
            continue
        got_t, got_r = _number(row.get("l_t_m")), _number(row.get("l_r_m"))
        rate = _number(row.get("rate_bps_hz"))
        if not (abs(got_t - scale * l_t) <= APERTURE_RTOL * scale * l_t
                and abs(got_r - scale * l_r) <= APERTURE_RTOL * scale * l_r):
            out.fail(1, f"apertures {got_t}, {got_r} at scale {scale}, expected {scale * l_t}, {scale * l_r}")
        elif not (math.isfinite(rate) and rate <= bound * (1.0 + RATE_RTOL)):
            out.fail(1, f"rate {rate} at scale {scale} not finite or above bound {bound}")
    if len(rows) != len(APERTURE_SCALES):
        out.note(f"{len(rows)} aperture rows, expected {len(APERTURE_SCALES)}")


def check(job: Job, workload: str, reference: dict) -> Outcome:
    """Check one job's CSV; a missing file fails every expected row."""
    out = Outcome(expected=expected_rows(job))
    path = Path(job.out_path)
    if not path.exists():
        out.fail(out.expected, f"{path.name} was not written")
        return out
    rows = _read(path)
    out.rows = len(rows)
    if job.command == "spectrum":
        _check_spectrum(job, rows, reference[workload], out)
    elif job.command == "aperture-sweep":
        _check_apertures(job, rows, out)
    else:
        _check_rates(job, rows, reference.get(workload), out)
    return out
