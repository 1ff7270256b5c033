"""The benchmark's workloads: scenario configs and the CLI jobs run on them.

Each workload is one or two ``beamfocus`` CLI jobs on one config, run with
``--threads 1``. ``desk-sweep`` and ``desk-spectrum`` use the repository's
``configs/desk_scale.yaml``; ``fine-grid`` and ``panel`` configs are
generated here. Only ``fine-grid`` uses the seed: it draws its rotation
angles from it. See README.md in this directory for why these four.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import yaml

NAMES = ("desk-sweep", "desk-spectrum", "fine-grid", "panel")
DESK_CONFIG = "configs/desk_scale.yaml"
ALL_SCHEMES = ["digital-uniform", "digital-wf", "asymptotic-hybrid", "omp-hybrid", "phase-extract"]
APERTURE_SCALES = (0.25, 0.5, 0.75, 1.0, 1.5)  # the CLI's default --scales
FINE_GRID_ANGLES = 36
FINE_GRID_MAX_MDEG = 70_000  # angles are whole millidegrees in [0, 70) degrees


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what the output check needs to know about it."""

    command: str
    config: dict
    config_path: str
    out_path: str

    def argv(self) -> list[str]:
        return [self.command, "--config", self.config_path, "--out", self.out_path, "--threads", "1"]


@dataclass(frozen=True)
class Plan:
    name: str
    seed_used: bool
    jobs: tuple[Job, ...]

    @property
    def config_paths(self) -> list[str]:
        return sorted({job.config_path for job in self.jobs})


def fine_grid_angles(seed: int) -> list[float]:
    """36 distinct rotation angles in [0, 70) degrees drawn from ``seed``."""
    picks = random.Random(seed).sample(range(FINE_GRID_MAX_MDEG), FINE_GRID_ANGLES)
    return [m / 1000.0 for m in sorted(picks)]


def fine_grid_config(seed: int) -> dict:
    return {
        "frequency_ghz": 28.0,
        "distance_m": 50.0,
        "tx": {"n_v": 4, "n_h": 4},
        "rx": {"n_v": 4, "n_h": 4},
        "ns": 4,
        "ns_split": [2, 2],
        "n_rf_tx": 8,
        "n_rf_rx": 8,
        "snr_db": list(range(-10, 21)),
        "schemes": list(ALL_SCHEMES),
        "spacing_mode": "optimal",
        "rotation_deg": fine_grid_angles(seed),
        "layout": "parallelogram",
    }


def panel_config() -> dict:
    return {
        "frequency_ghz": 28.0,
        "distance_m": 50.0,
        "tx": {"n_v": 4, "n_h": 4},
        "rx": {"n_v": 64, "n_h": 64},
        "ns": 4,
        "ns_split": [2, 2],
        "n_rf_tx": 8,
        "n_rf_rx": 8,
        "snr_db": [-10, 0, 10, 20],
        "schemes": list(ALL_SCHEMES),
        "spacing_mode": "optimal",
        "rotation_deg": [0],
        "layout": "parallelogram",
    }


def prepare(name: str, seed: int, root: Path, outdir: Path) -> Plan:
    """Write the workload's generated config (if any) and return its jobs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
    outdir.mkdir(parents=True, exist_ok=True)
    if name.startswith("desk-"):
        path = root / DESK_CONFIG
        config = yaml.safe_load(path.read_text(encoding="utf-8"))
        command = "rate-sweep" if name == "desk-sweep" else "spectrum"
        jobs = (Job(command, config, str(path), str(outdir / f"{name}.csv")),)
        return Plan(name, False, jobs)
    config = fine_grid_config(seed) if name == "fine-grid" else panel_config()
    path = outdir / f"{name}.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    if name == "fine-grid":
        jobs = (Job("rotation-sweep", config, str(path), str(outdir / "fine-grid.csv")),)
        return Plan(name, True, jobs)
    jobs = (
        Job("rate-sweep", config, str(path), str(outdir / "panel-rate.csv")),
        Job("aperture-sweep", config, str(path), str(outdir / "panel-aperture.csv")),
    )
    return Plan(name, False, jobs)
