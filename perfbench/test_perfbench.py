"""Self-tests of the benchmark: tracer coverage, call counts, seeded inputs, checks.

Run from the repository root (takes about a minute, most of it the desk
SVD and eigensolve):

    python3 -m pytest -p no:cacheprovider perfbench

The call counts are derived by hand from the CLI loops at commit 93746b6.
A change that alters how often the program calls a layer updates them here.
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out" / "selftest"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import beamfocus  # noqa: E402
from beamfocus import beamforming, cli, linalg, scenario, spectral  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

HAND_DERIVED_CALLS = {
    # 7 digital-uniform references + 5 schemes x 7 SNRs; the SVD of H and of
    # the phase-extract effective channel
    "desk-sweep": {"spectral.rate": 42, "linalg.svd": 2, "beamforming.digital_svd": 1},
    # one eigensolve of the 256x256 Gram, no SVD
    "desk-spectrum": {"linalg.eig_hermitian": 1, "linalg.svd": 0},
    # 36 angles x (31 references + 5 x 31 rows); one eigensolve per rate plus
    # 16 OMP least-squares fits per angle
    "fine-grid": {"spectral.rate": 6696, "beamforming.digital_svd": 36, "linalg.eig_hermitian": 7272},
}


def run_traced(name, seed):
    plan = workloads.prepare(name, seed, ROOT, OUT / f"{name}-{seed}")
    tracer = Tracer().install()
    try:
        codes = [cli.main(job.argv()) for job in plan.jobs]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(plan.jobs)
    outcomes = [checks.check(job, name, REFERENCE) for job in plan.jobs]
    calls = {name: entry["calls"] for name, entry in tracer.layers().items()}
    return plan, calls, outcomes


@pytest.fixture(scope="module")
def fine_grid_runs():
    return {seed: run_traced("fine-grid", seed) for seed in (1, 2)}


def test_install_patches_every_binding_and_uninstall_restores():
    original_svd, original_eig = linalg.svd, linalg.eig_hermitian
    tracer = Tracer().install()
    try:
        assert linalg.svd is not original_svd
        assert beamforming.svd is linalg.svd and beamfocus.svd is linalg.svd
        assert scenario.eig_hermitian is linalg.eig_hermitian
        assert spectral.eig_hermitian is linalg.eig_hermitian
        assert cli.Scenario is scenario.Scenario  # wrapped in place, class identity kept
        assert "beamfocus.beamforming.svd" in tracer.patched_bindings()
    finally:
        tracer.uninstall()
    assert beamforming.svd is original_svd and scenario.eig_hermitian is original_eig


def test_spans_nest_count_errors_and_split_self_time():
    h = np.exp(1j * np.arange(36.0).reshape(6, 6) ** 1.5)
    tracer = Tracer().install()
    try:
        beamforming.digital_svd(h, 2)
        with pytest.raises(ValueError):
            linalg.svd(np.full((2, 2), np.nan))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["beamforming.digital_svd", "linalg.svd", "linalg.svd"]
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == -1
    layers = tracer.layers()
    assert layers["linalg.svd"]["calls"] == 2 and layers["linalg.svd"]["errors"] == 1
    outer = tracer.spans[0][2] - tracer.spans[0][1]
    inner = tracer.spans[1][2] - tracer.spans[1][1]
    assert layers["beamforming.digital_svd"]["self_s"] == pytest.approx(outer - inner)
    assert tracer.derived["linalg.svd.work"] == 6 * 6 * 6
    assert tracer.derived["linalg.svd.resid_max"] < 1e-12


@pytest.mark.parametrize("name", ["desk-spectrum", "desk-sweep"])
def test_hand_derived_call_counts_desk(name):
    _, calls, outcomes = run_traced(name, 0)
    assert {k: calls[k] for k in HAND_DERIVED_CALLS[name]} == HAND_DERIVED_CALLS[name]
    assert all(o.failed == 0 and not o.problems for o in outcomes)


def test_hand_derived_call_counts_fine_grid(fine_grid_runs):
    _, calls, outcomes = fine_grid_runs[1]
    expected = HAND_DERIVED_CALLS["fine-grid"]
    assert {k: calls[k] for k in expected} == expected
    assert [o.rows for o in outcomes] == [5580]
    assert all(o.failed == 0 and not o.problems for o in outcomes)


def test_seeds_change_angles_but_not_rows_or_calls(fine_grid_runs):
    angles = {seed: workloads.fine_grid_angles(seed) for seed in (1, 2)}
    assert angles[1] != angles[2]
    for values in angles.values():
        assert len(set(values)) == workloads.FINE_GRID_ANGLES
        assert all(0.0 <= a < 70.0 for a in values)
    assert workloads.fine_grid_angles(1) == angles[1]
    (_, calls_1, out_1), (_, calls_2, out_2) = fine_grid_runs[1], fine_grid_runs[2]
    assert calls_1 == calls_2
    assert [o.rows for o in out_1] == [o.rows for o in out_2]


def test_checks_fail_bad_and_missing_rows(fine_grid_runs):
    plan, _, _ = fine_grid_runs[1]
    job = plan.jobs[0]
    path = Path(job.out_path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    broken = [list(r) for r in body[1:]]  # drop one row
    broken[0][3] = "1e6"  # a rate above every bound
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header] + broken)
    outcome = checks.check(job, "fine-grid", REFERENCE)
    assert outcome.expected == 5580 and outcome.failed == 2
