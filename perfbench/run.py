#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the beamfocus CLI.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one after another

Each CLI job runs in a fresh child interpreter with ``PYTHONPATH=src`` of
this checkout, ``--threads 1`` and the default BLAS threads, exactly as a
user would run ``beamfocus``. Children run one at a time, repeated while
another fits in ``--seconds``. The run first starts a few children that only
import beamfocus and load the configs, for set-up time.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
(medians over the children): ``wall_s``, ``setup_s``, ``cpu_s``,
``peak_rss_mb``. With ``--trace 1`` every round runs the job untraced and
then traced, and the last line holds the per-layer metrics of the traced
children plus ``trace.overhead_s``, the traced minus untraced median wall
time. Every child's CSVs are checked (checks.py); ``failed_frac`` is printed
in the table and reported as ``failed`` of ``attempted`` rows.

Side files, including the machine record and the spans of the last traced
child, go to ``.perfbench-out/`` in the checkout. See README.md here for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of build output

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
REQUIRED = ("src/beamfocus/__init__.py", "src/beamfocus/cli.py", workloads.DESK_CONFIG)


class BenchError(RuntimeError):
    """The benchmark could not measure; no result line is printed."""


@dataclass
class Sample:
    """One child process: timings from the child, usage from the kernel, check outcome."""

    setup_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    expected: int = 0
    failed: int = 0
    rows: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None
    derived: dict | None = None


def _spawn(request: dict, log: Path) -> tuple[int, object]:
    """Run child.py with ``request``; return its exit code and resource usage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(request)]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]

    def overrun(_signum, _frame):
        raise BenchError(f"child ran longer than {CHILD_TIMEOUT_S:.0f} s; see {log}")

    # block in wait4 rather than poll, so this process takes no CPU from the child;
    # the alarm interrupts the wait if the child hangs
    previous = signal.signal(signal.SIGALRM, overrun)
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv + [repr(spawned)], env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    reaped = False
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def run_child(plan: workloads.Plan, *, jobs: bool, trace: bool = False, machine: bool = False):
    """One fresh interpreter: set-up only, or set-up plus the plan's CLI jobs."""
    result_path = OUT / f"{plan.name}.child.json"
    result_path.unlink(missing_ok=True)
    for job in plan.jobs:
        Path(job.out_path).unlink(missing_ok=True)
    request = {
        "configs": plan.config_paths,
        "jobs": [job.argv() for job in plan.jobs] if jobs else [],
        "trace": trace,
        "machine": machine,
        "root": str(ROOT),
        "result_path": str(result_path),
        "spans_path": str(OUT / f"{plan.name}.spans.json"),
    }
    code, usage = _spawn(request, OUT / f"{plan.name}.log")
    if code != 0 or not result_path.exists():
        raise BenchError(f"{plan.name} child exited with code {code}; see {OUT / (plan.name + '.log')}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported beamfocus from {result['package']}, not from this checkout")
    sample = Sample(setup_s=result["setup_s"])
    if jobs:
        sample.wall_s = result["wall_s"]
        sample.cpu_s = usage.ru_utime + usage.ru_stime
        sample.rss_mb = usage.ru_maxrss / 1024.0
        sample.layers, sample.derived = result.get("layers"), result.get("derived")
        for job, exit_code in zip(plan.jobs, result["exit_codes"]):
            outcome = checks.check(job, plan.name, REFERENCE)
            sample.expected += outcome.expected
            sample.failed += outcome.failed
            sample.rows += outcome.rows
            sample.problems += outcome.problems
            if exit_code != 0:
                sample.problems.append(f"beamfocus {job.command} exited with code {exit_code}")
    return sample, result.get("machine")


def layer_metrics(traced: list[Sample]) -> dict:
    """Per-layer metrics from the traced children: counts and derived values
    from the first (they repeat exactly), self time as the median."""
    first = traced[0]
    out = {}
    for name in tracer.SPAN_NAMES:
        entry = first.layers[name]
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.self_s"] = (statistics.median(s.layers[name]["self_s"] for s in traced), "s")
        out[f"{name}.errors"] = (entry["errors"], "count")
    derived = dict(first.derived)
    rate_calls = first.layers["spectral.rate"]["calls"]
    scenarios = first.layers["scenario.Scenario"]["calls"]
    derived["spectral.rate.calls_per_row"] = rate_calls / first.rows if first.rows else 0.0
    derived["scenario.svd_per_scenario"] = (
        first.layers["beamforming.digital_svd"]["calls"] / scenarios if scenarios else 0.0
    )
    for name, unit in tracer.DERIVED:
        out[name] = (derived[name], unit)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    plan = workloads.prepare(name, seed, ROOT, OUT / name)
    # the first child may compile bytecode; it is not timed, and records the machine
    _, machine = run_child(plan, jobs=False, machine=True)
    setup = [run_child(plan, jobs=False)[0].setup_s for _ in range(SETUP_PROBES)]
    untraced: list[Sample] = []
    traced: list[Sample] = []
    start = time.monotonic()
    while True:
        untraced.append(run_child(plan, jobs=True)[0])
        if trace:
            traced.append(run_child(plan, jobs=True, trace=True)[0])
        elapsed = time.monotonic() - start
        rounds = len(untraced)
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    setup += [s.setup_s for s in untraced]
    children = untraced + traced
    walls = [s.wall_s for s in untraced]
    record = {
        "workload": name,
        "seed": seed,
        "seed_used": plan.seed_used,
        "inputs": {
            "configs": plan.config_paths,
            "jobs": [j.argv() for j in plan.jobs],
            "rotation_deg": plan.jobs[0].config["rotation_deg"],
        },
        "machine": machine,
        "samples": {
            "setup_s": setup,
            "wall_s": walls,
            "cpu_s": [s.cpu_s for s in untraced],
            "peak_rss_mb": [s.rss_mb for s in untraced],
        },
        "attempted": sum(s.expected for s in children),
        "failed": sum(s.failed for s in children),
        "problems": sorted({p for s in children for p in s.problems}),
        "end_to_end": {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "cpu_s": (statistics.median(s.cpu_s for s in untraced), "s"),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in untraced), "MiB"),
        },
    }
    if trace:
        traced_walls = [s.wall_s for s in traced]
        record["samples"]["traced_wall_s"] = traced_walls
        record["per_layer"] = layer_metrics(traced)
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        record["per_layer"]["trace.overhead_s"] = (overhead, "s")
    suffix = ".trace.json" if trace else ".json"
    (OUT / f"{name}{suffix}").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def print_table(record: dict, trace: bool) -> None:
    seed_note = "" if record["seed_used"] else " (unused)"
    n = len(record["samples"]["wall_s"])
    print(f"{record['workload']}: seed {record['seed']}{seed_note}, {n} timed run(s)")
    for metric, (value, unit) in record["end_to_end"].items():
        samples = record["samples"][metric]
        print(f"  {metric:<16} {value:10.4f} {unit:<4} median of {len(samples)},"
              f" range {min(samples):.4f}..{max(samples):.4f}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':<16} {failed / attempted:10.4f}      {failed} of {attempted} CSV rows")
    if trace:
        overhead = record["per_layer"]["trace.overhead_s"][0]
        print(f"  {'trace.overhead_s':<16} {overhead:10.4f} s    traced minus untraced wall_s")
    for problem in record["problems"]:
        print(f"  check failed: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget for the timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a beamfocus checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            print_table(record, bool(args.trace))
            records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": u}
        for r in records for m, (v, u) in r[key].items()
    }
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    correct = failed == 0 and not any(r["problems"] for r in records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
