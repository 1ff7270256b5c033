"""Run one workload's CLI jobs in this fresh interpreter and report the timings.

Usage: child.py REQUEST_JSON SPAWN_MONOTONIC

``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process; both processes read the same system-wide monotonic
clock, so set-up time runs from interpreter start through
``import beamfocus`` and loading the workload's configs. The result goes to
the JSON file named in the request, never to stdout, which the CLI uses.
"""

import json
import sys
import time


def machine_record(root):
    """Interpreter, numpy, BLAS, kernel backend and commit of this checkout."""
    # imported here so that the timed set-up imports only what the CLI imports
    import importlib.util
    import os
    import platform
    from pathlib import Path

    import numpy as np

    import beamfocus

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if k in os.environ}
    # OpenBLAS reads OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, else uses every core
    threads = env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS")
    return {
        "nproc": nproc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {"value": int(threads) if threads else nproc,
                         "source": "environment" if threads else "default: one per core",
                         "environment": env},
        "beamfocus_backend": beamfocus.active_backend(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(Path(root)),
    }


def _git_commit(root):
    """Commit named by ``.git/HEAD`` of the checkout, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def main():
    request, spawned = json.loads(sys.argv[1]), float(sys.argv[2])
    import beamfocus
    import beamfocus.cli

    for path in request["configs"]:
        beamfocus.load_config(path)
    result = {"setup_s": time.monotonic() - spawned, "package": beamfocus.__file__}

    if request["jobs"]:
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer().install()
        start = time.perf_counter()
        result["exit_codes"] = [beamfocus.cli.main(argv) for argv in request["jobs"]]
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layers()
            result["derived"] = tracer.derived
            tracer.dump(request["spans_path"])
    if request["machine"]:
        result["machine"] = machine_record(request["root"])
    with open(request["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
