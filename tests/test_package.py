"""Importing beamfocus sets one BLAS thread unless the caller has chosen already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamfocus

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def after_import(imports, **variables):
    """OPENBLAS_NUM_THREADS and the thread count of a fresh interpreter after ``imports``.

    The interpreter starts with none of the BLAS variables but ``variables``.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(variables, PYTHONPATH=str(Path(beamfocus.__file__).resolve().parents[1]))
    probe = (f"import json, os; {imports}; print(json.dumps("
             "[os.environ.get('OPENBLAS_NUM_THREADS'), len(os.listdir('/proc/self/task'))]))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    return tuple(json.loads(result.stdout))


class TestBlasThreadDefault:
    def test_one_thread_by_default(self):
        assert after_import("import beamfocus") == ("1", 1)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
    def test_explicit_count_wins(self):
        assert after_import("import beamfocus", OPENBLAS_NUM_THREADS="2") == ("2", 2)

    def test_omp_count_leaves_openblas_unset(self):
        value, _ = after_import("import beamfocus", OMP_NUM_THREADS="2")
        assert value is None

    def test_numpy_imported_first_is_left_alone(self):
        value, _ = after_import("import numpy; import beamfocus")
        assert value is None
