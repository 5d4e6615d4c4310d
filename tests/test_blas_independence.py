"""The output files do not depend on which OpenBLAS kernel numpy runs.

``OPENBLAS_CORETYPE`` makes a DYNAMIC_ARCH OpenBLAS use an older core's
kernels.  The quadrature sums its panels without BLAS, so ``curve`` and
``compare`` write the same bytes under each setting.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

#: Each setting as (label, environment changes); None removes the variable.
SETTINGS = [("default", {"OPENBLAS_CORETYPE": None}),
            ("Sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"}),
            ("Prescott", {"OPENBLAS_CORETYPE": "Prescott"})]

ARGS = ["--preset", "I", "--sigma0", "1e-5",
        "--command", "curve", "--command", "compare"]


def digest_process(out_dir, changes):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for key, value in changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.Popen(
        [sys.executable, str(TESTS / "output_digests.py"), str(out_dir),
         *ARGS], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def test_curve_and_compare_bytes_do_not_depend_on_the_blas_core(tmp_path):
    runs = {label: digest_process(tmp_path / label, changes)
            for label, changes in SETTINGS}
    listings = {}
    for label, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            if label == "default":
                pytest.fail(f"output_digests.py failed:\n{err}")
            pytest.skip(f"cannot run under OPENBLAS_CORETYPE={label}: "
                        f"exit {proc.returncode}: {err.strip()[-300:]}")
        listings[label] = out
    default = listings.pop("default")
    # curve under both current schemes (a curve and a summary each) and
    # compare's two scheme files
    assert len(default.splitlines()) == 6
    for label, listing in listings.items():
        assert listing == default, f"OPENBLAS_CORETYPE={label}"
