"""The preset peaks do not depend on numpy's SIMD dispatch.

``NPY_DISABLE_CPU_FEATURES`` turns numpy's AVX-512 paths off, which moves
the last bits of ``np.exp`` in the density kernel.  ``peak_phi`` finds a
``pi_of_phi`` peak as the root of a closed form in Python floats, after a
grid argmax that those bits do not move on the presets, so the 16 preset
peaks keep all 17 digits.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"

#: Prints ``peak_phi_deg`` of the 8 preset cells under both current
#: schemes, as ``qclock curve`` writes it.
PEAKS = """\
import math
from library_transcript import preset_cells
from qclock import PhysicsConfig, peak_phi, pi_of_phi
for physics, scheme in preset_cells():
    peak = peak_phi(pi_of_phi(PhysicsConfig(**physics), scheme))
    print(f"{math.degrees(peak):.17g}")
"""


def peaks_process(disabled):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (str(SRC), str(TESTS), env.get("PYTHONPATH", "")))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return subprocess.Popen([sys.executable, "-c", PEAKS], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_preset_peaks_do_not_depend_on_the_simd_dispatch():
    runs = {label: peaks_process(disabled)
            for label, disabled in (("default", None),
                                    ("avx512-off", AVX512_OFF))}
    listings = {}
    for label, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        if proc.returncode != 0:
            if label == "default":
                pytest.fail(f"the peak listing failed:\n{err}")
            pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES="
                        f"{AVX512_OFF!r}: exit {proc.returncode}: "
                        f"{err.strip()[-300:]}")
        listings[label] = out
    assert len(listings["default"].splitlines()) == 16
    assert listings["avx512-off"] == listings["default"]
