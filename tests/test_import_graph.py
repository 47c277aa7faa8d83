"""A campaign loads only the scipy it computes with: ``scipy.stats``
(``noise.gaussianity_report``) and ``scipy.signal``
(``noise.out_of_band_power_fraction``) are imported inside the functions
that use them, not with ``kljnsim``.  No kljnsim function imports
``scipy.fft``: lines become samples through ``numpy.fft``
(``noise.line_records``), for the bit engine, ``noise.generate`` and
``compare.compare_models`` alike, and the noise window's length comes
from ``noise._next_fast_len``.

The test process has imported them already, so the check runs in a
fresh interpreter.  Other scipy submodules are not pinned: what
``scipy.linalg`` loads depends on the scipy version.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
import kljnsim
from kljnsim.scenarios import default_scenario, run_scenario
from kljnsim.compare import compare_models
from kljnsim.network import rg58
from kljnsim.noise import NoiseSpec, generate
run_scenario(default_scenario(20, 100.0, n_bits=4))
generate(NoiseSpec(250.0, 1.0, 0.1, 1e-4, seed=3))
compare_models(rg58(100.0), 1000.0, 9000.0, 25e3)
loaded = [name for name in ("scipy.stats", "scipy.signal", "scipy.fft") if name in sys.modules]
assert loaded == [], loaded
"""


def test_campaign_loads_no_stats_or_signal():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
