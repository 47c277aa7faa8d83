"""The kljnsim names the benchmark harness in ``perfbench/`` patches or
imports still exist, so removing one fails here rather than in a
benchmark run.

The harness wraps kljnsim functions in place, so it runs in a
subprocess and its patches never reach the other tests.  The script also
runs a few bits of the divergence probe under the installed tracer, so
the session calls it makes (``run_warmup``, ``draw_arrangement`` and the
traced ``run_bit``) run too.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import tracing
tracing.install(tracing.Tracer())
import divergence_probe
import workloads
from kljnsim import DEFAULT_MASTER_SEED, TransientSolver
from kljnsim.network import build_distributed, rg58
workloads.random_arrangement_setup_bits(DEFAULT_MASTER_SEED)
divergence_probe.probe(20, 100.0, DEFAULT_MASTER_SEED, 3)
TransientSolver(build_distributed(1000.0, 9000.0, rg58(100.0)), 31.25e-6)._A
"""


def test_harness_names_resolve():
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
