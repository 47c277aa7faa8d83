"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: python3 perfbench/worker.py '<job json>'

The job names the workload, the master seed, the mode and whether to
trace.  Mode ``setup`` runs every scenario of the workload cut to the
fewest bits it accepts (with random arrangements, the fewest that reach
every arrangement) and reports the summed ``run_scenario`` wall time.
Mode ``run`` runs the full campaign once.  Timing starts after ``import
kljnsim``, so every sample pays set-up the way a CLI user does.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path


def environment() -> dict:
    """Library versions and BLAS threading of this interpreter."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def main() -> int:
    job = json.loads(sys.argv[1])
    root = Path(job["root"])
    import kljnsim

    if Path(kljnsim.__file__).resolve().parent != (root / "src" / "kljnsim").resolve():
        print(f"kljnsim imported from {kljnsim.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2

    from tracing import Tracer, dump, install, layer_metrics
    from workloads import WORKLOADS, bytes_written, check_result, timing_bytes

    wl = WORKLOADS[job["workload"]]
    seed = kljnsim.DEFAULT_MASTER_SEED if job["seed"] is None else job["seed"]
    tmp_root = root / ".perfbench" / "tmp"
    out_dir = None
    if wl.persists:
        tmp_root.mkdir(parents=True, exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=tmp_root)
    try:
        report = {"seed": seed, "env": dict(environment(), master_seed=seed)}
        if job["mode"] == "setup":
            configs = wl.configs(seed, wl.setup_bits(seed), out_dir)
            setup_s = 0.0
            results = []
            for cfg in configs:
                t0 = time.perf_counter()
                results.append(kljnsim.run_scenario(cfg))
                setup_s += time.perf_counter() - t0
            report["setup_s"] = setup_s
            report["checks"] = [check_result(r, full=False) for r in results]
        else:
            tracer = None
            if job["trace"]:
                tracer = Tracer()
                install(tracer)
            t0 = time.perf_counter()
            results = wl.run(seed, out_dir)
            report["wall_s"] = time.perf_counter() - t0
            report["bits"] = sum(r.config.n_bits for r in results)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            report["checks"] = [check_result(r, full=True) for r in results]
            if tracer is not None:
                layers = layer_metrics(tracer)
                layers["scenarios.bytes_written"] = bytes_written(out_dir)
                report["timing_bytes"] = timing_bytes(results)
                report["layers"] = layers
                report["traced_s"] = tracer.root_time()
                Path(job["spans_path"]).write_text(json.dumps(dump(tracer)))
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
