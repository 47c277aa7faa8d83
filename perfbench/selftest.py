"""Self-test of the benchmark harness.

Usage, from the repository root:

    python3 perfbench/selftest.py [--second-seed N]

1. At the default seed, each workload's worker output (the path the
   benchmark times) equals a direct ``run_scenario`` call on the same
   configs in this process, check for check.
2. The ``short_bits`` cell and the sweep's (20 BEP, 100 m) cell share
   their seed, so the sweep's guesses are a prefix of short_bits'.
3. At a second seed, a traced sample of every workload passes every
   output check and its spans account for its wall time.

Exits 0 when every step holds.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile

from run import OUT, ROOT, UNATTRIBUTED_BOUND, WORKLOADS, run_worker

sys.path.insert(0, str(ROOT / "src"))

import kljnsim  # noqa: E402
from workloads import WORKLOADS as SPECS, check_result  # noqa: E402


def direct_checks(name: str, seed: int, n_bits: int) -> list[dict]:
    """The workload's scenarios run one by one through run_scenario."""
    spec = SPECS[name]
    out_dir = None
    if spec.persists:
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=OUT / "tmp")
    try:
        return [check_result(kljnsim.run_scenario(cfg), full=True)
                for cfg in spec.configs(seed, n_bits, out_dir)]
    finally:
        if out_dir:
            shutil.rmtree(out_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--second-seed", type=int, default=1)
    args = ap.parse_args(argv)
    failures = []
    OUT.mkdir(exist_ok=True)
    seed = kljnsim.DEFAULT_MASTER_SEED
    job = {"root": str(ROOT), "seed": seed, "mode": "run", "trace": False}

    by_name = {}
    for name in WORKLOADS:
        report, error = run_worker(dict(job, workload=name))
        if report is None:
            failures.append(f"{name}: worker failed: {error}")
            continue
        by_name[name] = report["checks"]
        direct = direct_checks(name, seed, report["checks"][0]["n_bits"])
        if direct != report["checks"]:
            failures.append(f"{name}: benchmark output differs from direct run_scenario")
        print(f"{name}: benchmark output matches direct run_scenario at seed {seed}: "
              f"{direct == report['checks']}")

    if "table1" in by_name and "short_bits" in by_name:
        cell = by_name["table1"][0]["guesses"]
        prefix = by_name["short_bits"][0]["guesses"][: len(cell)]
        print(f"table1 (20, 100 m) guesses are a prefix of short_bits: {cell == prefix}")
        if cell != prefix:
            failures.append("short_bits does not extend the sweep's (20, 100 m) cell")

    spans = OUT / "selftest-spans.json"
    for name in WORKLOADS:
        report, error = run_worker(dict(job, workload=name, seed=args.second_seed, trace=True,
                                        spans_path=str(spans)))
        if report is None:
            failures.append(f"{name} seed {args.second_seed}: worker failed: {error}")
            continue
        problems = [p for c in report["checks"] for p in c["problems"]]
        unattributed = (report["wall_s"] - report["traced_s"]) / report["wall_s"]
        if not 0.0 <= unattributed <= UNATTRIBUTED_BOUND:
            problems.append(f"spans leave {unattributed:.4f} of the wall time unaccounted for")
        failures += [f"{name} seed {args.second_seed}: {p}" for p in problems]
        print(f"{name} seed {args.second_seed} traced: {len(problems)} problems")
    spans.unlink(missing_ok=True)

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest passed" if not failures else f"selftest failed ({len(failures)})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
