"""Record Eve's secure-bit guesses at the default seed into reference.json.

Usage, from the repository root:  python3 perfbench/record_reference.py

The traced benchmark run counts guesses that differ from this file
(``attack.guess_flips``).  Re-record only when a change to the workloads
alters their scenarios, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, ROOT, WORKLOADS, run_worker


def main() -> int:
    out = {"seed": None, "workloads": {}}
    for name in WORKLOADS:
        report, error = run_worker({"root": str(ROOT), "workload": name, "seed": None,
                                    "mode": "run", "trace": False})
        if report is None or any(c["problems"] for c in report["checks"]):
            print(f"{name}: {error or report['checks']}", file=sys.stderr)
            return 1
        out["seed"] = report["seed"]
        out["workloads"][name] = [
            {k: c[k] for k in ("label", "n_bits", "guesses")} for c in report["checks"]
        ]
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
