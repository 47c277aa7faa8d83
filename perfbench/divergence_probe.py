"""Divergence probe: random arrangements with the capacitor killer.

Usage, from the repository root:

    python3 perfbench/divergence_probe.py [--seed N] [--max-bits N]

Not a benchmark workload.  With the shield driven (capacitor killer) and
random resistor choices, the HL step operator has spectral radius above
one and a run stops with ``DivergenceError`` after some bits; a run that
cannot finish cannot be timed.  ``reproduce_defenses`` runs the killer
only with the fixed LH arrangement, so no test sees this case.

For each case the probe prints the spectral radius of every
arrangement's one-step state map and the bit at which the run diverged
(or that it finished).  The case becomes a workload once it finishes.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from kljnsim import DEFAULT_MASTER_SEED, DivergenceError, TransientSolver  # noqa: E402
from kljnsim.network import apply_capacitor_killer, build_distributed  # noqa: E402
from kljnsim.protocol import KeyExchangeSession  # noqa: E402
from kljnsim.scenarios import DefenseSpec, default_scenario, default_warmup_units  # noqa: E402

CASES = [(100, 1000.0), (50, 1000.0), (20, 100.0)]
ARRANGEMENTS = [("L", "L"), ("L", "H"), ("H", "L"), ("H", "H")]


def probe(bep: int, length: float, seed: int, max_bits: int) -> tuple[dict, str]:
    cfg = default_scenario(bep, length, n_bits=max_bits, master_seed=seed,
                           defense=DefenseSpec(kind="capacitor_killer"))
    protocol = dataclasses.replace(cfg.protocol, arrangement="random")

    def builder(r_alice: float, r_bob: float):
        return apply_capacitor_killer(build_distributed(r_alice, r_bob, cfg.cable), cfg.defense.tap)

    radii = {}
    for a, b in ARRANGEMENTS:
        solver = TransientSolver(builder(protocol.resistance(a), protocol.resistance(b)),
                                 cfg.solver.internal_step_s, cfg.solver.tolerance)
        radii[a + b] = float(np.max(np.abs(np.linalg.eigvals(solver._A))))

    session = KeyExchangeSession(builder, protocol, cfg.solver, master_seed=seed)
    # The growing state overflows before the solver reports divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            session.run_warmup(default_warmup_units(protocol, cfg.cable),
                               session.draw_arrangement(0))
        except DivergenceError:
            return radii, "diverged during warmup"
        for i in range(max_bits):
            try:
                session.run_bit(i)
            except DivergenceError:
                a, b = session.draw_arrangement(i)
                return radii, f"diverged at bit {i} ({a}{b})"
    return radii, f"finished {max_bits} bits"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED)
    ap.add_argument("--max-bits", type=int, default=1000)
    args = ap.parse_args(argv)
    for bep, length in CASES:
        radii, outcome = probe(bep, length, args.seed, args.max_bits)
        rho = ", ".join(f"{k} {v:.6f}" for k, v in radii.items())
        print(f"{bep} BEP, {length:g} m, random + killer, seed {args.seed}: "
              f"spectral radius {rho}; {outcome}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
