"""Attack walkthrough: the cable-capacitance cross-correlation sweep.

Part of the channel current is diverted into the cable capacitance, and
the lower-resistance end supplies more of it.  Eve correlates each end's
current with the local voltage derivative and reads the resistor
placement from the sign of the difference.  This script runs a reduced
version of the six-cell sweep (fewer key bits, so it finishes quickly);
the full 1000-bit campaign is `kljnsim table1` or
`kljnsim.scenarios.reproduce_table1`.
"""

import time

import numpy as np

from kljnsim import run_attack, KeyExchangeSession, ProtocolConfig, build_distributed, rg58

N_BITS = 250  # reduced key length; binomial sigma ~ 3.2 pp

print(f"{'BEP units':>9} | {'bits/s':>6} | {'100 m':>14} | {'1000 m':>14}")
print("-" * 55)
for bep in (20, 50, 100):
    row = []
    for length in (100.0, 1000.0):
        config = ProtocolConfig(bep_units=bep)
        cable = rg58(length)
        session = KeyExchangeSession(
            lambda ra, rb: build_distributed(ra, rb, cable),
            config,
            master_seed=1100 + bep,
        )
        t0 = time.perf_counter()
        records = session.run_bits(N_BITS, warmup_units=10)
        outcome = run_attack(records, tie_seed_base=1)
        row.append((outcome.p_e, outcome.binomial_std, time.perf_counter() - t0))
    (p1, s1, t1), (p2, s2, t2) = row
    print(f"{bep:>9} | {4 * 250.0 / bep:>6.0f} | {100*p1:5.1f}% ± {100*s1:3.1f} "
          f"| {100*p2:5.1f}% ± {100*s2:3.1f}   ({t1 + t2:.1f} s)")

print("\nlonger cable -> more capacitance -> bigger leak;")
print("longer bit exchange -> better averaging for Eve -> bigger leak")

# the statistic itself, on the strongest cell
config = ProtocolConfig(bep_units=100)
cable = rg58(1000.0)
session = KeyExchangeSession(
    lambda ra, rb: build_distributed(ra, rb, cable), config, master_seed=5
)
outcome = run_attack(session.run_bits(100, warmup_units=10))
print(f"\nstrongest cell, 100 bits: mean rho = {np.mean(outcome.rho):.3e}, "
      f"std = {np.std(outcome.rho):.3e}")
print("positive mean under the fixed low/high arrangement is the leak Eve reads")
