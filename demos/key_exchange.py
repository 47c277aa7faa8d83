"""Protocol walkthrough: random bit exchange over a real cable.

Both parties pick a resistor per bit exchange period, measure the
mean-square channel voltage and current, and infer the remote resistor
from the Johnson-formula levels.  Same-resistor rounds are discarded as
non-secure; mixed rounds deliver one secret bit each.
"""

import numpy as np

from kljnsim import (
    KeyExchangeSession,
    ProtocolConfig,
    build_distributed,
    expected_levels,
    infer_remote_resistance,
    rg58,
)

config = ProtocolConfig(bep_units=100, arrangement="random")
levels = expected_levels(config)
print("expected mean-square levels:")
for name, value in levels.as_dict().items():
    print(f"  {name}: {value:.4g}")

cable = rg58(1000.0)
session = KeyExchangeSession(
    lambda ra, rb: build_distributed(ra, rb, cable), config, master_seed=2024
)
bits = session.run_bits(100, warmup_units=10)

own = np.where(bits.alice_choice == "L", config.r_low, config.r_high)
alice_guess = infer_remote_resistance(own, bits.mean_sq_u, bits.mean_sq_i, levels)
secure = bits.secure  # same-resistor rounds are discarded
n_secure = int(np.count_nonzero(secure))
n_errors = int(np.count_nonzero(alice_guess[secure] != bits.bob_choice[secure]))
key = (bits.alice_choice[secure] == "L").astype(int)

print(f"\n{len(bits)} rounds: {n_secure} secure, {len(bits) - n_secure} discarded "
      f"(expect ~50/50 for fair coins)")
print(f"inference errors in secure rounds: {n_errors}")
print(f"key bits: {''.join(map(str, key[:40]))}... ({len(key)} total)")

print(f"\nmean of <U^2> over mixed rounds: {np.mean(bits.mean_sq_u[secure]):.3f} V^2 "
      f"(formula says {levels.uu_lh:.3f})")
