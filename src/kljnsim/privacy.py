"""XOR privacy amplification and its leak-reduction prediction.

Pairwise XOR halves the key and pushes an eavesdropper with per-bit
success p toward a coin flip: if her errors are independent across bits,
she gets an XORed bit right only when both guesses are right or both are
wrong, so p' = p^2 + (1-p)^2.
"""

from __future__ import annotations

import numpy as np

from .attack import AttackOutcome


def xor_halve(bits) -> np.ndarray:
    """XOR consecutive pairs of a 0/1 array; a trailing odd bit is dropped."""
    bits = np.asarray(bits)
    if bits.size < 2:
        raise ValueError("key must have at least 2 bits")
    if not np.all((bits == 0) | (bits == 1)):
        raise ValueError("key bits must be 0 or 1")
    bits = bits.astype(np.int8)
    m = bits.size // 2
    return bits[: 2 * m : 2] ^ bits[1 : 2 * m : 2]


def predicted_leak_after_xor(p: float) -> float:
    """Independence-model success probability on XORed bit pairs."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return p * p + (1.0 - p) * (1.0 - p)


def empirical_amplification(outcome: AttackOutcome, rounds: int) -> list[float]:
    """Eve's measured success probability after each XOR round.

    Both sides compress: the parties XOR their true key, Eve XORs her
    guessed key.  An XORed bit is guessed right exactly when the errors
    of its pair have even parity, so each round halves Eve's error bits
    and scores the zeros.  Returns one match fraction per round (round 1
    first).
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    if outcome.n_bits < 2**rounds:
        raise ValueError(
            f"{outcome.n_bits} bits cannot support {rounds} halving rounds"
        )
    errors = 1 - np.asarray(outcome.q)
    rates = []
    for _ in range(rounds):
        errors = xor_halve(errors)
        rates.append(float(np.mean(errors == 0)))
    return rates
