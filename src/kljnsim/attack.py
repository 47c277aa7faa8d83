"""Eavesdropper analysis of the cable-capacitance side channel.

Capacitive current drawn by the cable correlates with the time
derivative of the channel voltage, and more of it is supplied by the end
terminated with the lower resistance.  Eve therefore forms, for each bit,
the finite-time averages rho_a = <I_cha dU_cha/dt> and
rho_b = <I_chb dU_chb/dt> from the four probes (currents oriented into
the cable at both ends), and guesses the arrangement from the sign of
rho = rho_a - rho_b: positive means Alice holds the lower resistor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import _EVE_TIE, BepRecords, derive_seed


@dataclass
class AttackOutcome:
    """Per-bit statistics over the scored (secure) bits; ``bit_indices``
    gives each one's index in the exchange.  The aggregates are computed
    from the per-bit scores ``q`` with ``success_rate``."""

    rho_a: np.ndarray
    rho_b: np.ndarray
    rho: np.ndarray
    guesses: np.ndarray
    truths: np.ndarray
    q: np.ndarray
    bit_indices: np.ndarray

    @property
    def p_e(self) -> float:
        return success_rate(self.q)["p_E"]

    @property
    def binomial_std(self) -> float:
        return success_rate(self.q)["binomial_std"]

    @property
    def n_bits(self) -> int:
        """The number of scored bits."""
        return len(self.q)


def time_derivative(x: np.ndarray, dt: float) -> np.ndarray:
    """Central-difference derivative along the last axis, step ``dt``.

    Interior points use (x[k+1] - x[k-1]) / (2 dt); the two boundary
    samples fall back to one-sided differences.
    """
    if np.shape(x)[-1] < 3:
        raise ValueError("need at least 3 samples along the last axis")
    return np.gradient(x, dt, axis=-1)


def cross_correlation(i: np.ndarray, du_dt: np.ndarray) -> np.ndarray:
    """Finite-time average of the sample-wise product <I(t) dU/dt> along
    the last axis."""
    if np.shape(i) != np.shape(du_dt):
        raise ValueError("probes must have equal shapes")
    return np.mean(i * du_dt, axis=-1)


def eve_decide(rho: float, tie_seed: int = 0) -> str:
    """Sign rule: positive rho -> 'LH', negative -> 'HL', zero -> coin."""
    if rho > 0:
        return "LH"
    if rho < 0:
        return "HL"
    return "LH" if np.random.default_rng(tie_seed).integers(2) else "HL"


def success_rate(q_list) -> dict[str, float]:
    """Aggregate guess scores into p_E, epsilon and the binomial error."""
    q = np.asarray(q_list, dtype=np.float64)
    if q.size == 0:
        raise ValueError("q_list must be non-empty")
    p_e = float(np.mean(q))
    return {
        "p_E": p_e,
        "epsilon": p_e - 0.5,
        "binomial_std": float(np.sqrt(p_e * (1.0 - p_e) / q.size)),
    }


def run_attack(records: BepRecords, tie_seed_base: int = 0) -> AttackOutcome:
    """Score Eve's per-bit guesses against the true arrangements.

    Only secure (LH/HL) bits are scored: the parties discard LL and HH
    bits, so there is no key bit for Eve to guess.  All scored bits go
    through one array pass; ties (rho == 0) are broken with a coin
    seeded by the bit's index.
    """
    scored = records[records.secure]
    if not len(scored):
        raise ValueError("no secure bits to score")
    u_cha, i_cha, u_chb, i_chb = np.moveaxis(scored.probes, 1, 0)
    rho_a = cross_correlation(i_cha, time_derivative(u_cha, scored.t_s))
    rho_b = cross_correlation(i_chb, time_derivative(u_chb, scored.t_s))
    rho = rho_a - rho_b
    guesses = np.where(rho > 0, "LH", "HL")
    for k in np.flatnonzero(rho == 0):
        guesses[k] = eve_decide(0.0, derive_seed(tie_seed_base, 1 + scored.bit_index[k], _EVE_TIE))
    truths = scored.arrangement
    return AttackOutcome(
        rho_a=rho_a,
        rho_b=rho_b,
        rho=rho,
        guesses=guesses,
        truths=truths,
        q=(guesses == truths).astype(np.int64),
        bit_indices=scored.bit_index,
    )


def write_attack_csv(outcome: AttackOutcome, path) -> None:
    with open(path, "w") as f:
        f.write("bit,rho_a,rho_b,rho,guess,q\n")
        for k, bit in enumerate(outcome.bit_indices):
            f.write(
                f"{bit},{outcome.rho_a[k]:.9g},{outcome.rho_b[k]:.9g},"
                f"{outcome.rho[k]:.9g},{outcome.guesses[k]},{outcome.q[k]}\n"
            )


def attack_summary(outcome: AttackOutcome) -> dict:
    return {**success_rate(outcome.q), "n_bits": outcome.n_bits}
