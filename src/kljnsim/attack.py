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

from .noise import Waveform
from .protocol import _EVE_TIE, BepMeasurement, derive_seed


@dataclass
class AttackOutcome:
    """Per-bit statistics and the aggregate success probability over the
    scored (secure) bits; ``n_bits`` counts them and ``bit_indices``, when
    known, gives each one's index in the exchange."""

    rho_a: np.ndarray
    rho_b: np.ndarray
    rho: np.ndarray
    guesses: list[str]
    truths: list[str]
    q: np.ndarray
    p_e: float
    epsilon: float
    binomial_std: float
    n_bits: int
    bit_indices: np.ndarray | None = None


def time_derivative(w: Waveform) -> Waveform:
    """Central-difference derivative on the waveform's own grid.

    Interior points use (x[k+1] - x[k-1]) / (2 dt); the two boundary
    samples fall back to one-sided differences.
    """
    if len(w) < 3:
        raise ValueError("waveform must have at least 3 samples")
    d = np.gradient(w.samples, w.sample_interval_s)
    return Waveform(d, sample_interval_s=w.sample_interval_s, start_time_s=w.start_time_s)


def cross_correlation(i_w: Waveform, du_dt: Waveform) -> float:
    """Finite-time average of the sample-wise product <I(t) dU/dt>."""
    if len(i_w) != len(du_dt):
        raise ValueError("waveforms must have equal length")
    if abs(i_w.sample_interval_s - du_dt.sample_interval_s) > 1e-12 * i_w.sample_interval_s:
        raise ValueError("waveforms must share the sampling grid")
    return float(np.mean(i_w.samples * du_dt.samples))


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


def run_attack(
    measurements: list[BepMeasurement], tie_seed_base: int = 0
) -> AttackOutcome:
    """Score Eve's per-bit guesses against the true arrangements.

    Only secure (LH/HL) bits are scored: the parties discard LL and HH
    bits, so there is no key bit for Eve to guess.  Ties are broken with
    a coin seeded by the bit's index.
    """
    scored = [m for m in measurements if m.alice_choice != m.bob_choice]
    if not scored:
        raise ValueError("no secure bits to score")
    n = len(scored)
    rho_a = np.empty(n)
    rho_b = np.empty(n)
    guesses: list[str] = []
    truths: list[str] = []
    for k, m in enumerate(scored):
        rho_a[k] = cross_correlation(m.i_cha, time_derivative(m.u_cha))
        rho_b[k] = cross_correlation(m.i_chb, time_derivative(m.u_chb))
        truths.append(m.arrangement)
    rho = rho_a - rho_b
    for k, m in enumerate(scored):
        tie_seed = derive_seed(tie_seed_base, 1 + m.bit_index, _EVE_TIE)
        guesses.append(eve_decide(float(rho[k]), tie_seed))
    q = np.array([int(g == t) for g, t in zip(guesses, truths)])
    agg = success_rate(q)
    return AttackOutcome(
        rho_a=rho_a,
        rho_b=rho_b,
        rho=rho,
        guesses=guesses,
        truths=truths,
        q=q,
        p_e=agg["p_E"],
        epsilon=agg["epsilon"],
        binomial_std=agg["binomial_std"],
        n_bits=n,
        bit_indices=np.array([m.bit_index for m in scored]),
    )


def write_attack_csv(outcome: AttackOutcome, path) -> None:
    with open(path, "w") as f:
        f.write("bit,rho_a,rho_b,rho,guess,q\n")
        bits = range(outcome.n_bits) if outcome.bit_indices is None else outcome.bit_indices
        for k, bit in enumerate(bits):
            f.write(
                f"{bit},{outcome.rho_a[k]:.9g},{outcome.rho_b[k]:.9g},"
                f"{outcome.rho[k]:.9g},{outcome.guesses[k]},{outcome.q[k]}\n"
            )


def attack_summary(outcome: AttackOutcome) -> dict:
    return {
        "p_E": outcome.p_e,
        "epsilon": outcome.epsilon,
        "n_bits": outcome.n_bits,
        "binomial_std": outcome.binomial_std,
    }
