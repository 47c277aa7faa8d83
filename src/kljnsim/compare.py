"""Lumped-versus-distributed cable model agreement across wavelengths.

Runs both cable models on the same noise realization and reports the
normalized RMS deviation of the Alice-end voltage.  In the quasi-static
regime (wavelength much longer than the cable) the two are expected to
agree; when the shortest noise wavelength approaches the cable length,
wave behaviour appears that only the ladder can represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import CableSpec, build_distributed, build_lumped, wavelength_ratio
from .noise import NoiseSpec, Waveform, generate, rms_for_resistor
from .protocol import T_EFF_DEFAULT, derive_seed
from .solver import SolverConfig, transient_solve

# Verdict thresholds on nrmsd, calibrated once against the
# segment-refinement reference (2x segments).
INDISTINGUISHABLE_NRMSD = 0.01
SIMILAR_NRMSD = 0.1

# Internal step resolves the noise band with this oversampling.  The
# fine step also keeps the trapezoidal images of the stiff ladder modes
# well inside the unit circle, so the cold-start transient dies inside
# the discarded settle window.
_STEPS_PER_BAND = 256
# Comparison grid: one retained sample per _RECORD_STRIDE internal steps.
_RECORD_STRIDE = 32


@dataclass(frozen=True)
class ComparisonReport:
    gamma: float
    nrmsd: float
    verdict: str
    bandwidth_hz: float
    times: np.ndarray
    u_lumped: np.ndarray
    u_distributed: np.ndarray


def _verdict(nrmsd: float) -> str:
    if nrmsd < INDISTINGUISHABLE_NRMSD:
        return "indistinguishable"
    if nrmsd < SIMILAR_NRMSD:
        return "similar"
    return "waves"


def compare_models(
    cable: CableSpec,
    r_alice: float,
    r_bob: float,
    bandwidth_hz: float,
    duration_s: float | None = None,
    seed: int = 0,
) -> ComparisonReport:
    """Same noise realization, the generators at ``T_EFF_DEFAULT``,
    through both cable models.

    nrmsd = rms(U_lump - U_dist) / rms(U_dist) on the Alice-end voltage,
    after discarding a settling interval.
    """
    if duration_s is None:
        duration_s = 200.0 / (4.0 * bandwidth_hz)  # 200 autocorrelation times
    dt = 1.0 / (_STEPS_PER_BAND * bandwidth_hz)

    # Smooth generator switch-on inside the discarded settle window, so
    # the cold start does not kick the stiff ladder modes.
    ramp_steps = int(round(2.0 / (bandwidth_hz * dt)))
    # nrmsd is read after the ramp, from one record on
    shortest_s = (math.ceil(ramp_steps / _RECORD_STRIDE) + 1) * _RECORD_STRIDE * dt
    if duration_s < shortest_s:
        raise ValueError(f"duration_s ({duration_s:g} s) must be at least {shortest_s:g} s: "
                         f"the {ramp_steps * dt:g} s settle ramp and one record after it")
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp_steps) / ramp_steps))

    sources = {}
    for name, r, purpose in (("ua", r_alice, 0), ("ub", r_bob, 1)):
        spec = NoiseSpec(
            bandwidth_hz=bandwidth_hz,
            rms_volts=rms_for_resistor(r, T_EFF_DEFAULT, bandwidth_hz),
            duration_s=duration_s,
            sample_interval_s=dt,
            seed=derive_seed(seed, 0, purpose),
        )
        samples = generate(spec).samples.copy()
        samples[:ramp_steps] *= ramp
        sources[name] = Waveform(samples, dt)

    traces = {
        label: transient_solve(builder(r_alice, r_bob, cable), sources,
                               SolverConfig(internal_step_s=dt), duration_s,
                               dt * _RECORD_STRIDE).probes["u_cha"].samples
        for label, builder in (("lumped", build_lumped), ("distributed", build_distributed))
    }

    n_rec = len(traces["lumped"])
    n_skip = max(n_rec // 10, int(math.ceil(ramp_steps / _RECORD_STRIDE)))
    lump = traces["lumped"][n_skip:]
    dist = traces["distributed"][n_skip:]
    nrmsd = float(np.sqrt(np.mean((lump - dist) ** 2)) / np.sqrt(np.mean(dist**2)))
    gamma = wavelength_ratio(cable, bandwidth_hz)
    times = (np.arange(n_rec) + 1)[n_skip:] * (dt * _RECORD_STRIDE)
    return ComparisonReport(
        gamma=gamma,
        nrmsd=nrmsd,
        verdict=_verdict(nrmsd),
        bandwidth_hz=bandwidth_hz,
        times=times,
        u_lumped=lump,
        u_distributed=dist,
    )


def write_comparison_csv(report: ComparisonReport, path) -> None:
    """Side-by-side waveform dump for external plotting."""
    with open(path, "w") as f:
        f.write("t,u_lumped,u_distributed\n")
        for t, ul, ud in zip(report.times, report.u_lumped, report.u_distributed):
            f.write(f"{t:.9g},{ul:.9g},{ud:.9g}\n")
