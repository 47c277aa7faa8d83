"""Lumped-versus-distributed cable model agreement across wavelengths.

Runs both cable models on the same noise realization and reports the
normalized RMS deviation of the Alice-end voltage.  In the quasi-static
regime (wavelength much longer than the cable) the two are expected to
agree; when the shortest noise wavelength approaches the cable length,
wave behaviour appears that only the ladder can represent.

Both models are read in their stationary state: a realization is a sum
of spectral lines (``noise.line_window``), so each record is the sum of
the network's steady responses to those lines (``line_resolvent``), with
no start-up transient to wait out, and one inverse transform
(``noise.line_records``) reads every record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import CableSpec, Netlist, build_distributed, build_lumped, wavelength_ratio
from .noise import NoiseSpec, _lines, line_phases, line_records, line_window, rms_for_resistor
from .protocol import T_EFF_DEFAULT, derive_seed
from .solver import TransientSolver, single_blas_thread

# Verdict thresholds on nrmsd, calibrated once against the
# segment-refinement reference (2x segments).
INDISTINGUISHABLE_NRMSD = 0.01
SIMILAR_NRMSD = 0.1

# Internal step resolves the noise band with this oversampling.
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


def party_lines(bandwidth_hz: float, duration_s: float, dt: float,
                parties) -> tuple[int, np.ndarray]:
    """``(n_pad, lines)``: the window of ``generate``'s realization of a
    band and duration at step ``dt``, and one row (k_max,) per
    ``(rms, seed)`` in ``parties`` of its line values a c_k
    (``noise.line_window``)."""
    specs = [NoiseSpec(bandwidth_hz, rms, duration_s, dt, seed=seed) for rms, seed in parties]
    n_pad, k_max, _ = line_window(specs[0])
    return n_pad, np.array([line_window(sp)[2] * _lines(sp.seed, k_max) for sp in specs])


def stationary_records(netlist: Netlist, dt: float, n_pad: int, lines: np.ndarray,
                       n_rec: int) -> np.ndarray:
    """``u_cha`` of ``netlist`` at the end of internal steps 32 r - 1,
    r = 1..n_rec, in the stationary state under the sources ``ua`` and
    ``ub`` given as spectral lines.

    ``lines`` (2, k_max) holds each source's line values a c_k on the
    lines z_k = e^(2 pi i k / n_pad), so that its sample at step p is
    Re sum_k a c_k z_k^p (``noise.line_window``).  Record r is
    Re sum_k (H_k,ua a c_ua,k + H_k,ub a c_ub,k) z_k^(32 r - 1), with the
    probe gains H from ``TransientSolver.line_resolvent``, read for every
    r by one transform (``noise.line_records``).
    """
    solver = TransientSolver(netlist, dt)
    k_max = lines.shape[1]
    H = solver.line_resolvent(line_phases(n_pad, k_max, 1), ("ua", "ub")).H
    w = np.einsum("ks,sk->k", H[:, solver.probe_names.index("u_cha")], lines)
    w *= line_phases(n_pad, k_max, _RECORD_STRIDE - 1)  # record 1 ends at step 31
    return line_records(w, n_pad, _RECORD_STRIDE, n_rec)


@single_blas_thread()
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
    over every record of the stationary traces.
    """
    if not (math.isfinite(bandwidth_hz) and bandwidth_hz > 0):
        raise ValueError(f"bandwidth_hz must be positive and finite, got {bandwidth_hz!r}")
    if duration_s is None:
        duration_s = 200.0 / (4.0 * bandwidth_hz)  # 200 autocorrelation times
    if not math.isfinite(duration_s):
        raise ValueError(f"duration_s must be finite, got {duration_s!r}")
    dt = 1.0 / (_STEPS_PER_BAND * bandwidth_hz)
    n_rec = int(round(duration_s / dt)) // _RECORD_STRIDE
    if n_rec < 1:
        raise ValueError(f"duration_s ({duration_s:g} s) must hold at least one record of "
                         f"{_RECORD_STRIDE} steps, {_RECORD_STRIDE * dt:g} s")

    n_pad, lines = party_lines(bandwidth_hz, duration_s, dt, [
        (rms_for_resistor(r, T_EFF_DEFAULT, bandwidth_hz), derive_seed(seed, 0, purpose))
        for r, purpose in ((r_alice, 0), (r_bob, 1))])
    lump, dist = (stationary_records(builder(r_alice, r_bob, cable), dt, n_pad, lines, n_rec)
                  for builder in (build_lumped, build_distributed))
    nrmsd = float(np.sqrt(np.mean((lump - dist) ** 2)) / np.sqrt(np.mean(dist**2)))
    return ComparisonReport(
        gamma=wavelength_ratio(cable, bandwidth_hz),
        nrmsd=nrmsd,
        verdict=_verdict(nrmsd),
        bandwidth_hz=bandwidth_hz,
        times=np.arange(1, n_rec + 1) * (dt * _RECORD_STRIDE),
        u_lumped=lump,
        u_distributed=dist,
    )


def write_comparison_csv(report: ComparisonReport, path) -> None:
    """Side-by-side waveform dump for external plotting."""
    with open(path, "w") as f:
        f.write("t,u_lumped,u_distributed\n")
        for t, ul, ud in zip(report.times, report.u_lumped, report.u_distributed):
            f.write(f"{t:.9g},{ul:.9g},{ud:.9g}\n")
