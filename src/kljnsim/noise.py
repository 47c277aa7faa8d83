"""Band-limited Gaussian noise sources.

The key exchange loop is driven by voltage generators that emulate the
Johnson noise of the two resistors at a very high effective temperature.
This module synthesizes those sources as band-limited white Gaussian
noise with an exact brick-wall cutoff, and provides the statistical
checks (sigma accuracy, spectral confinement, normality) used to
validate them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sp_fft
from scipy import stats

BOLTZMANN = 1.380649e-23  # J/K, CODATA

# Frequency-domain synthesis of short blocks is done over a padded window
# so the brick-wall band always holds at least this many spectral lines.
_MIN_INBAND_BINS = 256


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real-valued series (volts or amperes).

    Samples are made read-only after construction; waveforms can be
    shared freely across threads.
    """

    samples: np.ndarray
    sample_interval_s: float
    start_time_s: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("waveform needs a 1-d array with at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValueError("waveform samples must all be finite")
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size * self.sample_interval_s

    def times(self) -> np.ndarray:
        return self.start_time_s + np.arange(self.samples.size) * self.sample_interval_s

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.samples**2)))


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters of one band-limited Gaussian noise source."""

    bandwidth_hz: float
    rms_volts: float
    duration_s: float
    sample_interval_s: float
    seed: int = 0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.rms_volts < 0:
            raise ValueError("rms_volts must be non-negative")
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.bandwidth_hz >= 0.5 / self.sample_interval_s:
            raise ValueError(
                f"bandwidth {self.bandwidth_hz} Hz violates Nyquist for "
                f"sample interval {self.sample_interval_s} s"
            )

    @property
    def n_samples(self) -> int:
        return max(1, int(round(self.duration_s / self.sample_interval_s)))


def rms_for_resistor(r_ohm: float, t_eff_kelvin: float, bandwidth_hz: float) -> float:
    """RMS generator voltage emulating Johnson noise of a resistor.

    Returns sqrt(4 k T R B); zero inputs simply give zero volts.
    """
    if r_ohm < 0 or t_eff_kelvin < 0 or bandwidth_hz < 0:
        raise ValueError("arguments must be non-negative")
    return math.sqrt(4.0 * BOLTZMANN * t_eff_kelvin * r_ohm * bandwidth_hz)


def effective_temperature(rms_volts: float, r_ohm: float, bandwidth_hz: float) -> float:
    """Back-solve the effective temperature from a target rms voltage.

    T = U^2 / (4 k R B).  Used to anchor the default operating point
    (1 V rms across 1 kohm at 250 Hz bandwidth).
    """
    if r_ohm <= 0 or bandwidth_hz <= 0:
        raise ValueError("resistance and bandwidth must be positive")
    return rms_volts**2 / (4.0 * BOLTZMANN * r_ohm * bandwidth_hz)


def rms_ratio(r_low: float, r_high: float) -> float:
    """Ratio of generator sigmas for two resistors: sqrt(R_low / R_high)."""
    if r_low <= 0 or r_high <= 0:
        raise ValueError("resistances must be positive")
    return math.sqrt(r_low / r_high)


def _window(spec: NoiseSpec) -> tuple[int, int, int]:
    """(n, n_pad, k_max): kept samples, synthesis window, in-band lines."""
    n = spec.n_samples
    dt = spec.sample_interval_s
    n_pad = max(n, int(math.ceil(_MIN_INBAND_BINS / (spec.bandwidth_hz * dt))))
    n_pad = sp_fft.next_fast_len(n_pad, real=True)

    # Highest retained bin: k / (n_pad * dt) <= bandwidth.
    k_max = int(math.floor(spec.bandwidth_hz * n_pad * dt))
    k_max = min(k_max, n_pad // 2 - 1)
    if k_max < 1:
        raise ValueError("window too short to hold any in-band spectral line")
    return n, n_pad, k_max


def _lines(seed: int, k_max: int) -> np.ndarray:
    """The unit complex Gaussian coefficients of bins 1..k_max."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)


def generate(spec: NoiseSpec) -> Waveform:
    """Synthesize one realization of band-limited Gaussian white noise.

    Frequency-domain synthesis: independent complex Gaussian coefficients
    on every FFT bin in (0, bandwidth], zero above, inverse transform.
    The band limit is therefore an exact brick wall.  Short requests are
    synthesized over a padded window (so that the band holds at least
    ``_MIN_INBAND_BINS`` spectral lines) and cut to length; the cut
    segment remains a stationary Gaussian band-limited process.

    Deterministic for a given seed; the realization shape is independent
    of ``rms_volts`` (scaling the rms scales the samples linearly).
    """
    n, n_pad, k_max = _window(spec)
    spectrum = np.zeros(n_pad // 2 + 1, dtype=np.complex128)
    # Per-sample variance of irfft with k_max populated bins of
    # per-component variance s^2 is (4 / n_pad^2) * k_max * s^2.
    scale = spec.rms_volts * n_pad / (2.0 * math.sqrt(k_max))
    spectrum[1 : k_max + 1] = _lines(spec.seed, k_max) * scale

    samples = sp_fft.irfft(spectrum, n=n_pad)[:n]
    return Waveform(samples=samples, sample_interval_s=spec.sample_interval_s)


@functools.lru_cache(maxsize=4)
def _block_basis(n_pad: int, k_max: int, block: int):
    """Tables for evaluating a padded realization block by block.

    Returns ``basis`` (2 k_max, block), whose rows alternate
    cos(theta k p) and -sin(theta k p) with theta = 2 pi / n_pad, and
    ``turns``, e^(2 pi i m / M) for m < M, the phases a block start can
    take: e^(i theta k q block) = turns[(k q block / g) mod M] with
    g = gcd(block, n_pad) and M = n_pad / g.  Phases are reduced in
    integers, so they stay exact for long windows.
    """
    k = np.arange(1, k_max + 1)
    basis = np.empty((k_max, 2, block))
    rot = np.exp(2j * math.pi / n_pad * ((k[:, None] * np.arange(block)) % n_pad))
    basis[:, 0] = rot.real
    basis[:, 1] = -rot.imag
    basis = basis.reshape(2 * k_max, block)
    M = n_pad // math.gcd(block, n_pad)
    turns = np.exp(2j * math.pi / M * np.arange(M))
    for table in (basis, turns):
        table.setflags(write=False)  # shared by every caller through the cache
    return basis, turns


def generate_blocks(spec: NoiseSpec, seeds: list[int], block: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The realizations ``generate`` gives for ``spec`` with each of
    ``seeds`` in place of its own seed, cut in blocks.

    Returns ``out`` of shape (len(seeds), n_blocks, block) with
    ``out[i, q, p]`` = sample ``q * block + p`` of
    ``generate(replace(spec, seed=seeds[i]))``; entries past the last
    sample are padding.  ``out`` may be any view with unit stride along
    its last axis.

    A short request keeps only the first n samples of its padded window,
    so instead of one inverse transform of n_pad points per realization,
    these samples are evaluated directly from the ~_MIN_INBAND_BINS
    in-band lines: the lines modulated to each block start, then one GEMM
    against a basis of ``block`` samples.  Requests longer than a quarter
    of their window go through ``generate``, where the transform is the
    cheaper of the two.
    """
    n, n_pad, k_max = _window(spec)
    n_blocks = -(-n // block)
    if out is None:
        out = np.empty((len(seeds), n_blocks, block))
    if out.shape != (len(seeds), n_blocks, block):
        raise ValueError(f"out must have shape {(len(seeds), n_blocks, block)}")

    if 4 * n > n_pad:
        for i, seed in enumerate(seeds):
            out[i] = np.resize(generate(replace(spec, seed=seed)).samples, (n_blocks, block))
        return out

    # The irfft of the scaled lines is x[t] = rms / sqrt(k_max) Re sum_k c_k e^(i theta k t).
    basis, turns = _block_basis(n_pad, k_max, block)
    M = len(turns)
    step = np.arange(1, k_max + 1) * (block * M // n_pad)
    phase = turns[np.arange(n_blocks)[:, None] * step % M]  # e^(i theta k q block)
    mod = np.empty_like(phase)  # the lines seen from each block start
    scale = spec.rms_volts / math.sqrt(k_max)
    for i, seed in enumerate(seeds):
        np.multiply(phase, _lines(seed, k_max) * scale, out=mod)
        np.matmul(mod.view(np.float64), basis, out=out[i])
    return out


@dataclass(frozen=True)
class GaussianityReport:
    """Histogram and quantile data for a normality check.

    ``theoretical_q[i]`` is the Gaussian quantile (fitted mean/sigma) at
    the same probability level as the empirical quantile
    ``empirical_q[i]``; a straight y = x line indicates normality.
    """

    bin_centers: np.ndarray
    bin_counts: np.ndarray
    theoretical_q: np.ndarray
    empirical_q: np.ndarray
    sample_mean: float
    sample_std: float
    chi2_pvalue: float
    n_samples: int = field(default=0)


def gaussianity_report(w: Waveform, n_bins: int = 50) -> GaussianityReport:
    """Histogram + normal-probability-plot data + chi-squared p-value.

    The chi-squared statistic uses equal-probability bins under the
    fitted Gaussian (two parameters estimated, so dof = n_bins - 3).
    """
    if n_bins < 2:
        raise ValueError("n_bins must be at least 2")
    x = w.samples
    n = x.size
    mean = float(np.mean(x))
    std = float(np.std(x))

    counts, edges = np.histogram(x, bins=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])

    m = min(n, 999)
    probs = (np.arange(m) + 0.5) / m
    empirical = np.quantile(x, probs)
    if std > 0:
        theoretical = mean + std * stats.norm.ppf(probs)
        # Equal-probability bins keep every expected count at n / n_bins.
        inner = stats.norm.ppf(np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
        cut = mean + std * inner
        observed = np.histogram(x, bins=np.concatenate(([-np.inf], cut, [np.inf])))[0]
        expected = np.full(n_bins, n / n_bins)
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        pvalue = float(stats.chi2.sf(chi2, df=n_bins - 3))
    else:
        theoretical = np.full(m, mean)
        pvalue = 0.0

    return GaussianityReport(
        bin_centers=centers,
        bin_counts=counts,
        theoretical_q=theoretical,
        empirical_q=empirical,
        sample_mean=mean,
        sample_std=std,
        chi2_pvalue=pvalue,
        n_samples=n,
    )


def write_gaussianity_csv(report: GaussianityReport, path) -> None:
    """Emit the report as two CSV blocks: histogram, then quantile pairs."""
    with open(path, "w") as f:
        f.write("bin_center,count\n")
        for c, cnt in zip(report.bin_centers, report.bin_counts):
            f.write(f"{c:.9g},{cnt}\n")
        f.write("\n")
        f.write("theoretical_q,empirical_q\n")
        for t, e in zip(report.theoretical_q, report.empirical_q):
            f.write(f"{t:.9g},{e:.9g}\n")


def out_of_band_power_fraction(w: Waveform, bandwidth_hz: float, margin: float = 1.2) -> float:
    """Fraction of periodogram power above ``margin * bandwidth``.

    Independent periodogram-based oracle for the brick-wall property.
    """
    from scipy.signal import periodogram

    freqs, psd = periodogram(w.samples, fs=1.0 / w.sample_interval_s)
    total = float(np.sum(psd))
    if total == 0.0:
        return 0.0
    out = float(np.sum(psd[freqs > margin * bandwidth_hz]))
    return out / total
