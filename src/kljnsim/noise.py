"""Band-limited Gaussian noise sources.

The key exchange loop is driven by voltage generators that emulate the
Johnson noise of the two resistors at a very high effective temperature.
This module synthesizes those sources as band-limited white Gaussian
noise with an exact brick-wall cutoff, and provides the statistical
checks (sigma accuracy, spectral confinement, normality) used to
validate them.  A realization is a sum of its in-band spectral lines
(``line_window``, ``draw_lines``, ``line_phases``), so a linear
network's response to it is a sum of its responses to each line; one
inverse real transform (``line_records``) turns lines into samples, for
``generate``, for ``compare`` and for the bit engine's long bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import _DerivedSeed

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


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c not below n >= 1, the
    length of a synthesis window (``line_window``): the real transform length
    ``scipy.fft.next_fast_len(n, real=True)`` gives."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    # nothing beats n itself, the usual case: a power-of-two window
    while p5 < best and best > n:
        p35 = p5
        while p35 < best:
            # the least power of two that lifts p35 to n or more
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lines(seed: int, k_max: int) -> np.ndarray:
    """The unit complex Gaussian coefficients of bins 1..k_max."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(k_max) + 1j * rng.standard_normal(k_max)


def generate(spec: NoiseSpec) -> Waveform:
    """Synthesize one realization of band-limited Gaussian white noise.

    Frequency-domain synthesis: independent complex Gaussian coefficients
    on every FFT bin in (0, bandwidth], zero above, inverse transform
    (``line_records``).  The band limit is therefore an exact brick wall.
    Short requests are synthesized over a padded window (so that the band
    holds at least ``_MIN_INBAND_BINS`` spectral lines) and cut to length;
    the cut segment remains a stationary Gaussian band-limited process.

    Deterministic for a given seed; the realization shape is independent
    of ``rms_volts`` (scaling the rms scales the samples linearly).
    """
    n_pad, k_max, amplitude = line_window(spec)
    samples = line_records(amplitude * _lines(spec.seed, k_max), n_pad, 1, spec.n_samples)
    return Waveform(samples=samples, sample_interval_s=spec.sample_interval_s)


def line_window(spec: NoiseSpec) -> tuple[int, int, float]:
    """(n_pad, k_max, amplitude) of ``spec``'s synthesis window.

    ``generate`` keeps the first n samples of a window of n_pad whose
    spectrum holds unit lines c_k on bins k = 1..k_max and nothing else,
    so sample p of a realization is amplitude * Re sum_k c_k z_k^p with
    z_k = e^(2 pi i k / n_pad) and amplitude = rms / sqrt(k_max): the
    spectral representation of Shinozuka & Deodatis (Appl. Mech. Rev. 44,
    1991).  ``draw_lines`` gives the c_k of a seed and ``line_phases``
    the powers of z_k.
    """
    dt = spec.sample_interval_s
    n_pad = max(spec.n_samples, int(math.ceil(_MIN_INBAND_BINS / (spec.bandwidth_hz * dt))))
    n_pad = _next_fast_len(n_pad)

    # Highest retained bin: k / (n_pad * dt) <= bandwidth.
    k_max = int(math.floor(spec.bandwidth_hz * n_pad * dt))
    k_max = min(k_max, n_pad // 2 - 1)
    if k_max < 1:
        raise ValueError("window too short to hold any in-band spectral line")
    return n_pad, k_max, spec.rms_volts / math.sqrt(k_max)


def line_phases(n_pad: int, k_max: int, t) -> np.ndarray:
    """z_k^t = e^(2 pi i k t / n_pad) for the lines k = 1..k_max (last
    axis) at the integer times ``t`` (leading axes).  The exponents are
    reduced in integers, so the phases stay exact for long windows."""
    k = np.arange(1, k_max + 1)
    return np.exp(2j * math.pi / n_pad * (np.multiply.outer(t, k) % n_pad))


def line_records(b: np.ndarray, n_pad: int, stride: int, n: int) -> np.ndarray:
    """Re sum_k b_k z_k^(j stride) for the records j = 0..n-1 (last axis),
    with b_k on the lines z_k = e^(2 pi i k / n_pad), k = 1..k_max, along
    ``b``'s last axis.

    With g = gcd(stride, n_pad), the records repeat every
    n_grid = n_pad / g, and line k turns by e^(2 pi i (k stride / g) / n_grid)
    from one record to the next: the records are one inverse real
    transform of length n_grid with b_k on bin k stride / g.  Every bin
    must lie below the grid's Nyquist bin n_grid / 2, past which a line
    would alias onto another, and n must not exceed n_grid.
    """
    k_max = b.shape[-1]
    g = math.gcd(stride, n_pad)
    n_grid, step = n_pad // g, stride // g
    if not 2 * k_max * step < n_grid:
        raise ValueError(f"line {k_max} at stride {stride} lands on bin {k_max * step} of a "
                         f"{n_grid}-record grid, not below its Nyquist bin {n_grid / 2:g}")
    if n > n_grid:
        raise ValueError(f"{n} records exceed the {n_grid} records after which the lines "
                         f"of a {n_pad}-point window at stride {stride} repeat")
    spectrum = np.zeros(b.shape[:-1] + (n_grid // 2 + 1,), dtype=np.complex128)
    spectrum[..., step : k_max * step + 1 : step] = b * (n_grid / 2)
    return np.fft.irfft(spectrum, n=n_grid)[..., :n]


def draw_lines(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the unit lines of one realization per PCG64 seed
    in ``words``, and return it.

    ``words`` (..., 4) holds the seed words ``default_rng(seed)`` starts
    from (``seeding.pcg64_words``), as a C-contiguous uint64 array.
    ``out`` (..., 2, k_max), a C-contiguous float array, takes k_max from
    its shape and receives the real then the imaginary parts of the c_k
    that ``generate`` puts in the spectrum of ``replace(spec, seed=seed)``
    when its window holds k_max lines, in the order ``_lines`` draws
    them.  Both arrays are checked once, before any draw, so each stream
    hands its row to PCG64 as it is.
    """
    if words.dtype != np.uint64 or words.shape[-1:] != (4,) or not words.flags.c_contiguous:
        raise ValueError("words must be a C-contiguous uint64 array of shape (..., 4), "
                         f"got {words.dtype} {words.shape}")
    if (out.dtype != np.float64 or out.shape[:-1] != words.shape[:-1] + (2,)
            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape "
                         f"{words.shape[:-1] + (2,)} + (k_max,), got {out.dtype} {out.shape}")
    rows = out.reshape(-1, out.shape[-2] * out.shape[-1])
    for seed_words, row in zip(words.reshape(-1, 4), rows):
        np.random.Generator(np.random.PCG64(_DerivedSeed(seed_words))).standard_normal(out=row)
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
    n_samples: int


def gaussianity_report(w: Waveform, n_bins: int = 50) -> GaussianityReport:
    """Histogram + normal-probability-plot data + chi-squared p-value.

    The chi-squared statistic uses equal-probability bins under the
    fitted Gaussian (two parameters estimated, so dof = n_bins - 3).
    ``scipy.stats`` is imported here, not with the module: nothing else
    in the package reads it, and it is most of ``import kljnsim``.
    """
    from scipy import stats

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


def out_of_band_power_fraction(w: Waveform, bandwidth_hz: float) -> float:
    """Fraction of periodogram power above 1.2 times the bandwidth.

    Independent periodogram-based oracle for the brick-wall property.
    """
    from scipy.signal import periodogram

    freqs, psd = periodogram(w.samples, fs=1.0 / w.sample_interval_s)
    total = float(np.sum(psd))
    if total == 0.0:
        return 0.0
    out = float(np.sum(psd[freqs > 1.2 * bandwidth_hz]))
    return out / total
