"""Noise generator: scaling law, determinism, band limit, normality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import periodogram

from kljnsim import noise
from kljnsim.noise import (
    BOLTZMANN,
    NoiseSpec,
    Waveform,
    effective_temperature,
    gaussianity_report,
    generate,
    out_of_band_power_fraction,
    rms_for_resistor,
    rms_ratio,
    write_gaussianity_csv,
)

T_EFF = effective_temperature(1.0, 1000.0, 250.0)


class TestRmsForResistor:
    def test_canonical_one_volt(self):
        assert rms_for_resistor(1000.0, T_EFF, 250.0) == pytest.approx(1.0, rel=1e-12)

    def test_nine_kohm_gives_three_volts(self):
        assert rms_for_resistor(9000.0, T_EFF, 250.0) == pytest.approx(3.0, rel=1e-12)

    def test_zero_bandwidth(self):
        assert rms_for_resistor(1000.0, T_EFF, 0.0) == 0.0

    def test_formula_value(self):
        # sqrt(4 k T R B) spelled out
        r, t, b = 50.0, 300.0, 1e6
        assert rms_for_resistor(r, t, b) == pytest.approx(
            np.sqrt(4 * BOLTZMANN * t * r * b)
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rms_for_resistor(-1.0, T_EFF, 250.0)

    def test_back_solved_temperature(self):
        # the 1 V anchor corresponds to ~7e16 K
        assert T_EFF == pytest.approx(7.2430e16, rel=1e-4)


class TestRmsRatio:
    def test_one_third(self):
        assert rms_ratio(1000.0, 9000.0) == pytest.approx(1.0 / 3.0)

    def test_equal_resistors(self):
        assert rms_ratio(470.0, 470.0) == 1.0

    def test_perfect_square(self):
        assert rms_ratio(4.0, 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("rl,rh", [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)])
    def test_non_positive_rejected(self, rl, rh):
        with pytest.raises(ValueError):
            rms_ratio(rl, rh)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 1e-3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Waveform(np.array([]), 1e-3)

    def test_samples_read_only(self):
        w = Waveform(np.zeros(4), 1e-3)
        with pytest.raises(ValueError):
            w.samples[0] = 1.0


class TestGenerate:
    def spec(self, **kw):
        base = dict(
            bandwidth_hz=250.0,
            rms_volts=1.0,
            duration_s=1.0,
            sample_interval_s=1e-3,
            seed=42,
        )
        base.update(kw)
        return NoiseSpec(**base)

    def test_deterministic(self):
        a = generate(self.spec())
        b = generate(self.spec())
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_distinct_seeds_differ(self):
        a = generate(self.spec(seed=1))
        b = generate(self.spec(seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_scaling_exact(self):
        a = generate(self.spec(rms_volts=0.5))
        b = generate(self.spec(rms_volts=1.0))
        np.testing.assert_allclose(2.0 * a.samples, b.samples, rtol=1e-12)

    def test_zero_rms_all_zero(self):
        w = generate(self.spec(rms_volts=0.0))
        assert np.all(w.samples == 0.0)

    def test_nyquist_violation(self):
        with pytest.raises(ValueError):
            self.spec(bandwidth_hz=600.0)  # fs = 1 kHz

    def test_sigma_within_two_percent_at_figure_size(self):
        w = generate(self.spec(duration_s=1000.0))  # 1e6 samples
        assert 0.98 <= np.std(w.samples) <= 1.02

    def test_out_of_band_power(self):
        w = generate(self.spec(duration_s=1000.0))
        assert out_of_band_power_fraction(w, 250.0) < 1e-3

    def test_spectrum_flat_in_band(self):
        w = generate(self.spec(duration_s=200.0, seed=3))
        freqs, psd = periodogram(w.samples, fs=1000.0)
        band = (freqs > 10) & (freqs <= 240)
        # flat white level: total power / bandwidth
        level = np.mean(psd[band])
        assert np.mean(psd[(freqs > 50) & (freqs < 100)]) == pytest.approx(
            level, rel=0.15
        )

    def test_autocorrelation_structure(self):
        # lag 1/(4B) positive (analytically sinc(1/2) = 0.637); long lags ~ 0
        w = generate(self.spec(duration_s=2000.0, seed=9))
        x = w.samples
        n = x.size
        lag1 = np.dot(x[:-1], x[1:]) / np.dot(x, x)  # t_s = 1/(4B)
        assert lag1 > 0
        assert lag1 == pytest.approx(2.0 / np.pi, abs=0.02)
        lag40 = np.dot(x[:-40], x[40:]) / np.dot(x, x)  # 10/B, far past 1/B
        assert abs(lag40) < 5.0 / np.sqrt(n)

    def test_short_window_still_band_limited(self):
        # a 20 ms block cut from the padded synthesis window has no
        # content above the brick wall: check against a dense resynthesis
        w = generate(self.spec(duration_s=0.02, sample_interval_s=1 / 32e3, seed=5))
        assert len(w) == 640
        assert np.std(w.samples) > 0.1  # realization has content


class TestGaussianityReport:
    def test_standard_normal_quantiles(self):
        rng = np.random.default_rng(0)
        w = Waveform(rng.standard_normal(10**6), 1e-3)
        rep = gaussianity_report(w, n_bins=50)
        assert np.max(np.abs(rep.theoretical_q - rep.empirical_q)) < 0.05

    def test_chi2_pvalue_for_gaussian(self):
        w = generate(NoiseSpec(250.0, 1.0, 1000.0, 1e-3, seed=12))
        rep = gaussianity_report(w, n_bins=50)
        assert rep.chi2_pvalue > 0.01

    def test_constant_input_single_bin(self):
        w = Waveform(np.full(100, 2.5), 1e-3)
        rep = gaussianity_report(w, n_bins=10)
        assert np.sum(rep.bin_counts > 0) == 1

    def test_uniform_input_fails_normality(self):
        rng = np.random.default_rng(1)
        w = Waveform(rng.uniform(-1, 1, 10**5), 1e-3)
        rep = gaussianity_report(w, n_bins=50)
        assert rep.chi2_pvalue < 0.01

    def test_too_few_bins(self):
        w = Waveform(np.zeros(10), 1e-3)
        with pytest.raises(ValueError):
            gaussianity_report(w, n_bins=1)

    def test_csv_blocks(self, tmp_path):
        w = generate(NoiseSpec(250.0, 1.0, 10.0, 1e-3, seed=2))
        rep = gaussianity_report(w, n_bins=20)
        path = tmp_path / "gauss.csv"
        write_gaussianity_csv(rep, path)
        text = path.read_text()
        assert text.startswith("bin_center,count\n")
        assert "\ntheoretical_q,empirical_q\n" in text


def pcg64_words(seeds):
    """The words ``default_rng(seed)`` seeds its PCG64 with, by numpy's own hash."""
    return np.array([np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds])


class TestDrawLines:
    """The line draw against the spectrum ``generate`` synthesizes."""

    @settings(max_examples=40, deadline=None)
    @given(
        # seeds of one, two and three uint32 words
        seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                                 st.integers(2**64, 2**96 - 1)), min_size=1, max_size=6),
        k_max=st.sampled_from([1, 37, 256, 1200]),
    )
    def test_bitwise_the_lines_of_generate(self, seeds, k_max):
        words = pcg64_words(seeds).reshape(-1, 1, 4)
        lines = noise.draw_lines(words, np.empty((len(seeds), 1, 2, k_max)))
        for i, seed in enumerate(seeds):
            ref = noise._draw_lines(np.random.default_rng(seed), k_max)
            assert np.array_equal(lines[i, 0, 0], ref.real)
            assert np.array_equal(lines[i, 0, 1], ref.imag)

    @settings(max_examples=30, deadline=None)
    @given(
        # up to 1.2 s at 32 kHz: 38400 samples, past the default 32768-point window
        n=st.one_of(st.integers(1, 12000), st.just(38400)),
        dt=st.sampled_from([1 / 32e3, 1 / 8e3, 1e-3 / 3]),
        rms=st.sampled_from([0.5, 3.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lines_sum_to_generate(self, n, dt, rms, seed):
        spec = NoiseSpec(250.0, rms, n * dt, dt, seed=seed)
        n_pad, k_max, amplitude = noise.line_window(spec)
        lines = noise.draw_lines(pcg64_words([seed]), np.empty((1, 2, k_max)))[0]
        ref = generate(spec).samples
        t = np.unique(np.linspace(0, n - 1, 200).astype(int))  # the ends and between
        got = amplitude * (noise.line_phases(n_pad, k_max, t) @ (lines[0] + 1j * lines[1])).real
        np.testing.assert_allclose(got, ref[t], rtol=0, atol=1e-12 * np.max(np.abs(ref)))

    def test_fills_the_callers_buffer_row_by_row(self):
        # a (bits, party, 4) word array, as the bit engine draws a batch:
        # every row is default_rng(seed)'s own normals, real then imaginary
        seeds = [0, 7, 2**40 + 3, 5, 2**70, 11]
        words = pcg64_words(seeds).reshape(3, 2, 4)
        out = np.full((3, 2, 2, 37), np.nan)
        assert noise.draw_lines(words, out) is out
        for seed, row in zip(seeds, out.reshape(6, 2, 37)):
            ref = np.random.default_rng(seed).standard_normal(2 * 37)
            assert np.array_equal(row, ref.reshape(2, 37))

    @pytest.mark.parametrize("words, out, match", [
        (np.zeros((2, 3), np.uint64), np.empty((2, 2, 8)), "words must be"),
        (np.zeros((2, 5), np.uint64), np.empty((2, 2, 8)), "words must be"),
        (np.zeros((2, 4), np.uint32), np.empty((2, 2, 8)), "words must be"),
        (np.zeros((2, 4), np.int64), np.empty((2, 2, 8)), "words must be"),
        (np.zeros((4, 4), np.uint64)[::2], np.empty((2, 2, 8)), "words must be"),
        (np.zeros((2, 4), np.uint64), np.empty((3, 2, 8)), "out must be"),
        (np.zeros((2, 4), np.uint64), np.empty((2, 8)), "out must be"),
        (np.zeros((2, 4), np.uint64), np.empty((2, 2, 16))[..., ::2], "out must be"),
        (np.zeros((2, 4), np.uint64), np.empty((2, 2, 8), np.float32), "out must be"),
    ], ids=["axis_3", "axis_5", "uint32", "int64", "strided_words", "rows", "no_party_axis",
            "strided_out", "float32"])
    def test_malformed_arrays_rejected_before_any_draw(self, words, out, match, monkeypatch):
        draws = []
        monkeypatch.setattr(np.random, "PCG64", lambda *a: draws.append(a))
        with pytest.raises(ValueError, match=match):
            noise.draw_lines(words, out)
        assert draws == []

    def test_next_fast_len_is_scipys_real_length(self):
        # the window without scipy.fft: every n up to 4096, each 5-smooth
        # number to 2**31 and its neighbours, and random lengths to 2**31
        from scipy.fft import next_fast_len

        smooth = sorted(2**a * 3**b * 5**c for a in range(32) for b in range(20)
                        for c in range(14) if 2**a * 3**b * 5**c <= 2**31)
        rng = np.random.default_rng(0)
        ns = {*range(1, 4097), *(s + e for s in smooth for e in (-1, 0, 1) if s + e > 0),
              *rng.integers(1, 2**31, 2000).tolist()}
        got = {n: noise._next_fast_len(n) for n in ns}
        assert got == {n: next_fast_len(n, real=True) for n in ns}

    def test_phases_are_reduced_in_integers(self):
        # z^t at t = n_pad + 5 is z^5 bitwise
        assert np.array_equal(noise.line_phases(32768, 256, 32768 + 5),
                              noise.line_phases(32768, 256, 5))


