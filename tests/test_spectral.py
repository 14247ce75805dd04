import numpy as np
import pytest

from nmqwalk.spectral import (
    TimeSeries,
    detrend,
    disambiguate,
    find_peaks,
    fit_mfbf,
    power_spectrum,
)


def series(values, times=None, weights=None):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return TimeSeries(times=times, values=values, weights=weights)


class TestTimeSeries:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            series([1, 2, 3], times=np.array([0.0, 0.0, 1.0]))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            series([1.0, np.nan, 2.0])

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            series([1, 2, 3], weights=np.array([1.0, 0.0, 1.0]))


class TestIsotonicFit:
    def test_monotone_input_unchanged(self):
        s = series([5.0, 4.0, 2.5, 1.0])
        np.testing.assert_allclose(fit_mfbf(s, "isotonic").fitted, s.values)

    def test_single_violation_pooled(self):
        fit = fit_mfbf(series([3.0, 1.0, 2.0, 0.0]), "isotonic")
        np.testing.assert_allclose(fit.fitted, [3.0, 1.5, 1.5, 0.0], atol=1e-12)

    def test_fit_is_non_increasing(self):
        rng = np.random.default_rng(13)
        fit = fit_mfbf(series(rng.normal(size=40)), "isotonic")
        assert np.all(np.diff(fit.fitted) <= 1e-12)

    def test_residual_has_no_monotone_component(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            s = series(rng.normal(size=30))
            fit = fit_mfbf(s, "isotonic")
            residual = detrend(s, fit)
            refit = fit_mfbf(residual, "isotonic").fitted
            fit_ss = float(np.sum(fit.fitted**2))
            assert np.sum(refit**2) <= 1e-9 * max(fit_ss, 1.0)


class TestExponentialFit:
    def test_recovers_decay_rate(self):
        t = np.arange(100, dtype=float)
        fit = fit_mfbf(series(np.exp(-0.1 * t), times=t), "exponential")
        a, b, c = fit.parameters
        assert b == pytest.approx(0.1, abs=1e-6)
        assert a == pytest.approx(1.0, abs=1e-6)
        assert c == pytest.approx(0.0, abs=1e-6)

    def test_fit_is_non_increasing(self):
        rng = np.random.default_rng(3)
        t = np.arange(60, dtype=float)
        values = np.exp(-0.05 * t) + 0.02 * rng.normal(size=60)
        fit = fit_mfbf(series(values, times=t), "exponential")
        assert np.all(np.diff(fit.fitted) <= 1e-12)

    def test_needs_four_samples(self):
        with pytest.raises(ValueError):
            fit_mfbf(series([3.0, 2.0, 1.0]), "exponential")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            fit_mfbf(series([3.0, 2.0, 1.0, 0.5]), "spline")


class TestDetrend:
    def test_monotone_input_zero_residual(self):
        s = series([4.0, 3.0, 2.0, 1.0])
        residual = detrend(s, fit_mfbf(s, "isotonic"))
        np.testing.assert_allclose(residual.values, 0.0, atol=1e-12)

    def test_constant_series_zero_residual(self):
        s = series([2.0] * 8)
        residual = detrend(s, fit_mfbf(s, "isotonic"))
        np.testing.assert_allclose(residual.values, 0.0, atol=1e-12)

    def test_recovers_oscillation_under_exponential_trend(self):
        t = np.arange(128, dtype=float)
        tone = 0.1 * np.cos(2 * np.pi * 0.25 * t)
        s = series(np.exp(-0.05 * t) + tone, times=t)
        residual = detrend(s, fit_mfbf(s, "exponential"))
        assert np.max(np.abs(residual.values - tone)) <= 0.02

    def test_length_mismatch_rejected(self):
        s = series([3.0, 2.0, 1.0, 0.5])
        fit = fit_mfbf(s, "isotonic")
        with pytest.raises(ValueError):
            detrend(series([1.0, 0.5, 0.25, 0.2, 0.1]), fit)


class TestPowerSpectrum:
    def test_constant_series_no_power(self):
        sp = power_spectrum(series([3.0] * 16))
        np.testing.assert_allclose(sp.power, 0.0, atol=1e-20)

    def test_pure_tone_on_bin(self):
        t = np.arange(64, dtype=float)
        sp = power_spectrum(series(np.cos(2 * np.pi * 0.25 * t), times=t))
        k = int(np.argmax(sp.power))
        assert sp.frequencies[k] == pytest.approx(0.25)
        assert sp.power[k] >= 0.99 * np.sum(sp.power)

    def test_two_tones_two_bins(self):
        t = np.arange(64, dtype=float)
        y = np.cos(2 * np.pi * 0.25 * t) + 0.5 * np.cos(2 * np.pi * 0.03125 * t)
        sp = power_spectrum(series(y, times=t))
        top = np.argsort(-sp.power)[:2]
        assert {round(sp.frequencies[i], 6) for i in top} == {0.25, 0.03125}
        assert np.sum(sp.power[top]) >= 0.99 * np.sum(sp.power)

    def test_parseval(self):
        rng = np.random.default_rng(19)
        for n in (16, 33, 101):
            y = rng.normal(size=n)
            sp = power_spectrum(series(y))
            assert np.sum(sp.power) == pytest.approx(
                n * np.var(y), abs=1e-9 * max(1.0, n * np.var(y))
            )

    def test_frequency_axis(self):
        sp = power_spectrum(series(np.arange(10.0)))
        np.testing.assert_allclose(sp.frequencies, np.arange(6) / 10)

    def test_non_uniform_spacing_rejected(self):
        t = np.array([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValueError):
            power_spectrum(series(np.ones(8), times=t))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(series([1.0] * 7))


class TestFindPeaks:
    def test_pure_tone_single_peak(self):
        t = np.arange(64, dtype=float)
        sp = power_spectrum(series(np.cos(2 * np.pi * 0.25 * t), times=t))
        peaks = find_peaks(sp)
        assert len(peaks) == 1
        assert peaks[0].frequency == pytest.approx(0.25)

    def test_peaks_sorted_and_on_grid(self):
        t = np.arange(64, dtype=float)
        y = np.cos(2 * np.pi * 0.25 * t) + 0.5 * np.cos(2 * np.pi * 0.03125 * t)
        sp = power_spectrum(series(y, times=t))
        peaks = find_peaks(sp)
        assert len(peaks) == 2
        assert peaks[0].power >= peaks[1].power
        grid = set(np.round(sp.frequencies, 12))
        assert all(round(p.frequency, 12) in grid for p in peaks)

    def test_monotone_spectrum_no_peaks(self):
        from nmqwalk.spectral import Spectrum

        sp = Spectrum(frequencies=np.arange(9) / 16, power=9.0 - np.arange(9.0))
        assert find_peaks(sp) == []

    def test_prominence_threshold_filters_small_peaks(self):
        from nmqwalk.spectral import Spectrum

        power = np.array([0.0, 10.0, 0.0, 0.1, 0.0, 0.0])
        sp = Spectrum(frequencies=np.arange(6) / 10, power=power)
        assert len(find_peaks(sp, min_prominence=0.05)) == 1
        assert len(find_peaks(sp, min_prominence=0.005)) == 2


class TestDisambiguate:
    def test_two_tone_report(self):
        t = np.arange(128, dtype=float)
        y = (
            np.exp(-0.05 * t)
            + 0.1 * np.cos(2 * np.pi * 0.25 * t)
            + 0.05 * np.cos(2 * np.pi * 0.03125 * t)
        )
        report = disambiguate(series(y, times=t), family="exponential")
        freqs = sorted(round(p.frequency, 6) for p in report.peaks)
        assert freqs == [0.03125, 0.25]
        assert report.peak_power_ratio == pytest.approx(
            report.peaks[0].power / report.peaks[1].power
        )

    def test_single_peak_has_no_ratio(self):
        t = np.arange(64, dtype=float)
        report = disambiguate(
            series(np.cos(2 * np.pi * 0.25 * t), times=t), family="isotonic"
        )
        assert len(report.peaks) == 1
        assert report.peak_power_ratio is None
