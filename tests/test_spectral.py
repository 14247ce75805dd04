from pathlib import Path

import numpy as np
import pytest
from conftest import curve_fit_exponential, sse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from nmqwalk.cli import _read_series_csv, main
from nmqwalk.exceptions import FitError
from nmqwalk.spectral import (
    TimeSeries,
    disambiguate,
    find_peaks,
    fit_mfbf,
    power_spectrum,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
#: the exact exponential fit may exceed the SSE of ``curve_fit`` by this much, relative
SSE_MARGIN = 1e-12


def series(values, times=None):
    values = np.asarray(values, dtype=float)
    if times is None:
        times = np.arange(len(values), dtype=float)
    return TimeSeries(times=times, values=values)


T60, T100, T128 = (np.arange(n, dtype=float) for n in (60, 100, 128))
#: every series this module fits with the exponential family
EXPONENTIAL_SERIES = {
    "decay": series(np.exp(-0.1 * T100), times=T100),
    "noisy-decay": series(
        np.exp(-0.05 * T60) + 0.02 * np.random.default_rng(3).normal(size=60), times=T60
    ),
    "tone-on-decay": series(np.exp(-0.05 * T128) + 0.1 * np.cos(2 * np.pi * 0.25 * T128), times=T128),
    "two-tones-on-decay": series(
        np.exp(-0.05 * T128)
        + 0.1 * np.cos(2 * np.pi * 0.25 * T128)
        + 0.05 * np.cos(2 * np.pi * 0.03125 * T128),
        times=T128,
    ),
}


def assert_never_loses_to_curve_fit(s, fit):
    assert sse(s, fit.fitted) <= sse(s, curve_fit_exponential(s)) * (1 + SSE_MARGIN)


class TestTimeSeries:
    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            series([1, 2, 3], times=np.array([0.0, 0.0, 1.0]))

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            series([1.0, np.nan, 2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", [0, 1, 3], ids=["first", "second", "last"])
    def test_rejects_non_finite_times(self, bad, where):
        # a NaN time passed the increasing-time check: every comparison with it is False
        times = np.arange(4.0)
        times[where] = bad
        with pytest.raises(ValueError, match="times must be finite"):
            series([1.0, 0.8, 0.6, 0.5], times=times)

    @pytest.mark.parametrize(
        "times, values",
        [
            (0.0, 1.0),
            (np.zeros((2, 2)), np.ones((2, 2))),
            (np.arange(3.0), np.ones(4)),
        ],
        ids=["0-d-series", "2-d-series", "length-mismatch"],
    )
    def test_rejects_a_series_that_is_not_1d_of_one_length(self, times, values):
        # a 0-d series raised TypeError from len() in the error message
        with pytest.raises(ValueError, match=r"must be 1-d of one length, got shapes \("):
            TimeSeries(times=times, values=values)


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        levels=st.lists(st.integers(-3, 3), min_size=4, max_size=40),
        scale=st.floats(1e-3, 10.0),
    )
    def test_matches_scipy(self, levels, scale):
        # integer levels make ties, within a block and between blocks
        values = scale * np.array(levels, dtype=float)
        fitted = fit_mfbf(series(values), "isotonic").fitted
        expected = isotonic_regression(values, increasing=False).x
        assert np.max(np.abs(fitted - expected)) <= 1e-12

    def test_residual_has_no_monotone_component(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            s = series(rng.normal(size=30))
            report = disambiguate(s, "isotonic")
            fit, residual = report.fit, report.residual
            refit = fit_mfbf(residual, "isotonic").fitted
            fit_ss = float(np.sum(fit.fitted**2))
            assert np.sum(refit**2) <= 1e-9 * max(fit_ss, 1.0)


class TestExponentialFit:
    def test_recovers_decay_rate(self):
        fit = fit_mfbf(EXPONENTIAL_SERIES["decay"], "exponential")
        a, b, c = fit.parameters
        assert b == pytest.approx(0.1, abs=1e-6)
        assert a == pytest.approx(1.0, abs=1e-6)
        assert c == pytest.approx(0.0, abs=1e-6)

    def test_fit_is_non_increasing(self):
        fit = fit_mfbf(EXPONENTIAL_SERIES["noisy-decay"], "exponential")
        assert np.all(np.diff(fit.fitted) <= 1e-12)

    @pytest.mark.parametrize("name", EXPONENTIAL_SERIES)
    def test_never_loses_to_curve_fit(self, name):
        s = EXPONENTIAL_SERIES[name]
        assert_never_loses_to_curve_fit(s, fit_mfbf(s, "exponential"))

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_never_loses_to_curve_fit_on_backflow(self, tmp_path, seed):
        # the TD series the benchmark's backflow workload fits
        config = str(GOLDEN / f"backflow-{seed}" / "config.json")
        assert main(["witness", "--config", config, "--out", str(tmp_path)]) == 0
        s = _read_series_csv(tmp_path / "td.csv")
        assert_never_loses_to_curve_fit(s, fit_mfbf(s, "exponential"))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        a=st.floats(0.0, 5.0),
        b=st.floats(0.0, 2.0),
        c=st.floats(-3.0, 3.0),
        noise=st.floats(1e-3, 1.0),
        t0=st.floats(-10.0, 10.0).filter(lambda t0: abs(t0) >= 1e-3),
        n=st.integers(8, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    # the best grid point lies on the large-b plateau, the least SSE in an
    # interior basin
    @example(a=2.0703125, b=1.2421875, c=0.0, noise=0.69921875, t0=1.0, n=69, seed=152179)
    def test_never_loses_to_curve_fit_on_noisy_decays(self, a, b, c, noise, t0, n, seed):
        rng = np.random.default_rng(seed)
        times = t0 + np.arange(n, dtype=float)
        values = a * np.exp(-b * (times - t0)) + c + noise * rng.normal(size=n)
        s = series(values, times=times)
        fit = fit_mfbf(s, "exponential")
        assert np.all(np.diff(fit.fitted) <= 0.0)
        assert_never_loses_to_curve_fit(s, fit)

    def test_times_far_from_zero_keep_finite_parameters(self):
        # a steep drop after the first point: the best rate is 7.4, so the
        # amplitude of a*exp(-b*t) would be about e^7420 at t0 = 1000; in
        # t - t0 the parameters are those of the same values at t = 0..15
        values = np.r_[1.0, np.zeros(15)] + 1e-3 * np.cos(np.arange(16.0))
        times = 1000.0 + np.arange(16.0)
        fit = fit_mfbf(series(values, times=times), "exponential")
        at_zero = fit_mfbf(series(values), "exponential")
        assert fit.t0 == 1000.0 and at_zero.t0 == 0.0
        assert np.all(np.isfinite(fit.parameters)) and fit.parameters == at_zero.parameters
        a, b, c = fit.parameters
        assert b == pytest.approx(7.42, abs=0.01)
        np.testing.assert_allclose(
            a * np.exp(-b * (times - fit.t0)) + c, fit.fitted, rtol=0.0, atol=1e-14
        )

    @pytest.mark.parametrize(
        "times, values",
        # the squared residuals overflow
        [(np.arange(16.0), 1e200 * np.cos(np.arange(16.0)))],
        ids=["sse"],
    )
    def test_overflow_raises(self, times, values):
        with pytest.raises(FitError):
            fit_mfbf(series(values, times=times), "exponential")

    def test_needs_four_samples(self):
        with pytest.raises(ValueError):
            fit_mfbf(series([3.0, 2.0, 1.0]), "exponential")

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            fit_mfbf(series([3.0, 2.0, 1.0, 0.5]), "spline")


class TestDetrend:
    def test_monotone_input_zero_residual(self):
        residual = disambiguate(series(np.arange(8.0, 0.0, -1.0)), "isotonic").residual
        np.testing.assert_allclose(residual.values, 0.0, atol=1e-12)

    def test_constant_series_zero_residual(self):
        residual = disambiguate(series([2.0] * 8), "isotonic").residual
        np.testing.assert_allclose(residual.values, 0.0, atol=1e-12)

    def test_recovers_oscillation_under_exponential_trend(self):
        residual = disambiguate(EXPONENTIAL_SERIES["tone-on-decay"], "exponential").residual
        assert np.max(np.abs(residual.values - 0.1 * np.cos(2 * np.pi * 0.25 * T128))) <= 0.02


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

    @pytest.mark.parametrize(
        "t0, step", [(0.0, 1.0), (3.0, 0.5)], ids=["unit-step", "offset-half-step"]
    )
    def test_frequency_axis(self, t0, step):
        # cycles per walk step: bin k of N samples a step D apart is k/(N*D)
        sp = power_spectrum(series(np.arange(10.0), times=t0 + step * np.arange(10.0)))
        np.testing.assert_allclose(sp.frequencies, np.arange(6) / (10 * step), rtol=1e-15)

    @pytest.mark.parametrize(
        "steps",
        [
            [1.0, 1.0, 1.5, 0.5, 1.0, 1.0, 1.0],
            # a spacing far below 1e-9 once passed the check, however uneven
            [1e-12, 1.5e-12] * 7 + [1e-12],
        ],
        ids=["unit-scale", "picosteps"],
    )
    def test_non_uniform_spacing_rejected(self, steps):
        t = np.concatenate(([0.0], np.cumsum(steps)))
        with pytest.raises(ValueError, match="uniformly spaced"):
            power_spectrum(series(np.ones(len(t)), times=t))

    def test_uniformity_is_relative_to_the_step(self):
        # a 1e-4 jitter on steps of 1e6 is 1e-10 of the step
        t = np.concatenate(([0.0], np.cumsum([1e6, 1e6 + 1e-4] * 7 + [1e6])))
        sp = power_spectrum(series(np.cos(np.arange(16.0)), times=t))
        np.testing.assert_allclose(sp.frequencies, np.arange(9) / (16 * 1e6), rtol=1e-9)

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
        report = disambiguate(EXPONENTIAL_SERIES["two-tones-on-decay"], family="exponential")
        freqs = sorted(round(p.frequency, 6) for p in report.peaks)
        assert freqs == [0.03125, 0.25]
        assert report.peak_power_ratio == pytest.approx(
            report.peaks[0].power / report.peaks[1].power
        )

    def test_peak_frequency_is_in_cycles_per_step(self):
        # every second step of a tone of 0.1 cycles per step on a decay
        t = np.arange(0.0, 160.0, 2.0)
        values = np.exp(-0.05 * t) + 0.1 * np.cos(2 * np.pi * 0.1 * t)
        report = disambiguate(series(values, times=t))
        assert report.peaks[0].frequency == pytest.approx(0.1, rel=1e-12)

    def test_single_peak_has_no_ratio(self):
        t = np.arange(64, dtype=float)
        report = disambiguate(
            series(np.cos(2 * np.pi * 0.25 * t), times=t), family="isotonic"
        )
        assert len(report.peaks) == 1
        assert report.peak_power_ratio is None
