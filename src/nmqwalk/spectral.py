"""Backflow disambiguation by detrending and Fourier analysis.

A witness series that decays while oscillating mixes two effects: the
monotone decay of distinguishability and the oscillatory revivals that
signal information backflow. Subtracting a monotonically falling best fit
(MFBF) isolates the oscillation; its power spectrum then separates slow
noise-induced revivals from the fast position-environment recurrences by
frequency, and peak powers quantify their relative strength.

Frequencies are in cycles per walk step. The one-sided power spectrum is
normalized so that the total power over all bins equals N times the
variance of the mean-removed series (interior bins carry the doubled
two-sided power).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit, isotonic_regression

from .exceptions import FitError

FIT_FAMILIES = ("isotonic", "exponential")
DEFAULT_FIT_FAMILY = "exponential"
#: peaks below this fraction of the largest power are dropped
DEFAULT_MIN_PROMINENCE = 0.05
_MAX_FIT_EVALS = 10_000
_UNIFORM_SPACING_TOL = 1e-9


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly weighted (by default) samples of a witness over walk steps."""

    times: np.ndarray
    values: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        weights = (
            np.ones_like(values)
            if self.weights is None
            else np.asarray(self.weights, dtype=float)
        )
        if times.shape != values.shape or weights.shape != values.shape:
            raise ValueError(
                f"length mismatch: {len(times)} times, {len(values)} values, "
                f"{len(weights)} weights"
            )
        if len(times) and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class MonotoneFit:
    """Non-increasing fit g(t) of a time series.

    ``parameters`` is (amplitude, rate, offset) for the exponential family
    a*exp(-b*t) + c, and None for the isotonic family.
    """

    family: str
    fitted: np.ndarray
    parameters: tuple[float, float, float] | None = None


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude-squared DFT; frequencies k/N, k = 0..floor(N/2)."""

    frequencies: np.ndarray
    power: np.ndarray


@dataclass(frozen=True)
class Peak:
    frequency: float
    power: float


@dataclass(frozen=True)
class DisambiguationReport:
    """Full detrend-and-transform pipeline output for one witness series.

    ``peak_power_ratio`` is largest peak power over second largest (>= 1),
    or None when fewer than two peaks clear the prominence threshold.
    """

    fit: MonotoneFit
    residual: TimeSeries = field(repr=False)
    spectrum: Spectrum = field(repr=False)
    peaks: tuple[Peak, ...]
    peak_power_ratio: float | None


def _exp_model(t, a, b, c):
    return a * np.exp(-b * t) + c


def _exponential_init(times: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """Starting point from log-linear regression of (values - min)."""
    c0 = float(np.min(values))
    shifted = values - c0
    mask = shifted > 1e-12
    if np.count_nonzero(mask) >= 2:
        slope, intercept = np.polyfit(times[mask], np.log(shifted[mask]), 1)
        a0 = float(np.exp(intercept))
        b0 = max(float(-slope), 0.0)
    else:
        a0, b0 = max(float(np.ptp(values)), 1e-12), 0.0
    return a0, b0, c0


def fit_mfbf(s: TimeSeries, family: str = DEFAULT_FIT_FAMILY) -> MonotoneFit:
    """Monotonically falling best fit of a series.

    The isotonic family solves the weighted least-squares problem under
    non-increasing constraints exactly (pool-adjacent-violators); the
    exponential family fits a*exp(-b*t) + c with a, b >= 0 by nonlinear
    least squares. Both satisfy g(t_{i+1}) <= g(t_i) by construction.
    """
    if family not in FIT_FAMILIES:
        raise ValueError(f"family must be one of {FIT_FAMILIES}, got {family!r}")
    if len(s.values) < 4:
        raise ValueError(f"need at least 4 samples to fit, got {len(s.values)}")
    if family == "isotonic":
        res = isotonic_regression(s.values, weights=s.weights, increasing=False)
        return MonotoneFit(family="isotonic", fitted=np.asarray(res.x, dtype=float))
    p0 = _exponential_init(s.times, s.values)
    try:
        popt, _ = curve_fit(
            _exp_model,
            s.times,
            s.values,
            p0=p0,
            sigma=1.0 / np.sqrt(s.weights),
            bounds=([0.0, 0.0, -np.inf], [np.inf, np.inf, np.inf]),
            maxfev=_MAX_FIT_EVALS,
        )
    except RuntimeError as exc:
        raise FitError(f"exponential fit did not converge: {exc}") from exc
    a, b, c = (float(x) for x in popt)
    return MonotoneFit(
        family="exponential",
        fitted=_exp_model(s.times, a, b, c),
        parameters=(a, b, c),
    )


def detrend(s: TimeSeries, fit: MonotoneFit) -> TimeSeries:
    """Residual series s.values - fit.fitted on the same time grid."""
    if len(fit.fitted) != len(s.values):
        raise ValueError(
            f"fit length {len(fit.fitted)} does not match series length {len(s.values)}"
        )
    return TimeSeries(times=s.times, values=s.values - fit.fitted, weights=s.weights)


def power_spectrum(s: TimeSeries) -> Spectrum:
    """One-sided magnitude-squared DFT of the mean-removed series.

    Interior bins carry both DFT halves so the total power equals N times
    the variance of the mean-removed input (a discrete Parseval identity).
    """
    n = len(s.values)
    if n < 8:
        raise ValueError(f"need at least 8 samples, got {n}")
    dt = np.diff(s.times)
    if np.max(np.abs(dt - dt[0])) > _UNIFORM_SPACING_TOL:
        raise ValueError("power_spectrum requires uniformly spaced times")
    y = s.values - np.mean(s.values)
    spec = np.abs(np.fft.rfft(y)) ** 2 / n
    scale = np.full(len(spec), 2.0)
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0
    freqs = np.arange(len(spec)) / n
    return Spectrum(frequencies=freqs, power=spec * scale)


def find_peaks(sp: Spectrum, min_prominence: float = DEFAULT_MIN_PROMINENCE) -> list[Peak]:
    """Strict local maxima above a fraction of the maximum power.

    The f = 0 bin and the endpoints (which lack two neighbors) are
    excluded; results are sorted by descending power.
    """
    p = sp.power
    if len(p) < 3 or np.max(p) <= 0:
        return []
    threshold = min_prominence * float(np.max(p))
    interior = np.arange(1, len(p) - 1)
    mask = (p[interior] > p[interior - 1]) & (p[interior] > p[interior + 1])
    mask &= p[interior] >= threshold
    idx = interior[mask]
    order = np.argsort(-p[idx], kind="stable")
    return [Peak(float(sp.frequencies[i]), float(p[i])) for i in idx[order]]


def disambiguate(
    s: TimeSeries,
    family: str = DEFAULT_FIT_FAMILY,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> DisambiguationReport:
    """Run fit -> detrend -> spectrum -> peaks and summarize peak strengths."""
    fit = fit_mfbf(s, family)
    residual = detrend(s, fit)
    spectrum = power_spectrum(residual)
    peaks = tuple(find_peaks(spectrum, min_prominence))
    ratio = peaks[0].power / peaks[1].power if len(peaks) >= 2 else None
    return DisambiguationReport(
        fit=fit,
        residual=residual,
        spectrum=spectrum,
        peaks=peaks,
        peak_power_ratio=ratio,
    )
