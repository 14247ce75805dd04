"""Backflow disambiguation by detrending and Fourier analysis.

A witness series that decays while oscillating mixes two effects: the
monotone decay of distinguishability and the oscillatory revivals that
signal information backflow. Subtracting a monotonically falling best fit
(MFBF) isolates the oscillation; its power spectrum then separates slow
noise-induced revivals from the fast position-environment recurrences by
frequency, and peak powers quantify their relative strength.

Frequencies are in cycles per walk step, whatever the uniform spacing of
the series' times. The one-sided power spectrum is normalized so that the
total power over all bins equals N times the variance of the mean-removed
series (interior bins carry the doubled two-sided power).

Both MFBF families are exact least-squares fits in numpy alone:
the isotonic family by pool-adjacent-violators, the exponential family by
variable projection, a closed form for (a, c) and a search over the rate b
(see :func:`fit_mfbf`). So the spectral step never loads scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .exceptions import FitError

FIT_FAMILIES = ("isotonic", "exponential")
DEFAULT_FIT_FAMILY = "exponential"
#: peaks below this fraction of the largest power are dropped
DEFAULT_MIN_PROMINENCE = 0.05
#: the log-spaced bracket over the exponential rate b: its points, and its
#: ends as b*(t_last - t0) and b*(t_1 - t0)
_RATE_GRID = 128
_RATE_FLOOR = 1e-15
_RATE_CEILING = 40.0
#: relative SSE differences below which neighbouring grid points count as level
_LEVEL_TOL = 1e-12
#: golden-section stop on the bracket of log b, a relative tolerance in b
_RATE_TOL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TINY = sys.float_info.min
#: the most any step of a series may differ from its first, relative to it
_UNIFORM_SPACING_TOL = 1e-9


@dataclass(frozen=True)
class TimeSeries:
    """Samples of a witness at strictly increasing walk steps."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError(
                "times and values must be 1-d of one length, got shapes "
                f"{times.shape} and {values.shape}"
            )
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MonotoneFit:
    """Non-increasing fit g(t) of a time series.

    ``parameters`` is (amplitude, rate, offset) for the exponential family
    a*exp(-b*(t - t0)) + c, with ``t0`` the series' first time; both are
    None for the isotonic family, so ``parameters`` tells the two apart.
    """

    fitted: np.ndarray
    parameters: tuple[float, float, float] | None = None
    t0: float | None = None


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude-squared DFT of N samples a step D apart.

    ``frequencies`` are k/(N*D), k = 0..floor(N/2), in cycles per walk step.
    """

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


def _projected_fits(rates, tau, centred, mass):
    """SSE, amplitude and centred basis of the best a*exp(-b*tau) + c per rate.

    ``rates`` is one rate b or an array of them; ``mass`` is 1/n at each of
    the n samples, so the SSE comes out divided by n and every inner
    product is a mean. For a fixed b the model is linear in (a, c). In the
    basis psi = exp(-b*tau) - 1, taken by ``expm1`` so that it stays exact
    as b -> 0, centred on its mean, the 2 x 2 normal equations give
    a = <psi, y> / <psi, psi> against the centred values y, and c from the
    means. A negative a is set to 0, with c the mean: the best
    non-increasing fit of that rate. b = 0 gives psi = 0, the same answer.
    The SSE is summed from the residuals, not from the normal equations,
    so it keeps its relative precision at a close fit.
    """
    psi = np.expm1(np.multiply.outer(-rates, tau))
    psi -= np.dot(psi, mass)[..., None]
    cov = np.dot(psi, mass * centred)
    amplitude = np.maximum(cov, 0.0) / np.maximum(np.dot(psi**2, mass), _TINY)
    sse = np.dot((centred - amplitude[..., None] * psi) ** 2, mass)
    return sse, amplitude, psi


def _golden_section(f, lo: float, hi: float) -> tuple[float, float]:
    """(f(x), x) at the least value f takes on its evaluations in [lo, hi].

    Golden-section search, stopped when the bracket is narrower than
    ``_RATE_TOL``.
    """
    x1, x2 = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    best = min((f1, x1), (f2, x2))
    while hi - lo > _RATE_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
            best = min(best, (f1, x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
            best = min(best, (f2, x2))
    return best


def _fit_exponential(s: TimeSeries) -> MonotoneFit:
    """a*exp(-b*(t - t0)) + c with a, b >= 0 by variable projection (see ``fit_mfbf``)."""
    t0 = s.times[0]
    tau = s.times - t0
    mass = np.full(len(tau), 1.0 / len(tau))
    mean = float(np.dot(mass, s.values))
    centred = s.values - mean
    # from rates at which psi is a straight line to within rounding, to
    # rates at which it has fallen below rounding one step after t0
    grid = np.geomspace(_RATE_FLOOR / tau[-1], _RATE_CEILING / tau[1], _RATE_GRID)
    sse = _projected_fits(np.concatenate(([0.0], grid)), tau, centred, mass)[0]
    best, sse = (sse[0], 0.0), sse[1:]
    # refined in log b: the best grid point, and every grid point below both
    # neighbours by more than rounding, as the basin of least SSE need not
    # hold the best grid point
    padded = np.concatenate(([np.inf], sse, [np.inf]))
    margin = _LEVEL_TOL * sse
    basins = (sse < padded[:-2] - margin) & (sse < padded[2:] - margin)
    basins[np.argmin(sse)] = True
    log_grid = np.log(grid)

    def sse_at(log_rate):
        return _projected_fits(math.exp(log_rate), tau, centred, mass)[0]

    for i in np.flatnonzero(basins):
        found, log_rate = _golden_section(
            sse_at, log_grid[max(i - 1, 0)], log_grid[min(i + 1, _RATE_GRID - 1)]
        )
        best = min(best, (sse[i], grid[i]), (found, math.exp(log_rate)))
    rate = best[1]
    sse, amplitude, psi = _projected_fits(rate, tau, centred, mass)
    # in tau the fit is mean + amplitude*psi, so c = mean - a*<exp(-b*tau)>
    offset = mean - amplitude * float(np.dot(mass, np.exp(-rate * tau)))
    parameters = (float(amplitude), float(rate), float(offset))
    fitted = mean + amplitude * psi
    if not (np.isfinite(sse) and np.all(np.isfinite(parameters))):
        raise FitError(f"exponential fit overflows: SSE {sse}, (a, b, c) = {parameters}")
    return MonotoneFit(fitted=fitted, parameters=parameters, t0=float(t0))


def _fit_isotonic(s: TimeSeries) -> MonotoneFit:
    """The least-squares non-increasing fit by pool-adjacent-violators.

    Each point opens a block; while the block before it has a mean no
    larger, the two pool into one with their mean. O(n).
    """
    sums, counts = [], []
    for y in s.values.tolist():
        count = 1
        while sums and sums[-1] / counts[-1] <= y / count:
            y += sums.pop()
            count += counts.pop()
        sums.append(y)
        counts.append(count)
    fitted = np.repeat(np.array(sums) / np.array(counts), counts)
    return MonotoneFit(fitted=fitted)


def _check_fit_input(s: TimeSeries, family: str) -> None:
    if family not in FIT_FAMILIES:
        raise ValueError(f"family must be one of {FIT_FAMILIES}, got {family!r}")
    if len(s.values) < 4:
        raise ValueError(f"need at least 4 samples to fit, got {len(s.values)}")


def _check_spectrum_input(s: TimeSeries) -> None:
    if len(s.values) < 8:
        raise ValueError(f"need at least 8 samples, got {len(s.values)}")
    dt = np.diff(s.times)
    if np.max(np.abs(dt - dt[0])) > _UNIFORM_SPACING_TOL * dt[0]:
        raise ValueError("power_spectrum requires uniformly spaced times")


def fit_mfbf(s: TimeSeries, family: str = DEFAULT_FIT_FAMILY) -> MonotoneFit:
    """Monotonically falling best fit of a series, by least squares.

    The isotonic family is the exact non-increasing fit, by
    pool-adjacent-violators (Best & Chakravarti, Math. Programming 47, 425,
    1990). The exponential family fits a*exp(-b*(t - t0)) + c, t0 the first
    time, with a, b >= 0 by variable projection (Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 413, 1973): for a fixed b the best (a, c) is a closed
    form, so the fit is a search over b alone. The SSE is
    evaluated at b = 0 and on a log-spaced bracket of b in one ``expm1``,
    and golden-section search refines the best point of each basin the
    bracket finds to a relative 1e-12 in b. t0 is kept in
    ``MonotoneFit.t0``, so the parameters stay finite however far from 0
    the times start. Both families satisfy g(t_{i+1}) <= g(t_i) by
    construction. An exponential fit whose SSE or parameters are not finite
    raises ``FitError``; there is no fallback fit.
    """
    _check_fit_input(s, family)
    if family == "isotonic":
        return _fit_isotonic(s)
    with np.errstate(over="ignore", invalid="ignore"):
        return _fit_exponential(s)


def power_spectrum(s: TimeSeries) -> Spectrum:
    """One-sided magnitude-squared DFT of the mean-removed series.

    Interior bins carry both DFT halves so the total power equals N times
    the variance of the mean-removed input (a discrete Parseval identity).
    The step D of ``Spectrum`` is (t_last - t_0)/(N - 1).
    """
    _check_spectrum_input(s)
    n = len(s.values)
    y = s.values - np.mean(s.values)
    spec = np.abs(np.fft.rfft(y)) ** 2 / n
    scale = np.full(len(spec), 2.0)
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0
    step = (s.times[-1] - s.times[0]) / (n - 1)
    freqs = np.arange(len(spec)) / (n * step)
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
    """Run fit -> detrend -> spectrum -> peaks and summarize peak strengths.

    The series is checked for the fit and then for the spectrum before the
    fit runs, so a series the spectrum refuses is never fitted.
    """
    _check_fit_input(s, family)
    _check_spectrum_input(s)
    fit = fit_mfbf(s, family)
    residual = TimeSeries(s.times, s.values - fit.fitted)
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
