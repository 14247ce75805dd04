"""Dephasing noise models: RTN, modified Ornstein-Uhlenbeck, and power-law.

Each model is fully characterized by a scalar decoherence kernel k(t) that
multiplies the coin coherences: Lambda(t) for random telegraph noise and
P(t) for the OU / power-law models. One walk step corresponds to one unit
of kernel time. Kernels are evaluated in closed form; no stochastic
trajectories are sampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import KernelRangeError

#: an underdamped RTN kernel whose oscillating factor (see rtn_oscillation)
#: is at or below this in modulus is at a zero: the map from 0 to t has no inverse
KERNEL_ZERO_TOL = 1e-14

# tolerance for treating the RTN discriminant (2a/gamma)^2 - 1 as zero
_CRITICAL_TOL = 1e-12
_KERNEL_SLACK = 1e-12


@dataclass(frozen=True)
class RtnParams:
    """Random telegraph noise: coupling strength a, fluctuation rate gamma."""

    a: float
    gamma: float

    def __post_init__(self):
        if self.a < 0:
            raise ValueError(f"RTN coupling a must be >= 0, got {self.a}")
        if self.gamma <= 0:
            raise ValueError(f"RTN rate gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class _RateParams:
    """Relaxation rate Gamma and bandwidth gamma, the record of OUN and PLN noise."""

    Gamma: float
    gamma: float

    def __post_init__(self):
        if self.Gamma < 0:
            raise ValueError(f"{self._LABEL} Gamma must be >= 0, got {self.Gamma}")
        if self.gamma <= 0:
            raise ValueError(f"{self._LABEL} gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class OunParams(_RateParams):
    """Modified Ornstein-Uhlenbeck noise: relaxation rate Gamma, bandwidth gamma."""

    _LABEL = "OUN"


@dataclass(frozen=True)
class PlnParams(_RateParams):
    """Power-law noise: relaxation rate Gamma, bandwidth gamma."""

    _LABEL = "PLN"


#: A noise model is one of the three parameter records, or None (no noise).
NoiseModel = RtnParams | OunParams | PlnParams | None


def rtn_lambda(p: RtnParams, t):
    """RTN decoherence kernel Lambda(t), the damped-oscillator noise function.

    Above the critical ratio 2a/gamma = 1 the kernel oscillates as
    exp(-gamma t) [cos(wt) + sin(wt)/sqrt((2a/gamma)^2 - 1)] with
    w = gamma sqrt((2a/gamma)^2 - 1); below it, the square root turns
    imaginary and the analytic continuation (cosh/sinh) applies; at the
    boundary the limit form exp(-gamma t)(1 + gamma t) is used.
    Accepts scalar or array t >= 0, and returns a numpy value of its shape.
    """
    t = np.asarray(t, dtype=float)
    g = p.gamma
    disc = _rtn_discriminant(p)
    env = np.exp(-g * t)
    if abs(disc) < _CRITICAL_TOL:
        return env * (1.0 + g * t)
    if disc > 0:
        return env * rtn_oscillation(p, t)
    root = np.sqrt(-disc)
    mu = g * root
    # env (cosh + sinh / root) in terms of the slow decay
    # exp(-(gamma - mu) t): nothing overflows at large gamma t, and
    # expm1 keeps sinh / root accurate near the critical ratio
    e = np.expm1(-2.0 * mu * t)
    return np.exp(-(g - mu) * t) * (1.0 + 0.5 * e * (1.0 - 1.0 / root))


def _rtn_discriminant(p: RtnParams):
    """(2a/gamma)^2 - 1 as a numpy float: an overflow gives inf (a NaN kernel), not OverflowError."""
    return np.float64(2.0 * p.a / p.gamma) ** 2 - 1.0


def rtn_oscillation(p: RtnParams, t):
    """The factor cos(wt) + sin(wt)/root of an underdamped RTN kernel, or None.

    Above the critical ratio Lambda(t) is exp(-gamma t) times this factor,
    which crosses zero. At and below it Lambda(t) is positive for every t,
    and None is returned.
    """
    disc = _rtn_discriminant(p)
    if not disc >= _CRITICAL_TOL:
        return None
    root = np.sqrt(disc)
    w = p.gamma * root
    t = np.asarray(t, dtype=float)
    return np.cos(w * t) + np.sin(w * t) / root


def oun_p(p: OunParams, t):
    """OUN kernel P(t) = exp[-(Gamma/2)(t + (exp(-gamma t) - 1)/gamma)]."""
    t = np.asarray(t, dtype=float)
    return np.exp(-0.5 * p.Gamma * (t + np.expm1(-p.gamma * t) / p.gamma))


def pln_p(p: PlnParams, t):
    """PLN kernel P(t) = exp[-t (t gamma + 2) Gamma gamma / (2 (t gamma + 1)^2)].

    Monotone decreasing with a nonzero plateau exp(-Gamma/2) as t -> inf.
    """
    t = np.asarray(t, dtype=float)
    g = p.gamma
    return np.exp(-t * (t * g + 2.0) * p.Gamma * g / (2.0 * np.square(t * g + 1.0)))


_KERNELS = {RtnParams: rtn_lambda, OunParams: oun_p, PlnParams: pln_p}


def kernel_value(noise: NoiseModel, t):
    """Decoherence kernel of any model at scalar or array t (ones for no noise).

    The package's one range check: raises KernelRangeError naming the first
    t where k is NaN (an overflowing model) or |k| > 1 + _KERNEL_SLACK.
    """
    if noise is None:
        return np.ones_like(t, dtype=float)
    if type(noise) not in _KERNELS:
        raise TypeError(f"unknown noise model {noise!r}")
    with np.errstate(all="ignore"):  # a non-finite k is reported below
        k = _KERNELS[type(noise)](noise, t)
        bad = ~(np.abs(k) <= 1.0 + _KERNEL_SLACK)  # also flags NaN
    if np.any(bad):
        i = np.argmax(bad)
        raise KernelRangeError(
            f"kernel value {np.ravel(k)[i]} at t={np.ravel(t)[i]} outside [-1, 1]"
        )
    return k
