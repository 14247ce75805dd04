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

SIGMA_3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])

#: |k(t)| at or below this is a kernel zero: the map from 0 to t has no inverse
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
class OunParams:
    """Modified Ornstein-Uhlenbeck noise: relaxation rate Gamma, bandwidth gamma."""

    Gamma: float
    gamma: float

    def __post_init__(self):
        if self.Gamma < 0:
            raise ValueError(f"OUN Gamma must be >= 0, got {self.Gamma}")
        if self.gamma <= 0:
            raise ValueError(f"OUN gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class PlnParams:
    """Power-law noise: relaxation rate Gamma, bandwidth gamma."""

    Gamma: float
    gamma: float

    def __post_init__(self):
        if self.Gamma < 0:
            raise ValueError(f"PLN Gamma must be >= 0, got {self.Gamma}")
        if self.gamma <= 0:
            raise ValueError(f"PLN gamma must be > 0, got {self.gamma}")


#: A noise model is one of the three parameter records, or None (no noise).
NoiseModel = RtnParams | OunParams | PlnParams | None


def rtn_lambda(p: RtnParams, t):
    """RTN decoherence kernel Lambda(t), the damped-oscillator noise function.

    Above the critical ratio 2a/gamma = 1 the kernel oscillates as
    exp(-gamma t) [cos(wt) + sin(wt)/sqrt((2a/gamma)^2 - 1)] with
    w = gamma sqrt((2a/gamma)^2 - 1); below it, the square root turns
    imaginary and the analytic continuation (cosh/sinh) applies; at the
    boundary the limit form exp(-gamma t)(1 + gamma t) is used.
    Accepts scalar or array t >= 0.
    """
    t = np.asarray(t, dtype=float)
    g = p.gamma
    disc = (2.0 * p.a / g) ** 2 - 1.0
    env = np.exp(-g * t)
    if abs(disc) < _CRITICAL_TOL:
        out = env * (1.0 + g * t)
    elif disc > 0:
        root = np.sqrt(disc)
        w = g * root
        out = env * (np.cos(w * t) + np.sin(w * t) / root)
    else:
        root = np.sqrt(-disc)
        mu = g * root
        # env (cosh + sinh / root) in terms of the slow decay
        # exp(-(gamma - mu) t): nothing overflows at large gamma t, and
        # expm1 keeps sinh / root accurate near the critical ratio
        e = np.expm1(-2.0 * mu * t)
        out = np.exp(-(g - mu) * t) * (1.0 + 0.5 * e * (1.0 - 1.0 / root))
    return out if out.ndim else float(out)


def oun_p(p: OunParams, t):
    """OUN kernel P(t) = exp[-(Gamma/2)(t + (exp(-gamma t) - 1)/gamma)]."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-0.5 * p.Gamma * (t + np.expm1(-p.gamma * t) / p.gamma))
    return out if out.ndim else float(out)


def pln_p(p: PlnParams, t):
    """PLN kernel P(t) = exp[-t (t gamma + 2) Gamma gamma / (2 (t gamma + 1)^2)].

    Monotone decreasing with a nonzero plateau exp(-Gamma/2) as t -> inf.
    """
    t = np.asarray(t, dtype=float)
    g = p.gamma
    out = np.exp(-t * (t * g + 2.0) * p.Gamma * g / (2.0 * np.square(t * g + 1.0)))
    return out if out.ndim else float(out)


def kernel_value(noise: NoiseModel, t) -> float:
    """Decoherence kernel of any model at time t (1.0 for no noise)."""
    if noise is None:
        return 1.0 if np.isscalar(t) else np.ones_like(np.asarray(t, dtype=float))
    if isinstance(noise, RtnParams):
        return rtn_lambda(noise, t)
    if isinstance(noise, OunParams):
        return oun_p(noise, t)
    if isinstance(noise, PlnParams):
        return pln_p(noise, t)
    raise TypeError(f"unknown noise model {noise!r}")


def kraus_at(noise: NoiseModel, t: float) -> list[np.ndarray]:
    """Kraus pair of the dephasing map from 0 to t on the coin qubit.

    K1 = sqrt((1+k)/2) I and K2 = sqrt((1-k)/2) sigma_3 where k is the
    kernel value at t, so no noise (None, k = 1) gives the pair (I, 0).
    Completeness K1^dag K1 + K2^dag K2 = I is exact up to floating point.
    """
    k = float(kernel_value(noise, t))
    if not abs(k) <= 1.0 + _KERNEL_SLACK:  # also rejects NaN
        raise KernelRangeError(f"kernel value {k} at t={t} outside [-1, 1]")
    k = min(1.0, max(-1.0, k))
    k1 = np.sqrt((1.0 + k) / 2.0) * np.eye(2, dtype=complex)
    k2 = np.sqrt((1.0 - k) / 2.0) * SIGMA_3
    return [k1, k2]

