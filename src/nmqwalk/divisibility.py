"""Intermediate dynamical maps of the dephasing channels and their CP status.

A dephasing channel with kernel k(t) has the intermediate map E(t2, t1) =
E(t2, 0) E(t1, 0)^-1, which exists iff k(t1) != 0 and is itself a
dephasing map with ratio r = k(t2)/k(t1). Its (unnormalized, trace-2) Choi
matrix built on |00> + |11> has eigenvalues (0, 0, 1 - r, 1 + r); a
negative one signals a non-completely-positive intermediate map. Such a
map is still an operator-sum difference sum_j s_j K_j rho K_j^dag, with
K+- = sqrt(|1 +- r|/2) diag(1, +-1) and s+- = sign(1 +- r). The stepwise
walk applies it by scaling the coin coherences of each new light-cone block;
the tests keep that scaling on a whole matrix (``dephase_density``) and the
signed-Kraus form as its oracles (``tests/conftest.py``).

A scan classifies E(t2, t1) at one t1 only, so it sees only revivals of
|k| above |k(t1)|; it is not a verdict on the channel.

Note: external conventions often normalize the Choi matrix to trace 1;
divide eigenvalues by 2 to compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonInvertibleMapError
from .noise import KERNEL_ZERO_TOL, NoiseModel, kernel_value

CP_EIGENVALUE_TOL = 1e-12
_SCAN_FIELDS = [("t2", float), ("lambda3", float), ("lambda4", float), ("is_cp", bool)]


@dataclass(frozen=True)
class ChoiScanResult:
    """The Choi spectrum of E(t2, t1) at each grid point, for one t1.

    ``points`` is a structured array with fields ``t2``, ``lambda3``,
    ``lambda4`` and ``is_cp``, one record per grid point. ``invertible`` is
    False when k(t1) vanishes, so no intermediate map exists; then every
    point has NaN eigenvalues and is not CP.
    """

    points: np.ndarray = field(repr=False)
    invertible: bool


def kernel_ratio(noise: NoiseModel, t1, t2):
    """Intermediate-map parameter r = k(t2)/k(t1), elementwise in t1 and t2.

    Fails if any t2 <= t1. The package's one kernel-zero check: raises
    NonInvertibleMapError naming the first t1 with |k(t1)| <= KERNEL_ZERO_TOL.
    """
    if np.any(np.less_equal(t2, t1)):
        raise ValueError(f"need t2 > t1, got t2 - t1 = {np.min(np.subtract(t2, t1))}")
    k1 = kernel_value(noise, t1)
    zero = np.abs(k1) <= KERNEL_ZERO_TOL
    if np.any(zero):
        raise NonInvertibleMapError(
            f"kernel vanishes at t1={np.ravel(t1)[np.argmax(zero)]}; E(t1, 0) has no inverse"
        )
    return kernel_value(noise, t2) / k1


def choi_eigenvalues(r):
    """Eigenvalues (0, 0, 1 - r, 1 + r) of the intermediate Choi matrix."""
    return (0.0, 0.0, 1.0 - r, 1.0 + r)


def is_cp(r):
    """Complete positivity of the intermediate map: no negative Choi eigenvalue.

    Elementwise for an array r; a NaN r is not CP.
    """
    _, _, l3, l4 = choi_eigenvalues(r)
    cp = np.minimum(l3, l4) >= -CP_EIGENVALUE_TOL
    return cp if cp.ndim else bool(cp)


def cp_divisibility_scan(
    noise: NoiseModel, t1: float, t2_grid
) -> ChoiScanResult:
    """Classify the intermediate map E(t2, t1) over a grid of t2 values.

    If the kernel vanishes at t1, no intermediate map exists: every point
    is flagged non-invertible (NaN eigenvalues, not CP) rather than failing
    the whole scan.
    """
    t2 = np.asarray(t2_grid, dtype=float)
    try:
        r = kernel_ratio(noise, t1, t2)
        invertible = True
    except NonInvertibleMapError:
        r = np.full(t2.shape, np.nan)
        invertible = False
    _, _, l3, l4 = choi_eigenvalues(r)
    points = np.empty(t2.shape, dtype=_SCAN_FIELDS)
    for name, column in zip(points.dtype.names, (t2, l3, l4, is_cp(r))):
        points[name] = column
    return ChoiScanResult(points=points, invertible=invertible)
