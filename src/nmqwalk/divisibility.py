"""Intermediate dynamical maps of the dephasing channels and their CP status.

A dephasing channel with kernel k(t) has the intermediate map E(t2, t1) =
E(t2, 0) E(t1, 0)^-1, which exists iff k(t1) != 0 and is itself a
dephasing map with ratio r = k(t2)/k(t1). Its (unnormalized, trace-2) Choi
matrix built on |00> + |11> has eigenvalues (0, 0, 1 - r, 1 + r); a
negative one signals a non-completely-positive intermediate map, realized
by an operator-sum-difference (signed Kraus) representation.

Note: external conventions often normalize the Choi matrix to trace 1;
divide eigenvalues by 2 to compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import NonInvertibleMapError
from .noise import KERNEL_ZERO_TOL, SIGMA_3, NoiseModel, kernel_value

CP_EIGENVALUE_TOL = 1e-12


@dataclass(frozen=True)
class SignedKrausSet:
    """Operators with signs realizing sum_j sign_j K_j rho K_j^dag.

    Satisfies the generalized completeness sum_j sign_j K_j^dag K_j = I;
    all-plus signs recover the usual operator-sum (CP) form.
    """

    operators: tuple[np.ndarray, ...]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class ChoiScanPoint:
    t2: float
    lambda3: float
    lambda4: float
    is_cp: bool
    invertible: bool


@dataclass(frozen=True)
class ChoiScanResult:
    points: tuple[ChoiScanPoint, ...] = field(repr=False)
    non_markovian_by_cp: bool = False


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


def intermediate_kraus(r: float) -> SignedKrausSet:
    """Signed Kraus pair of the intermediate map, K+- = sqrt(|1 +- r|/2) diag(1, +-1).

    The sign -1 is attached to whichever operator folds a negative Choi
    eigenvalue (K- when r > 1, K+ when r < -1); this is the unique
    assignment under which sum_j sign_j K_j^dag K_j = I.
    """
    k_plus = np.sqrt(abs(1.0 + r) / 2.0) * np.eye(2, dtype=complex)
    k_minus = np.sqrt(abs(1.0 - r) / 2.0) * SIGMA_3
    sign_plus = -1 if (1.0 + r) < 0 else 1
    sign_minus = -1 if (1.0 - r) < 0 else 1
    return SignedKrausSet(operators=(k_plus, k_minus), signs=(sign_plus, sign_minus))


def apply_signed(rho: np.ndarray, ks: SignedKrausSet) -> np.ndarray:
    """sum_j sign_j K_j rho K_j^dag; trace and Hermiticity preserving.

    The output of a non-CP map need not be positive semidefinite, so no
    density-matrix validation is performed here.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for op, sign in zip(ks.operators, ks.signs):
        out += sign * (op @ rho @ op.conj().T)
    return out


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
    cp = is_cp(r)
    points = tuple(
        ChoiScanPoint(*row, invertible)
        for row in zip(t2.tolist(), l3.tolist(), l4.tolist(), cp.tolist())
    )
    return ChoiScanResult(points=points, non_markovian_by_cp=invertible and not cp.all())
