"""Dense complex linear algebra and quantum-state primitives.

All states live on a bipartite Hilbert space ordered as coin (x) position,
i.e. the flat index of basis vector |c, x> is ``c * n_positions + x``.
Entropies are in bits (log base 2) throughout; a maximally mixed qubit has
entropy exactly 1.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10
EIGENVALUE_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Entrywise Hermiticity check, max |M - M^dag| <= tol."""
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def check_density_matrix(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, near-PSD.

    Matrices produced by completely positive evolution must satisfy all
    three invariants; intermediate non-CP outputs are deliberately *not*
    routed through this check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {rho.shape[0]}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond 1e-12")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has eigenvalue {wmin} < -1e-10")
    return rho


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Reduced state of one subsystem of a coin (x) position state.

    Parameters
    ----------
    rho : square matrix on a space of dimension ``dims[0] * dims[1]``.
    dims : (coin dimension, position dimension).
    keep : "coin" or "position".
    """
    dc, dp = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dc * dp, dc * dp):
        raise DimensionMismatchError(
            f"cannot factor shape {rho.shape} as ({dc}*{dp}, {dc}*{dp})"
        )
    r = rho.reshape(dc, dp, dc, dp)
    if keep == "coin":
        return np.einsum("ajbj->ab", r)
    if keep == "position":
        return np.einsum("ajak->jk", r)
    raise ValueError(f"keep must be 'coin' or 'position', got {keep!r}")


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr(rho log2 rho) in bits; 0*log(0) := 0."""
    w = np.linalg.eigvalsh(check_density_matrix(rho))
    w = w[w > EIGENVALUE_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def entropy_of_spectrum(w: np.ndarray) -> float:
    """Entropy in bits of a probability vector (eigenvalue list)."""
    w = np.asarray(w, dtype=float)
    w = w[w > EIGENVALUE_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"trace_norm needs a square matrix, got {m.shape}")
    if is_hermitian(m, tol=1e-13):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
