"""Dense complex linear algebra and quantum-state primitives.

All states live on a bipartite Hilbert space ordered as coin (x) position,
i.e. the flat index of basis vector |c, x> is ``c * n_positions + x``.
Entropies are in bits (log base 2) throughout; a maximally mixed qubit has
entropy exactly 1.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError

EIGENVALUE_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-9


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


def entropy_of_spectrum(w: np.ndarray) -> float:
    """Entropy in bits of a probability vector (eigenvalue list)."""
    w = np.asarray(w, dtype=float)
    w = w[w > EIGENVALUE_CUTOFF]
    return float(-np.sum(w * np.log2(w)))

