"""Quantum-state primitives: the two partial traces and the entropy of a spectrum.

All states live on a bipartite Hilbert space ordered as coin (x) position:
on m positions the flat index of basis vector |c, j> is ``c * m + j``, so a
(2m, 2m) matrix reshapes to the coin-block view r[c, j, d, k] of shape
(2, m, 2, m). Entropies are in bits (log base 2) throughout; a maximally
mixed qubit has entropy exactly 1.
"""

from __future__ import annotations

import numpy as np

EIGENVALUE_CUTOFF = 1e-12
DEGENERACY_TOL = 1e-9


def partial_trace(r: np.ndarray, keep: str) -> np.ndarray:
    """Reduced state of one subsystem, read from the coin-block view r (2, m, 2, m).

    ``keep`` is "coin", for the 2 x 2 trace of each coin block, or
    "position", for the m x m sum of the two coin-diagonal blocks.
    """
    if keep == "coin":
        return np.trace(r, axis1=1, axis2=3)
    if keep == "position":
        return r[0, :, 0] + r[1, :, 1]
    raise ValueError(f"keep must be 'coin' or 'position', got {keep!r}")


def entropy_of_spectrum(w: np.ndarray) -> np.ndarray:
    """Entropy in bits of each probability vector (eigenvalue list) in a stack (..., d).

    Entries at or below EIGENVALUE_CUTOFF count as zero; a pure spectrum gives +0.0.
    """
    w = np.asarray(w, dtype=float)
    w = np.where(w > EIGENVALUE_CUTOFF, w, 1.0)
    return -np.sum(w * np.log2(w), axis=-1) + 0.0
