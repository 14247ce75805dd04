"""Dense one-shot oracle shared by the walk and witness tests.

``walk.evolve_one_shot`` yields each one-shot state as its rank-2 Kraus
factor. The dense generator below forms the (2 n_positions)^2 density
matrix from the same amplitudes and kernel the way the library did before
the factor, so the tests can check the factor-backed path against it.
"""

import numpy as np

from nmqwalk.noise import kernel_value
from nmqwalk.walk import dephase_density, density_from_amplitudes, evolve_noiseless


def dense_one_shot(cfg, noise):
    """Yield (t, rho_t) with the full dephasing channel applied at each t."""
    for t, amps in enumerate(evolve_noiseless(cfg)):
        rho = density_from_amplitudes(amps)
        k = float(kernel_value(noise, float(t)))
        yield t, dephase_density(rho, k, cfg.n_positions)


def density_from_factor(factor):
    """sum_r b_r b_r^dag of a one-shot Kraus factor of shape (2, n, 2)."""
    b = np.asarray(factor).reshape(-1, factor.shape[-1])
    return b @ b.conj().T
