"""Oracles and helpers shared by the test modules.

``walk.evolve_one_shot`` yields each one-shot state as its rank-2 Kraus
factor. The dense generator below forms the (2 n_positions)^2 density
matrix from the same amplitudes and kernel the way the library did before
the factor, so the tests can check the factor-backed path against it.

``walk.evolve_stepwise`` evolves only the light cone of the walker.
``full_lattice_stepwise`` below is its oracle: every step applies
W rho W^dag to the whole (2 n_positions)^2 matrix, with ``np.roll`` as the
shift, then the intermediate dephasing map, then the edge guard.

The intermediate dephasing map E(t2, t1) may be non-CP. The walk applies
it by scaling the coin coherences (``walk.dephase_density``); the signed
Kraus pair below is its operator-sum-difference form, the oracle of that
scaling and of the composition E(t2, t1) E(t1, 0) = E(t2, 0).
"""

from dataclasses import dataclass

import numpy as np

from nmqwalk.divisibility import kernel_ratio
from nmqwalk.noise import SIGMA_3, kernel_value
from nmqwalk.walk import (
    _check_edges,
    coin_operator,
    dephase_density,
    density_from_amplitudes,
    evolve_noiseless,
    initial_state,
)


def dense_one_shot(cfg, noise):
    """Yield (t, rho_t) with the full dephasing channel applied at each t."""
    for t, amps in enumerate(evolve_noiseless(cfg)):
        rho = density_from_amplitudes(amps)
        k = float(kernel_value(noise, float(t)))
        yield t, dephase_density(rho, k, cfg.n_positions)


def full_lattice_stepwise(cfg, noise):
    """Yield (t, rho_t) of the stepwise walk, evolved on the whole lattice."""
    n = cfg.n_positions
    coin = coin_operator(cfg.coin_angle)
    ratios = kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))
    rho = density_from_amplitudes(initial_state(cfg))
    yield 0, rho.copy()
    for t, ratio in enumerate(ratios, start=1):
        r = np.einsum("ab,bjck,dc->ajdk", coin, rho.reshape(2, n, 2, n), coin.conj())
        out = np.empty_like(r)
        for a, da in enumerate((-1, +1)):
            for d, dd in enumerate((-1, +1)):
                out[a, :, d, :] = np.roll(np.roll(r[a, :, d, :], da, axis=0), dd, axis=1)
        rho = dephase_density(out.reshape(2 * n, 2 * n), ratio, n)
        _check_edges(np.sqrt(np.abs(rho.diagonal())).reshape(2, n))
        yield t, rho.copy()


def density_from_factor(factor):
    """sum_r b_r b_r^dag of a one-shot Kraus factor of shape (2, n, 2)."""
    b = np.asarray(factor).reshape(-1, factor.shape[-1])
    return b @ b.conj().T


def random_qubit_states(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def apply_kraus(rho, ks):
    return sum(k @ rho @ k.conj().T for k in ks)


@dataclass(frozen=True)
class SignedKrausSet:
    """Operators with signs realizing sum_j sign_j K_j rho K_j^dag.

    Satisfies the generalized completeness sum_j sign_j K_j^dag K_j = I;
    all-plus signs recover the usual operator-sum (CP) form.
    """

    operators: tuple[np.ndarray, ...]
    signs: tuple[int, ...]


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
