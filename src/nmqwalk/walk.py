"""Discrete-time quantum walk on a line with a dephased coin.

One step is W = S (C(theta) (x) I): a coin rotation followed by the
coin-conditioned shift (coin |0> moves one site left, coin |1> one site
right). The lattice holds 2 (steps + 1) + 1 sites so the walker can never
wrap; a guard asserts that boundary amplitudes stay below 1e-14.

Noisy evolution applies the dephasing kernel to the coin coherences in
two inequivalent ways:

* one-shot -- the full channel acts once on the noiseless state at each
  readout time, ``rho(t) = D[k(t)](W^t rho_0 W^dag t)``;
* stepwise -- the intermediate map between consecutive steps is
  interleaved with the walk, ``rho(t) = D[k(t)/k(t-1)](W rho(t-1) W^dag)``,
  which requires an invertible kernel and may transiently leave the set
  of physical states when an intermediate map is not completely positive.

Amplitude arrays are shaped (2, n_positions); flat indices follow the
coin (x) position order of :mod:`nmqwalk.qops`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .exceptions import EdgeAmplitudeError, NonInvertibleMapError
from .noise import NoiseModel, kernel_value

EDGE_AMPLITUDE_TOL = 1e-14
_INVERTIBILITY_TOL = 1e-14

#: position displacement per step, indexed by coin basis state
_COIN_SHIFT = (-1, +1)


@dataclass(frozen=True)
class WalkConfig:
    """Walk length, coin rotation angle, and initial coin state.

    The initial state is ``(cos(delta) |0> + e^{-i eta} sin(delta) |1>)``
    localized at ``initial_position``. Angles are in radians.
    """

    steps: int
    coin_angle: float = math.pi / 4
    delta: float = math.pi / 4
    eta: float = 0.0
    initial_position: int = 0

    def __post_init__(self):
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {self.steps!r}")
        if abs(self.initial_position) > self.steps + 1:
            raise ValueError(
                f"initial position {self.initial_position} is outside the lattice"
            )

    @property
    def n_positions(self) -> int:
        return 2 * (self.steps + 1) + 1

    @property
    def dim(self) -> int:
        return 2 * self.n_positions


def lattice_positions(steps: int) -> np.ndarray:
    """Site labels -(steps+1) .. +(steps+1) in flat-index order."""
    return np.arange(-(steps + 1), steps + 2)


def coin_operator(theta: float) -> np.ndarray:
    """Real symmetric coin C(theta); theta = pi/4 gives the Hadamard coin."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def initial_state(cfg: WalkConfig) -> np.ndarray:
    """Amplitude array (2, n_positions) of the localized initial state."""
    amps = np.zeros((2, cfg.n_positions), dtype=complex)
    x0 = cfg.initial_position + cfg.steps + 1
    amps[0, x0] = math.cos(cfg.delta)
    amps[1, x0] = np.exp(-1j * cfg.eta) * math.sin(cfg.delta)
    return amps


def _check_edges(amps: np.ndarray) -> None:
    edge = max(np.max(np.abs(amps[:, 0])), np.max(np.abs(amps[:, -1])))
    if edge > EDGE_AMPLITUDE_TOL:
        raise EdgeAmplitudeError(
            f"boundary amplitude {edge:.3e} exceeds {EDGE_AMPLITUDE_TOL}"
        )


def step_amplitudes(amps: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """One walk step W on an amplitude array: coin rotation, then shift."""
    rotated = coin @ amps
    out = np.empty_like(rotated)
    for c, d in enumerate(_COIN_SHIFT):
        out[c] = np.roll(rotated[c], d)
    _check_edges(out)
    return out


def evolve_noiseless(cfg: WalkConfig) -> np.ndarray:
    """All noiseless amplitude arrays, shape (steps + 1, 2, n_positions)."""
    coin = coin_operator(cfg.coin_angle)
    out = np.empty((cfg.steps + 1, 2, cfg.n_positions), dtype=complex)
    out[0] = initial_state(cfg)
    for t in range(1, cfg.steps + 1):
        out[t] = step_amplitudes(out[t - 1], coin)
    return out


def dephase_density(rho: np.ndarray, k: float, n_positions: int) -> np.ndarray:
    """Multiply the coin-coherence blocks of a coin (x) position state by k."""
    out = rho.copy()
    out[:n_positions, n_positions:] *= k
    out[n_positions:, :n_positions] *= k
    return out


def density_from_amplitudes(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| as a flat (2 n_pos, 2 n_pos) matrix."""
    flat = amps.reshape(-1)
    return np.outer(flat, flat.conj())


def evolve_one_shot(
    cfg: WalkConfig, noise: NoiseModel
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, rho_t) with the full dephasing channel applied at each t.

    Every yielded matrix is a valid density matrix: the channel is
    completely positive for any kernel value in [-1, 1].
    """
    np_ = cfg.n_positions
    for t, amps in enumerate(evolve_noiseless(cfg)):
        rho = density_from_amplitudes(amps)
        k = float(kernel_value(noise, float(t)))
        yield t, dephase_density(rho, k, np_)


def _walk_density(rho: np.ndarray, coin: np.ndarray, n_positions: int) -> np.ndarray:
    """W rho W^dag without forming the (2 n_pos)^2 walk matrix."""
    r = rho.reshape(2, n_positions, 2, n_positions)
    r = np.einsum("ab,bjck,dc->ajdk", coin, r, coin.conj())
    out = np.empty_like(r)
    for a, da in enumerate(_COIN_SHIFT):
        for d, dd in enumerate(_COIN_SHIFT):
            out[a, :, d, :] = np.roll(np.roll(r[a, :, d, :], da, axis=0), dd, axis=1)
    return out.reshape(2 * n_positions, 2 * n_positions)


def evolve_stepwise(
    cfg: WalkConfig, noise: NoiseModel
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, rho_t) with intermediate dephasing maps between steps.

    The map applied after step t has ratio k(t)/k(t-1) and is not
    completely positive whenever |k| grows between consecutive steps, so
    yielded matrices can have (slightly) negative eigenvalues in
    information-backflow regimes. Raises NonInvertibleMapError if the
    kernel vanishes at an intermediate step.
    """
    np_ = cfg.n_positions
    coin = coin_operator(cfg.coin_angle)
    rho = density_from_amplitudes(initial_state(cfg))
    yield 0, rho.copy()
    k_prev = float(kernel_value(noise, 0.0))
    for t in range(1, cfg.steps + 1):
        if abs(k_prev) <= _INVERTIBILITY_TOL:
            raise NonInvertibleMapError(
                f"kernel vanishes at t={t - 1}; stepwise evolution cannot continue"
            )
        k_t = float(kernel_value(noise, float(t)))
        rho = dephase_density(_walk_density(rho, coin, np_), k_t / k_prev, np_)
        # both coin populations at both lattice ends
        edge = float(np.max(np.abs(rho.diagonal()[[0, np_ - 1, np_, -1]])))
        if edge > EDGE_AMPLITUDE_TOL:
            raise EdgeAmplitudeError(
                f"boundary population {edge:.3e} exceeds {EDGE_AMPLITUDE_TOL}"
            )
        k_prev = k_t
        yield t, rho.copy()


def position_distribution(state: np.ndarray, n_positions: int | None = None) -> np.ndarray:
    """Position probabilities from an amplitude array or a density matrix."""
    state = np.asarray(state)
    if state.ndim == 2 and state.shape[0] == 2 and state.shape[1] != state.shape[0]:
        return np.sum(np.abs(state) ** 2, axis=0).real
    if n_positions is None:
        n_positions = state.shape[0] // 2
    diag = np.real(np.diag(state))
    return diag[:n_positions] + diag[n_positions:]


def distribution_variance(probs: np.ndarray, positions: np.ndarray) -> float:
    """Variance of the position distribution (ballistic: grows as t^2)."""
    probs = np.asarray(probs, dtype=float)
    mean = float(probs @ positions)
    return float(probs @ (positions - mean) ** 2)
