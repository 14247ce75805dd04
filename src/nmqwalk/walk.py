"""Discrete-time quantum walk on a line with a dephased coin.

One step is W = S (C(theta) (x) I): a coin rotation followed by the
coin-conditioned shift (coin |0> moves one site left, coin |1> one site
right). The lattice holds 2 (steps + 1) + 1 sites so the walker can never
wrap; a guard asserts that boundary amplitudes stay below 1e-14.

Noisy evolution applies the dephasing kernel to the coin coherences in
two inequivalent ways:

* one-shot -- the full channel acts once on the noiseless state at each
  readout time, ``rho(t) = D[k(t)](W^t rho_0 W^dag t)``. The state is a
  dephased pure state of rank <= 2, so it is yielded as its Kraus factor
  ``b`` of shape (2, n_positions, 2): column ``b[..., r] = (K_r (x) I) psi(t)``
  for the Kraus pair of :func:`nmqwalk.noise.kraus_at`, and
  ``rho(t) = sum_r b_r b_r^dag``;
* stepwise -- the intermediate map between consecutive steps is
  interleaved with the walk, ``rho(t) = D[k(t)/k(t-1)](W rho(t-1) W^dag)``,
  which requires an invertible kernel and may transiently leave the set
  of physical states when an intermediate map is not completely positive.
  States are yielded as dense (2n, 2n) matrices and are supported on the
  2(t + 1) light-cone rows: coin (x) the sites x0 - t, x0 - t + 2, ...,
  x0 + t that a walker started at x0 can reach in t steps. They are full
  rank on that support in general.

Amplitude arrays are shaped (2, n_positions); flat indices follow the
coin (x) position order of :mod:`nmqwalk.qops`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .divisibility import kernel_ratio
from .exceptions import DimensionMismatchError, EdgeAmplitudeError
from .noise import NoiseModel, kraus_at

EDGE_AMPLITUDE_TOL = 1e-14

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
    """The one edge guard, on amplitudes (2, n) at both lattice ends."""
    edge = max(np.max(np.abs(amps[:, 0])), np.max(np.abs(amps[:, -1])))
    if edge > EDGE_AMPLITUDE_TOL:
        raise EdgeAmplitudeError(f"boundary amplitude {edge:.3e} exceeds {EDGE_AMPLITUDE_TOL}")


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
    """Yield (t, b_t) with the full dephasing channel applied at each t.

    ``b_t`` has shape (2, n_positions, 2) (coin, position, Kraus index), and
    the state is ``rho_t = sum_r b_r b_r^dag`` with ``b_r = (K_r (x) I) psi(t)``.
    Without noise the pair is (I, 0). Every such state is a valid density
    matrix: the channel is completely positive for any kernel value in
    [-1, 1]. The kernel range and the edge on t = 0..T raise before any yield.
    """
    kraus = kraus_at(noise, np.arange(cfg.steps + 1.0))
    for t, amps in enumerate(evolve_noiseless(cfg)):
        yield t, np.einsum("rcd,dj->cjr", kraus[t], amps)


def _light_cone(x0: int, reach: int, n_positions: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.ix_`` index of the coin (x) position block on every other site.

    The sites are x0 - reach, x0 - reach + 2, ..., x0 + reach, counted mod
    n_positions as ``np.roll`` counts them, coin 0 first, then coin 1. A
    walker started at x0 can occupy after t steps only the sites of reach t,
    so rho(t) is zero outside that block.
    """
    sites = (x0 + np.arange(-reach, reach + 1, 2)) % n_positions
    rows = np.concatenate([sites, sites + n_positions])
    return np.ix_(rows, rows)


def _walk_density(rho: np.ndarray, coin: np.ndarray) -> np.ndarray:
    """W rho W^dag from one light cone to the next, without the walk matrix.

    ``rho`` is the (2m, 2m) block of rho(t - 1) on the m = t + 2 sites of
    reach t + 1 (its light cone plus an empty site on either side); the
    result is the (2(m - 1), 2(m - 1)) block of rho(t) on the sites of
    reach t. Coin |0> moves each walker one site left, coin |1> one right.
    The empty sites make the shift a slice, and keep m >= 3: on a one-site
    block einsum takes another inner loop, which rounds differently from
    the same entries of the full lattice.
    """
    m = rho.shape[0] // 2
    r = np.einsum("ab,bjck,dc->ajdk", coin, rho.reshape(2, m, 2, m), coin.conj())
    out = np.empty((2, m - 1, 2, m - 1), dtype=r.dtype)
    for a, da in enumerate(_COIN_SHIFT):
        for d, dd in enumerate(_COIN_SHIFT):
            i, k = (1 - da) // 2, (1 - dd) // 2
            out[a, :, d, :] = r[a, i : i + m - 1, d, k : k + m - 1]
    return out.reshape(2 * (m - 1), 2 * (m - 1))


def evolve_stepwise(
    cfg: WalkConfig, noise: NoiseModel
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, rho_t) with intermediate dephasing maps between steps.

    The map applied after step t has ratio k(t)/k(t-1) and is not
    completely positive whenever |k| grows between consecutive steps. Near
    a zero of the kernel that ratio grows without bound, and the yielded
    matrices leave the state space by whole units: for RTN a=0.05,
    gamma=0.008 the minimum eigenvalue is -0.27 at t = 18 and -6.6 at
    t = 60. Such states are neither checked nor reported yet; how to treat
    them is an open item of ROADMAP.md. One kernel_ratio call checks all T
    ratios before any yield; the edge guard sees the amplitudes sqrt|rho_ii|
    on the whole lattice.

    Each step works on the light cone only. rho(t) is zero outside the
    2(t + 1) rows and columns of the sites x0 - t, x0 - t + 2, ..., x0 + t,
    so step t reads the block of rho(t - 1) on the sites of parity t - 1 in
    the periodic window x0 - t - 1 .. x0 + t + 1 (width 2t + 3 <= n), and
    writes the block of rho(t). Sites count mod n, so a walker that reaches
    an edge wraps as ``np.roll`` wraps it on the full lattice. Every entry
    in the light cone is bit for bit that of the full-lattice evolution,
    and every other entry is zero. The walk keeps one (2n, 2n) buffer and
    yields a copy of it.
    """
    np_ = cfg.n_positions
    x0 = cfg.initial_position + cfg.steps + 1
    coin = coin_operator(cfg.coin_angle)
    ratios = kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))
    rho = density_from_amplitudes(initial_state(cfg))
    yield 0, rho.copy()
    for t, r in enumerate(ratios, start=1):
        window = _light_cone(x0, t + 1, np_)
        block = _walk_density(rho[window], coin)
        rho[window] = 0.0
        rho[_light_cone(x0, t, np_)] = dephase_density(block, r, t + 1)
        _check_edges(np.sqrt(np.abs(rho.diagonal())).reshape(2, np_))
        yield t, rho.copy()


def position_distribution(state: np.ndarray) -> np.ndarray:
    """Position probabilities of a (2, n, r) factor or a (2n, 2n) density matrix.

    A factor gives rho = sum_r b_r b_r^dag: r = 2 for the one-shot Kraus
    factor, r = 1 for an amplitude array passed as ``amps[..., None]``.
    """
    state = np.asarray(state)
    if state.ndim == 3 and state.shape[0] == 2:
        return np.sum(np.abs(state) ** 2, axis=(0, 2))
    if state.ndim != 2 or state.shape[0] != state.shape[1] or state.shape[0] % 2:
        raise DimensionMismatchError(f"not a (2, n, r) factor or (2n, 2n) state: {state.shape}")
    diag = np.real(np.diag(state))
    n = len(diag) // 2
    return diag[:n] + diag[n:]


def distribution_variance(probs: np.ndarray, positions: np.ndarray) -> float:
    """Variance of the position distribution (ballistic: grows as t^2)."""
    probs = np.asarray(probs, dtype=float)
    mean = float(probs @ positions)
    return float(probs @ (positions - mean) ** 2)
