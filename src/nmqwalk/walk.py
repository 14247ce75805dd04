"""Discrete-time quantum walk on a line with a dephased coin.

One step is W = S (C(theta) (x) I): a coin rotation followed by the
coin-conditioned shift (coin |0> moves one site left, coin |1> one site
right). The lattice holds the sites -h .. h around the origin, with
h = steps + 1 + |initial_position| (:attr:`WalkConfig.half_width`), so the
walker's reach x0 - steps .. x0 + steps keeps at least one empty site from
either end and can never wrap; a guard asserts that boundary amplitudes
stay below 1e-14.

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
  rho(t) is zero outside the light cone, coin (x) the t + 1 sites x0 - t,
  x0 - t + 2, ..., x0 + t that a walker started at x0 can reach in t
  steps, so the walk holds and yields only that dense
  (2(t + 1), 2(t + 1)) block. It is full rank in general.

Both generators yield ``(t, state, sites)``: ``sites`` are the lattice
indices the state's position axis covers, so ``lattice_positions(cfg)[sites]``
labels its probabilities. A one-shot factor covers the whole lattice.
Amplitude arrays are shaped (2, n_positions); flat indices follow the
coin (x) position order of :mod:`nmqwalk.qops`. The noiseless amplitudes
behind the one-shot states come from one streaming walk that carries k
walkers at once and holds only its current step.
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
        for name in ("coin_angle", "delta", "eta"):
            angle = getattr(self, name)
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be a finite angle, got {angle!r}")
        if abs(self.initial_position) > self.steps + 1:
            raise ValueError(
                f"initial position {self.initial_position} is more than "
                f"steps + 1 = {self.steps + 1} sites from the origin"
            )

    @property
    def half_width(self) -> int:
        """Sites either side of the origin: the walker's reach plus one.

        The one place that sizes the lattice; every index, the site labels
        and the edge guard follow from it.
        """
        return self.steps + 1 + abs(self.initial_position)

    @property
    def n_positions(self) -> int:
        return 2 * self.half_width + 1


def lattice_positions(cfg: WalkConfig) -> np.ndarray:
    """Site labels -half_width .. +half_width in flat-index order."""
    return np.arange(-cfg.half_width, cfg.half_width + 1)


def coin_operator(theta: float) -> np.ndarray:
    """Real symmetric coin C(theta); theta = pi/4 gives the Hadamard coin."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def _coin_vector(delta: float, eta: float) -> np.ndarray:
    """The coin state cos(delta) |0> + e^{-i eta} sin(delta) |1>."""
    return np.array([math.cos(delta), np.exp(-1j * eta) * math.sin(delta)])


def _check_edges(amps: np.ndarray) -> None:
    """The one edge guard, on amplitudes (..., 2, n) at both lattice ends."""
    edge = np.max(np.abs(amps[..., :: amps.shape[-1] - 1]))
    if edge > EDGE_AMPLITUDE_TOL:
        raise EdgeAmplitudeError(f"boundary amplitude {edge:.3e} exceeds {EDGE_AMPLITUDE_TOL}")


def _noiseless_steps(cfg: WalkConfig, coins: np.ndarray) -> Iterator[np.ndarray]:
    """Yield the noiseless amplitudes (k, 2, n_positions) of k walkers at t = 0..T.

    All k walkers start at x0, walker w with the coin state ``coins[w]``.
    A step is one batched ``coin @ amps``, then the shift by slices: coin
    |0> moves one site left and coin |1> one site right, and the entry
    pushed past a lattice end wraps to the other end, as ``np.roll`` wraps
    it. The edge guard reads both end columns of every walker from t = 1
    on, so it fires at the step where the first walker reaches an edge.
    Each yield is a fresh array and the walk keeps only the last one, so
    memory is O(k n) for any T; the next step reads the yielded array, so a
    caller must not write to it.
    """
    x0 = cfg.initial_position + cfg.half_width
    coin = coin_operator(cfg.coin_angle)
    amps = np.zeros((len(coins), 2, cfg.n_positions), dtype=complex)
    amps[:, :, x0] = coins
    yield amps
    for _ in range(cfg.steps):
        rotated = coin @ amps
        amps = np.empty_like(rotated)
        amps[:, 0, :-1] = rotated[:, 0, 1:]
        amps[:, 0, -1] = rotated[:, 0, 0]
        amps[:, 1, 1:] = rotated[:, 1, :-1]
        amps[:, 1, 0] = rotated[:, 1, -1]
        _check_edges(amps)
        yield amps


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
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (t, b_t, sites) with the full dephasing channel applied at each t.

    ``b_t`` has shape (2, n_positions, 2) (coin, position, Kraus index), and
    the state is ``rho_t = sum_r b_r b_r^dag`` with ``b_r = (K_r (x) I) psi(t)``.
    Without noise the pair is (I, 0). Every such state is a valid density
    matrix: the channel is completely positive for any kernel value in
    [-1, 1]. The kernel range on t = 0..T raises before any yield; the edge
    guard raises at the step where the walker reaches an edge. The walk
    streams psi(t) and holds no history, so memory is O(n) for any T. The
    factor spans the whole lattice, so ``sites`` is ``arange(n_positions)``,
    one array shared by every yield.
    """
    kraus = kraus_at(noise, np.arange(cfg.steps + 1.0))
    sites = np.arange(cfg.n_positions)
    coins = _coin_vector(cfg.delta, cfg.eta)[None]
    for t, amps in enumerate(_noiseless_steps(cfg, coins)):
        yield t, np.einsum("rcd,dj->cjr", kraus[t], amps[0]), sites


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
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (t, rho_t, sites) with intermediate dephasing maps between steps.

    The map applied after step t has ratio k(t)/k(t-1) and is not
    completely positive whenever |k| grows between consecutive steps. Near
    a zero of the kernel that ratio grows without bound, and the yielded
    matrices leave the state space by whole units: for RTN a=0.05,
    gamma=0.008 the minimum eigenvalue is -0.27 at t = 18 and -6.6 at
    t = 60. Such states are neither checked nor reported yet; how to treat
    them is an open item of ROADMAP.md. One kernel_ratio call checks all T
    ratios before any yield.

    The walk holds only its light cone. rho(t) is zero outside the
    2(t + 1) rows and columns of the sites x0 - t, x0 - t + 2, ..., x0 + t,
    so ``rho_t`` is the (2(t + 1), 2(t + 1)) block on those sites, coin 0
    first, and ``sites`` are their lattice indices in that order, counted
    mod n as ``np.roll`` counts them; on the lattice that
    :attr:`WalkConfig.half_width` sizes nothing wraps, so they ascend. Step
    t pads the block of rho(t - 1) with one empty site on either side, the
    periodic window x0 - t - 1 .. x0 + t + 1 (width 2t + 3 <= n), and walks
    and dephases it into the block of rho(t). On a lattice too small for
    the walk, a walker that reaches an edge thus wraps as ``np.roll`` wraps
    it on the full lattice, and the edge guard, which sees the amplitudes
    sqrt|rho_ii| scattered to the whole lattice, fires at the same step
    with the same amplitude. Embedded at ``sites`` in a zero (2n, 2n)
    matrix, every block is bit for bit the state of the full-lattice
    evolution. The next step's padded block is made before the yield, so a
    caller may overwrite the yielded one.
    """
    start = density_from_amplitudes(_coin_vector(cfg.delta, cfg.eta))
    yield from _light_cone_blocks(cfg, noise, start)


def _light_cone_blocks(
    cfg: WalkConfig, noise: NoiseModel, start: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The loop of :func:`evolve_stepwise` from any 2 x 2 start block at x0.

    Every step is complex-linear in the block, so a start ``X = rho1 + i rho2``
    carries two walkers at once: the Hermitian and anti-Hermitian parts of
    each yielded block are rho1(t) and i rho2(t). The edge guard reads
    sqrt max(|Re X_ii|, |Im X_ii|), the larger of the two walkers'
    populations, so it fires where either walker's guard would and nowhere
    else. For a Hermitian start that is sqrt|rho_ii|.
    """
    n = cfg.n_positions
    x0 = cfg.initial_position + cfg.half_width
    coin = coin_operator(cfg.coin_angle)
    ratios = kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))
    rho = start
    for t in range(cfg.steps + 1):
        sites = (x0 + np.arange(-t, t + 1, 2)) % n
        if t:
            rho = dephase_density(_walk_density(padded, coin), ratios[t - 1], t + 1)
            amps = np.zeros((2, n))
            diag = rho.diagonal()
            pops = np.maximum(np.abs(diag.real), np.abs(diag.imag))
            amps[:, sites] = np.sqrt(pops).reshape(2, t + 1)
            _check_edges(amps)
        m = t + 3
        padded = np.zeros((2, m, 2, m), dtype=complex)
        padded[:, 1:-1, :, 1:-1] = rho.reshape(2, t + 1, 2, t + 1)
        padded = padded.reshape(2 * m, 2 * m)
        yield t, rho, sites


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
