"""Discrete-time quantum walk on a line with a dephased coin.

One step is W = S (C(theta) (x) I): a coin rotation followed by the
coin-conditioned shift (coin |0> moves one site left, coin |1> one site
right). The lattice holds the sites -h .. h around the origin, with
h = steps + 1 + |initial_position| (:attr:`WalkConfig.half_width`), so the
walker's reach x0 - steps .. x0 + steps keeps at least one empty site from
either end and can never wrap. On a lattice too small for the walk a guard
asserts that boundary amplitudes stay below 1e-14; it runs only from the
first step at which the walker can reach an end.

Noisy evolution applies the dephasing kernel to the coin coherences in
two inequivalent ways:

* one-shot -- the full channel acts once on the noiseless state at each
  readout time, ``rho(t) = D[k(t)](W^t rho_0 W^dag t)``. It acts on the
  coin alone and keeps the coin populations, so the position populations
  are the noiseless walker's |psi(t)|^2 under any kernel, and the
  witnesses read the rest from the coin block (see :mod:`nmqwalk.witness`);
* stepwise -- the intermediate map between consecutive steps is
  interleaved with the walk, ``rho(t) = D[k(t)/k(t-1)](W rho(t-1) W^dag)``,
  which requires an invertible kernel and may transiently leave the set
  of physical states when an intermediate map is not completely positive.
  rho(t) is zero outside the light cone, coin (x) the t + 1 sites x0 - t,
  x0 - t + 2, ..., x0 + t that a walker started at x0 can reach in t
  steps, so the walk holds and yields only that dense
  (2(t + 1), 2(t + 1)) block, for a stack of walkers at once. It is full
  rank in general.

:func:`populations` yields ``(t, sites, probs)`` in either mode and
:func:`_light_cone_blocks` yields the stepwise ``(t, rho_t, sites)``:
``sites`` are the lattice indices of the light cone, so
``lattice_positions(cfg)[sites]`` labels the probabilities. Amplitude
arrays are shaped (2, n_positions); flat indices follow the coin (x)
position order of :mod:`nmqwalk.qops`.

One-shot mode walks the basis pair: the two noiseless walks psi_0 and
psi_1 started from coin |0> or |1> at x0. C(theta) and the shift are real,
so both are real, and they are walked in real arithmetic on the t + 1
light-cone sites only, holding only the current step. The walk is linear,
so the walker started from the coin state (alpha, beta) is
alpha psi_0 + beta psi_1; :func:`populations` reads it from the pair, and
the witnesses read every walker from the pair's Gram matrix (see
:mod:`nmqwalk.witness`).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .divisibility import kernel_ratio
from .exceptions import EdgeAmplitudeError
from .noise import NoiseModel, kernel_value

EDGE_AMPLITUDE_TOL = 1e-14
EvolutionMode = Literal["one_shot", "stepwise"]


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
        for name in ("steps", "initial_position"):
            value = getattr(self, name)
            # Python counts a bool as an int
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.steps < 0:
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


def _basis_walks(
    cfg: WalkConfig, coins: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (t, a, sites): the two noiseless basis walks on the light cone.

    ``a[c, i, j]`` is the real amplitude at coin c and site ``sites[j]`` of
    the walk psi_i started from the coin basis state |i> at x0, so ``a`` has
    shape (2, 2, t + 1). C(theta) and the shift are real, so both walks are
    real, and the walk is linear, so the walker started from the coin state
    v is sum_i v_i psi_i. The sites are x0 - t, x0 - t + 2, ..., x0 + t as
    lattice indices mod n, as in :func:`_light_cone_blocks`. A step is one
    real product ``coin @ a`` over both walks and every site, then the
    shift: coin 0 lands one cone index left of coin 1. The product rounds
    as the complex ``coin @ amps`` of the ``np.roll`` walk does from the
    exact |0> or |1>, whose imaginary parts stay zero, so, scattered to the
    whole lattice, each basis walk is bit for bit that walk, and on a
    lattice too small for the walk it wraps at the ends as that walk does.
    (An elementwise C[c, 0] a[0] + C[c, 1] a[1] would round the sum on its
    own where the BLAS product fuses it, and differ by an ulp.)

    The edge guard reads the walkers ``coins[w] @ psi``, one per row of
    ``coins``, scattered to the whole lattice, and never the basis walks:
    those can reach an end steps before any walker does. It runs from the
    first step at which the cone can touch an end column, min(x0, n - 1 - x0)
    as a lattice index (at least 1); on the lattice that
    :attr:`WalkConfig.half_width` sizes that step is T + 1, so a valid walk
    never pays for it. Each yield is a fresh array and the walk keeps only
    the last one, so memory is O(t) for any T; the next step reads the
    yielded array, so a caller must not write to it.
    """
    n = cfg.n_positions
    x0 = cfg.initial_position + cfg.half_width
    reach = min(x0, n - 1 - x0)
    coin = coin_operator(cfg.coin_angle).real
    a = np.eye(2)[:, :, None]
    yield 0, a, np.array([x0])
    for t in range(1, cfg.steps + 1):
        rotated = (coin @ a.reshape(2, -1)).reshape(2, 2, t)
        a = np.zeros((2, 2, t + 1))
        a[0, :, :t] = rotated[0]
        a[1, :, 1:] = rotated[1]
        sites = np.arange(x0 - t, x0 + t + 1, 2)
        if t >= reach:
            sites %= n
            amps = np.zeros((len(coins), 2, n), dtype=complex)
            amps[:, :, sites] = np.einsum("wi,cij->wcj", coins, a)
            _check_edges(amps)
        yield t, a, sites


def density_from_amplitudes(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| as a flat (2 n_pos, 2 n_pos) matrix."""
    flat = amps.reshape(-1)
    return np.outer(flat, flat.conj())


def _walk_block(rho: np.ndarray, coin: np.ndarray, ratio: float) -> np.ndarray:
    """D[ratio](W rho W^dag) from the light cone of m sites to that of m + 1, per walker.

    ``rho`` is a stack (w, 2m, 2m) of blocks of rho(t - 1), one per walker,
    and ``coin`` the real coin matrix C. Coin block (a, d) of W rho W^dag
    before the shift is sum_{b, c} C[a, b] rho_bc C[d, c], formed and added
    as ``einsum("ab,bjck,dc->ajdk", ...)`` forms and adds it on the whole
    lattice: b outer, c inner, each product (C[a, b] rho_bc) C[d, c], summed
    left to right, elementwise, so each walker rounds as it would alone.
    The real coin entries multiply the float view of the complex blocks,
    which rounds as the complex product with a zero imaginary part does, up
    to the sign of a zero. Coin 0 moves left and coin 1 right, so the sum
    lands at ``out[:, a, a:a + m, d, d:d + m]`` of the next cone, and the
    coin coherences (a != d) are then scaled by ``ratio``, the intermediate
    dephasing map. Each C[a, b] rho_bc serves both d. The sums run in
    contiguous (w, m, 2m) float buffers and are copied into the cone once;
    adding into its strided rows directly is slower, as numpy then loops
    over them row by row.
    """
    w, m = rho.shape[0], rho.shape[1] // 2
    parts = rho.reshape(w, 2, m, 2, m).view(float)
    out = np.zeros((w, 2, m + 1, 2, m + 1), dtype=complex)
    dest = out.view(float)
    row, term, *acc = np.empty((4, w, m, 2 * m))
    for a in range(2):
        for b, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            np.multiply(parts[:, b, :, c], coin[a, b], out=row)
            for d in range(2):
                if b or c:
                    np.multiply(row, coin[d, c], out=term)
                    acc[d] += term
                else:
                    np.multiply(row, coin[d, c], out=acc[d])
        acc[1 - a] *= ratio
        for d in range(2):
            dest[:, a, a : a + m, d, 2 * d : 2 * (d + m)] = acc[d]
    return out.reshape(w, 2 * (m + 1), 2 * (m + 1))


def _light_cone_blocks(
    cfg: WalkConfig, noise: NoiseModel, start: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (t, rho_t, sites): the stepwise walk of a stack of 2 x 2 start blocks at x0.

    ``start`` is a stack (w, 2, 2), one block per walker. ``rho_t`` is the
    stack (w, 2(t + 1), 2(t + 1)) of their blocks of rho(t) on the
    light-cone sites x0 - t, x0 - t + 2, ..., x0 + t, coin 0 first, and
    ``sites`` are their lattice indices, counted mod n as ``np.roll`` counts
    them; on the lattice that :attr:`WalkConfig.half_width` sizes nothing
    wraps, so they ascend. Each step is :func:`_walk_block`, in the order
    and rounding of the full-lattice ``einsum``, so every block, embedded at
    ``sites`` in a zero (2n, 2n) matrix, is bit for bit that walker's
    full-lattice state. One kernel_ratio call checks all T ratios before
    any yield. A ratio above 1 in modulus is not CP; near a zero of the
    kernel it grows without bound and the states leave the state space
    (RTN a=0.05, gamma=0.008: minimum eigenvalue -0.27 at t = 18, -6.6 at
    t = 60). MI, MID and QD raise ``NonPhysicalStateError`` on such a
    state; the walk does not check.

    Every step is complex-linear in the block, so a start ``X = rho1 + i rho2``
    carries two walkers at once: the Hermitian and anti-Hermitian parts of
    each yielded block are rho1(t) and i rho2(t). The edge guard reads
    sqrt max(|Re X_ii|, |Im X_ii|), maximized over the stack too: the
    largest population of any walker, scattered to the whole lattice, so it
    fires at the first step where any walker's own guard would, with the
    largest amplitude; for one Hermitian start that is sqrt|rho_ii|, at the
    step and amplitude of the full-lattice walk. It runs from the first step
    at which the cone can touch an end column, min(x0, n - 1 - x0) as a
    lattice index, which on the lattice that ``half_width`` sizes is T + 1.
    Each step forms a new stack and yields it, not a copy; the next step
    reads it, so a caller must not write to it.
    """
    n = cfg.n_positions
    x0 = cfg.initial_position + cfg.half_width
    reach = min(x0, n - 1 - x0)
    coin = coin_operator(cfg.coin_angle).real
    ratios = kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))
    rho = start
    for t in range(cfg.steps + 1):
        sites = (x0 + np.arange(-t, t + 1, 2)) % n
        if t:
            rho = _walk_block(rho, coin, ratios[t - 1])
            if t >= reach:
                amps = np.zeros((2, n))
                diag = rho.diagonal(axis1=1, axis2=2)
                pops = np.maximum(np.abs(diag.real), np.abs(diag.imag)).max(axis=0)
                amps[:, sites] = np.sqrt(pops).reshape(2, t + 1)
                _check_edges(amps)
        yield t, rho, sites


def _cone_populations(block: np.ndarray) -> np.ndarray:
    """Position populations of a (2m, 2m) light-cone block: its diagonal's coin halves summed."""
    diag = block.diagonal().real
    m = len(diag) // 2
    return diag[:m] + diag[m:]


def populations(
    cfg: WalkConfig, noise: NoiseModel, mode: EvolutionMode
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (t, sites, probs): the walker's position populations on its light cone.

    ``probs[j]`` is the population of lattice index ``sites[j]``. One-shot
    dephasing keeps the coin populations, so under any kernel they are the
    noiseless walker's, |sum_i v_i psi_i(t)|^2 summed over the coin, from
    the basis walks of :func:`_basis_walks`. The kernel is evaluated once
    on t = 0..T before the walk, for its range check alone. Stepwise, they
    are read from the diagonal of each light-cone block of
    :func:`_light_cone_blocks`, which is not copied. In both modes the
    edge guard reads the walker.
    """
    if mode == "stepwise":
        start = density_from_amplitudes(_coin_vector(cfg.delta, cfg.eta))
        for t, rho, sites in _light_cone_blocks(cfg, noise, start[None]):
            yield t, sites, _cone_populations(rho[0])
    elif mode == "one_shot":
        kernel_value(noise, np.arange(cfg.steps + 1.0))
        coin = _coin_vector(cfg.delta, cfg.eta)
        for t, a, sites in _basis_walks(cfg, coin[None]):
            psi = np.einsum("i,cix->cx", coin, a)
            yield t, sites, np.sum(np.abs(psi) ** 2, axis=0)
    else:
        raise ValueError(f"mode must be 'one_shot' or 'stepwise', got {mode!r}")


def distribution_variance(probs: np.ndarray, positions: np.ndarray) -> float:
    """Variance of the position distribution (ballistic: grows as t^2)."""
    probs = np.asarray(probs, dtype=float)
    mean = float(probs @ positions)
    return float(probs @ (positions - mean) ** 2)
