"""Discrete-time quantum walk on the line with a dephased coin.

One step is W = S (C(theta) (x) I): a coin rotation followed by the
coin-conditioned shift (coin |0> moves one site left, coin |1> one site
right). The walk commutes with the translations of the infinite line, so
every walker starts at the origin and is zero outside its light cone after
t steps, the t + 1 sites -t, -t + 2, ..., t (:func:`_cone_positions`).
Both modes hold and yield only that cone: no lattice, no end, no wrap.

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
  rho(t) is zero outside coin (x) the light cone, so the walk holds and
  yields only that dense (2(t + 1), 2(t + 1)) block, for a stack of
  walkers at once. It is full rank in general.

:func:`populations` yields ``(t, x, probs)`` in either mode, ``x`` the
light-cone positions, and :func:`_light_cone_blocks` yields the stepwise
``(t, rho_t)``. Amplitude arrays are shaped (2, t + 1) and blocks
(2(t + 1), 2(t + 1)); flat indices follow the coin (x) position order of
:mod:`nmqwalk.qops`.

One-shot mode walks the basis pair: the two noiseless walks psi_0 and
psi_1 started from coin |0> or |1>. C(theta) and the shift are real,
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
from .exceptions import NonPhysicalStateError
from .noise import NoiseModel, kernel_value

EvolutionMode = Literal["one_shot", "stepwise"]

#: a population, or an eigenvalue of a dense state, below -POSITIVITY_TOL is not a state's
POSITIVITY_TOL = 1e-10


@dataclass(frozen=True)
class WalkConfig:
    """Walk length, coin rotation angle, and initial coin state.

    The initial state is ``(cos(delta) |0> + e^{-i eta} sin(delta) |1>)``
    localized at the origin. Angles are in radians. ``steps`` is at most
    2**53 - 1: the walk's time grids are floats, exact up to 2**53.
    """

    steps: int
    coin_angle: float = math.pi / 4
    delta: float = math.pi / 4
    eta: float = 0.0

    def __post_init__(self):
        # Python counts a bool as an int
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 0:
            raise ValueError(f"steps must be a non-negative integer, got {self.steps!r}")
        if self.steps > 2**53 - 1:
            raise ValueError(f"steps must be at most 2**53 - 1, got {self.steps!r}")
        for name in ("coin_angle", "delta", "eta"):
            angle = getattr(self, name)
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be a finite angle, got {angle!r}")


def _cone_positions(t: int) -> np.ndarray:
    """The light cone -t, -t + 2, ..., t after t steps, ascending."""
    return np.arange(-t, t + 1, 2)


def coin_operator(theta: float) -> np.ndarray:
    """Real symmetric coin C(theta); theta = pi/4 gives the Hadamard coin."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [s, -c]])


def _coin_vector(delta: float, eta: float) -> np.ndarray:
    """The coin state cos(delta) |0> + e^{-i eta} sin(delta) |1>."""
    return np.array([math.cos(delta), np.exp(-1j * eta) * math.sin(delta)])


def _basis_walks(cfg: WalkConfig) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, a): the two noiseless basis walks on the light cone.

    ``a[c, i, j]`` is the real amplitude at coin c and position
    ``_cone_positions(t)[j]`` of the walk psi_i started from the coin
    basis state |i>, so ``a`` has shape (2, 2, t + 1). C(theta) and
    the shift are real, so both walks are real, and the walk is linear, so
    the walker started from the coin state v is sum_i v_i psi_i. A step is
    one real product ``coin @ a`` over both walks and every site, then the
    shift: coin 0 lands one cone index left of coin 1. The product rounds
    as the complex ``coin @ amps`` of an ``np.roll`` walk on a lattice does
    from the exact |0> or |1>, whose imaginary parts stay zero, so each
    basis walk is bit for bit that walk on its light cone. (An elementwise
    C[c, 0] a[0] + C[c, 1] a[1] would round the sum on its own where the
    BLAS product fuses it, and differ by an ulp.) Each yield is a fresh
    array and the walk keeps only the last one, so memory is O(t) for any
    T; the next step reads the yielded array, so a caller must not write
    to it.
    """
    coin = coin_operator(cfg.coin_angle)
    a = np.eye(2)[:, :, None]
    yield 0, a
    for t in range(1, cfg.steps + 1):
        rotated = (coin @ a.reshape(2, -1)).reshape(2, 2, t)
        a = np.zeros((2, 2, t + 1))
        a[0, :, :t] = rotated[0]
        a[1, :, 1:] = rotated[1]
        yield t, a


def density_from_amplitudes(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of an amplitude array (2, m) as a flat (2m, 2m) matrix."""
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


def _step_ratios(cfg: WalkConfig, noise: NoiseModel) -> np.ndarray:
    """The T stepwise ratios k(t)/k(t - 1), t = 1..T, from one kernel_ratio call.

    The call checks every ratio, so a kernel zero raises before the walk.
    """
    return kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))


def _light_cone_blocks(
    cfg: WalkConfig, ratios: np.ndarray, start: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, rho_t): the stepwise walk of a stack of 2 x 2 start blocks.

    ``ratios`` are the :func:`_step_ratios` of the walk, and ``start`` is a
    stack (w, 2, 2), one block per walker. ``rho_t`` is the stack
    (w, 2(t + 1), 2(t + 1)) of their blocks of rho(t) on the light cone
    ``_cone_positions(t)``, coin 0 first. Each step is
    :func:`_walk_block`, in the order and rounding of the full-lattice
    ``einsum``, so every block, embedded on a lattice wider than the cone,
    is bit for bit that walker's full-lattice state. Every step is
    complex-linear in the block, so any complex start may be walked, such
    as the difference of two walkers' states. A ratio above 1 in modulus is
    not CP; near a zero of the kernel it grows without bound and the states
    leave the state space (RTN a=0.05, gamma=0.008: minimum eigenvalue -0.27
    at t = 18, -6.6 at t = 60). The witnesses check the states from the
    first such step on (see :func:`nmqwalk.witness.witness_series`), and
    :func:`population_variance` checks the populations; the walk does not
    check. Each step forms a new stack and yields it, not a copy; the next
    step reads it, so a caller must not write to it.
    """
    coin = coin_operator(cfg.coin_angle)
    rho = start
    for t in range(cfg.steps + 1):
        if t:
            rho = _walk_block(rho, coin, ratios[t - 1])
        yield t, rho


def _cone_populations(block: np.ndarray) -> np.ndarray:
    """Position populations of a (2m, 2m) light-cone block: its diagonal's coin halves summed."""
    diag = block.diagonal().real
    m = len(diag) // 2
    return diag[:m] + diag[m:]


def populations(
    cfg: WalkConfig, noise: NoiseModel, mode: EvolutionMode
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (t, x, probs): the walker's position populations on its light cone.

    ``probs[j]`` is the population of the integer position ``x[j]``, and
    ``x`` is ``_cone_positions(t)``. One-shot dephasing keeps the coin
    populations, so under any kernel they are the noiseless walker's,
    |sum_i v_i psi_i(t)|^2 summed over the coin, from the basis walks of
    :func:`_basis_walks`. The kernel is evaluated once on t = 0..T before
    the walk, for its range check alone. Stepwise, they are read from the
    diagonal of each light-cone block of :func:`_light_cone_blocks`, which
    is not copied.
    """
    if mode == "stepwise":
        start = density_from_amplitudes(_coin_vector(cfg.delta, cfg.eta))
        for t, rho in _light_cone_blocks(cfg, _step_ratios(cfg, noise), start[None]):
            yield t, _cone_positions(t), _cone_populations(rho[0])
    elif mode == "one_shot":
        kernel_value(noise, np.arange(cfg.steps + 1.0))
        coin = _coin_vector(cfg.delta, cfg.eta)
        for t, a in _basis_walks(cfg):
            psi = np.einsum("i,cix->cx", coin, a)
            yield t, _cone_positions(t), np.sum(np.abs(psi) ** 2, axis=0)
    else:
        raise ValueError(f"mode must be 'one_shot' or 'stepwise', got {mode!r}")


def distribution_variance(probs: np.ndarray, positions: np.ndarray) -> float:
    """Variance of the position distribution (ballistic: grows as t^2)."""
    probs = np.asarray(probs, dtype=float)
    mean = float(probs @ positions)
    return float(probs @ (positions - mean) ** 2)


def population_variance(t: int, probs: np.ndarray) -> float:
    """Variance of the populations ``probs`` on the light cone after t steps, if they are a state's.

    Raises NonPhysicalStateError naming t and the lowest population when
    one lies below -POSITIVITY_TOL, as a stepwise walk's do once it leaves
    the state space (RTN(0.05, 0.008): -0.0606 at t = 19).
    """
    low = probs.min()
    if low < -POSITIVITY_TOL:
        raise NonPhysicalStateError(f"state at t={t} has population {low:.6g} below -{POSITIVITY_TOL:g}")
    return distribution_variance(probs, _cone_positions(t).astype(float))
