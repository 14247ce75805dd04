"""Non-Markovianity witnesses and quantumness measures for coin-position states.

Implements the plotted quantities of the walk experiments: trace distance
between two co-evolved walkers (on their reduced coin states), quantum
mutual information, measurement-induced disturbance (MID), quantum
discord, coin entropy, and position variance. All entropic quantities are
in bits.

The series driver evolves the walk once for all requested witnesses (plus
the two trace-distance walkers when TD is requested) and computes each
state's partial traces and entropies once, in a per-state cache shared by
every witness; states are streamed one step at a time so memory stays flat
in the walk length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Literal

import numpy as np
from scipy.optimize import minimize

from .exceptions import DimensionMismatchError
from .noise import NoiseModel
from .qops import (
    DEGENERACY_TOL,
    EIGENVALUE_CUTOFF,
    entropy_of_spectrum,
    partial_trace,
    trace_norm,
)
from .walk import (
    WalkConfig,
    distribution_variance,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)

WITNESS_TAGS = ("TD", "MI", "MID", "QD", "Entropy", "Variance")
EvolutionMode = Literal["one_shot", "stepwise"]

#: default pair of initial coin states for the trace-distance witness,
#: (delta1, eta1, delta2, eta2) in radians: the orthogonal pair psi(+-pi/4, 0)
DEFAULT_TD_PAIR = (math.pi / 4, 0.0, -math.pi / 4, 0.0)

_PROJECTION_TOL = 1e-8

#: (theta, phi) points of the coarse scan that seeds the discord optimizer
_DISCORD_GRID = (32, 32)


@dataclass(frozen=True)
class WitnessSeries:
    """One witness evaluated at every step 0..T of a walk experiment."""

    witness: str
    steps: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class MidResult:
    """MID value plus a flag marking a degenerate marginal spectrum.

    The flag is set when a marginal has a degenerate eigenvalue inside its
    support (at or above EIGENVALUE_CUTOFF). There the marginal eigenbasis
    is not unique; the value is still deterministic thanks to the canonical
    basis rule (see ``mid``), but comparisons against other conventions may
    differ. Degeneracy below the cutoff, such as the kernel of a low-rank
    position marginal, is not flagged: its outcomes have probability zero,
    so no choice of basis there changes the value.
    """

    value: float
    degenerate_marginal: bool


@dataclass(frozen=True)
class DiscordResult:
    """Discord value and the measurement axis (theta, phi) achieving it."""

    value: float
    theta: float
    phi: float
    classical_correlation: float


def _check_split(rho: np.ndarray, split: tuple[int, int]) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    dc, dp = split
    if rho.shape != (dc * dp, dc * dp):
        raise DimensionMismatchError(
            f"state of shape {rho.shape} does not factor as ({dc}*{dp})^2"
        )
    return rho


def _entropy(rho: np.ndarray) -> float:
    """Entropy in bits from the spectrum; tolerant of tiny negative parts."""
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


class _State:
    """One coin (x) position state with its reductions and entropies.

    Each quantity is computed on first use and kept, so the witnesses that
    share it (MI inside MID and discord, S(rho_p) inside discord) read one
    value instead of recomputing it.
    """

    def __init__(self, rho: np.ndarray, split: tuple[int, int]):
        self.rho = _check_split(rho, split)
        self.split = split

    @cached_property
    def coin(self) -> np.ndarray:
        return partial_trace(self.rho, self.split, "coin")

    @cached_property
    def position(self) -> np.ndarray:
        return partial_trace(self.rho, self.split, "position")

    @cached_property
    def coin_entropy(self) -> float:
        return _entropy(self.coin)

    @cached_property
    def position_entropy(self) -> float:
        return _entropy(self.position)

    @cached_property
    def mutual_information(self) -> float:
        return self.coin_entropy + self.position_entropy - _entropy(self.rho)


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """TD(rho1, rho2) = 1/2 ||rho1 - rho2||_1, in [0, 1] for states."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionMismatchError(
            f"state shapes differ: {rho1.shape} vs {rho2.shape}"
        )
    return 0.5 * trace_norm(rho1 - rho2)


def mutual_information(rho: np.ndarray, split: tuple[int, int]) -> float:
    """I(rho) = S(rho_c) + S(rho_p) - S(rho) in bits."""
    return _State(rho, split).mutual_information


def _canonical_eigenbasis(rho: np.ndarray) -> tuple[np.ndarray, bool]:
    """Marginal eigenbasis made deterministic under degeneracy.

    Eigenvalues within DEGENERACY_TOL of their neighbor are grouped; inside
    each group the basis is rebuilt by projecting computational basis
    vectors (in ascending index order) onto the eigenspace and
    orthonormalizing. Returns (column eigenbasis, whether a degenerate group
    lies inside the support).

    A group whose eigenvalues all lie below EIGENVALUE_CUTOFF keeps the
    solver's own vectors: every outcome in it has probability zero, so no
    choice of basis there changes a measured value. Inside the support the
    projections are orthonormalized in the eigenspace's own coordinates
    (the projection of e_i is ``span @ conj(span[i])``) with two
    Gram-Schmidt passes, and a vector is accepted only if it keeps more
    than _PROJECTION_TOL of its projected length, so the result stays
    orthonormal however large the group is.
    """
    w, v = np.linalg.eigh(rho)
    n = len(w)
    degenerate = False
    basis = v.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[stop - 1] < DEGENERACY_TOL:
            stop += 1
        g = stop - start
        if g > 1 and w[stop - 1] >= EIGENVALUE_CUTOFF:
            degenerate = True
            span = v[:, start:stop]
            accepted = []
            for c in span.conj():
                length = np.linalg.norm(c)
                if length <= _PROJECTION_TOL:
                    continue
                u = c.copy()
                for _ in range(2):
                    for a in accepted:
                        u -= a * np.vdot(a, u)
                norm = np.linalg.norm(u)
                if norm > _PROJECTION_TOL * length:
                    accepted.append(u / norm)
                    if len(accepted) == g:
                        break
            basis[:, start:stop] = span @ np.column_stack(accepted)
        start = stop
    return basis, degenerate


def _classical_mi(table: np.ndarray) -> float:
    """Mutual information in bits of a joint probability table."""
    table = np.asarray(table, dtype=float)
    pa = table.sum(axis=1)
    pb = table.sum(axis=0)
    return (
        entropy_of_spectrum(pa)
        + entropy_of_spectrum(pb)
        - entropy_of_spectrum(table.reshape(-1))
    )


def mid(rho: np.ndarray, split: tuple[int, int]) -> MidResult:
    """Measurement-induced disturbance Q = I(rho) - I(Pi(rho)).

    Pi dephases the state in the product of the marginal eigenbases; its
    mutual information is the classical mutual information of the joint
    outcome table. Degenerate marginal spectra are resolved with the
    canonical computational-basis rule and flagged on the result.
    """
    return _mid(_State(rho, split))


def _mid(state: _State) -> MidResult:
    dc, dp = state.split
    u_c, deg_c = _canonical_eigenbasis(state.coin)
    u_p, deg_p = _canonical_eigenbasis(state.position)
    u = np.kron(u_c, u_p)
    diag = np.real(np.sum(u.conj() * (state.rho @ u), axis=0))
    table = np.clip(diag, 0.0, None).reshape(dc, dp)
    value = state.mutual_information - _classical_mi(table)
    return MidResult(value=value, degenerate_marginal=deg_c or deg_p)


def _coin_gram_blocks(rho: np.ndarray, split: tuple[int, int]) -> np.ndarray:
    """Gram blocks G[c, c'] = A_c^dag A_c' of a low-rank factorization.

    With rho = A A^dag and A_c the coin-c block of A, the unnormalized
    conditional position state after projecting the coin onto |m> has the
    same nonzero spectrum as sum_{c,c'} m_c conj(m_c') G[c, c'], an r x r
    matrix (r = rank of rho) instead of d_p x d_p.
    """
    dc, dp = split
    w, v = np.linalg.eigh(rho)
    keep = w > EIGENVALUE_CUTOFF
    a = (v[:, keep] * np.sqrt(w[keep])).reshape(dc, dp, -1)
    return np.einsum("cjr,djs->cdrs", a.conj(), a)


def _conditional_entropies(gram: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_p|i) for a batch of coin measurement axes.

    axes has shape (n, 2): rows (theta, phi) of the Bloch measurement
    direction; the two projector outcomes are handled together.
    """
    theta = axes[:, 0]
    phi = axes[:, 1]
    m0 = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
    m1 = np.stack([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)], axis=1)
    out = np.zeros(len(axes))
    for m in (m0, m1):
        # (n, r, r) conditional Gram matrices for this outcome
        g = np.einsum("nc,nd,cdrs->nrs", m, m.conj(), gram)
        w = np.linalg.eigvalsh(g)
        p = np.sum(w, axis=1)
        w = np.clip(w, 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(w > EIGENVALUE_CUTOFF, w * np.log2(w), 0.0)
        s_unnorm = -np.sum(terms, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out += np.where(p > EIGENVALUE_CUTOFF, s_unnorm + p * np.log2(p), 0.0)
    return out


def discord(rho: np.ndarray, split: tuple[int, int]) -> DiscordResult:
    """Quantum discord D = I(rho) - max_axis J(axis) in bits.

    J(axis) = S(rho_p) - sum_i p_i S(rho_p | outcome i) for a rank-1
    projective measurement of the coin along the Bloch axis (theta, phi).
    The maximization runs a coarse grid scan followed by Nelder-Mead
    refinement (tolerance 1e-7 on J).
    """
    return _discord(_State(rho, split))


def _discord(state: _State) -> DiscordResult:
    if state.split[0] != 2:
        raise DimensionMismatchError("coin measurement requires a 2-level coin")
    gram = _coin_gram_blocks(state.rho, state.split)

    nt, nf = _DISCORD_GRID
    thetas = np.linspace(0.0, math.pi, nt)
    phis = np.linspace(0.0, 2.0 * math.pi, nf, endpoint=False)
    axes = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    cond = _conditional_entropies(gram, axes)
    best = int(np.argmin(cond))

    res = minimize(
        lambda x: float(_conditional_entropies(gram, np.asarray([x]))[0]),
        axes[best],
        method="Nelder-Mead",
        options={"fatol": 1e-7, "xatol": 1e-6},
    )
    if res.fun <= cond[best]:
        theta, phi = res.x
        cond_min = float(res.fun)
    else:  # pragma: no cover - refinement never worsens the grid optimum
        theta, phi = axes[best]
        cond_min = float(cond[best])
    j_max = state.position_entropy - cond_min
    return DiscordResult(
        value=state.mutual_information - j_max,
        theta=float(theta) % (2.0 * math.pi),
        phi=float(phi) % (2.0 * math.pi),
        classical_correlation=j_max,
    )


def coin_entropy(rho: np.ndarray, split: tuple[int, int]) -> float:
    """Entropy in bits of the reduced coin state; in [0, 1] for a qubit coin."""
    return _State(rho, split).coin_entropy


def _evolver(mode: EvolutionMode):
    if mode == "one_shot":
        return evolve_one_shot
    if mode == "stepwise":
        return evolve_stepwise
    raise ValueError(f"mode must be 'one_shot' or 'stepwise', got {mode!r}")


def _trace_distances(
    cfg: WalkConfig,
    noise: NoiseModel,
    evolve,
    td_pair: tuple[float, float, float, float],
) -> list[float]:
    """TD of the reduced coin states of two co-evolved walkers at each step.

    Kept apart from the driver so that both generators, and the states a
    suspended one still holds, are freed before the single walker starts.
    """
    split = (2, cfg.n_positions)
    d1, e1, d2, e2 = td_pair
    gen1 = evolve(replace(cfg, delta=d1, eta=e1), noise)
    gen2 = evolve(replace(cfg, delta=d2, eta=e2), noise)
    return [
        trace_distance(partial_trace(r1, split, "coin"), partial_trace(r2, split, "coin"))
        for (_, r1), (_, r2) in zip(gen1, gen2)
    ]


def witness_series(
    cfg: WalkConfig,
    noise: NoiseModel,
    mode: EvolutionMode = "one_shot",
    witnesses: tuple[str, ...] = ("TD",),
    td_pair: tuple[float, float, float, float] | None = None,
) -> dict[str, WitnessSeries]:
    """Evaluate each requested witness at every step 0..cfg.steps.

    Returns one series per distinct tag, keyed by tag in request order.
    All witnesses but TD act on the single walker defined by ``cfg``,
    evolved once and shared through a per-state cache. TD co-evolves two
    more walkers, only when requested, whose initial coin states come from
    ``td_pair`` (radians, default the orthogonal pair psi(+-pi/4, 0)) under
    the same noise, and compares their reduced coin states; they run before
    the single walker, so the two passes never hold states at once.
    """
    tags = tuple(dict.fromkeys(witnesses))
    for tag in tags:
        if tag not in WITNESS_TAGS:
            raise ValueError(f"unknown witness {tag!r}, expected one of {WITNESS_TAGS}")
    evolve = _evolver(mode)
    values: dict[str, list[float]] = {tag: [] for tag in tags}

    if "TD" in values:
        pair = td_pair if td_pair is not None else DEFAULT_TD_PAIR
        values["TD"] = _trace_distances(cfg, noise, evolve, pair)

    single = [tag for tag in tags if tag != "TD"]
    if single:
        split = (2, cfg.n_positions)
        positions = lattice_positions(cfg.steps).astype(float)
        for _, rho in evolve(cfg, noise):
            state = _State(rho, split)
            for tag in single:
                if tag == "MI":
                    value = state.mutual_information
                elif tag == "MID":
                    value = _mid(state).value
                elif tag == "QD":
                    value = _discord(state).value
                elif tag == "Entropy":
                    value = state.coin_entropy
                else:  # Variance
                    probs = position_distribution(rho, cfg.n_positions)
                    value = distribution_variance(probs, positions)
                values[tag].append(value)

    steps = np.arange(cfg.steps + 1)
    return {tag: WitnessSeries(tag, steps, np.asarray(v)) for tag, v in values.items()}
