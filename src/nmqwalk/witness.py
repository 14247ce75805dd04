"""Non-Markovianity witnesses and quantumness measures for coin-position states.

Implements the plotted quantities of the walk experiments: trace distance
between two co-evolved walkers (on their reduced coin states), quantum
mutual information, measurement-induced disturbance (MID), quantum
discord, coin entropy, and position variance. All entropic quantities are
in bits.

A walk state is either form the walk yields, told apart by its shape, which
also gives the lattice size n: a one-shot Kraus factor of shape (2, n, 2),
whose columns ``b_r = (K_r (x) I) psi`` for the :func:`nmqwalk.noise.kraus_at`
pair give ``rho = sum_r b_r b_r^dag``, or a dense (2n, 2n) density matrix.
The series driver and the public single-state functions take either form.
The driver evolves the walk once for all requested witnesses (plus the two
trace-distance walkers when TD is requested) and computes each state's
reductions and entropies once, in a per-state cache shared by every
witness; states are streamed one step at a time so memory stays flat in
the walk length. A factor is measured through itself: every spectrum comes
from a 2 x 2 matrix (B^dag B for S(rho), the coin block, the Gram matrix of
the position marginal), the MID outcome table spans the support of the
position marginal only, and the discord Gram blocks are read off the
factor, so no (2n)^2 matrix is formed. The tests check the factor path
against the dense one.
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


def _entropy(rho: np.ndarray) -> float:
    """Entropy in bits from the spectrum; tolerant of tiny negative parts."""
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


def _gram_blocks(factor: np.ndarray) -> np.ndarray:
    """Gram blocks G[c, c'] = A_c^dag A_c' of a factorization rho = A A^dag.

    ``factor`` has shape (d_c, d_p, r), with A_c = factor[c] the coin-c block
    of A. The unnormalized conditional position state after projecting the
    coin onto |m> has the same nonzero spectrum as
    sum_{c,c'} m_c conj(m_c') G[c, c'], an r x r matrix instead of d_p x d_p.
    """
    return np.einsum("cjr,djs->cdrs", factor.conj(), factor)


class _Reductions:
    """Per-state cache shared by the dense and the factor-backed state.

    Each quantity is computed on first use and kept, so the witnesses that
    share it (MI inside MID and discord, S(rho_p) inside discord) read one
    value instead of recomputing it. A subclass provides ``coin``,
    ``position_entropy``, ``joint_entropy``, ``position_basis``,
    ``outcome_table`` and ``coin_gram``.
    """

    @cached_property
    def coin_entropy(self) -> float:
        return _entropy(self.coin)

    @cached_property
    def mutual_information(self) -> float:
        return self.coin_entropy + self.position_entropy - self.joint_entropy


class _State(_Reductions):
    """One dense coin (x) position density matrix of shape (2n, 2n)."""

    def __init__(self, rho: np.ndarray):
        self.rho = rho
        self._dims = (2, rho.shape[0] // 2)

    @cached_property
    def coin(self) -> np.ndarray:
        return partial_trace(self.rho, self._dims, "coin")

    @cached_property
    def position(self) -> np.ndarray:
        return partial_trace(self.rho, self._dims, "position")

    @cached_property
    def position_entropy(self) -> float:
        return _entropy(self.position)

    @cached_property
    def joint_entropy(self) -> float:
        return _entropy(self.rho)

    @cached_property
    def position_basis(self) -> tuple[np.ndarray, bool]:
        return _canonical_eigenbasis(self.position)

    def outcome_table(self, u_c: np.ndarray, u_p: np.ndarray) -> np.ndarray:
        """Joint probabilities of the product-basis outcomes (columns of u_c, u_p)."""
        u = np.kron(u_c, u_p)
        diag = np.real(np.sum(u.conj() * (self.rho @ u), axis=0))
        return np.clip(diag, 0.0, None).reshape(u_c.shape[1], u_p.shape[1])

    @cached_property
    def coin_gram(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.rho)
        keep = w > EIGENVALUE_CUTOFF
        return _gram_blocks((v[:, keep] * np.sqrt(w[keep])).reshape(*self._dims, -1))


class _FactorState(_Reductions):
    """A one-shot state rho = sum_r b_r b_r^dag, held as its Kraus factor.

    ``factor`` has shape (2, n, 2): coin, position, Kraus index (see
    :func:`nmqwalk.walk.evolve_one_shot`). Every spectrum is taken from a
    2 x 2 matrix, so no (2n)^2 state is ever formed.
    """

    def __init__(self, factor: np.ndarray):
        self.factor = factor

    @cached_property
    def coin(self) -> np.ndarray:
        return np.einsum("cjr,djr->cd", self.factor, self.factor.conj())

    @cached_property
    def joint_entropy(self) -> float:
        # rho = B B^dag has the nonzero spectrum of B^dag B
        b = self.factor.reshape(-1, self.factor.shape[-1])
        return _entropy(b.conj().T @ b)

    @cached_property
    def _position_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, a u): the Gram spectrum of rho_p and its eigenvectors times a.

        Both Kraus operators are multiples of coin unitaries (I and sigma_3),
        so either column alone carries the position marginal,
        rho_p = Tr_c(b_r b_r^dag) / |b_r|^2 = a a^dag with a = b_r / |b_r| read
        as a d_p x 2 matrix whose columns are the coin slices psi_c. Its
        nonzero spectrum is that of the Gram matrix a^dag a = <psi_c|psi_c'>.
        The heavier column is used.
        """
        weights = np.sum(np.abs(self.factor) ** 2, axis=(0, 1))
        r = int(np.argmax(weights))
        a = self.factor[:, :, r].T / math.sqrt(weights[r])
        w, u = np.linalg.eigh(a.conj().T @ a)
        return w, a @ u

    @cached_property
    def position_entropy(self) -> float:
        return entropy_of_spectrum(self._position_eigen[0])

    @cached_property
    def position_basis(self) -> tuple[np.ndarray, bool]:
        """Canonical eigenbasis of the support of rho_p only.

        Outcomes in the null space of rho_p have probability zero, so MID
        needs no basis there (Luo, PRA 77, 022301, 2008).
        """
        w, au = self._position_eigen
        keep = w > EIGENVALUE_CUTOFF
        return _canonicalize(w[keep], au[:, keep] / np.sqrt(w[keep]))

    def outcome_table(self, u_c: np.ndarray, u_p: np.ndarray) -> np.ndarray:
        """Joint probabilities of the product-basis outcomes (columns of u_c, u_p)."""
        amps = np.einsum("ca,cjr->ajr", u_c.conj(), self.factor)
        amps = np.einsum("jp,ajr->apr", u_p.conj(), amps)
        return np.sum(np.abs(amps) ** 2, axis=2)

    @cached_property
    def coin_gram(self) -> np.ndarray:
        return _gram_blocks(self.factor)


def _state(x: np.ndarray) -> _Reductions:
    """A (2, n, 2) Kraus factor or a (2n, 2n) density matrix, by its shape."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 3 and x.shape[0] == x.shape[2] == 2:
        return _FactorState(x)
    if x.ndim == 2 and x.shape[0] == x.shape[1] and x.shape[0] % 2 == 0:
        return _State(x)
    raise DimensionMismatchError(f"not a (2, n, 2) factor or (2n, 2n) state: {x.shape}")


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """TD(rho1, rho2) = 1/2 ||rho1 - rho2||_1, in [0, 1] for states."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionMismatchError(
            f"state shapes differ: {rho1.shape} vs {rho2.shape}"
        )
    return 0.5 * trace_norm(rho1 - rho2)


def mutual_information(state: np.ndarray) -> float:
    """I(rho) = S(rho_c) + S(rho_p) - S(rho) in bits.

    ``state`` is a (2, n, 2) Kraus factor, ``b_r = (K_r (x) I) psi`` for the
    ``kraus_at`` pair, or a (2n, 2n) density matrix.
    """
    return _state(state).mutual_information


def _canonical_eigenbasis(rho: np.ndarray) -> tuple[np.ndarray, bool]:
    """Marginal eigenbasis made deterministic under degeneracy (see _canonicalize)."""
    return _canonicalize(*np.linalg.eigh(rho))


def _canonicalize(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Eigenbasis ``v`` (columns, eigenvalues ``w`` ascending) made deterministic.

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


def mid(state: np.ndarray) -> MidResult:
    """Measurement-induced disturbance Q = I(rho) - I(Pi(rho)).

    Pi dephases the state in the product of the marginal eigenbases; its
    mutual information is the classical mutual information of the joint
    outcome table. Degenerate marginal spectra are resolved with the
    canonical computational-basis rule and flagged on the result.
    ``state`` is a Kraus factor or a density matrix, as for ``mutual_information``.
    """
    return _mid(_state(state))


def _mid(state: _Reductions) -> MidResult:
    u_c, deg_c = _canonical_eigenbasis(state.coin)
    u_p, deg_p = state.position_basis
    table = state.outcome_table(u_c, u_p)
    value = state.mutual_information - _classical_mi(table)
    return MidResult(value=value, degenerate_marginal=deg_c or deg_p)


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


def discord(state: np.ndarray) -> DiscordResult:
    """Quantum discord D = I(rho) - max_axis J(axis) in bits.

    J(axis) = S(rho_p) - sum_i p_i S(rho_p | outcome i) for a rank-1
    projective measurement of the coin along the Bloch axis (theta, phi).
    The maximization runs a coarse grid scan followed by Nelder-Mead
    refinement (tolerance 1e-7 on J). ``state`` is a Kraus factor or a
    density matrix, as for ``mutual_information``.
    """
    return _discord(_state(state))


def _discord(state: _Reductions) -> DiscordResult:
    gram = state.coin_gram

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


def coin_entropy(state: np.ndarray) -> float:
    """Entropy in bits of the reduced coin state, in [0, 1].

    ``state`` is a Kraus factor or a density matrix, as for ``mutual_information``.
    """
    return _state(state).coin_entropy


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
    d1, e1, d2, e2 = td_pair
    gen1 = evolve(replace(cfg, delta=d1, eta=e1), noise)
    gen2 = evolve(replace(cfg, delta=d2, eta=e2), noise)
    return [
        trace_distance(_state(s1).coin, _state(s2).coin)
        for (_, s1), (_, s2) in zip(gen1, gen2)
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
    if mode not in ("one_shot", "stepwise"):
        raise ValueError(f"mode must be 'one_shot' or 'stepwise', got {mode!r}")
    evolve = evolve_one_shot if mode == "one_shot" else evolve_stepwise
    values: dict[str, list[float]] = {tag: [] for tag in tags}

    if "TD" in values:
        pair = td_pair if td_pair is not None else DEFAULT_TD_PAIR
        values["TD"] = _trace_distances(cfg, noise, evolve, pair)

    single = [tag for tag in tags if tag != "TD"]
    if single:
        positions = lattice_positions(cfg.steps).astype(float)
        for _, raw in evolve(cfg, noise):
            state = _state(raw)
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
                    probs = position_distribution(raw)
                    value = distribution_variance(probs, positions)
                values[tag].append(value)

    steps = np.arange(cfg.steps + 1)
    return {tag: WitnessSeries(tag, steps, np.asarray(v)) for tag, v in values.items()}
