"""Non-Markovianity witnesses and quantumness measures for coin-position states.

Implements the plotted quantities of the walk experiments: trace distance
between two co-evolved walkers (on their reduced coin states), quantum
mutual information, measurement-induced disturbance (MID), quantum
discord, coin entropy, and position variance. All entropic quantities are
in bits. Each single-state witness returns its value as a float, and the
series driver returns one array per witness, indexed by step.

A walk state is either form the walk yields, told apart by its shape, which
also gives the lattice size n: a one-shot Kraus factor of shape (2, n, 2),
whose columns ``b_r = (K_r (x) I) psi`` for the :func:`nmqwalk.noise.kraus_at`
pair give ``rho = sum_r b_r b_r^dag``, or a dense (2n, 2n) density matrix.
The series driver and the public single-state functions take either form.
The driver evolves the walk once for all requested witnesses (TD reads its
two walkers' coin blocks from one noiseless walk that carries both, or
from one stepwise walk that carries both) and computes each state's
reductions and entropies once, in a per-state cache shared by every
witness. Witness states are formed one step at a time and dropped after
use, and the noiseless walks stream their amplitudes one step at a time
too, so a one-shot series holds O(n) amplitudes whatever T (the T + 1
values of each series aside). A factor is measured through itself: every
spectrum comes from a 2 x 2 matrix (B^dag B for S(rho), the coin block, the
Gram matrix of the position marginal), and the MID outcome table and the
discord both live on the support of the position marginal, so no (2n)^2
matrix is formed. The tests check the factor path against the dense one. A dense
state is measured on its support, the sites whose rows are not all zero.
The stepwise walk yields each state as its 2(t + 1) x 2(t + 1) light-cone
block, whatever the lattice size, so that scan reads the block only.
Dropping zero rows keeps every nonzero eigenvalue, negative ones included.

Discord is exact on a factor and searched for on a dense state. The factor
is its own purification, with the Kraus index as the environment, and the
position marginal has rank <= 2, so the discord has a closed form from
Koashi-Winter (PRA 69, 022309, 2004) and Wootters' concurrence (PRL 80,
2245, 1998); see :func:`discord`. A dense state (stepwise mode, or a dense
argument to the public functions) runs a grid scan plus Nelder-Mead over
projective coin measurements instead, and the tests keep that search as
the oracle of the closed form. That search is the one place this module
uses scipy: :func:`minimize` imports ``scipy.optimize`` when it first runs,
so every other witness, in either mode, runs without it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Literal

import numpy as np

from .exceptions import DimensionMismatchError
from .noise import NoiseModel, kernel_value
from .qops import (
    DEGENERACY_TOL,
    EIGENVALUE_CUTOFF,
    entropy_of_spectrum,
    partial_trace,
)
from .walk import (
    WalkConfig,
    _coin_vector,
    _light_cone_blocks,
    _noiseless_steps,
    density_from_amplitudes,
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

#: (theta, phi) points of the coarse scan that seeds the dense discord optimizer
_DISCORD_GRID = (32, 32)
#: coin axes per batch of conditional spectra in the dense discord search
_AXIS_BLOCK = 64

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
#: sigma_y (x) sigma_y, the spin flip of Wootters' concurrence
_SIGMA_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


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
    share it (MI inside MID, the entropies inside discord) read one
    value instead of recomputing it. A subclass provides ``coin``,
    ``position_entropy``, ``joint_entropy``, ``position_basis``,
    ``outcome_table`` and ``discord``.
    """

    @cached_property
    def coin_entropy(self) -> float:
        return _entropy(self.coin)

    @cached_property
    def mutual_information(self) -> float:
        return self.coin_entropy + self.position_entropy - self.joint_entropy


class _State(_Reductions):
    """One dense coin (x) position density matrix of shape (2n, 2n).

    The matrix is kept only on its support: the sites where the row of
    either coin is not identically zero. In a Hermitian matrix a zero row is
    also a zero column, so the dropped block adds zero eigenvalues and
    zero-probability outcomes only, and every other eigenvalue, a negative
    one included, is kept. A stepwise state after t steps arrives as its
    light-cone block of t + 1 sites (see :func:`nmqwalk.walk.evolve_stepwise`),
    so the scan costs O(t^2), not O(n^2); it still drops a site inside the
    light cone whose rows are exactly zero, which keeps every value the one
    the whole (2n, 2n) matrix gives. When every site is in the support, the
    matrix is kept as it came, with no copy.
    """

    def __init__(self, rho: np.ndarray):
        n = rho.shape[0] // 2
        sites = np.flatnonzero(rho.any(axis=1).reshape(2, n).any(axis=0))
        if sites.size < n:
            rows = np.concatenate([sites, sites + n])
            rho = rho[np.ix_(rows, rows)]
        self.rho = rho
        self._dims = (2, sites.size)

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
    def position_basis(self) -> np.ndarray:
        return _canonical_eigenbasis(self.position)

    def outcome_table(self, u_c: np.ndarray, u_p: np.ndarray) -> np.ndarray:
        """Joint probabilities of the product-basis outcomes (columns of u_c, u_p)."""
        u = np.kron(u_c, u_p)
        diag = np.real(np.sum(u.conj() * (self.rho @ u), axis=0))
        return np.clip(diag, 0.0, None).reshape(u_c.shape[1], u_p.shape[1])

    @cached_property
    def discord(self) -> float:
        """Grid scan plus Nelder-Mead over projective coin measurements."""
        w, v = np.linalg.eigh(self.rho)
        keep = w > EIGENVALUE_CUTOFF
        factor = v[:, keep] * np.sqrt(w[keep])
        gram = _gram_blocks(factor.reshape(*self._dims, factor.shape[1]))
        return self.mutual_information - (
            self.position_entropy - _min_conditional_entropy(gram)
        )


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
    def position_basis(self) -> np.ndarray:
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
    def discord(self) -> float:
        """D = S(rho_c) - S(rho) + E_F(rho_pE), exact (see ``discord``).

        The factor compressed onto supp(rho_p), phi[c, k, r] =
        sum_j conj(u[j, k]) factor[c, j, r], is a pure state of coin, a
        position qubit and the Kraus index E; a rank-1 rho_p leaves the
        second position row zero. With F = phi read as 2 x 4 (coin by pE),
        the concurrence of rho_pE is the difference of the singular values
        of the symmetric 2 x 2 matrix F (sigma_y (x) sigma_y) F^T.
        """
        basis = self.position_basis
        phi = np.zeros((2, 2, 2), dtype=complex)
        phi[:, : basis.shape[1]] = np.einsum("jk,cjr->ckr", basis.conj(), self.factor)
        f = phi.reshape(2, 4)
        s = np.linalg.svd(f @ _SIGMA_YY @ f.T, compute_uv=False)
        c = min(max(float(s[0] - s[1]), 0.0), 1.0)
        # the smaller eigenvalue (1 - sqrt(1 - C^2)) / 2, without cancellation
        p = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
        e_f = -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)
        return self.coin_entropy - self.joint_entropy + e_f


def _state(x: np.ndarray) -> _Reductions:
    """A (2, n, 2) Kraus factor or a (2n, 2n) density matrix, by its shape."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 3 and x.shape[0] == x.shape[2] == 2:
        return _FactorState(x)
    if x.ndim == 2 and x.shape[0] == x.shape[1] and x.shape[0] % 2 == 0:
        return _State(x)
    raise DimensionMismatchError(f"not a (2, n, 2) factor or (2n, 2n) state: {x.shape}")


def mutual_information(state: np.ndarray) -> float:
    """I(rho) = S(rho_c) + S(rho_p) - S(rho) in bits.

    ``state`` is a (2, n, 2) Kraus factor, ``b_r = (K_r (x) I) psi`` for the
    ``kraus_at`` pair, or a (2n, 2n) density matrix.
    """
    return _state(state).mutual_information


def _canonical_eigenbasis(rho: np.ndarray) -> np.ndarray:
    """Marginal eigenbasis made deterministic under degeneracy (see _canonicalize)."""
    return _canonicalize(*np.linalg.eigh(rho))


def _canonicalize(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenbasis ``v`` (columns, eigenvalues ``w`` ascending) made deterministic.

    Eigenvalues within DEGENERACY_TOL of their neighbor are grouped; inside
    each group the basis is rebuilt by projecting computational basis
    vectors (in ascending index order) onto the eigenspace and
    orthonormalizing. Returns the column eigenbasis.

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
    basis = v.copy()
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[stop - 1] < DEGENERACY_TOL:
            stop += 1
        g = stop - start
        if g > 1 and w[stop - 1] >= EIGENVALUE_CUTOFF:
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
    return basis


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


def mid(state: np.ndarray) -> float:
    """Measurement-induced disturbance Q = I(rho) - I(Pi(rho)) in bits.

    Pi dephases the state in the product of the marginal eigenbases; its
    mutual information is the classical mutual information of the joint
    outcome table. Where a marginal has a degenerate eigenvalue inside its
    support (at or above EIGENVALUE_CUTOFF), its eigenbasis is not unique.
    The canonical rule makes the value deterministic: inside each degenerate
    eigenspace the basis is rebuilt from the projections of the
    computational basis vectors, in index order. Other conventions may give
    another value there. Degeneracy below the cutoff, such as the kernel of
    a low-rank position marginal, needs no rule: its outcomes have
    probability zero, so no choice of basis there changes the value.
    ``state`` is a Kraus factor or a density matrix, as for
    ``mutual_information``.
    """
    return _mid(_state(state))


def _mid(state: _Reductions) -> float:
    table = state.outcome_table(_canonical_eigenbasis(state.coin), state.position_basis)
    return state.mutual_information - _classical_mi(table)


def _conditional_entropies(gram: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_p|i) for a batch of coin measurement axes.

    axes has shape (n, 2): rows (theta, phi) of the Bloch measurement
    direction; the two projector outcomes are handled together. Every
    positive conditional eigenvalue counts in the entropy: dropping a small
    one would lower it, raise J above its maximum and let discord read below
    zero.
    """
    theta = axes[:, 0]
    phi = axes[:, 1]
    m0 = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
    m1 = np.stack([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)], axis=1)
    m = np.concatenate([m0, m1])
    # (2n, r, r) conditional Gram matrices: outcome 0 of every axis, then outcome 1
    g = np.einsum("nc,nd,cdrs->nrs", m, m.conj(), gram)
    w = np.linalg.eigvalsh(g)
    p = np.sum(w, axis=1)
    w = np.clip(w, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log2(w), 0.0)
        s = np.where(p > EIGENVALUE_CUTOFF, -np.sum(terms, axis=1) + p * np.log2(p), 0.0)
    return s[: len(axes)] + s[len(axes) :]


def discord(state: np.ndarray) -> float:
    """Quantum discord D = I(rho) - max J in bits, with the coin measured.

    J = S(rho_p) - sum_i p_i S(rho_p | outcome i) for a measurement of the
    coin. ``state`` is a Kraus factor or a density matrix, as for
    ``mutual_information``, and each form has its own method:

    - A Kraus factor is exact. It purifies rho with the Kraus index as the
      environment E, so Koashi-Winter (PRA 69, 022309, 2004) gives
      max J = S(rho_p) - E_F(rho_pE) and D = S(rho_c) - S(rho) + E_F(rho_pE).
      rho_p has rank <= 2, so rho_pE is a two-qubit state on
      supp(rho_p) (x) E and Wootters' formula (PRL 80, 2245, 1998) gives
      E_F from its concurrence. Koashi-Winter maximizes over POVMs; rho
      restricted to C^2 (x) supp(rho_p) is a rank <= 2 two-qubit state, for
      which projective measurements are optimal (Galve, Giorgi, Zambrini,
      EPL 96, 40005, 2011), so the value is the projective one.
    - A density matrix is searched for: J is maximized over rank-1
      projective measurements along the Bloch axis (theta, phi) by a coarse
      grid scan followed by Nelder-Mead refinement (tolerance 1e-7 on J).
    """
    return _state(state).discord


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call.

    The dense discord search is the only caller, so a program that measures
    no dense discord never loads ``scipy.optimize``, which is most of the
    package's start-up time.
    """
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def _min_conditional_entropy(gram: np.ndarray) -> float:
    """min over coin axes of sum_i p_i S(rho_p|i), from the Gram blocks of rho."""
    nt, nf = _DISCORD_GRID
    thetas = np.linspace(0.0, math.pi, nt)
    phis = np.linspace(0.0, 2.0 * math.pi, nf, endpoint=False)
    axes = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    # in blocks, so the batch holds 2 _AXIS_BLOCK r x r matrices for any grid
    cond = np.concatenate(
        [
            _conditional_entropies(gram, axes[i : i + _AXIS_BLOCK])
            for i in range(0, len(axes), _AXIS_BLOCK)
        ]
    )
    best = int(np.argmin(cond))

    res = minimize(
        lambda x: float(_conditional_entropies(gram, np.asarray([x]))[0]),
        axes[best],
        method="Nelder-Mead",
        options={"fatol": 1e-7, "xatol": 1e-6},
    )
    # refinement never worsens the grid optimum; a NaN refinement keeps it
    return min(float(cond[best]), float(res.fun))


def coin_entropy(state: np.ndarray) -> float:
    """Entropy in bits of the reduced coin state, in [0, 1].

    ``state`` is a Kraus factor or a density matrix, as for ``mutual_information``.
    """
    return _state(state).coin_entropy


def trace_norm(m: np.ndarray) -> np.ndarray:
    """||M||_1 = sum |eig M| of each Hermitian matrix in a stack (..., d, d)."""
    return np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def _trace_distances(
    cfg: WalkConfig,
    noise: NoiseModel,
    mode: EvolutionMode,
    td_pair: tuple[float, float, float, float],
) -> np.ndarray:
    """TD(t) = 1/2 sum |eig Delta(t)|, Delta = Tr_x(rho1(t) - rho2(t)), at each step.

    Both walk modes are linear in the initial state:

    - one-shot: one noiseless walk carries both walkers, and Delta is the
      difference of their coin blocks, with its coherences scaled by k(t),
      clipped to [-1, 1] as ``kraus_at`` clips it;
    - stepwise: one light-cone walk of X = rho1(0) + i rho2(0) carries both
      walkers. Its coin block is Y = C1 + i C2 with C1, C2 Hermitian, so
      Delta = C1 - C2 is the Hermitian part of (1 + i) Y.
    """
    coins = _coin_vector(*td_pair[:2]), _coin_vector(*td_pair[2:])
    if mode == "one_shot":
        k = np.clip(kernel_value(noise, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
        delta = np.stack(
            [
                np.subtract(*np.einsum("wcx,wdx->wcd", amps, amps.conj()))
                for amps in _noiseless_steps(cfg, np.stack(coins))
            ]
        )
        delta[:, 0, 1] *= k
        delta[:, 1, 0] *= k
    else:
        rho1, rho2 = map(density_from_amplitudes, coins)
        y = (1.0 + 1.0j) * np.stack(
            [
                partial_trace(block, (2, t + 1), "coin")
                for t, block, _ in _light_cone_blocks(cfg, noise, rho1 + 1j * rho2)
            ]
        )
        delta = (y + y.conj().swapaxes(1, 2)) / 2.0
    return 0.5 * trace_norm(delta)


def witness_series(
    cfg: WalkConfig,
    noise: NoiseModel,
    mode: EvolutionMode = "one_shot",
    witnesses: tuple[str, ...] = ("TD",),
    td_pair: tuple[float, float, float, float] | None = None,
) -> dict[str, np.ndarray]:
    """Evaluate each requested witness at every step 0..cfg.steps.

    Returns one array per distinct tag, keyed by tag in request order,
    whose entry t is the witness at step t. All witnesses but TD act on the
    single walker defined by ``cfg``, evolved once and shared through a
    per-state cache. TD compares the reduced coin states of two walkers
    whose initial coin states come from ``td_pair`` (radians, default the
    orthogonal pair psi(+-pi/4, 0)) under the same noise; a ``td_pair`` of
    another length, or with a NaN or infinite angle, raises ``ValueError``.
    The walk is linear in its initial state, so TD forms no walker state;
    it runs only when requested, before the single walker.
    """
    tags = tuple(dict.fromkeys(witnesses))
    for tag in tags:
        if tag not in WITNESS_TAGS:
            raise ValueError(f"unknown witness {tag!r}, expected one of {WITNESS_TAGS}")
    if mode not in ("one_shot", "stepwise"):
        raise ValueError(f"mode must be 'one_shot' or 'stepwise', got {mode!r}")
    pair = DEFAULT_TD_PAIR if td_pair is None else tuple(td_pair)
    if len(pair) != 4 or not all(math.isfinite(angle) for angle in pair):
        raise ValueError(f"td_pair must be four finite angles, got {td_pair!r}")
    evolve = evolve_one_shot if mode == "one_shot" else evolve_stepwise
    values: dict[str, list[float]] = {tag: [] for tag in tags}

    if "TD" in values:
        values["TD"] = _trace_distances(cfg, noise, mode, pair)

    positions = lattice_positions(cfg).astype(float)
    # each single-walker witness of a cached state, the array it wraps and
    # the lattice sites of that array
    measures = {
        "MI": lambda state, raw, sites: state.mutual_information,
        "MID": lambda state, raw, sites: _mid(state),
        "QD": lambda state, raw, sites: state.discord,
        "Entropy": lambda state, raw, sites: state.coin_entropy,
        "Variance": lambda state, raw, sites: distribution_variance(
            position_distribution(raw), positions[sites]
        ),
    }
    single = {tag: measures[tag] for tag in tags if tag != "TD"}
    if single:
        for _, raw, sites in evolve(cfg, noise):
            state = _state(raw)
            for tag, measure in single.items():
                values[tag].append(measure(state, raw, sites))

    return {tag: np.asarray(v) for tag, v in values.items()}
