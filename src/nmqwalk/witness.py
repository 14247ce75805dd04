"""Non-Markovianity witnesses and quantumness measures for coin-position states.

Implements the plotted quantities of the walk experiments: trace distance
between two co-evolved walkers (on their reduced coin states), quantum
mutual information, measurement-induced disturbance (MID), quantum
discord, coin entropy, and position variance. All entropic quantities are
in bits. The series driver :func:`witness_series` is the one entry point: it
returns one array per witness, indexed by step.

A one-shot state is rho(t) = D_k(t)[|psi(t)><psi(t)|], the noiseless walk
state with its coin coherences scaled by the kernel value k(t). Each of its
witnesses is a closed form in k(t) and the noiseless coin block
C(t) = Tr_x |psi(t)><psi(t)|, a 2 x 2 matrix:

- rho_c is C with its off-diagonal entries scaled by k, and rho_p has the
  nonzero spectrum of C (Schmidt);
- rho = B B^dag, with B the Kraus columns b_r = (K_r (x) I) psi of the
  ``kraus_at`` pair, so S(rho) is the entropy of the 2 x 2 matrix
  B^dag B = [[(1+k)/2, q], [q, (1-k)/2]], q = sqrt(1 - k^2) (C_00 - C_11) / 2;
- MI = S(rho_c) + S(C) - S(rho), and the discord is S(rho_c) - S(rho)
  (see :func:`_one_shot_witnesses`);
- MID's outcome table is P(a, p) = sum_r |sum_c conj(v_a[c]) K_r[c] F[p, c]|^2,
  with v_a the eigenbasis of rho_c and F[p, c] = <u_p|psi_c> for the
  eigenbasis u_p of rho_p, which is sqrt(w_p) conj(u[c, p]) for the
  eigensystem (w, u) of the Gram matrix conj(C) of the coin slices psi_c;
- TD is half the trace norm of the difference of two walkers' blocks, with
  the coherences scaled by k.

C(t) is bilinear in the initial coin state, so one walk of the basis pair
gives it for every walker: with psi_0 and psi_1 the real noiseless walks
from coin |0> and |1> (:func:`nmqwalk.walk._basis_walks`, on the t + 1
light-cone sites) and A their (4, t + 1) amplitudes, rows (coin, basis
walk), the Gram matrix L_t = A A^T is the one-shot coin map, and the walker
started from the coin state v has C(t) = sum_ij v_i conj(v_j) L_t[:, i, :, j].
So the series driver walks the basis pair once for the walker of ``cfg``
and, when TD is asked, the two walkers of ``td_pair``; per step it keeps
the 4 x 4 L_t (and, for the variance, the position moments of A), and after
the walk reads every walker's block in one batched contraction and computes
every tag once with batched 2 x 2 linear algebra, holding O(t) amplitudes
and a (T + 1) stack of small matrices. Only MID can need the amplitudes:
where rho_p is degenerate inside its support, its canonical basis (see
:func:`_mid`) lives on the lattice, so at such a step the walk forms the
walker's amplitudes and its frame F while it holds the basis pair.

A stepwise state, a dense (2n, 2n) light-cone block, is measured through
a per-state cache that every witness shares, on its support, the sites
whose rows are not all zero, which keeps every nonzero eigenvalue,
negative ones included. Its discord is a grid scan plus Nelder-Mead over
projective coin measurements, the one place this module uses scipy:
:func:`minimize` imports ``scipy.optimize`` when it first runs, so every
other witness, in either mode, runs without it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Literal

import numpy as np

from .noise import NoiseModel, kernel_value
from .qops import (
    DEGENERACY_TOL,
    EIGENVALUE_CUTOFF,
    entropy_of_spectrum,
    partial_trace,
)
from .walk import (
    WalkConfig,
    _basis_walks,
    _coin_vector,
    _light_cone_blocks,
    density_from_amplitudes,
    distribution_variance,
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


def _gram_blocks(factor: np.ndarray) -> np.ndarray:
    """Gram blocks G[c, c'] = A_c^dag A_c' of a factorization rho = A A^dag.

    ``factor`` has shape (d_c, d_p, r), with A_c = factor[c] the coin-c block
    of A. The unnormalized conditional position state after projecting the
    coin onto |m> has the same nonzero spectrum as
    sum_{c,c'} m_c conj(m_c') G[c, c'], an r x r matrix instead of d_p x d_p.
    """
    return np.einsum("cjr,djs->cdrs", factor.conj(), factor)


class _State:
    """One dense coin (x) position density matrix of shape (2n, 2n).

    Each quantity is computed on first use and kept for every witness that
    shares it. The matrix is kept only on its support: the sites where the
    row of either coin is not identically zero. In a Hermitian matrix a zero row is
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
    def coin_entropy(self) -> float:
        return entropy_of_spectrum(np.linalg.eigvalsh(self.coin))

    @cached_property
    def position_entropy(self) -> float:
        return entropy_of_spectrum(np.linalg.eigvalsh(self.position))

    @cached_property
    def joint_entropy(self) -> float:
        return entropy_of_spectrum(np.linalg.eigvalsh(self.rho))

    @cached_property
    def mutual_information(self) -> float:
        return self.coin_entropy + self.position_entropy - self.joint_entropy

    @cached_property
    def discord(self) -> float:
        """Quantum discord D = I(rho) - max J in bits, with the coin measured.

        J = S(rho_p) - sum_i p_i S(rho_p | outcome i) is maximized over rank-1
        projective measurements along the Bloch axis (theta, phi) by a coarse
        grid scan followed by Nelder-Mead refinement (tolerance 1e-7 on J).
        """
        w, v = np.linalg.eigh(self.rho)
        keep = w > EIGENVALUE_CUTOFF
        factor = v[:, keep] * np.sqrt(w[keep])
        gram = _gram_blocks(factor.reshape(*self._dims, factor.shape[1]))
        return self.mutual_information - (
            self.position_entropy - _min_conditional_entropy(gram)
        )


def _near_degenerate(diff: float, coherence: complex) -> bool:
    """Whether a 2 x 2 Hermitian block has an eigenvalue gap below twice DEGENERACY_TOL.

    ``diff`` is the difference of its diagonal entries and ``coherence`` its
    off-diagonal entry; the gap is sqrt(diff^2 + 4 |coherence|^2).
    """
    return diff * diff + 4.0 * abs(coherence) ** 2 < (2.0 * DEGENERACY_TOL) ** 2


def _position_frame(psi: np.ndarray) -> np.ndarray:
    """F[p, c] = <u_p|psi_c> for the canonical eigenbasis u_p of Tr_c |psi><psi|.

    With a = psi^T (n x 2), the eigenvectors of a a^dag on its support are
    a u / sqrt(w) for the eigensystem of the Gram matrix a^dag a. The null
    space gets no basis: its outcomes have probability zero (Luo, PRA 77,
    022301, 2008). A rank-1 marginal leaves row 1 zero.
    """
    a = psi.T
    w, u = np.linalg.eigh(a.conj().T @ a)
    keep = w > EIGENVALUE_CUTOFF
    basis = _canonicalize(w[keep], (a @ u[:, keep]) / np.sqrt(w[keep]))
    frame = np.zeros((2, 2), dtype=complex)
    frame[: basis.shape[1]] = basis.conj().T @ a
    return frame


def _one_shot_witnesses(blocks: np.ndarray, k: np.ndarray, frames: dict, tags) -> dict:
    """Entropy, MI, QD, and MID when asked, of D_k(|psi><psi|) for each row.

    ``blocks`` are the noiseless coin blocks C (m, 2, 2) and ``k`` the kernel
    values (m,) in [-1, 1], by the closed forms of the module docstring. MID
    needs the :func:`_position_frame` of each row that may be degenerate.

    The discord D = I(rho) - max J, with J = S(rho_p) - sum_i p_i S(rho_p|i)
    for a measurement of the coin, is exactly S(rho_c) - S(rho). The Kraus
    columns purify rho with the Kraus index as the environment E, so
    Koashi-Winter (PRA 69, 022309, 2004) gives max J = S(rho_p) - E_F(rho_pE)
    over POVMs. On supp(rho_p) (x) E the purification is
    F[c, (p, r)] = A[c, p] K_r[c], A[c, p] = <u_p|psi_c>, so Wootters' matrix
    (PRL 80, 2245, 1998) F (sigma_y (x) sigma_y) F^T = sqrt(1 - k^2) det A sigma_x
    has two equal singular values: the concurrence and E_F are 0. Measuring
    the coin in its own basis leaves pure position states and attains that
    maximum.
    """
    rho_c = blocks.copy()
    rho_c[:, 0, 1] *= k
    rho_c[:, 1, 0] *= k
    w_c, v_c = np.linalg.eigh(rho_c)
    s_c = entropy_of_spectrum(w_c)
    out = {"Entropy": s_c}
    # K[m, c, r], the diagonals of the kraus_at pair sqrt((1+k)/2) I, sqrt((1-k)/2) sigma_3
    plus, minus = np.sqrt((1.0 + k) / 2.0), np.sqrt((1.0 - k) / 2.0)
    kraus = np.stack([np.stack([plus, minus], -1), np.stack([plus, -minus], -1)], -2)
    populations = np.diagonal(blocks, axis1=1, axis2=2).real
    joint = np.einsum("mcr,mcs,mc->mrs", kraus, kraus, populations)  # B^dag B
    s_joint = entropy_of_spectrum(np.linalg.eigvalsh(joint))
    out["QD"] = s_c - s_joint
    w_p, u_p = np.linalg.eigh(blocks.conj())
    out["MI"] = s_c + entropy_of_spectrum(w_p) - s_joint
    if "MID" in tags:
        w_p = np.where(w_p > EIGENVALUE_CUTOFF, w_p, 0.0)
        frame = np.sqrt(w_p)[:, :, None] * u_p.conj().swapaxes(1, 2)
        for row, f in frames.items():
            frame[row] = f
        degenerate = (w_c[:, 1] - w_c[:, 0] < DEGENERACY_TOL) & (w_c[:, 1] >= EIGENVALUE_CUTOFF)
        for row in np.flatnonzero(degenerate):
            v_c[row] = _canonicalize(w_c[row], v_c[row])
        amps = np.einsum("mca,mcr,mpc->mapr", v_c.conj(), kraus, frame)
        out["MID"] = out["MI"] - _classical_mi(np.sum(np.abs(amps) ** 2, axis=-1))
    return out


#: each witness of a dense state, read from its per-state cache
_DENSE_WITNESSES = {
    "MI": lambda state: state.mutual_information,
    "MID": lambda state: _mid(state),
    "QD": lambda state: state.discord,
    "Entropy": lambda state: state.coin_entropy,
}


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


def _classical_mi(table: np.ndarray):
    """Mutual information in bits of each joint probability table (a, b) in a stack (..., a, b)."""
    return (
        entropy_of_spectrum(table.sum(axis=-1))
        + entropy_of_spectrum(table.sum(axis=-2))
        - entropy_of_spectrum(table.reshape(*table.shape[:-2], -1))
    )


def _mid(state: _State) -> float:
    """Measurement-induced disturbance Q = I(rho) - I(Pi(rho)) in bits (Luo, PRA 77, 022301, 2008).

    Pi dephases the state in the product of the marginal eigenbases; its
    mutual information is the classical mutual information of the joint
    outcome table. Where a marginal has a degenerate eigenvalue inside its
    support (at or above EIGENVALUE_CUTOFF), its eigenbasis is not unique,
    and the canonical rule of :func:`_canonicalize` makes the value
    deterministic. Other conventions may give another value there.
    """
    # the probabilities of the product-basis outcomes, coin outcome first
    u = np.kron(_canonical_eigenbasis(state.coin), _canonical_eigenbasis(state.position))
    table = np.clip(np.real(np.sum(u.conj() * (state.rho @ u), axis=0)), 0.0, None)
    return state.mutual_information - _classical_mi(table.reshape(2, -1))


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


def trace_norm(m: np.ndarray) -> np.ndarray:
    """||M||_1 = sum |eig M| of each Hermitian matrix in a stack (..., d, d)."""
    return np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def _one_shot_blocks(cfg: WalkConfig, coins: np.ndarray, tags) -> tuple:
    """Each walker's noiseless coin block C_w(t), t = 0..T, from one walk of the basis pair.

    Per step the walk keeps the real Gram matrix L_t = A A^T of the basis
    pair's amplitudes A (4, t + 1), rows (coin c, basis walk i): the one-shot
    coin map, L_t[c, i, d, j] = sum_x psi_i(t)[c, x] psi_j(t)[d, x]. The walk
    is linear, so after it one batched contraction gives every walker's
    block, C_w(t) = sum_ij v_i conj(v_j) L_t[:, i, :, j] for v = coins[w].
    The edge guard reads the walkers, so it raises where the first of them
    reaches an edge.

    Returns the (T + 1, walkers, 2, 2) blocks, the position variance of the
    first walker when ``tags`` asks for it (else None), and that walker's
    MID frames. For the variance A also carries the rows A diag(x), x the
    sites' offsets from x0, on which the variance does not depend and which
    keep its moments O(t^2); the first walker's coin-diagonal sums of
    A diag(x) A^T and A diag(x^2) A^T are its <x> and <x^2>. For MID, where
    the first walker's block is near degenerate, its canonical position
    frame is built from its amplitudes while the walk holds them.
    """
    weights = np.einsum("wi,wj->wij", coins, coins.conj())  # v_w v_w^dag
    (p00, p01), (p10, p11) = weights[0].tolist()
    groups = 2 if "Variance" in tags else 1
    offsets = (lattice_positions(cfg) - cfg.initial_position).astype(float)
    grams, frames = [], {}
    for t, a, sites in _basis_walks(cfg, coins):
        rows = np.concatenate((a, a * offsets[sites])) if groups == 2 else a
        rows = rows.reshape(-1, a.shape[-1])
        gram = np.dot(rows, rows.T)
        grams.append(gram)
        if "MID" in tags:
            # the first walker's block from L_t, in scalars: a batched
            # contraction per step would cost more than the rest of the step
            (g00, g01, g02, g03), (_, g11, g12, g13), (_, _, g22, g23), (_, _, _, g33) = (
                gram[:4, :4].tolist()
            )
            diff = (p00 * (g00 - g22) + p11 * (g11 - g33) + 2.0 * p01 * (g01 - g23)).real
            if _near_degenerate(diff, p00 * g02 + p01 * g03 + p10 * g12 + p11 * g13):
                psi = np.zeros((2, cfg.n_positions), dtype=complex)
                psi[:, sites] = np.einsum("i,cix->cx", coins[0], a)
                frames[t] = _position_frame(psi)
    grams = np.stack(grams).reshape(-1, groups, 2, 2, groups, 2, 2)
    blocks = np.einsum("wij,tcidj->twcd", weights, grams[:, 0, :, :, 0])
    variance = None
    if groups == 2:
        mean, square = (
            np.einsum("ij,tcicj->t", weights[0], grams[:, 1, :, :, g]).real for g in (0, 1)
        )
        variance = square - mean * mean
    return blocks, variance, frames


def _one_shot_series(cfg: WalkConfig, noise: NoiseModel, tags: tuple, td_pair: tuple) -> dict:
    """Every requested one-shot witness from one basis walk (see the module docstring).

    The walkers are the one of ``cfg`` when a single-walker tag is asked,
    then the two ``td_pair`` walkers when TD is. The kernel range raises
    before the walk, and k is clipped to [-1, 1] as ``kraus_at`` clips it.
    """
    k = np.clip(kernel_value(noise, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
    single = bool(set(tags) - {"TD"})
    coins = [_coin_vector(cfg.delta, cfg.eta)] if single else []
    if "TD" in tags:
        coins += [_coin_vector(*td_pair[:2]), _coin_vector(*td_pair[2:])]
    blocks, variance, frames = _one_shot_blocks(cfg, np.stack(coins), tags)

    values = {"Variance": variance}
    if "TD" in tags:
        delta = blocks[:, -2] - blocks[:, -1]
        delta[:, 0, 1] *= k
        delta[:, 1, 0] *= k
        values["TD"] = 0.5 * trace_norm(delta)
    if single:
        values.update(_one_shot_witnesses(blocks[:, 0], k, frames, tags))
    return {tag: values[tag] for tag in tags}


def _stepwise_trace_distances(cfg: WalkConfig, noise: NoiseModel, td_pair: tuple) -> np.ndarray:
    """Stepwise TD(t) = 1/2 ||Tr_x(rho1(t) - rho2(t))||_1 from one light-cone walk.

    The walk is linear, so X = rho1(0) + i rho2(0) carries both walkers: its
    coin block is Y = C1 + i C2, and C1 - C2 is the Hermitian part of (1 + i) Y.
    """
    rho1 = density_from_amplitudes(_coin_vector(*td_pair[:2]))
    rho2 = density_from_amplitudes(_coin_vector(*td_pair[2:]))
    y = (1.0 + 1.0j) * np.stack(
        [
            partial_trace(block, (2, t + 1), "coin")
            for t, block, _ in _light_cone_blocks(cfg, noise, rho1 + 1j * rho2)
        ]
    )
    return 0.5 * trace_norm((y + y.conj().swapaxes(1, 2)) / 2.0)


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
    single walker defined by ``cfg``. TD compares the reduced coin states of
    two walkers whose initial coin states come from ``td_pair`` (radians,
    default the orthogonal pair psi(+-pi/4, 0)) under the same noise; a
    ``td_pair`` of another length, or with a NaN or infinite angle, raises
    ``ValueError``. The walk is linear in its initial state, so TD forms no
    walker state. In one-shot mode one walk of the basis pair feeds every
    tag; in stepwise mode TD runs its own light-cone walk before the single
    walker's, whose states are measured through one per-state cache.
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
    if not tags:
        return {}
    if mode == "one_shot":
        return _one_shot_series(cfg, noise, tags, pair)

    values: dict[str, list[float]] = {tag: [] for tag in tags}
    if "TD" in values:
        values["TD"] = _stepwise_trace_distances(cfg, noise, pair)
    single = [tag for tag in tags if tag != "TD"]
    if single:
        positions = lattice_positions(cfg).astype(float)
        for _, rho, sites in evolve_stepwise(cfg, noise):
            state = _State(rho)
            for tag in single:
                if tag == "Variance":
                    probs = position_distribution(rho)
                    values[tag].append(distribution_variance(probs, positions[sites]))
                else:
                    values[tag].append(_DENSE_WITNESSES[tag](state))
    return {tag: np.asarray(v) for tag, v in values.items()}
