"""Non-Markovianity witnesses and quantumness measures for coin-position states.

Implements the plotted quantities of the walk experiments: trace distance
between two co-evolved walkers (on their reduced coin states), quantum
mutual information, measurement-induced disturbance (MID), quantum
discord, coin entropy, and position variance. All entropic quantities are
in bits. Each single-state witness returns its value as a float, and the
series driver returns one array per witness, indexed by step.

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
  (see :func:`discord`);
- MID's outcome table is P(a, p) = sum_r |sum_c conj(v_a[c]) K_r[c] F[p, c]|^2,
  with v_a the eigenbasis of rho_c and F[p, c] = <u_p|psi_c> for the
  eigenbasis u_p of rho_p, which is sqrt(w_p) conj(u[c, p]) for the
  eigensystem (w, u) of the Gram matrix conj(C) of the coin slices psi_c;
- TD is half the trace norm of the difference of two walkers' blocks, with
  the coherences scaled by k.

So one noiseless walk carries the walker of ``cfg`` and, when TD is asked,
the two walkers of ``td_pair``. Per step the series driver keeps each
walker's coin block (and the variance, when asked), and computes every tag
once after the walk with batched 2 x 2 linear algebra, holding O(n)
amplitudes and a (T + 1, walkers, 2, 2) stack. Only MID can need the
amplitudes: where rho_p is degenerate inside its support, its canonical
basis (see :func:`mid`) lives on the lattice, so the walk builds that step's
frame F while it holds the step. The public single-state functions read a
one-shot (2, n, 2) Kraus factor back as psi and k and measure it the same
way, as a stack of one.

A dense (2n, 2n) density matrix (a stepwise light-cone block, or a dense
argument to the public functions) is measured through a per-state cache
that every witness shares, on its support, the sites whose rows are not
all zero, which keeps every nonzero eigenvalue, negative ones included.
Its discord is a grid scan plus Nelder-Mead over projective coin
measurements, the one place this module uses scipy: :func:`minimize`
imports ``scipy.optimize`` when it first runs, so every other witness, in
either mode, runs without it.
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


def _entropy(rho: np.ndarray) -> float:
    """Entropy in bits from the spectrum; tolerant of tiny negative parts."""
    return entropy_of_spectrum(np.linalg.eigvalsh(rho))


def _entropies(w: np.ndarray) -> np.ndarray:
    """``entropy_of_spectrum`` of each spectrum in a stack (..., d)."""
    w = np.where(w > EIGENVALUE_CUTOFF, w, 1.0)
    return -np.sum(w * np.log2(w), axis=-1) + 0.0


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
        return _entropy(self.coin)

    @cached_property
    def position_entropy(self) -> float:
        return _entropy(self.position)

    @cached_property
    def joint_entropy(self) -> float:
        return _entropy(self.rho)

    @cached_property
    def mutual_information(self) -> float:
        return self.coin_entropy + self.position_entropy - self.joint_entropy

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


def _near_degenerate(block: np.ndarray) -> bool:
    """Whether the eigenvalue gap of a 2 x 2 block is below twice DEGENERACY_TOL."""
    diff = (block[0, 0] - block[1, 1]).real
    return diff * diff + 4.0 * abs(block[0, 1]) ** 2 < (2.0 * DEGENERACY_TOL) ** 2


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
    """
    rho_c = blocks.copy()
    rho_c[:, 0, 1] *= k
    rho_c[:, 1, 0] *= k
    w_c, v_c = np.linalg.eigh(rho_c)
    s_c = _entropies(w_c)
    out = {"Entropy": s_c}
    # K[m, c, r], the diagonals of the kraus_at pair sqrt((1+k)/2) I, sqrt((1-k)/2) sigma_3
    plus, minus = np.sqrt((1.0 + k) / 2.0), np.sqrt((1.0 - k) / 2.0)
    kraus = np.stack([np.stack([plus, minus], -1), np.stack([plus, -minus], -1)], -2)
    populations = np.diagonal(blocks, axis1=1, axis2=2).real
    joint = np.einsum("mcr,mcs,mc->mrs", kraus, kraus, populations)  # B^dag B
    s_joint = _entropies(np.linalg.eigvalsh(joint))
    out["QD"] = s_c - s_joint
    w_p, u_p = np.linalg.eigh(blocks.conj())
    out["MI"] = s_c + _entropies(w_p) - s_joint
    if "MID" in tags:
        w_p = np.where(w_p > EIGENVALUE_CUTOFF, w_p, 0.0)
        frame = np.sqrt(w_p)[:, :, None] * u_p.conj().swapaxes(1, 2)
        for row, f in frames.items():
            frame[row] = f
        degenerate = (w_c[:, 1] - w_c[:, 0] < DEGENERACY_TOL) & (w_c[:, 1] >= EIGENVALUE_CUTOFF)
        for row in np.flatnonzero(degenerate):
            v_c[row] = _canonicalize(w_c[row], v_c[row])
        amps = np.einsum("mca,mcr,mpc->mapr", v_c.conj(), kraus, frame)
        out["MID"] = out["MI"] - _classical_mi(np.sum(np.abs(amps) ** 2, axis=-1), _entropies)
    return out


#: each witness of a dense state, read from its per-state cache
_DENSE_WITNESSES = {
    "MI": lambda state: state.mutual_information,
    "MID": lambda state: _mid(state),
    "QD": lambda state: state.discord,
    "Entropy": lambda state: state.coin_entropy,
}


def _measure(x: np.ndarray, tag: str) -> float:
    """Witness ``tag`` of a (2, n, 2) Kraus factor or a (2n, 2n) density matrix.

    A factor's columns b_r = (K_r (x) I) psi for the ``kraus_at`` pair give
    k = |b_0|^2 - |b_1|^2, and psi is the heavier column over its Kraus
    operator; it is measured as a one-shot stack of one.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim == 3 and x.shape[0] == x.shape[2] == 2:
        weights = np.sum(np.abs(x) ** 2, axis=(0, 1))
        r = int(np.argmax(weights))
        psi = x[:, :, r] / math.sqrt(weights[r])
        if r:
            psi[1] *= -1.0
        blocks = np.einsum("cx,dx->cd", psi, psi.conj())[None]
        k = np.clip(weights[:1] - weights[1:], -1.0, 1.0)
        frames = {0: _position_frame(psi)} if tag == "MID" and _near_degenerate(blocks[0]) else {}
        return float(_one_shot_witnesses(blocks, k, frames, (tag,))[tag][0])
    if x.ndim == 2 and x.shape[0] == x.shape[1] and x.shape[0] % 2 == 0:
        return _DENSE_WITNESSES[tag](_State(x))
    raise DimensionMismatchError(f"not a (2, n, 2) factor or (2n, 2n) state: {x.shape}")


def mutual_information(state: np.ndarray) -> float:
    """I(rho) = S(rho_c) + S(rho_p) - S(rho) in bits.

    ``state`` is a (2, n, 2) Kraus factor, ``b_r = (K_r (x) I) psi`` for the
    ``kraus_at`` pair, or a (2n, 2n) density matrix.
    """
    return _measure(state, "MI")


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


def _classical_mi(table: np.ndarray, entropy=entropy_of_spectrum):
    """Mutual information in bits of a joint probability table (a, b).

    With ``entropy=_entropies``, of each table in a stack (..., a, b).
    """
    return (
        entropy(table.sum(axis=-1))
        + entropy(table.sum(axis=-2))
        - entropy(table.reshape(*table.shape[:-2], -1))
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
    return _measure(state, "MID")


def _mid(state: _State) -> float:
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


def discord(state: np.ndarray) -> float:
    """Quantum discord D = I(rho) - max J in bits, with the coin measured.

    J = S(rho_p) - sum_i p_i S(rho_p | outcome i) for a measurement of the
    coin. ``state`` is a Kraus factor or a density matrix, as for
    ``mutual_information``, and each form has its own method:

    - A Kraus factor is exact: D = S(rho_c) - S(rho). The factor purifies
      rho with the Kraus index as the environment E, so Koashi-Winter (PRA
      69, 022309, 2004) gives max J = S(rho_p) - E_F(rho_pE) over POVMs. On
      supp(rho_p) (x) E the purification is F[c, (p, r)] = A[c, p] K_r[c],
      A[c, p] = <u_p|psi_c>, so Wootters' matrix (PRL 80, 2245, 1998)
      F (sigma_y (x) sigma_y) F^T = sqrt(1 - k^2) det A sigma_x has two equal
      singular values: the concurrence and E_F are 0. Measuring the coin in
      its own basis leaves pure position states and attains that maximum.
    - A density matrix is searched for: J is maximized over rank-1
      projective measurements along the Bloch axis (theta, phi) by a coarse
      grid scan followed by Nelder-Mead refinement (tolerance 1e-7 on J).
    """
    return _measure(state, "QD")


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
    return _measure(state, "Entropy")


def trace_norm(m: np.ndarray) -> np.ndarray:
    """||M||_1 = sum |eig M| of each Hermitian matrix in a stack (..., d, d)."""
    return np.sum(np.abs(np.linalg.eigvalsh(m)), axis=-1)


def _one_shot_series(cfg: WalkConfig, noise: NoiseModel, tags: tuple, td_pair: tuple) -> dict:
    """Every requested one-shot witness from one noiseless walk (see the module docstring).

    The walk carries the walker of ``cfg`` when a single-walker tag is
    asked, then the two ``td_pair`` walkers when TD is. The kernel range
    raises before the walk, k is clipped to [-1, 1] as ``kraus_at`` clips
    it, and the edge guard raises where the first walker reaches an edge.
    """
    k = np.clip(kernel_value(noise, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
    single = bool(set(tags) - {"TD"})
    coins = [_coin_vector(cfg.delta, cfg.eta)] if single else []
    if "TD" in tags:
        coins += [_coin_vector(*td_pair[:2]), _coin_vector(*td_pair[2:])]
    positions = lattice_positions(cfg).astype(float)
    blocks, frames, variance = [], {}, []
    for t, amps in enumerate(_noiseless_steps(cfg, np.stack(coins))):
        step = np.einsum("wcx,wdx->wcd", amps, amps.conj())
        blocks.append(step)
        if "MID" in tags and _near_degenerate(step[0]):
            frames[t] = _position_frame(amps[0])
        if "Variance" in tags:
            probs = position_distribution(amps[0, :, :, None])
            variance.append(distribution_variance(probs, positions))
    blocks = np.stack(blocks)

    values = {"Variance": np.asarray(variance)}
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
    walker state. In one-shot mode one noiseless walk feeds every tag; in
    stepwise mode TD runs its own light-cone walk before the single
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
