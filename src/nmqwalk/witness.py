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
  dephasing pair K = (sqrt((1+k)/2) I, sqrt((1-k)/2) sigma_3), so S(rho) is
  the entropy of the 2 x 2 matrix
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
:func:`_mid`) lives on the light cone, so where the blocks find such steps
a second walk, up to the last of them, forms the walker and its frame F.

Stepwise, one light-cone walk (:func:`nmqwalk.walk._light_cone_blocks`)
of a stack of start blocks feeds every tag: the walker's rho_0 when a
single-walker tag is asked, and the difference rho_1 - rho_2 of the
``td_pair`` walkers when TD is, whose coin block is the difference of the
TD walkers' coin states. A stepwise state is measured as the dense
(2m, 2m) light-cone block the walk yields, m = t + 1, through a per-state
cache that every witness shares, every eigenvalue of it, negative ones
included. Its marginals, the Pauli
parts of its discord and MID's outcome table all read one coin-block view
r[c, :, d, :] of it. MI, MID and QD read its full spectrum and raise
:class:`~nmqwalk.exceptions.NonPhysicalStateError` on an eigenvalue below
-POSITIVITY_TOL, and the Variance on a population below it. A CP step
keeps a state physical, so Entropy and TD check only from the first step
whose ratio is not CP on: Entropy through the walker's spectrum, and TD
through those of its two walkers, walked as two more blocks of the stack
in such runs alone. Its discord is a grid scan plus a compass search over
projective coin measurements (see :func:`_min_conditional_entropy`).
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .divisibility import is_cp
from .exceptions import NonPhysicalStateError
from .noise import NoiseModel, kernel_value
from .qops import (
    DEGENERACY_TOL,
    EIGENVALUE_CUTOFF,
    entropy_of_spectrum,
    partial_trace,
)
from .walk import (
    POSITIVITY_TOL,
    EvolutionMode,
    WalkConfig,
    _basis_walks,
    _coin_vector,
    _cone_populations,
    _cone_positions,
    _light_cone_blocks,
    _step_ratios,
    density_from_amplitudes,
    population_variance,
)

WITNESS_TAGS = ("TD", "MI", "MID", "QD", "Entropy", "Variance")

#: default pair of initial coin states for the trace-distance witness,
#: (delta1, eta1, delta2, eta2) in radians: the orthogonal pair psi(+-pi/4, 0)
DEFAULT_TD_PAIR = (math.pi / 4, 0.0, -math.pi / 4, 0.0)

_PROJECTION_TOL = 1e-8

#: the 481 distinct measurements of the 32 x 32 grid theta = i pi / 31, phi = 2 pi j / 32:
#: (theta, phi) and (pi - theta, phi + pi) are one measurement, and the rows
#: theta = 0 and pi one axis, so +z and the rows i = 1..15 hold each of them once
_DISCORD_AXES = np.array(
    [(0.0, 0.0)]
    + [
        (theta, phi)
        for theta in np.linspace(0.0, math.pi, 32)[1:16]
        for phi in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    ]
)
#: coin axes per batch of conditional spectra in the dense discord search
_AXIS_BLOCK = 64
#: the compass search's 8 neighbours, its first spacing and the spacing it stops below, in radians
_COMPASS = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)
_COMPASS_STEP = math.pi / 32
_COMPASS_STOP = 1e-7


class _State:
    """One dense coin (x) position density matrix of shape (2m, 2m), measured as given.

    Each quantity is computed on first use and kept for every witness that
    shares it. A stepwise state after t steps is its light-cone block of
    m = t + 1 sites (see :func:`nmqwalk.walk._light_cone_blocks`); it is
    kept as it came, with no copy, and no quantity writes to it.
    Every reduced quantity reads the one coin-block view ``r[c, :, d, :]``
    of shape (2, m, 2, m). ``t``, the step of a stepwise state, is named in
    the error a non-physical state raises (see :attr:`spectrum`).
    """

    def __init__(self, rho: np.ndarray, t: int | None = None):
        m = rho.shape[0] // 2
        self.rho = rho
        self.r = rho.reshape(2, m, 2, m)
        self.t = t

    @cached_property
    def coin(self) -> np.ndarray:
        return partial_trace(self.r, "coin")

    @cached_property
    def position(self) -> np.ndarray:
        return partial_trace(self.r, "position")

    @cached_property
    def pauli_parts(self) -> np.ndarray:
        """P_k = Tr_c[(sigma_k (x) I) rho], sigma_0 = I, stacked (4, m, m); P_0 is rho_p.

        The coin outcome +-n leaves the position state
        Tr_c[(|+-n><+-n| (x) I) rho] = (P_0 +- n.(P_1, P_2, P_3)) / 2.
        """
        r = self.r
        up, down = r[0, :, 1], r[1, :, 0]
        return np.stack([self.position, up + down, 1j * (up - down), r[0, :, 0] - r[1, :, 1]])

    @cached_property
    def coin_entropy(self) -> float:
        return entropy_of_spectrum(np.linalg.eigvalsh(self.coin))

    @cached_property
    def position_entropy(self) -> float:
        return entropy_of_spectrum(np.linalg.eigvalsh(self.position))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of rho, ascending, which must not reach below -POSITIVITY_TOL."""
        w = np.linalg.eigvalsh(self.rho)
        if w.size and w[0] < -POSITIVITY_TOL:
            at = "" if self.t is None else f" at t={self.t}"
            raise NonPhysicalStateError(f"state{at} has eigenvalue {w[0]:.6g} below -{POSITIVITY_TOL:g}")
        return w

    @cached_property
    def joint_entropy(self) -> float:
        return entropy_of_spectrum(self.spectrum)

    @cached_property
    def mutual_information(self) -> float:
        return self.coin_entropy + self.position_entropy - self.joint_entropy

    @cached_property
    def discord(self) -> float:
        """Quantum discord D = I(rho) - max J in bits, with the coin measured.

        J = S(rho_p) - sum_i p_i S(rho_p | outcome i) is maximized over
        rank-1 projective measurements along the Bloch axis (theta, phi)
        (see :func:`_min_conditional_entropy`). The mutual information is
        read first, so a non-physical state raises before the search.
        """
        return self.mutual_information - (
            self.position_entropy - _min_conditional_entropy(self.pauli_parts)
        )


def _degenerate_rows(blocks: np.ndarray) -> np.ndarray:
    """The rows of a stack (m, 2, 2) of Hermitian blocks whose eigenvalue gap is below 2 DEGENERACY_TOL.

    The gap of a block C is sqrt((C_00 - C_11)^2 + 4 |C_01|^2). The margin
    of 2 keeps the rows a superset of those :func:`_canonicalize` acts on.
    """
    diff = (blocks[:, 0, 0] - blocks[:, 1, 1]).real
    gap2 = diff * diff + 4.0 * np.abs(blocks[:, 0, 1]) ** 2
    return np.flatnonzero(gap2 < (2.0 * DEGENERACY_TOL) ** 2)


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
    # K[m, c, r], the diagonals of the dephasing pair sqrt((1+k)/2) I, sqrt((1-k)/2) sigma_3
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

    Pi dephases the state in the product of the marginal eigenbases v_a
    (coin) and u_p (position); its mutual information is that of the
    outcome table P(a, p) = <u_p| B_a |u_p>, one m x m product per coin
    outcome a, of B_a = sum_cd conj(v_ca) v_da r[c, :, d, :], the position
    block that outcome leaves. Where a marginal has a degenerate eigenvalue
    inside its support (at or above EIGENVALUE_CUTOFF), its eigenbasis is
    not unique, and the canonical rule of :func:`_canonicalize` makes the
    value deterministic. Other conventions may give another value there.
    """
    v = _canonical_eigenbasis(state.coin)
    u = _canonical_eigenbasis(state.position)
    blocks = np.einsum("ca,da,cjdk->ajk", v.conj(), v, state.r)
    table = np.clip(np.real(np.sum(u.conj() * (blocks @ u), axis=1)), 0.0, None)
    return state.mutual_information - _classical_mi(table)


def _conditional_entropies(parts: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """sum_i p_i S(rho_p|i) for each coin measurement axis (theta, phi) in axes (n, 2).

    The outcome +-n leaves the position state sum_k c_k P_k of the
    :attr:`_State.pauli_parts` P_k, with c = (1, +-n) / 2. Every positive
    conditional eigenvalue counts in the entropy: dropping a small one would
    lower it, raise J above its maximum and let discord read below zero.
    """
    theta, phi = axes[:, 0], axes[:, 1]
    sin = np.sin(theta)
    c = 0.5 * np.stack([np.ones_like(theta), sin * np.cos(phi), sin * np.sin(phi), np.cos(theta)], 1)
    # (2n, 4): outcome +n of every axis, then outcome -n. The real
    # coefficients act on the float view of the parts, one real product
    coef = np.concatenate([c, c * [1.0, -1.0, -1.0, -1.0]])
    w = np.linalg.eigvalsh(np.tensordot(coef, parts.view(float), axes=1).view(complex))
    p = np.sum(w, axis=1)
    w = np.clip(w, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log2(w), 0.0)
        s = np.where(p > EIGENVALUE_CUTOFF, -np.sum(terms, axis=1) + p * np.log2(p), 0.0)
    return s[: len(axes)] + s[len(axes) :]


def _min_conditional_entropy(parts: np.ndarray) -> float:
    """min over coin axes of sum_i p_i S(rho_p|i): a grid scan, then a compass search.

    The scan takes the 481 distinct axes in batches of _AXIS_BLOCK, so it
    holds 2 _AXIS_BLOCK position blocks at once. From the best one, the
    compass search evaluates the 8 neighbours at spacing h (theta and phi
    each +-h or kept) in one batch and moves to the lowest if it is lower,
    else halves h, from _COMPASS_STEP to below _COMPASS_STOP. After a move,
    the neighbours the old 3 x 3 stencil held are no lower than the new
    centre, so only the new ones are evaluated.
    """
    cond = np.concatenate(
        [
            _conditional_entropies(parts, _DISCORD_AXES[i : i + _AXIS_BLOCK])
            for i in range(0, len(_DISCORD_AXES), _AXIS_BLOCK)
        ]
    )
    best = int(np.argmin(cond))
    axis, value = _DISCORD_AXES[best], cond[best]
    step, offsets = _COMPASS_STEP, _COMPASS
    while step >= _COMPASS_STOP:
        trial = axis + step * offsets
        values = _conditional_entropies(parts, trial)
        best = int(np.argmin(values))
        if values[best] < value:
            axis, value = trial[best], values[best]
            offsets = _COMPASS[np.abs(offsets[best] + _COMPASS).max(axis=1) > 1]
        else:
            step, offsets = step / 2.0, _COMPASS
    return float(value)


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

    Returns the (T + 1, walkers, 2, 2) blocks and the position variance of
    the first walker when ``tags`` asks for it (else None). For the
    variance A also carries the rows A diag(x), x the light-cone positions;
    the first walker's coin-diagonal sums of A diag(x) A^T and
    A diag(x^2) A^T are its <x> and <x^2>.
    """
    weights = np.einsum("wi,wj->wij", coins, coins.conj())  # v_w v_w^dag
    groups = 2 if "Variance" in tags else 1
    grams = []
    for t, a in _basis_walks(cfg):
        rows = np.concatenate((a, a * _cone_positions(t))) if groups == 2 else a
        rows = rows.reshape(-1, a.shape[-1])
        grams.append(np.dot(rows, rows.T))
    grams = np.stack(grams).reshape(-1, groups, 2, 2, groups, 2, 2)
    blocks = np.einsum("wij,tcidj->twcd", weights, grams[:, 0, :, :, 0])
    variance = None
    if groups == 2:
        mean, square = (
            np.einsum("ij,tcicj->t", weights[0], grams[:, 1, :, :, g]).real for g in (0, 1)
        )
        variance = square - mean * mean
    return blocks, variance


def _position_frames(cfg: WalkConfig, coin: np.ndarray, blocks: np.ndarray) -> dict:
    """The :func:`_position_frame` of each step whose coin block may be degenerate.

    ``blocks`` (T + 1, 2, 2) are the coin blocks of the walker started from
    the coin state ``coin``. Only if such a step exists is the basis pair
    walked again, up to the last of them, to form the walker there.
    """
    steps = _degenerate_rows(blocks)
    if not steps.size:
        return {}
    walks = itertools.islice(_basis_walks(cfg), steps[-1] + 1)
    return {t: _position_frame(np.einsum("i,cix->cx", coin, a)) for t, a in walks if t in steps}


def _one_shot_series(cfg: WalkConfig, noise: NoiseModel, tags: tuple, td_pair: tuple) -> dict:
    """Every requested one-shot witness from one basis walk (see the module docstring).

    The walkers are the one of ``cfg`` when a single-walker tag is asked,
    then the two ``td_pair`` walkers when TD is. The closed forms run only
    when an entropic tag is asked: Variance reads the walk alone. The
    kernel range raises before the walk, and k is clipped to [-1, 1], inside
    which the dephasing pair is real.
    """
    k = np.clip(kernel_value(noise, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
    single = bool(set(tags) - {"TD"})
    entropic = bool(set(tags) - {"TD", "Variance"})
    coins = [_coin_vector(cfg.delta, cfg.eta)] if single else []
    if "TD" in tags:
        coins += [_coin_vector(*td_pair[:2]), _coin_vector(*td_pair[2:])]
    blocks, variance = _one_shot_blocks(cfg, np.stack(coins), tags)

    values = {"Variance": variance}
    if "TD" in tags:
        delta = blocks[:, -2] - blocks[:, -1]
        delta[:, 0, 1] *= k
        delta[:, 1, 0] *= k
        values["TD"] = 0.5 * trace_norm(delta)
    if entropic:
        frames = _position_frames(cfg, coins[0], blocks[:, 0]) if "MID" in tags else {}
        values.update(_one_shot_witnesses(blocks[:, 0], k, frames, tags))
    return {tag: values[tag] for tag in tags}


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
    tag; in stepwise mode one light-cone walk of a stack of start blocks
    does, and each of the single walker's states is measured through one
    per-state cache.
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
    td_blocks = []
    ratios = _step_ratios(cfg, noise)
    # a CP step keeps a state physical, so only the states from the first
    # step whose ratio is not CP on need a check (RTN(0.05, 0.008): t = 18)
    not_cp = ~is_cp(ratios)
    checked_from = int(np.argmax(not_cp)) + 1 if not_cp.any() else cfg.steps + 1
    single = [tag for tag in tags if tag != "TD"]
    starts = [density_from_amplitudes(_coin_vector(cfg.delta, cfg.eta))] if single else []
    if "TD" in tags:
        # the walk is linear, so it carries rho1(0) - rho2(0) to rho1(t) - rho2(t)
        rho1, rho2 = (density_from_amplitudes(_coin_vector(*a)) for a in (pair[:2], pair[2:]))
        td = len(starts)
        starts.append(rho1 - rho2)
        if checked_from <= cfg.steps:
            # the difference has no spectrum to check, so both walkers ride along
            starts += [rho1, rho2]
    # each block is read, never written, so the walk's own stack serves
    for t, blocks in _light_cone_blocks(cfg, ratios, np.stack(starts)):
        checked = t >= checked_from
        if "TD" in tags:
            td_blocks.append(partial_trace(blocks[td].reshape(2, t + 1, 2, t + 1), "coin"))
            if checked:
                for walker in blocks[td + 1 :]:
                    _State(walker, t).spectrum  # raises on a non-physical walker
        if single:
            state = _State(blocks[0], t)
            if checked and "Entropy" in tags:
                state.spectrum  # raises on a non-physical walker, as MI, MID and QD do
            for tag in single:
                if tag == "Variance":
                    values[tag].append(population_variance(t, _cone_populations(blocks[0])))
                else:
                    values[tag].append(_DENSE_WITNESSES[tag](state))
    if "TD" in tags:
        values["TD"] = 0.5 * trace_norm(np.stack(td_blocks))
    return {tag: np.asarray(v) for tag, v in values.items()}
