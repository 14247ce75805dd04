"""Oracles and helpers shared by the test modules.

The library walks on the line from the origin and holds only the light
cone -t, -t + 2, ..., t. The oracles below walk a finite lattice
instead: the positions -h .. h, with h = T + 1 (``lattice_half_width``),
so the walker's reach keeps at least one empty site from either end and ``np.roll`` never wraps it. Position x sits at
lattice index x + h. Every oracle walk yields (t, state, x), ``x`` the
integer positions the state's rows cover, so the light cone for the
library's walks and -h .. h for the full-lattice oracles.

One-shot mode walks the basis pair: ``walk._basis_walks`` streams the two
real noiseless walks psi_0 and psi_1 from coin |0> and |1> on the light
cone, and every walker is v_0 psi_0 + v_1 psi_1. ``evolve_noiseless`` below
is its oracle: one walker, the whole (T + 1, 2, n) history on the lattice
of n = 2h + 1 sites, with ``np.roll`` as the shift, the way the library
walked before the stream. Started from the exact |0> or |1>
(``basis_start``), it is bit for bit a basis walk; a walker's own walk
rounds apart from the sum of the basis walks by an ulp or so.

``witness_series`` computes every one-shot witness from the walkers' 2 x 2
coin blocks, read from the Gram matrix of the basis pair, and the kernel
values, and ``walk.populations`` reads the one-shot position populations
from the noiseless walker alone. Two generators below form each one-shot
state from the roll oracle's amplitudes and the kernel: ``dense_one_shot``
as the (2n)^2 density matrix, and ``one_shot_factors`` as the
rank-2 Kraus factor of the ``kraus_at`` pair, the form the library yielded
before it read the witnesses and the populations without any state.
``koashi_winter_discord`` is the oracle of the one-shot discord
S(rho_c) - S(rho): the Koashi-Winter relation with Wootters' concurrence
of rho_pE, computed on the factor as the library did before the closed
form. ``one_shot_witnesses`` measures any stack of one-shot states
D_k(|psi><psi|) through the closed forms the series runs, from psi and k
themselves.

``walk._light_cone_blocks`` evolves only the light-cone blocks of a
stack of walkers and yields the stack it keeps for the next step.
``evolve_stepwise`` below walks a stack of one, cfg's walker, and yields a
copy of each block with its light-cone positions, so a test may keep or
overwrite it; ``full_lattice_stepwise`` is the oracle of both: every step
applies W rho W^dag to the whole (2n)^2 matrix, with ``np.roll`` as the
shift, then the intermediate dephasing map. ``embed`` puts a block back
on the whole lattice to compare the two.

``witness._State`` measures the matrix it is given, every site of it.
``support_state`` hands it the support block of a whole-lattice matrix
instead, the sites whose rows are not all zero, so that the oracles'
states, of 2T + 3 sites with at most t + 1 of them occupied, cost what
the light-cone blocks cost and measure to the same values.

The intermediate dephasing map E(t2, t1) may be non-CP. The walk applies
it by scaling the coin coherences of each new light-cone block as it forms
it. ``dephase_density`` below is that scaling on a whole coin (x) position
matrix, the oracle the full-lattice loop applies after each step; the
signed Kraus pair below is its operator-sum-difference form, the oracle of
that scaling and of the composition E(t2, t1) E(t1, 0) = E(t2, 0).

``witness_series`` takes the trace distance (TD) of two walkers without
forming either walker's states. ``two_walker_trace_distances`` below is its
oracle: it evolves each walker on its own and compares their reduced coin
states through the general ``trace_distance``. The density-matrix check and
the von Neumann entropy are the oracles of the library's spectra, and
``partial_trace``, an ``einsum`` over the (2, m, 2, m) reshape of the whole
matrix, that of the marginals the library reads from its coin-block view.
``kron_mid`` is the oracle of MID: the outcome table of the product basis
of both marginals, formed as a (2m)^2 Kronecker basis and read from the
whole matrix, where the library reads one m x m block per coin outcome.

The discord of a dense state minimizes the conditional position entropy
over coin measurements, from the (t + 1)^2 position blocks of each outcome
read directly from rho. ``gram_min_conditional_entropy`` below is its
oracle, the search the library ran before: the r x r Gram blocks of the
factor of rho (r = rank rho), every axis of the 32 x 32 (theta, phi) grid,
and scipy's Nelder-Mead from the best one.

``coin_block_limit`` is the long-time oracle of the noiseless coin block
C(t) = int dk/2pi U(k)^t rho_c0 U(k)^-t of the walk in momentum space:
the cross terms between the two eigenvectors of U(k) oscillate away as
t^(-1/2), which leaves their diagonal part.

``persistent_walk`` is the oracle of the classical end of stepwise mode:
at step ratio r = 0 every coin coherence dies after each step, so the
state stays diagonal, a classical persistent random walk whose coin flips
with probability |C_ab|^2. Its MI, Entropy and Variance are those of the
joint distribution p_t(c, x).

``spectral.fit_mfbf`` fits a*exp(-b*t) + c by variable projection, a
global search over b. ``curve_fit_exponential`` below is its oracle: scipy's
bounded nonlinear least squares, a local search from a log-linear start.
The exact fit must reach at least as low an ``sse``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import curve_fit, minimize

from nmqwalk.divisibility import kernel_ratio
from nmqwalk.exceptions import NonPhysicalStateError
from nmqwalk.noise import OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.qops import EIGENVALUE_CUTOFF
from nmqwalk.spectral import TimeSeries
from nmqwalk.walk import (
    _coin_vector,
    _cone_positions,
    _light_cone_blocks,
    _step_ratios,
    coin_operator,
    density_from_amplitudes,
)
from nmqwalk.witness import (
    DEFAULT_TD_PAIR,
    _canonical_eigenbasis,
    _classical_mi,
    _degenerate_rows,
    _one_shot_witnesses,
    _position_frame,
    _State,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10

SIGMA_3 = np.diag([1.0 + 0.0j, -1.0 + 0.0j])
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])

_RATES = st.floats(min_value=1e-3, max_value=2.0)
#: noise models for walk properties: no noise, OUN, PLN and RTN on either
#: side of its critical point 2a/gamma = 1
SIDED_NOISES = st.one_of(
    st.none(),
    st.builds(OunParams, Gamma=_RATES, gamma=_RATES),
    st.builds(PlnParams, Gamma=_RATES, gamma=_RATES),
    _RATES.flatmap(
        lambda g: st.builds(RtnParams, a=st.floats(0.0, 0.45 * g), gamma=st.just(g))
    ),
    _RATES.flatmap(
        lambda g: st.builds(RtnParams, a=st.floats(0.55 * g, 2.0), gamma=st.just(g))
    ),
)

#: the kernels that fall monotonically from 1, so that every step ratio lies
#: in [0, 1]: OUN, PLN and overdamped RTN
MONOTONE_KERNELS = st.one_of(
    st.builds(OunParams, Gamma=_RATES, gamma=_RATES),
    st.builds(PlnParams, Gamma=_RATES, gamma=_RATES),
    _RATES.flatmap(
        lambda g: st.builds(RtnParams, a=st.floats(0.0, 0.45 * g), gamma=st.just(g))
    ),
)


def lattice_half_width(cfg):
    """h of the oracles' lattice -h .. h: the walker's reach T plus one."""
    return cfg.steps + 1


def lattice_size(cfg):
    """The number of sites 2h + 1 of the oracles' lattice."""
    return 2 * lattice_half_width(cfg) + 1


def lattice_positions(cfg):
    """The positions -h .. h of the oracles' lattice, in lattice-index order."""
    h = lattice_half_width(cfg)
    return np.arange(-h, h + 1)


def initial_state(cfg):
    """Amplitude array (2, n) of the initial state at the origin of the oracles' lattice."""
    amps = np.zeros((2, lattice_size(cfg)), dtype=complex)
    origin = lattice_half_width(cfg)
    amps[0, origin] = math.cos(cfg.delta)
    amps[1, origin] = np.exp(-1j * cfg.eta) * math.sin(cfg.delta)
    return amps


def step_amplitudes(amps, coin):
    """One walk step W on an amplitude array: coin rotation, then np.roll shift."""
    rotated = coin @ amps
    out = np.empty_like(rotated)
    for c, d in enumerate((-1, +1)):
        out[c] = np.roll(rotated[c], d)
    return out


def basis_start(cfg, i):
    """The exact amplitude array (2, n) of the coin basis state |i> at the origin."""
    amps = np.zeros((2, lattice_size(cfg)), dtype=complex)
    amps[i, lattice_half_width(cfg)] = 1.0
    return amps


def evolve_noiseless(cfg, start=None):
    """All noiseless amplitude arrays of one walker, shape (steps + 1, 2, n).

    The walker starts from the amplitude array ``start``, by default cfg's
    initial state.
    """
    coin = coin_operator(cfg.coin_angle)
    out = np.empty((cfg.steps + 1, 2, lattice_size(cfg)), dtype=complex)
    out[0] = initial_state(cfg) if start is None else start
    for t in range(1, cfg.steps + 1):
        out[t] = step_amplitudes(out[t - 1], coin)
    return out


def kraus_at(noise, t):
    """Kraus pair of the one-shot dephasing map from 0 to t on the coin qubit.

    K1 = sqrt((1+k)/2) I and K2 = sqrt((1-k)/2) sigma_3 where k is the
    kernel value at t, so no noise (None, k = 1) gives the pair (I, 0).
    Shape (*t.shape, 2, 2, 2), the Kraus index first of the last three axes.
    ``kernel_value`` checks the range, so an out-of-range k raises
    KernelRangeError, and k is clipped to [-1, 1] against its rounding slack.
    """
    k = np.clip(kernel_value(noise, t), -1.0, 1.0)[..., None, None]
    pair = [np.sqrt((1.0 + k) / 2.0) * np.eye(2), np.sqrt((1.0 - k) / 2.0) * SIGMA_3]
    return np.stack(pair, axis=-3)


def dephase_density(rho, k, n_positions):
    """Multiply the coin-coherence blocks of a coin (x) position state by k."""
    out = rho.copy()
    out[:n_positions, n_positions:] *= k
    out[n_positions:, :n_positions] *= k
    return out


def dense_one_shot(cfg, noise, kernel=None):
    """Yield (t, rho_t) with the full dephasing channel applied at each t.

    The kernel value at step t is ``kernel[t]`` when a sequence is given,
    else that of ``noise``.
    """
    for t, amps in enumerate(evolve_noiseless(cfg)):
        rho = density_from_amplitudes(amps)
        k = float(kernel_value(noise, float(t))) if kernel is None else kernel[t]
        yield t, dephase_density(rho, k, lattice_size(cfg))


def one_shot_factors(cfg, noise):
    """Yield (t, b_t, x) with the full dephasing channel applied at each t.

    ``b_t`` has shape (2, n, 2) (coin, position, Kraus index): the columns
    b_r = (K_r (x) I) psi(t) for the ``kraus_at`` pair and the roll
    oracle's psi(t), so rho_t = sum_r b_r b_r^dag. The factor covers the
    whole lattice, so ``x`` is ``lattice_positions(cfg)``. The kernel range
    raises before the first yield.
    """
    kraus = kraus_at(noise, np.arange(cfg.steps + 1.0))
    x = lattice_positions(cfg)
    for t, psi in enumerate(evolve_noiseless(cfg)):
        yield t, np.einsum("rcd,dj->cjr", kraus[t], psi), x


def dense_populations(rho):
    """Position populations of a coin (x) position matrix: its diagonal's coin halves summed."""
    return rho.diagonal().real.reshape(2, -1).sum(axis=0)


def evolve_stepwise(cfg, noise):
    """Yield (t, rho_t, x) of cfg's stepwise walker, each block a copy on its light cone x."""
    start = density_from_amplitudes(_coin_vector(cfg.delta, cfg.eta))
    for t, rho in _light_cone_blocks(cfg, _step_ratios(cfg, noise), start[None]):
        yield t, rho[0].copy(), _cone_positions(t)


def full_lattice_stepwise(cfg, noise, start=None):
    """Yield (t, rho_t, x) of the stepwise walk, evolved on the whole lattice.

    ``rho_t`` is the whole (2n, 2n) matrix, so ``x`` is ``lattice_positions(cfg)``.
    The walk starts from the 2 x 2 coin block ``start`` at the origin, by default
    the density matrix of cfg's initial coin state; the block may be any
    complex matrix, such as the difference rho1 - rho2 of two walkers.
    """
    n = lattice_size(cfg)
    x = lattice_positions(cfg)
    coin = coin_operator(cfg.coin_angle)
    ratios = kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))
    if start is None:
        rho = density_from_amplitudes(initial_state(cfg))
    else:
        origin = lattice_half_width(cfg)
        rho = np.zeros((2, n, 2, n), dtype=complex)
        rho[:, origin, :, origin] = start
        rho = rho.reshape(2 * n, 2 * n)
    yield 0, rho.copy(), x
    for t, ratio in enumerate(ratios, start=1):
        r = np.einsum("ab,bjck,dc->ajdk", coin, rho.reshape(2, n, 2, n), coin.conj())
        out = np.empty_like(r)
        for a, da in enumerate((-1, +1)):
            for d, dd in enumerate((-1, +1)):
                out[a, :, d, :] = np.roll(np.roll(r[a, :, d, :], da, axis=0), dd, axis=1)
        rho = dephase_density(out.reshape(2 * n, 2 * n), ratio, n)
        yield t, rho.copy(), x


def embed(block, x, cfg):
    """The (2n)^2 matrix on cfg's oracle lattice that is ``block`` on coin (x) positions ``x``.

    Position x sits at lattice index x + h; the matrix is zero elsewhere.
    """
    n = lattice_size(cfg)
    sites = np.asarray(x) + lattice_half_width(cfg)
    rows = np.concatenate([sites, sites + n])
    out = np.zeros((2 * n, 2 * n), dtype=block.dtype)
    out[np.ix_(rows, rows)] = block
    return out


def support_state(rho):
    """``witness._State`` of the block of a coin (x) position matrix on its support.

    The support is the sites where the row of either coin is not identically
    zero. In a Hermitian matrix a zero row is also a zero column, so the
    dropped block adds zero eigenvalues and zero-probability outcomes only,
    and every other eigenvalue, a negative one included, is kept.
    """
    n = rho.shape[0] // 2
    sites = np.flatnonzero(rho.any(axis=1).reshape(2, n).any(axis=0))
    rows = np.concatenate([sites, sites + n])
    return _State(rho[np.ix_(rows, rows)])


def density_from_factor(factor):
    """sum_r b_r b_r^dag of a one-shot Kraus factor of shape (2, n, 2)."""
    b = np.asarray(factor).reshape(-1, factor.shape[-1])
    return b @ b.conj().T


def one_shot_witnesses(psi, k, tags=("MI", "MID", "QD", "Entropy")):
    """Entropy, MI, QD and MID of D_k(|psi><psi|) for each amplitude array
    psi (m, 2, n) and kernel value k (m,), one row each.

    The blocks are psi psi^dag, and each near-degenerate block gets the
    canonical position frame of its psi, as the series gives it.
    """
    psi = np.asarray(psi, dtype=complex)
    blocks = np.einsum("mcx,mdx->mcd", psi, psi.conj())
    frames = {row: _position_frame(psi[row]) for row in _degenerate_rows(blocks)}
    return _one_shot_witnesses(blocks, np.asarray(k, dtype=float), frames, tags)


def rho_pe_concurrence(factor):
    """Wootters' concurrence of rho_pE for a one-shot Kraus factor (2, n, 2).

    The factor purifies rho with the Kraus index as the environment E.
    Compressed onto an orthonormal basis u of supp(rho_p), which has at most
    two vectors, phi[c, p, r] = sum_j conj(u[j, p]) factor[c, j, r] is a pure
    state of the coin, a position qubit and E. Read as the 2 x 4 matrix F
    (coin by pE), the concurrence of rho_pE is the difference of the
    singular values of the symmetric 2 x 2 matrix F (sigma_y (x) sigma_y) F^T
    (Wootters, PRL 80, 2245, 1998).
    """
    n = factor.shape[1]
    w, u = np.linalg.eigh(partial_trace(density_from_factor(factor), (2, n), "position"))
    basis = u[:, w > EIGENVALUE_CUTOFF]
    assert basis.shape[1] <= 2
    phi = np.zeros((2, 2, 2), dtype=complex)
    phi[:, : basis.shape[1]] = np.einsum("jp,cjr->cpr", basis.conj(), factor)
    f = phi.reshape(2, 4)
    s = np.linalg.svd(f @ np.kron(SIGMA_Y, SIGMA_Y) @ f.T, compute_uv=False)
    return float(s[0] - s[1])


def koashi_winter_discord(factor):
    """D = S(rho_c) - S(rho) + E_F(rho_pE) of a one-shot Kraus factor (2, n, 2).

    Koashi-Winter (PRA 69, 022309, 2004) with the Kraus index as the
    purifying environment; E_F from Wootters' concurrence.
    """
    c = min(max(rho_pe_concurrence(factor), 0.0), 1.0)
    # the smaller eigenvalue (1 - sqrt(1 - C^2)) / 2, without cancellation
    p = c * c / (2.0 * (1.0 + math.sqrt(1.0 - c * c)))
    e_f = -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)
    return (
        von_neumann_entropy(reduced_coin(factor))
        - von_neumann_entropy(density_from_factor(factor))
        + e_f
    )


def gram_blocks(rho):
    """G[c, d] = A_c^dag A_d (2, 2, r, r) for the factor A of a dense coin (x) position state.

    A holds the eigenvectors of rho scaled by the square roots of their
    eigenvalues above EIGENVALUE_CUTOFF, A_c its coin-c rows. The position
    state the coin outcome |m> leaves has the nonzero spectrum of
    sum_cd m_c conj(m_d) G[c, d], an r x r matrix.
    """
    w, v = np.linalg.eigh(rho)
    keep = w > EIGENVALUE_CUTOFF
    factor = (v[:, keep] * np.sqrt(w[keep])).reshape(2, rho.shape[0] // 2, -1)
    return np.einsum("cjr,djs->cdrs", factor.conj(), factor)


def gram_conditional_entropies(gram, axes):
    """sum_i p_i S(rho_p|i) from the Gram blocks for each Bloch axis (theta, phi) in axes (n, 2)."""
    theta, phi = axes[:, 0], axes[:, 1]
    m0 = np.stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], axis=1)
    m1 = np.stack([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)], axis=1)
    m = np.concatenate([m0, m1])
    w = np.linalg.eigvalsh(np.einsum("nc,nd,cdrs->nrs", m, m.conj(), gram))
    p = np.sum(w, axis=1)
    w = np.clip(w, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log2(w), 0.0)
        s = np.where(p > EIGENVALUE_CUTOFF, -np.sum(terms, axis=1) + p * np.log2(p), 0.0)
    return s[: len(axes)] + s[len(axes) :]


def gram_min_conditional_entropy(rho):
    """min over coin axes of sum_i p_i S(rho_p|i) of a dense state, by the Gram route.

    Every axis of the 32 x 32 grid theta = i pi / 31, phi = 2 pi j / 32, in
    batches of 64, then Nelder-Mead from the best one (fatol 1e-7, xatol 1e-6).
    """
    gram = gram_blocks(rho)
    thetas = np.linspace(0.0, math.pi, 32)
    phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    axes = np.stack(np.meshgrid(thetas, phis, indexing="ij"), axis=-1).reshape(-1, 2)
    cond = np.concatenate(
        [gram_conditional_entropies(gram, axes[i : i + 64]) for i in range(0, len(axes), 64)]
    )
    best = int(np.argmin(cond))
    res = minimize(
        lambda x: float(gram_conditional_entropies(gram, np.asarray([x]))[0]),
        axes[best],
        method="Nelder-Mead",
        options={"fatol": 1e-7, "xatol": 1e-6},
    )
    return min(float(cond[best]), float(res.fun))


def random_qubit_states(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


def apply_kraus(rho, ks):
    return sum(k @ rho @ k.conj().T for k in ks)


@dataclass(frozen=True)
class SignedKrausSet:
    """Operators with signs realizing sum_j sign_j K_j rho K_j^dag.

    Satisfies the generalized completeness sum_j sign_j K_j^dag K_j = I;
    all-plus signs recover the usual operator-sum (CP) form.
    """

    operators: tuple[np.ndarray, ...]
    signs: tuple[int, ...]


def intermediate_kraus(r: float) -> SignedKrausSet:
    """Signed Kraus pair of the intermediate map, K+- = sqrt(|1 +- r|/2) diag(1, +-1).

    The sign -1 is attached to whichever operator folds a negative Choi
    eigenvalue (K- when r > 1, K+ when r < -1); this is the unique
    assignment under which sum_j sign_j K_j^dag K_j = I.
    """
    k_plus = np.sqrt(abs(1.0 + r) / 2.0) * np.eye(2, dtype=complex)
    k_minus = np.sqrt(abs(1.0 - r) / 2.0) * SIGMA_3
    sign_plus = -1 if (1.0 + r) < 0 else 1
    sign_minus = -1 if (1.0 - r) < 0 else 1
    return SignedKrausSet(operators=(k_plus, k_minus), signs=(sign_plus, sign_minus))


def apply_signed(rho: np.ndarray, ks: SignedKrausSet) -> np.ndarray:
    """sum_j sign_j K_j rho K_j^dag; trace and Hermiticity preserving.

    The output of a non-CP map need not be positive semidefinite, so no
    density-matrix validation is performed here.
    """
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros_like(rho)
    for op, sign in zip(ks.operators, ks.signs):
        out += sign * (op @ rho @ op.conj().T)
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Entrywise Hermiticity check, max |M - M^dag| <= tol."""
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def check_density_matrix(rho: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, near-PSD.

    Matrices produced by completely positive evolution must satisfy all
    three invariants; intermediate non-CP outputs are deliberately *not*
    routed through this check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"expected dim {dim}, got {rho.shape[0]}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond 1e-12")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has eigenvalue {wmin} < -1e-10")
    return rho


def partial_trace(rho: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Reduced state of one subsystem of a coin (x) position state.

    ``rho`` is a square matrix on a space of dimension ``dims[0] * dims[1]``,
    ``dims`` is (coin dimension, position dimension) and ``keep`` is "coin"
    or "position".
    """
    dc, dp = dims
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dc * dp, dc * dp):
        raise ValueError(f"cannot factor shape {rho.shape} as ({dc}*{dp}, {dc}*{dp})")
    r = rho.reshape(dc, dp, dc, dp)
    if keep == "coin":
        return np.einsum("ajbj->ab", r)
    if keep == "position":
        return np.einsum("ajak->jk", r)
    raise ValueError(f"keep must be 'coin' or 'position', got {keep!r}")


def kron_mid(state):
    """MID of a ``witness._State`` from the Kronecker product of its marginal eigenbases.

    The canonical eigenbases of both marginals, from ``partial_trace`` of
    the state's matrix, form the (2m)^2 product basis, and the outcome
    table is the diagonal of the whole matrix in that basis, coin outcome
    first.
    """
    dims = (2, state.rho.shape[0] // 2)
    u = np.kron(
        _canonical_eigenbasis(partial_trace(state.rho, dims, "coin")),
        _canonical_eigenbasis(partial_trace(state.rho, dims, "position")),
    )
    table = np.clip(np.real(np.sum(u.conj() * (state.rho @ u), axis=0)), 0.0, None)
    return state.mutual_information - _classical_mi(table.reshape(2, -1))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr(rho log2 rho) in bits of a validated state; 0*log(0) := 0."""
    w = np.linalg.eigvalsh(check_density_matrix(rho))
    w = w[w > EIGENVALUE_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"trace_norm needs a square matrix, got {m.shape}")
    if is_hermitian(m, tol=1e-13):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """TD(rho1, rho2) = 1/2 ||rho1 - rho2||_1, in [0, 1] for states."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise ValueError(f"state shapes differ: {rho1.shape} vs {rho2.shape}")
    return 0.5 * trace_norm(rho1 - rho2)


def reduced_coin(state):
    """Tr_x of a one-shot Kraus factor (2, n, 2) or a dense (2m, 2m) state."""
    if state.ndim == 3:
        return np.einsum("cjr,djr->cd", state, state.conj())
    return partial_trace(state, (2, state.shape[0] // 2), "coin")


def two_walker_trace_distances(cfg, noise, evolve, td_pair=DEFAULT_TD_PAIR):
    """TD series of two walkers, each evolved by ``evolve`` on its own.

    The walkers start in the coin states (delta, eta) of ``td_pair`` and
    advance in lockstep, so an error either walk raises ends the series at
    the step where it arises. A dense walker state with an eigenvalue below
    -POSITIVITY_TOL raises NonPhysicalStateError, as the stepwise series does.
    """
    d1, e1, d2, e2 = td_pair
    walks = zip(
        evolve(replace(cfg, delta=d1, eta=e1), noise),
        evolve(replace(cfg, delta=d2, eta=e2), noise),
    )
    distances = []
    for (t, s1, _), (_, s2, _) in walks:
        for state in (s1, s2):
            low = np.linalg.eigvalsh(state)[0] if state.ndim == 2 else 0.0
            if low < -POSITIVITY_TOL:
                raise NonPhysicalStateError(f"state at t={t} has eigenvalue {low:.6g}")
        distances.append(trace_distance(reduced_coin(s1), reduced_coin(s2)))
    return np.array(distances)


def coin_block_limit(theta: float, v: np.ndarray, points: int = 2048) -> np.ndarray:
    """C_inf = int dk/2pi sum_+- P+-(k) rho_c0 P+-(k)^dag, by a midpoint rule over k.

    ``v`` is the initial coin state, rho_c0 = v v^dag, and P+-(k) are the
    eigenprojectors of the walk step U(k) = diag(e^{ik}, e^{-ik}) C(theta)
    (coin 0 moves left). U(k) is unitary and its eigenvalues meet only at
    theta = 0, so elsewhere the integrand is smooth and periodic in k and the
    rule converges exponentially: at theta = 0.1, 2048 and 8192 points agree
    to 1e-15.
    """
    k = 2.0 * np.pi * (np.arange(points) + 0.5) / points
    step = np.exp(1j * np.stack([k, -k], axis=1))[:, :, None] * coin_operator(theta)
    _, vecs = np.linalg.eig(step)
    weights = np.abs(np.einsum("kcj,c->kj", vecs.conj(), v)) ** 2  # |<e_j(k)|v>|^2
    return np.einsum("kj,kcj,kdj->cd", weights, vecs, vecs.conj()) / points


def _shannon(p):
    """-sum p log2 p in bits over the positive entries of p."""
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def persistent_walk(cfg):
    """Entropy, MI and Variance by step of the persistent random walk of cfg's coin and start.

    Step 1 acts on the coherent start: it leaves the coin populations
    |C v|^2, coin 0 at x = -1 and coin 1 at x = +1. After it, coin b
    becomes coin a with probability |C_ab|^2, and coin 0 steps left, coin 1
    right. The start is pure and at the origin, so every tag is 0 at t = 0.
    """
    coin = coin_operator(cfg.coin_angle)
    flip = np.abs(coin) ** 2
    steps = cfg.steps
    x = np.arange(-steps, steps + 1.0)
    p = np.zeros((2, x.size))  # (coin, x + T)
    p[:, steps] = np.abs(coin @ _coin_vector(cfg.delta, cfg.eta)) ** 2
    values = {"Entropy": [0.0], "MI": [0.0], "Variance": [0.0]}
    for t in range(1, steps + 1):
        if t > 1:
            p = flip @ p
        p = np.stack([np.roll(p[0], -1), np.roll(p[1], 1)])
        coin_p, position_p = p.sum(axis=1), p.sum(axis=0)
        values["Entropy"].append(_shannon(coin_p))
        values["MI"].append(_shannon(coin_p) + _shannon(position_p) - _shannon(p.ravel()))
        mean = position_p @ x
        values["Variance"].append(position_p @ x**2 - mean * mean)
    return {tag: np.array(v) for tag, v in values.items()}


def _exp_model(t, a, b, c):
    return a * np.exp(-b * t) + c


def curve_fit_exponential(s: TimeSeries) -> np.ndarray:
    """The fitted values of a*exp(-b*t) + c, a, b >= 0, by ``curve_fit``.

    The start is a log-linear regression of the values less their minimum,
    or (ptp, 0, min) when fewer than two of them are positive.
    """
    c0 = float(np.min(s.values))
    shifted = s.values - c0
    mask = shifted > 1e-12
    if np.count_nonzero(mask) >= 2:
        slope, intercept = np.polyfit(s.times[mask], np.log(shifted[mask]), 1)
        start = (float(np.exp(intercept)), max(float(-slope), 0.0), c0)
    else:
        start = (max(float(np.ptp(s.values)), 1e-12), 0.0, c0)
    popt, _ = curve_fit(
        _exp_model,
        s.times,
        s.values,
        p0=start,
        bounds=([0.0, 0.0, -np.inf], [np.inf, np.inf, np.inf]),
        maxfev=10_000,
    )
    return _exp_model(s.times, *popt)


def sse(s: TimeSeries, fitted: np.ndarray) -> float:
    """sum_i (y_i - g_i)^2 of a fit g of the series."""
    return float(np.sum((s.values - fitted) ** 2))
