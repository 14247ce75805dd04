"""Oracles and helpers shared by the test modules.

One-shot mode walks the basis pair: ``walk._basis_walks`` streams the two
real noiseless walks psi_0 and psi_1 from coin |0> and |1> on the light
cone, and every walker is v_0 psi_0 + v_1 psi_1. ``evolve_noiseless`` below
is its oracle: one walker, the whole (T + 1, 2, n_positions) history,
``np.roll`` as the shift and a guard on each end column of its own, the way
the library walked before the stream. Started from the exact |0> or |1>
(``basis_start``), it is bit for bit a basis walk; a walker's own walk
rounds apart from the sum of the basis walks by an ulp or so.

``witness_series`` computes every one-shot witness from the walkers' 2 x 2
coin blocks, read from the Gram matrix of the basis pair, and the kernel
values, and ``walk.evolve_one_shot`` yields each one-shot state as its
rank-2 Kraus factor. The dense generator below forms
the (2 n_positions)^2 density matrix from the same amplitudes and kernel
the way the library did before the factor, so the tests can check both
against it. ``koashi_winter_discord`` is the oracle of the one-shot
discord S(rho_c) - S(rho): the Koashi-Winter relation with Wootters'
concurrence of rho_pE, computed on the factor as the library did before
the closed form. ``one_shot_witnesses`` measures any stack of one-shot
states D_k(|psi><psi|) through the closed forms the series runs, from psi
and k themselves.

``walk.evolve_stepwise`` evolves and yields only the light-cone block of
the walker, with the lattice sites it covers. ``full_lattice_stepwise``
below is its oracle: every step applies W rho W^dag to the whole
(2 n_positions)^2 matrix, with ``np.roll`` as the shift, then the
intermediate dephasing map, then the edge guard. ``embed`` puts a block
back on the whole lattice to compare the two.

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
the von Neumann entropy are the oracles of the library's spectra.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import strategies as st

from nmqwalk.divisibility import kernel_ratio
from nmqwalk.exceptions import DimensionMismatchError, EdgeAmplitudeError
from nmqwalk.noise import SIGMA_3, OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.qops import EIGENVALUE_CUTOFF, partial_trace
from nmqwalk.walk import (
    EDGE_AMPLITUDE_TOL,
    WalkConfig,
    coin_operator,
    density_from_amplitudes,
)
from nmqwalk.witness import (
    DEFAULT_TD_PAIR,
    _near_degenerate,
    _one_shot_witnesses,
    _position_frame,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = 1e-10

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


@pytest.fixture
def origin_lattice(monkeypatch):
    """Size every lattice as 2(T + 1) + 1 sites around the origin, whatever x0.

    ``WalkConfig.half_width`` widens the lattice by |x0|, so no valid config
    reaches an edge. On this narrower lattice a walker started off the
    origin does, which is how the tests reach the edge guard through the
    walk itself.
    """
    monkeypatch.setattr(WalkConfig, "half_width", property(lambda cfg: cfg.steps + 1))


def initial_state(cfg):
    """Amplitude array (2, n_positions) of the localized initial state."""
    amps = np.zeros((2, cfg.n_positions), dtype=complex)
    x0 = cfg.initial_position + cfg.half_width
    amps[0, x0] = math.cos(cfg.delta)
    amps[1, x0] = np.exp(-1j * cfg.eta) * math.sin(cfg.delta)
    return amps


def check_edges(amps):
    """The edge guard on amplitudes (2, n), one lattice end at a time."""
    edge = max(np.max(np.abs(amps[:, 0])), np.max(np.abs(amps[:, -1])))
    if edge > EDGE_AMPLITUDE_TOL:
        raise EdgeAmplitudeError(f"boundary amplitude {edge:.3e} exceeds {EDGE_AMPLITUDE_TOL}")


def step_amplitudes(amps, coin, guard=True):
    """One walk step W on an amplitude array: coin rotation, then np.roll
    shift, then the edge guard unless ``guard`` is False."""
    rotated = coin @ amps
    out = np.empty_like(rotated)
    for c, d in enumerate((-1, +1)):
        out[c] = np.roll(rotated[c], d)
    if guard:
        check_edges(out)
    return out


def basis_start(cfg, i):
    """The exact amplitude array (2, n_positions) of the coin basis state |i> at x0."""
    amps = np.zeros((2, cfg.n_positions), dtype=complex)
    amps[i, cfg.initial_position + cfg.half_width] = 1.0
    return amps


def evolve_noiseless(cfg, start=None):
    """All noiseless amplitude arrays of one walker, shape (steps + 1, 2, n_positions).

    The walker starts from the amplitude array ``start``, by default cfg's
    initial state.
    """
    coin = coin_operator(cfg.coin_angle)
    out = np.empty((cfg.steps + 1, 2, cfg.n_positions), dtype=complex)
    out[0] = initial_state(cfg) if start is None else start
    for t in range(1, cfg.steps + 1):
        out[t] = step_amplitudes(out[t - 1], coin)
    return out


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
        yield t, dephase_density(rho, k, cfg.n_positions)


def full_lattice_stepwise(cfg, noise, start=None):
    """Yield (t, rho_t, sites) of the stepwise walk, evolved on the whole lattice.

    ``rho_t`` is the whole (2n, 2n) matrix, so ``sites`` is ``arange(n)``.
    The walk starts from the 2 x 2 coin block ``start`` at x0, by default
    the density matrix of cfg's initial coin state; the block may be any
    complex matrix, such as the X = rho1 + i rho2 of two walkers. The guard
    reads sqrt|rho_ii|.
    """
    n = cfg.n_positions
    sites = np.arange(n)
    coin = coin_operator(cfg.coin_angle)
    ratios = kernel_ratio(noise, np.arange(float(cfg.steps)), np.arange(1.0, cfg.steps + 1))
    if start is None:
        rho = density_from_amplitudes(initial_state(cfg))
    else:
        x0 = cfg.initial_position + cfg.half_width
        rho = np.zeros((2, n, 2, n), dtype=complex)
        rho[:, x0, :, x0] = start
        rho = rho.reshape(2 * n, 2 * n)
    yield 0, rho.copy(), sites
    for t, ratio in enumerate(ratios, start=1):
        r = np.einsum("ab,bjck,dc->ajdk", coin, rho.reshape(2, n, 2, n), coin.conj())
        out = np.empty_like(r)
        for a, da in enumerate((-1, +1)):
            for d, dd in enumerate((-1, +1)):
                out[a, :, d, :] = np.roll(np.roll(r[a, :, d, :], da, axis=0), dd, axis=1)
        rho = dephase_density(out.reshape(2 * n, 2 * n), ratio, n)
        check_edges(np.sqrt(np.abs(rho.diagonal())).reshape(2, n))
        yield t, rho.copy(), sites


def embed(block, sites, n_positions):
    """The (2 n_positions)^2 matrix that is ``block`` on coin (x) ``sites``, zero elsewhere."""
    rows = np.concatenate([sites, sites + n_positions])
    out = np.zeros((2 * n_positions, 2 * n_positions), dtype=block.dtype)
    out[np.ix_(rows, rows)] = block
    return out


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
    frames = {
        row: _position_frame(psi[row])
        for row, c in enumerate(blocks)
        if _near_degenerate((c[0, 0] - c[1, 1]).real, c[0, 1])
    }
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
        raise DimensionMismatchError(f"density matrix must be square, got {rho.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise DimensionMismatchError(f"expected dim {dim}, got {rho.shape[0]}")
    if not is_hermitian(rho):
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr!r} differs from 1 beyond 1e-12")
    wmin = float(np.linalg.eigvalsh(rho)[0])
    if wmin < -POSITIVITY_TOL:
        raise ValueError(f"density matrix has eigenvalue {wmin} < -1e-10")
    return rho


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr(rho log2 rho) in bits of a validated state; 0*log(0) := 0."""
    w = np.linalg.eigvalsh(check_density_matrix(rho))
    w = w[w > EIGENVALUE_CUTOFF]
    return float(-np.sum(w * np.log2(w)))


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"trace_norm needs a square matrix, got {m.shape}")
    if is_hermitian(m, tol=1e-13):
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """TD(rho1, rho2) = 1/2 ||rho1 - rho2||_1, in [0, 1] for states."""
    rho1 = np.asarray(rho1, dtype=complex)
    rho2 = np.asarray(rho2, dtype=complex)
    if rho1.shape != rho2.shape:
        raise DimensionMismatchError(f"state shapes differ: {rho1.shape} vs {rho2.shape}")
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
    the step where it arises.
    """
    d1, e1, d2, e2 = td_pair
    walks = zip(
        evolve(replace(cfg, delta=d1, eta=e1), noise),
        evolve(replace(cfg, delta=d2, eta=e2), noise),
    )
    return np.array(
        [trace_distance(reduced_coin(s1), reduced_coin(s2)) for (_, s1, _), (_, s2, _) in walks]
    )
