import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    MONOTONE_KERNELS,
    SIDED_NOISES,
    SIGMA_3,
    basis_start,
    coin_block_limit,
    dense_one_shot,
    dense_populations,
    density_from_factor,
    embed,
    evolve_noiseless,
    evolve_stepwise,
    gram_blocks,
    gram_conditional_entropies,
    gram_min_conditional_entropy,
    koashi_winter_discord,
    kraus_at,
    lattice_half_width,
    lattice_positions,
    lattice_size,
    kron_mid,
    one_shot_factors,
    one_shot_witnesses,
    partial_trace,
    persistent_walk,
    rho_pe_concurrence,
    support_state,
    trace_distance,
    two_walker_trace_distances,
    von_neumann_entropy,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nmqwalk.walk as walk_mod
import nmqwalk.witness as witness_mod
from nmqwalk.exceptions import NmqwalkError, NonPhysicalStateError
from nmqwalk.noise import OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.walk import WalkConfig, density_from_amplitudes, distribution_variance
from nmqwalk.witness import (
    DEFAULT_TD_PAIR,
    POSITIVITY_TOL,
    WITNESS_TAGS,
    _canonical_eigenbasis,
    _mid,
    _State,
    witness_series,
)

BELL = density_from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2))
PLUS = density_from_amplitudes(np.array([1, 1]) / np.sqrt(2))
MINUS = density_from_amplitudes(np.array([1, -1]) / np.sqrt(2))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


#: the noise settings on which the rank-2 one-shot path is checked against
#: the dense oracle
ORACLE_NOISES = {
    "none": None,
    "rtn-underdamped": RtnParams(a=0.05, gamma=0.008),
    "rtn-overdamped": RtnParams(a=0.1, gamma=0.5),
    "oun": OunParams(Gamma=0.1, gamma=0.01),
    "pln": PlnParams(Gamma=0.1, gamma=0.01),
}
ORACLE_STEPS = 30


def single_state_values(cfg, noise, evolve, td_pair=DEFAULT_TD_PAIR):
    """Every witness tag at each step, from the per-state cache of each dense
    state that ``evolve`` yields with its positions, measured one at a time
    on its support."""
    values = {tag: [] for tag in WITNESS_TAGS}
    values["TD"] = two_walker_trace_distances(cfg, noise, evolve, td_pair)
    for _, rho, x in evolve(cfg, noise):
        state = support_state(rho)
        values["MI"].append(state.mutual_information)
        values["MID"].append(_mid(state))
        values["QD"].append(state.discord)
        values["Entropy"].append(state.coin_entropy)
        values["Variance"].append(distribution_variance(dense_populations(rho), x.astype(float)))
    return values


def dense_one_shot_states(cfg, noise):
    """The states of ``dense_one_shot`` with the positions they cover, the whole lattice."""
    x = lattice_positions(cfg)
    for t, rho in dense_one_shot(cfg, noise):
        yield t, rho, x


def assert_matches_oracle(values, expected, tag):
    """1e-12 absolute, or 1e-12 relative for the variance (values of order T^2)."""
    if tag == "Variance":
        np.testing.assert_allclose(values, expected, rtol=1e-12, atol=0.0, err_msg=tag)
    else:
        np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-12, err_msg=tag)


def kraus_factor(psi, k):
    """The Kraus factor b_r = (K_r (x) I) psi of a (2, n) amplitude array psi
    under the kraus_at pair K = (sqrt((1+k)/2) I, sqrt((1-k)/2) sigma_3)."""
    kraus = [math.sqrt((1.0 + k) / 2.0) * np.eye(2), math.sqrt((1.0 - k) / 2.0) * SIGMA_3]
    return np.einsum("rcd,dj->cjr", kraus, psi)


def one_shot_values(psi, k):
    """The witnesses of the one one-shot state D_k(|psi><psi|), by tag."""
    return {tag: float(v[0]) for tag, v in one_shot_witnesses([psi], [k]).items()}


@st.composite
def one_shot_states(draw):
    """(psi, k) for k in [-1, 1] and a random psi in C^2 (x) C^n, n <= 6."""
    n = draw(st.integers(min_value=1, max_value=6))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n, max_size=4 * n)))
    psi = parts[: 2 * n] + 1j * parts[2 * n :]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    return (psi / norm).reshape(2, n), draw(st.floats(-1.0, 1.0))

#: an entangled psi on C^2 (x) C^3, for the fixed edge cases of the factor form
ENTANGLED_PSI = np.array([[0.5, 0.3j, 0.1], [-0.2, 0.6, 0.4 - 0.2j]])
ENTANGLED_PSI /= np.linalg.norm(ENTANGLED_PSI)
#: rho_p of rank 1: a single site, and a coin (x) position product state
SINGLE_SITE_PSI = np.array([[0.6], [0.8j]])
PRODUCT_PSI = np.outer([0.6, 0.8j], [0.5, -0.5j, 1 / math.sqrt(2)])
#: psi = (|0>|e0> + |1>(1e-10 |e0> + |e1>)) / sqrt(2): both marginals are I/2
#: up to coherences of 5e-11, inside DEGENERACY_TOL, where the eigensolver
#: finds the vectors (e0 +- e1)/sqrt(2) and only the canonical basis e0, e1
#: gives the value of the canonical rule
NEAR_BELL_PSI = np.array([[1.0, 0.0], [1e-10, 1.0]]) / math.sqrt(2.0)


def classical_classical(p):
    """sum_ij p_ij |i><i| (x) |j><j| on 2 (x) 2."""
    return np.diag(np.asarray(p, dtype=complex).reshape(-1))


class TestTraceDistance:
    def test_identical_states(self):
        assert trace_distance(PLUS, PLUS) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(PLUS, MINUS) == pytest.approx(1.0, abs=1e-14)

    def test_pure_vs_maximally_mixed(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.eye(2) / 2) == pytest.approx(0.5)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert trace_distance(a, b) == pytest.approx(
                trace_distance(b, a), abs=1e-10
            )
            assert trace_distance(a, c) <= (
                trace_distance(a, b) + trace_distance(b, c) + 1e-10
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            trace_distance(PLUS, np.eye(3) / 3)


class TestMutualInformation:
    def test_product_state_zero(self):
        rng = np.random.default_rng(5)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert _State(rho).mutual_information == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_two_bits(self):
        assert _State(BELL).mutual_information == pytest.approx(2.0, abs=1e-12)

    def test_noiseless_walk_step_two_maximally_entangled(self):
        cfg = WalkConfig(steps=2)
        rho = dict(dense_one_shot(cfg, None))[2]
        assert support_state(rho).mutual_information == pytest.approx(2.0, abs=1e-10)


class TestMid:
    def test_product_state_zero(self):
        rng = np.random.default_rng(7)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert _mid(_State(rho)) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_one_bit(self):
        # both marginals are I/2: the canonical basis rule decides
        assert _mid(_State(BELL)) == pytest.approx(1.0, abs=1e-9)

    def test_classical_classical_state_zero(self):
        # table chosen so both marginals are non-degenerate
        rho = classical_classical([[0.35, 0.25], [0.1, 0.3]])
        assert _mid(_State(rho)) == pytest.approx(0.0, abs=1e-9)

    def test_gram_route_keeps_the_canonical_basis(self):
        # psi = |0>(e1 + e2)/2 + |1>(e1 - e2)/2: the position marginal is I/2
        # on sites 1 and 2, where the 2 x 2 Gram route first finds the
        # vectors (e1 +- e2)/sqrt(2); only the canonical basis e1, e2 gives
        # the dense value
        amps = np.zeros((2, 5), dtype=complex)
        amps[0, 1:3] = 0.5
        amps[1, 1:3] = 0.5, -0.5
        noise = RtnParams(a=0.9, gamma=0.5)
        factor = np.einsum("rcd,dj->cjr", kraus_at(noise, 2.0), amps)
        found = one_shot_values(amps, kernel_value(noise, 2.0))["MID"]
        assert found == pytest.approx(_mid(_State(density_from_factor(factor))), abs=1e-12)

    def test_series_keeps_the_canonical_basis(self, monkeypatch):
        # the series meets the psi of the Gram-route test above at every
        # step of a walk on 5 sites, so it must build each step's canonical
        # position frame from the walker's amplitudes; a walk from one site
        # reaches such a step rarely, with exactly equal coin populations
        # and zero coin coherence. psi enters as the basis walk psi_0, which
        # is the walker itself for the coin |0> (delta = 0)
        amps = np.zeros((2, 5))
        amps[0, 1:3] = 0.5
        amps[1, 1:3] = 0.5, -0.5
        basis = np.stack([amps, np.zeros((2, 5))], axis=1)  # (coin, basis walk, site)
        steps = [(t, basis) for t in (0, 1)]
        monkeypatch.setattr(witness_mod, "_basis_walks", lambda cfg: iter(steps))
        noise = RtnParams(a=0.9, gamma=0.5)
        found = witness_series(WalkConfig(steps=1, delta=0.0), noise, witnesses=("MID",))["MID"]
        expected = [
            _mid(_State(density_from_factor(np.einsum("rcd,dj->cjr", kraus_at(noise, t), amps))))
            for t in (0.0, 1.0)
        ]
        np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-12)

    def test_walks_again_only_up_to_the_last_degenerate_step(self, monkeypatch):
        # the frames come after the walk: a run with no degenerate step walks
        # the basis pair once, and one with some walks it again up to the
        # last of them. The fake walk has 5 steps, and its walker psi_0
        # (delta = 0) has the degenerate psi of the Gram-route test at steps
        # 1 and 3 and a non-degenerate one at steps 0, 2 and 4
        walks, seen = walk_mod._basis_walks, []

        def counting(walk):
            def basis_walks(cfg):
                seen.append([])
                for t, a in walk(cfg):
                    seen[-1].append(t)
                    yield t, a

            return basis_walks

        noise = RtnParams(a=0.9, gamma=0.5)
        monkeypatch.setattr(witness_mod, "_basis_walks", counting(walks))
        witness_series(WalkConfig(steps=12, delta=0.7, eta=0.3), noise, witnesses=("MID",))
        assert seen == [list(range(13))]

        degenerate = np.zeros((2, 5))
        degenerate[0, 1:3] = 0.5
        degenerate[1, 1:3] = 0.5, -0.5
        plain = np.zeros((2, 5))
        plain[0, 0], plain[1, 2] = 0.6, 0.8
        psi = [degenerate if t in (1, 3) else plain for t in range(5)]
        steps = [(t, np.stack([amps, np.zeros((2, 5))], axis=1)) for t, amps in enumerate(psi)]
        seen.clear()
        monkeypatch.setattr(witness_mod, "_basis_walks", counting(lambda cfg: iter(steps)))
        found = witness_series(WalkConfig(steps=4, delta=0.0), noise, witnesses=("MID",))["MID"]
        assert seen == [[0, 1, 2, 3, 4], [0, 1, 2, 3]]
        expected = [
            _mid(_State(density_from_factor(np.einsum("rcd,dj->cjr", kraus_at(noise, t), amps))))
            for t, amps in enumerate(psi)
        ]
        np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-12)

    def test_deterministic_under_degeneracy(self):
        assert _mid(_State(BELL)) == _mid(_State(BELL))

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("rank", ["full", "rank-2"])
    def test_equals_kron_oracle_on_random_states(self, m, rank):
        rng = np.random.default_rng(100 * m + len(rank))
        for _ in range(10):
            a = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
            if rank == "rank-2":
                a = a[:, :2]
            rho = a @ a.conj().T
            state = _State(rho / np.trace(rho).real)
            assert _mid(state) == pytest.approx(kron_mid(state), abs=1e-12)

    @pytest.mark.parametrize(
        "rho",
        [
            BELL,
            np.kron(np.eye(2) / 2, random_density(np.random.default_rng(3), 3)),
            np.kron(random_density(np.random.default_rng(4), 2), np.eye(3) / 3),
        ],
        ids=["bell", "mixed-coin", "mixed-position"],
    )
    def test_equals_kron_oracle_on_degenerate_marginals(self, rho):
        # both read the canonical basis of each degenerate marginal
        state = _State(rho)
        assert _mid(state) == pytest.approx(kron_mid(state), abs=1e-12)

    @pytest.mark.parametrize(
        "noise",
        [OunParams(Gamma=0.1, gamma=0.01), PlnParams(Gamma=0.2, gamma=0.02)],
        ids=["oun", "pln"],
    )
    def test_equals_kron_oracle_on_stepwise_states(self, noise):
        cfg = WalkConfig(steps=30, delta=0.7, eta=0.3)
        for t, rho, _ in evolve_stepwise(cfg, noise):
            state = _State(rho, t)
            assert _mid(state) == pytest.approx(kron_mid(state), abs=1e-12), f"t={t}"

    def test_pure_walk_states_equal_coin_entropy(self):
        # Luo's MID of a pure state is its entanglement entropy. The state is
        # measured on its support of t + 1 sites only. The full position marginal
        # on the T = 100 lattice has rank <= 2, so its kernel is a 201-fold
        # degenerate eigenspace; the explicit eigenbasis check below, not
        # _mid, covers that its rebuilt basis stays orthonormal.
        cfg = WalkConfig(steps=100)
        split = (2, lattice_size(cfg))
        eye = np.eye(lattice_size(cfg))
        for t, rho in dense_one_shot(cfg, None):
            state = support_state(rho)
            assert _mid(state) == pytest.approx(state.coin_entropy, abs=1e-9), f"t={t}"
            u = _canonical_eigenbasis(partial_trace(rho, split, "position"))
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10, f"t={t}"


class TestDiscord:
    def test_product_state_zero(self):
        rng = np.random.default_rng(11)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert _State(rho).discord == pytest.approx(0.0, abs=1e-6)

    def test_classical_classical_state_zero(self):
        rho = classical_classical([[0.4, 0.1], [0.2, 0.3]])
        assert _State(rho).discord == pytest.approx(0.0, abs=1e-6)

    def test_fully_dephased_factor_not_negative(self):
        # psi = i(0.970 |coin 0, site 1> + 0.243 |coin 1, site 0>) at k = 0 is
        # classical-classical; dropping its conditional eigenvalues below
        # 1e-12 from the entropy makes its discord read -2.55e-12
        psi = np.zeros((2, 2), dtype=complex)
        psi[0, 1], psi[1, 0] = 0.970j, 0.243j
        qd = one_shot_values(psi / np.linalg.norm(psi), 0.0)["QD"]
        assert qd == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=one_shot_states())
    @example(state=(ENTANGLED_PSI, 0.3))
    @example(state=(ENTANGLED_PSI, -1.0))
    @example(state=(SINGLE_SITE_PSI, 0.3))
    @example(state=(PRODUCT_PSI, 0.3))
    def test_one_shot_closed_form_is_koashi_winter(self, state):
        # rho_pE of a one-shot state is never entangled, so the Koashi-Winter
        # discord S(rho_c) - S(rho) + E_F(rho_pE) loses its E_F term
        factor = kraus_factor(*state)
        assert rho_pe_concurrence(factor) <= 1e-12
        qd = one_shot_values(*state)["QD"]
        assert qd == pytest.approx(koashi_winter_discord(factor), abs=1e-12)

    def test_bell_state_one_bit(self):
        state = _State(BELL)
        assert state.discord == pytest.approx(1.0, abs=1e-6)
        # the classical correlation J = MI - QD
        assert state.mutual_information - state.discord == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_pure_walk_factors_equal_coin_entropy(self, k):
        # the discord of a pure state is its entanglement entropy
        amps = evolve_noiseless(WalkConfig(steps=100))
        found = one_shot_witnesses(amps, np.full(len(amps), k))
        np.testing.assert_allclose(found["QD"], found["Entropy"], rtol=0.0, atol=1e-12)

    def test_bounded_by_mid_on_walk_states(self):
        cfg = WalkConfig(steps=8)
        noise = RtnParams(a=0.08, gamma=0.01)
        for t, rho in dense_one_shot(cfg, noise):
            state = support_state(rho)
            assert -1e-6 <= state.discord <= _mid(state) + 1e-6


#: monotone kernels, under which every intermediate map is CP and every
#: stepwise state is physical
MONOTONE_NOISES = {
    "oun": OunParams(Gamma=0.1, gamma=0.01),
    "pln": PlnParams(Gamma=0.2, gamma=0.02),
    "rtn-overdamped": RtnParams(a=0.1, gamma=0.5),
}


def random_dense_states(count, seed):
    """Random dense states on C^2 (x) C^m, m <= 6, of random rank."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 7))
        a = rng.normal(size=(2 * m, 2 * m)) + 1j * rng.normal(size=(2 * m, 2 * m))
        a = a[:, : int(rng.integers(1, 2 * m + 1))]
        rho = a @ a.conj().T
        yield rho / np.trace(rho).real


def stepwise_states(noise, steps):
    cfg = WalkConfig(steps=steps, delta=0.7, eta=0.3)
    return [rho for _, rho, _ in evolve_stepwise(cfg, noise)]


def min_conditional_entropy(state):
    return witness_mod._min_conditional_entropy(state.pauli_parts)


class TestPhysicality:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        noise=MONOTONE_KERNELS,
        delta=st.floats(min_value=-math.pi, max_value=math.pi),
        eta=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_monotone_kernels_keep_stepwise_states_physical(self, noise, delta, eta):
        # every step ratio lies in [0, 1], so every intermediate map is CP
        cfg = WalkConfig(steps=20, delta=delta, eta=eta)
        for t, rho, _ in evolve_stepwise(cfg, noise):
            assert np.linalg.eigvalsh(rho)[0] >= -POSITIVITY_TOL, f"t={t}"

    def test_mi_mid_and_qd_refuse_the_first_non_physical_state(self):
        # RTN(0.05, 0.008) has a kernel zero near t = 17; its state at t = 18
        # has the eigenvalue -0.273
        cfg = WalkConfig(steps=20)
        noise = RtnParams(a=0.05, gamma=0.008)
        lowest = [np.linalg.eigvalsh(rho)[0] for _, rho, _ in evolve_stepwise(cfg, noise)]
        assert min(lowest[:18]) >= -POSITIVITY_TOL
        assert lowest[18] == pytest.approx(-0.273, abs=5e-4)
        for tags in (("MI",), ("MID",), ("QD",), ("Entropy", "TD")):
            with pytest.raises(NonPhysicalStateError, match=r"state at t=18 has eigenvalue -0\.273"):
                witness_series(cfg, noise, mode="stepwise", witnesses=tags)
        # the Variance reads no spectrum: it refuses the first negative
        # population, -0.0606 at t = 19
        with pytest.raises(NonPhysicalStateError, match=r"state at t=19 has population -0\.0606"):
            witness_series(cfg, noise, mode="stepwise", witnesses=("Variance",))

    @pytest.mark.parametrize("tag", ["Entropy", "TD"])
    def test_entropy_and_td_refuse_from_the_first_non_cp_step(self, tag, monkeypatch):
        # the step ratio first exceeds 1 at t = 18 (r = 3.246). From there on
        # Entropy takes the walker's spectrum and TD those of its two
        # walkers, all -0.273 there; unchecked, Entropy read 0.583 and TD
        # 0.721 at t = 60. A run of CP steps alone takes no such spectrum
        read = []
        spectrum = witness_mod._State.spectrum.func
        monkeypatch.setattr(
            witness_mod._State, "spectrum", property(lambda s: read.append(s.t) or spectrum(s))
        )
        cfg = WalkConfig(steps=60)
        witness_series(cfg, MONOTONE_NOISES["oun"], mode="stepwise", witnesses=(tag,))
        assert read == []
        with pytest.raises(NonPhysicalStateError, match=r"state at t=18 has eigenvalue -0\.273"):
            witness_series(cfg, RtnParams(0.05, 0.008), mode="stepwise", witnesses=(tag,))
        assert read == [18]


class TestDiscordSearch:
    """The direct conditional blocks and the compass search against the Gram-route oracle."""

    @pytest.mark.parametrize("source", ["random", "oun"])
    def test_direct_blocks_equal_gram_route(self, source):
        # the Gram route drops the eigenvalues of rho below EIGENVALUE_CUTOFF;
        # a stepwise state has some, each worth up to about 4e-11 bits
        if source == "random":
            states = list(random_dense_states(20, seed=3))
        else:
            states = stepwise_states(MONOTONE_NOISES["oun"], 12)
        axes = np.random.default_rng(4).uniform(-math.pi, 2 * math.pi, size=(50, 2))
        axes = np.concatenate([witness_mod._DISCORD_AXES, axes])
        for rho in states:
            state = _State(rho)
            found = witness_mod._conditional_entropies(state.pauli_parts, axes)
            expected = gram_conditional_entropies(gram_blocks(state.rho), axes)
            np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-10)

    def test_grid_holds_each_measurement_once(self):
        # +z and 15 theta rows of 32 phi; no axis is another's antipode
        theta, phi = witness_mod._DISCORD_AXES.T
        assert theta.shape == (481,)
        n = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], 1)
        dots = n @ n.T
        np.fill_diagonal(dots, 0.0)
        assert np.max(np.abs(dots)) < 1 - 1e-6

    @pytest.mark.parametrize("noise", MONOTONE_NOISES.values(), ids=MONOTONE_NOISES.keys())
    def test_never_worse_than_gram_oracle_on_stepwise_states(self, noise):
        for t, rho in enumerate(stepwise_states(noise, 12)):
            state = _State(rho)
            assert min_conditional_entropy(state) <= gram_min_conditional_entropy(state.rho) + 1e-9, t

    def test_never_worse_than_gram_oracle_on_random_states(self):
        for rho in random_dense_states(40, seed=5):
            state = _State(rho)
            assert min_conditional_entropy(state) <= gram_min_conditional_entropy(state.rho) + 1e-9

    def test_finds_the_optimum_the_oracle_misses(self):
        # at step 35 the grid's best axis is (0.608, 0), where Nelder-Mead
        # stalls at 0.7530701; its copy (2.534, pi) leads to 0.7529712
        cfg = WalkConfig(steps=40, delta=0.7, eta=0.3)
        rho = next(rho for t, rho, _ in evolve_stepwise(cfg, MONOTONE_NOISES["oun"]) if t == 35)
        state = _State(rho)
        oracle = state.mutual_information - state.position_entropy + gram_min_conditional_entropy(rho)
        assert state.discord < oracle - 1e-5


class TestScalarWitnesses:
    def test_initial_coin_entropy_zero(self):
        cfg = WalkConfig(steps=3)
        rho = dict(dense_one_shot(cfg, None))[0]
        assert support_state(rho).coin_entropy == pytest.approx(0.0, abs=1e-12)

    def test_dephased_entangled_coin_fully_mixed(self):
        # killing the coherences of a Bell state leaves the coin at I/2
        dephased = np.diag(np.diag(BELL))
        assert _State(dephased).coin_entropy == pytest.approx(1.0, abs=1e-12)

    def test_variance_point_mass(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert distribution_variance(p, np.arange(-2.0, 3.0)) == 0.0

    def test_variance_symmetric_pair(self):
        # weights 1/2 at x = -2 and x = 0 on the positions -2 .. 2
        p = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
        assert distribution_variance(p, np.arange(-2.0, 3.0)) == pytest.approx(1.0)


@st.composite
def hermitian_with_empty_sites(draw):
    """A random Hermitian (2n, 2n) matrix, a state or indefinite, whose rows
    and columns vanish on a random set of (coin, site) pairs; a site is
    empty where they vanish for both coins."""
    n = draw(st.integers(min_value=1, max_value=6))
    mask = np.array(draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    a = rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))
    if draw(st.booleans()):
        rho = a @ a.conj().T * np.outer(mask, mask)
        trace = np.trace(rho).real
        return rho / trace if trace > 0 else rho
    return (a + a.conj().T) * np.outer(mask, mask) / (4 * n)


#: indefinite on sites 0 and 2 of a three-site lattice, zero on site 1
INDEFINITE_WITH_EMPTY_SITE = np.zeros((6, 6), dtype=complex)
INDEFINITE_WITH_EMPTY_SITE[np.ix_([0, 2, 3, 5], [0, 2, 3, 5])] = [
    [0.6, 0.2j, 0.4, 0.1],
    [-0.2j, 0.3, 0.0, 0.5],
    [0.4, 0.0, 0.2, -0.3j],
    [0.1, 0.5, 0.3j, -0.1],
]


def padded_spectrum(m, dim):
    """eigvalsh of m with zeros for the rows a compressed matrix dropped."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(m), np.zeros(dim - m.shape[0])]))


class TestSupport:
    """``support_state`` against ``_State``, which measures every site of the matrix it is given."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rho=hermitian_with_empty_sites())
    @example(rho=np.zeros((6, 6)))
    @example(rho=INDEFINITE_WITH_EMPTY_SITE)
    def test_compression_keeps_spectra_and_witnesses(self, rho):
        n = rho.shape[0] // 2
        state = support_state(rho)
        full = _State(rho)
        joint = np.linalg.eigvalsh(rho)
        for found, expected in [
            (padded_spectrum(state.rho, 2 * n), joint),
            (np.linalg.eigvalsh(state.coin), np.linalg.eigvalsh(full.coin)),
            (padded_spectrum(state.position, n), np.linalg.eigvalsh(full.position)),
        ]:
            np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-12)
        # every negative eigenvalue survives the compression
        kept = np.linalg.eigvalsh(state.rho)
        found_min = min(kept.min(initial=np.inf), 0.0 if kept.size < 2 * n else np.inf)
        assert found_min == pytest.approx(joint[0], abs=1e-12)
        if joint[0] < -POSITIVITY_TOL:
            # MI, MID and QD refuse a matrix that is not a state, in either form
            for measured in (state, full):
                for witness in (lambda s: s.mutual_information, _mid, lambda s: s.discord):
                    with pytest.raises(NonPhysicalStateError, match="has eigenvalue"):
                        witness(measured)
            return
        assert state.mutual_information == pytest.approx(full.mutual_information, abs=1e-12)
        assert _mid(state) == pytest.approx(_mid(full), abs=1e-12)
        assert state.discord == pytest.approx(full.discord, abs=1e-9)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rho=hermitian_with_empty_sites())
    def test_marginals_equal_the_oracle(self, rho):
        # the coin-block view of a matrix with empty sites against the einsum oracle
        state = _State(rho)
        dims = (2, state.rho.shape[0] // 2)
        for keep, found in (("coin", state.coin), ("position", state.position)):
            expected = partial_trace(state.rho, dims, keep)
            np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-15, err_msg=keep)
        assert np.array_equal(state.pauli_parts[0], state.position)

    def test_stepwise_states_keep_their_light_cone(self):
        # the yielded block is the support of the state on the whole lattice:
        # no site of the light cone is empty, and no other site is not
        cfg = WalkConfig(steps=60, delta=0.7, eta=0.3)
        for t, rho, x in evolve_stepwise(cfg, OunParams(Gamma=0.1, gamma=0.01)):
            assert rho.shape == (2 * (t + 1), 2 * (t + 1)), f"t={t}"
            full = support_state(embed(rho, x, cfg))
            assert full.r.shape == (2, t + 1, 2, t + 1), f"t={t}"
            assert np.array_equal(full.rho, rho), f"t={t}"


class TestStateForms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(state=one_shot_states())
    @example(state=(ENTANGLED_PSI, 1.0))
    @example(state=(ENTANGLED_PSI, 0.0))
    @example(state=(ENTANGLED_PSI, -1.0))
    @example(state=(SINGLE_SITE_PSI, 0.3))
    @example(state=(PRODUCT_PSI, 0.3))
    @example(state=(NEAR_BELL_PSI, 0.3))
    def test_factor_equals_its_density_matrix(self, state):
        # the closed forms of D_k(|psi><psi|) against the dense matrix of its
        # Kraus factor; the closed-form discord against the optimizer
        found = one_shot_values(*state)
        dense = _State(density_from_factor(kraus_factor(*state)))
        assert found["MI"] == pytest.approx(dense.mutual_information, abs=1e-12)
        assert found["Entropy"] == pytest.approx(dense.coin_entropy, abs=1e-12)
        m, qd = found["MID"], found["QD"]
        assert m == pytest.approx(_mid(dense), abs=1e-9)
        assert qd == pytest.approx(dense.discord, abs=1e-9)
        # the closed form is the optimum over POVMs; the dense search covers
        # projective measurements only, so it reads no lower beyond rounding
        assert dense.discord >= qd - 1e-12
        # QD >= 0 up to rounding; QD <= MID to the tolerance of the comparisons above
        assert -1e-12 <= qd <= m + 1e-9


#: pairs of initial coin states (delta1, eta1, delta2, eta2) of the TD series
#: tests: the default orthogonal pair, and the conjugate pair psi(0.7, +-0.3),
#: whose walkers have equal populations at every step
TD_PAIRS = {"default": DEFAULT_TD_PAIR, "conjugate": (0.7, 0.3, 0.7, -0.3)}
TD_ORACLE_WALKS = {"one_shot": one_shot_factors, "stepwise": evolve_stepwise}
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def one_shot_walks(draw):
    """A walk of T <= 8 steps with any coin and start, and its kernel: a
    noise model, or T + 1 values in [-1, 1] that often hit -1, 0 and 1."""
    steps = draw(st.integers(min_value=0, max_value=8))
    cfg = WalkConfig(steps=steps, coin_angle=draw(ANGLES), delta=draw(ANGLES), eta=draw(ANGLES))
    values = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
    kernel = draw(
        st.one_of(SIDED_NOISES, st.lists(values, min_size=steps + 1, max_size=steps + 1))
    )
    return cfg, kernel


class TestSeries:
    def test_mi_starts_at_zero_and_lengths_match(self):
        cfg = WalkConfig(steps=12)
        s = witness_series(cfg, RtnParams(a=0.9, gamma=0.05), witnesses=("MI",))["MI"]
        assert len(s) == 13
        assert s[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(s >= -1e-9)

    def test_noiseless_td_non_monotonic_and_bounded(self):
        s = witness_series(WalkConfig(steps=30), None)["TD"]
        assert np.all((s >= -1e-12) & (s <= 1 + 1e-12))
        assert np.any(np.diff(s) > 1e-6)

    def test_td_orthogonal_pair_starts_at_one(self):
        s = witness_series(WalkConfig(steps=4), None, witnesses=("TD",))["TD"]
        assert s[0] == pytest.approx(1.0, abs=1e-12)

    def test_variance_series_matches_direct(self):
        cfg = WalkConfig(steps=6)
        s = witness_series(cfg, None, witnesses=("Variance",))["Variance"]
        assert s[2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "mode, oracle",
        [("one_shot", dense_one_shot_states), ("stepwise", evolve_stepwise)],
        ids=["one_shot", "stepwise"],
    )
    def test_one_pass_matches_single_state_functions(self, mode, oracle):
        cfg = WalkConfig(steps=8, delta=0.7, eta=0.3)
        noise = RtnParams(a=0.08, gamma=0.01)
        found = witness_series(cfg, noise, mode=mode, witnesses=WITNESS_TAGS)
        assert list(found) == list(WITNESS_TAGS)
        expected = single_state_values(cfg, noise, oracle)
        for tag in WITNESS_TAGS:
            if mode == "stepwise" and tag != "TD":
                # the same dense matrices through the same calls
                np.testing.assert_array_equal(found[tag], expected[tag], err_msg=tag)
            else:
                # a rank-2 factor against dense matrices, or TD from one
                # evolution against two walks: rounding differs
                assert_matches_oracle(found[tag], expected[tag], tag)

    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    def test_rank2_one_shot_matches_dense_oracle(self, noise):
        cfg = WalkConfig(steps=ORACLE_STEPS, delta=0.7, eta=0.3)
        found = witness_series(cfg, noise, witnesses=WITNESS_TAGS)
        expected = single_state_values(cfg, noise, dense_one_shot_states)
        for tag in WITNESS_TAGS:
            assert_matches_oracle(found[tag], expected[tag], tag)

    @pytest.mark.parametrize(
        "tags, walkers",
        [
            (tuple(tag for tag in WITNESS_TAGS if tag != "TD"), 1),
            (("TD",), 2),
            (WITNESS_TAGS, 3),
        ],
        ids=["single-walker", "td", "all"],
    )
    def test_one_noiseless_walk_for_all_tags(self, monkeypatch, tags, walkers):
        # one walk of the basis pair feeds the single walker and the TD pair
        calls, blocks = [], witness_mod._one_shot_blocks
        walks = walk_mod._basis_walks

        def counting(cfg):
            calls.append(cfg)
            return walks(cfg)

        def block_walkers(cfg, coins, tags):
            calls.append(len(coins))
            return blocks(cfg, coins, tags)

        monkeypatch.setattr(walk_mod, "_basis_walks", counting)
        monkeypatch.setattr(witness_mod, "_basis_walks", counting)
        monkeypatch.setattr(witness_mod, "_one_shot_blocks", block_walkers)
        # no step of this walker is degenerate, so MID walks no second time
        cfg = WalkConfig(steps=4, delta=0.7, eta=0.3)
        witness_series(cfg, RtnParams(a=0.08, gamma=0.01), witnesses=tags)
        assert calls == [walkers, cfg]

    @pytest.mark.parametrize("tags", [("Variance",), ("TD", "Variance")], ids=["variance", "td-variance"])
    def test_variance_and_td_skip_the_closed_forms(self, monkeypatch, tags):
        # neither tag reads an entropy, so the closed forms never run, and
        # each series is the one a run that also asks for every entropic tag gives
        cfg, noise = WalkConfig(steps=12, delta=0.7, eta=0.3), RtnParams(a=0.08, gamma=0.01)
        expected = witness_series(cfg, noise, witnesses=WITNESS_TAGS)

        def refuse(*args, **kwargs):
            raise AssertionError("witness_series ran the one-shot closed forms")

        monkeypatch.setattr(witness_mod, "_one_shot_witnesses", refuse)
        found = witness_series(cfg, noise, witnesses=tags)
        assert list(found) == list(tags)
        for tag in tags:
            np.testing.assert_array_equal(found[tag], expected[tag])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(walk=one_shot_walks(), pair=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES))
    @example(walk=(WalkConfig(steps=0, delta=0.7, eta=0.3), None), pair=DEFAULT_TD_PAIR)
    @example(
        walk=(WalkConfig(steps=3, delta=math.pi / 4, eta=-math.pi / 2), RtnParams(0.05, 0.008)),
        pair=DEFAULT_TD_PAIR,
    )
    @example(
        walk=(WalkConfig(steps=6, delta=0.7, eta=0.3), RtnParams(a=0.5, gamma=0.05)),
        pair=TD_PAIRS["conjugate"],
    )
    @example(walk=(WalkConfig(steps=4, delta=0.7, eta=0.3), [1.0, -1.0, 0.0, -1.0, 1.0]), pair=DEFAULT_TD_PAIR)
    @example(walk=(WalkConfig(steps=5, delta=0.7, eta=0.3), None), pair=DEFAULT_TD_PAIR)
    @example(
        walk=(WalkConfig(steps=5, delta=0.7, eta=0.3), OunParams(0.1, 0.01)),
        pair=DEFAULT_TD_PAIR,
    )
    def test_batched_one_shot_matches_dense_oracle(self, walk, pair):
        # every tag of the batched 2 x 2 series against dense matrices measured
        # one at a time; the k sequence reaches +-1 and 0, and RTN(0.5, 0.05)
        # crosses zero between t = 1 and t = 2
        cfg, kernel = walk
        if isinstance(kernel, list):
            ks = np.array(kernel)
        else:
            ks = np.clip(kernel_value(kernel, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
        x = lattice_positions(cfg)

        def oracle(c, _):
            for t, rho in dense_one_shot(c, None, ks):
                yield t, rho, x

        expected = single_state_values(cfg, None, oracle, pair)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(witness_mod, "kernel_value", lambda noise, t: ks)
            found = witness_series(cfg, None, witnesses=WITNESS_TAGS, td_pair=pair)
        for tag in WITNESS_TAGS:
            assert found[tag].shape == (cfg.steps + 1,), tag
            if tag == "Variance":
                # the variance rounds on the scale of <x^2>, up to h^2 on the
                # oracles' lattice -h .. h, so a zero variance off the origin
                # reads ~1e-32 in one path
                atol = 1e-12 * lattice_half_width(cfg) ** 2
                np.testing.assert_allclose(found[tag], expected[tag], rtol=1e-12, atol=atol)
            else:
                assert_matches_oracle(found[tag], expected[tag], tag)

    def test_pure_entropy_prints_zero(self):
        # a pure coin has entropy +0.0, never -0.0, in every path
        cfg = WalkConfig(steps=2, delta=0.0)
        for mode in ("one_shot", "stepwise"):
            for tag, values in witness_series(
                cfg, OunParams(0.1, 0.01), mode=mode, witnesses=("Entropy", "MI")
            ).items():
                assert "%.12g" % values[0] == "0", (mode, tag)

    def test_one_light_cone_walk_for_td(self, monkeypatch):
        # the TD pair rides in the single walker's walk as a second start block
        calls = []
        blocks = walk_mod._light_cone_blocks

        def counting(cfg, ratios, start):
            calls.append(start)
            return blocks(cfg, ratios, start)

        monkeypatch.setattr(walk_mod, "_light_cone_blocks", counting)
        monkeypatch.setattr(witness_mod, "_light_cone_blocks", counting)
        cfg = WalkConfig(steps=4)
        noise = OunParams(Gamma=0.1, gamma=0.01)
        witness_series(cfg, noise, mode="stepwise", witnesses=("TD",))
        assert len(calls) == 1 and calls[0].shape == (1, 2, 2)
        witness_series(cfg, noise, mode="stepwise", witnesses=("TD", "Entropy"))
        assert len(calls) == 1 + 1 and calls[1].shape == (2, 2, 2)
        # a run with a step that is not CP also walks both TD walkers, to check them
        with pytest.raises(NonPhysicalStateError):
            witness_series(WalkConfig(steps=20), RtnParams(0.05, 0.008), mode="stepwise")
        assert len(calls) == 3 and calls[2].shape == (3, 2, 2)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        cfg=st.builds(
            WalkConfig,
            steps=st.integers(min_value=0, max_value=6),
            coin_angle=ANGLES,
            delta=ANGLES,
            eta=ANGLES,
        ),
        pair=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES),
        noise=MONOTONE_KERNELS,
    )
    def test_every_tag_in_one_walk_equals_separate_runs(self, cfg, pair, noise):
        # bit for bit: the stacked walk rounds each walker as it walks alone
        walks, ratios = [], []
        blocks, kernel_ratio = walk_mod._light_cone_blocks, walk_mod.kernel_ratio

        def counting_walk(*args):
            walks.append(args)
            return blocks(*args)

        def counting_ratio(*args):
            ratios.append(args)
            return kernel_ratio(*args)

        td = witness_series(cfg, noise, mode="stepwise", witnesses=("TD",), td_pair=pair)
        others = tuple(tag for tag in WITNESS_TAGS if tag != "TD")
        single = witness_series(cfg, noise, mode="stepwise", witnesses=others)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(witness_mod, "_light_cone_blocks", counting_walk)
            patch.setattr(walk_mod, "kernel_ratio", counting_ratio)
            found = witness_series(
                cfg, noise, mode="stepwise", witnesses=WITNESS_TAGS, td_pair=pair
            )
        assert len(walks) == 1 and len(ratios) == 1
        assert list(found) == list(WITNESS_TAGS)
        for tag, expected in {**td, **single}.items():
            assert np.array_equal(found[tag], expected), tag

    def test_optimizer_runs_only_on_dense_states(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the discord search ran on a one-shot state")

        search = witness_mod._min_conditional_entropy
        monkeypatch.setattr(witness_mod, "_min_conditional_entropy", refuse)
        cfg = WalkConfig(steps=ORACLE_STEPS, delta=0.7, eta=0.3)
        for noise in ORACLE_NOISES.values():
            witness_series(cfg, noise, witnesses=("QD",))

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(witness_mod, "_min_conditional_entropy", counting)
        witness_series(
            WalkConfig(steps=4), OunParams(Gamma=0.1, gamma=0.01), mode="stepwise", witnesses=("QD",)
        )
        assert len(calls) == 5

    def test_repeated_tag_gives_one_series(self):
        found = witness_series(WalkConfig(steps=4), None, witnesses=("MI", "Entropy", "MI"))
        assert list(found) == ["MI", "Entropy"]
        assert len(found["MI"]) == 5

    def test_unknown_witness_rejected(self):
        with pytest.raises(ValueError):
            witness_series(WalkConfig(steps=4), None, witnesses=("MI", "Negativity"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            witness_series(WalkConfig(steps=4), None, mode="exact", witnesses=("MI",))




@st.composite
def td_walks(draw):
    """A walk of T <= 40 steps with any coin."""
    return WalkConfig(steps=draw(st.integers(min_value=0, max_value=40)), coin_angle=draw(ANGLES))


class TestCoinMap:
    """Every walker's noiseless coin block from the Gram matrix of one walk of
    the basis pair, the one-shot coin map L_t."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=td_walks(), starts=st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=4))
    @example(cfg=WalkConfig(steps=40, coin_angle=0.6), starts=[(0.7, 0.3)])
    def test_blocks_equal_the_roll_oracle_blocks(self, cfg, starts):
        # v^T L_t conj(v) against the block of v_0 psi_0 + v_1 psi_1 for the
        # roll walks psi_i of the exact |0> and |1>, to 1e-15. A walker's own
        # roll walk rounds apart from that sum by up to a few 1e-16 per
        # amplitude (WALKER_TOL in test_walk.py), so its block is held to 4e-15
        coins = np.array([walk_mod._coin_vector(d, e) for d, e in starts])
        blocks = witness_mod._one_shot_blocks(cfg, coins, ())[0]
        assert blocks.shape == (cfg.steps + 1, len(starts), 2, 2)
        psi = [evolve_noiseless(cfg, basis_start(cfg, i)) for i in range(2)]
        for w, (d, e) in enumerate(starts):
            for amps, tol in (
                (coins[w, 0] * psi[0] + coins[w, 1] * psi[1], 1e-15),
                (evolve_noiseless(replace(cfg, delta=d, eta=e)), 4e-15),
            ):
                expected = np.einsum("tcx,tdx->tcd", amps, amps.conj())
                np.testing.assert_allclose(blocks[:, w], expected, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    def test_one_walk_gives_td_for_every_pair(self, noise):
        # one basis walk reads eight random pairs; each pair's two walkers
        # evolved on their own are the oracle
        cfg = WalkConfig(steps=ORACLE_STEPS, coin_angle=0.6)
        pairs = np.random.default_rng(20).uniform(-math.pi, math.pi, size=(8, 4))
        coins = np.array([walk_mod._coin_vector(*half) for half in pairs.reshape(16, 2)])
        blocks = witness_mod._one_shot_blocks(cfg, coins, ())[0]
        k = np.clip(kernel_value(noise, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
        delta = blocks[:, 0::2] - blocks[:, 1::2]
        delta[:, :, 0, 1] *= k[:, None]
        delta[:, :, 1, 0] *= k[:, None]
        for p, pair in enumerate(pairs):
            found = [trace_distance(d, np.zeros((2, 2))) for d in delta[:, p]]
            expected = two_walker_trace_distances(cfg, noise, one_shot_factors, tuple(pair))
            assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def outcome(run):
    """What ``run()`` returns, or the name of the error type it raises."""
    try:
        return run()
    except NmqwalkError as exc:
        return type(exc).__name__


def td_and_oracle(cfg, noise, mode, pair):
    """The walk compared, and the TD series of ``pair`` and its two-walker oracle on it.

    Only the stepwise walkers of RTN(0.05, 0.008) leave the state space (at
    t = 18 for the pairs used here): there the series must refuse as the
    oracle does, and the two are compared on the walk to T = 17 instead.
    """

    def oracle(cfg):
        return two_walker_trace_distances(cfg, noise, TD_ORACLE_WALKS[mode], pair)

    def series(cfg):
        return witness_series(cfg, noise, mode=mode, witnesses=("TD",), td_pair=pair)["TD"]

    expected = outcome(lambda: oracle(cfg))
    if isinstance(expected, str):
        assert (mode, noise) == ("stepwise", ORACLE_NOISES["rtn-underdamped"])
        assert expected == "NonPhysicalStateError"
        with pytest.raises(NonPhysicalStateError, match=r"state at t=18 has eigenvalue"):
            series(cfg)
        cfg = replace(cfg, steps=17)
        expected = oracle(cfg)
    return cfg, series(cfg), expected


class TestTraceDistanceSeries:
    """TD from one evolution against the two-walker oracle."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        cfg=td_walks(),
        pair=st.tuples(ANGLES, ANGLES, ANGLES, ANGLES),
        noise=SIDED_NOISES,
        mode=st.sampled_from(list(TD_ORACLE_WALKS)),
    )
    @example(cfg=WalkConfig(steps=40), pair=TD_PAIRS["conjugate"], noise=None, mode="stepwise")
    @example(
        cfg=WalkConfig(steps=40), pair=DEFAULT_TD_PAIR, noise=RtnParams(0.05, 0.008), mode="stepwise"
    )
    def test_matches_two_walker_oracle(self, cfg, pair, noise, mode):
        expected = outcome(
            lambda: two_walker_trace_distances(cfg, noise, TD_ORACLE_WALKS[mode], pair)
        )
        found = outcome(
            lambda: witness_series(cfg, noise, mode=mode, witnesses=("TD",), td_pair=pair)["TD"]
        )
        if isinstance(expected, str):
            assert found == expected
        else:
            assert found.shape == expected.shape
            assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("mode", list(TD_ORACLE_WALKS))
    @pytest.mark.parametrize(
        "pair",
        [
            (math.nan, 0.0, 0.0, 0.0),
            (math.inf, 0.0, 0.0, 0.0),
            (0.0, 0.0, -math.inf, 0.0),
            (0.1, 0.2, 0.3),
            (0.1, 0.2, 0.3, 0.4, 0.5),
        ],
        ids=["nan", "inf", "minus-inf", "three", "five"],
    )
    def test_bad_pair_rejected(self, pair, mode):
        # a NaN angle used to give an all-NaN series, an infinite one a bare
        # "math domain error", and a fifth entry was ignored
        with pytest.raises(ValueError, match="td_pair"):
            witness_series(WalkConfig(steps=4), None, mode=mode, td_pair=pair)

    def test_identical_pair_reads_zero(self):
        # Delta(t) = 0 exactly in both modes: one-shot subtracts two equal
        # blocks, and stepwise walks the zero start rho1 - rho2. Stepwise,
        # the walkers themselves leave the state space at t = 18
        noise, pair = RtnParams(0.05, 0.008), (0.7, 0.3, 0.7, 0.3)
        td = witness_series(WalkConfig(steps=20), noise, td_pair=pair)["TD"]
        assert np.array_equal(td, np.zeros(21))
        td = witness_series(WalkConfig(steps=17), noise, mode="stepwise", td_pair=pair)["TD"]
        assert np.array_equal(td, np.zeros(18))
        with pytest.raises(NonPhysicalStateError, match=r"state at t=18 has eigenvalue"):
            witness_series(WalkConfig(steps=20), noise, mode="stepwise", td_pair=pair)

    @pytest.mark.parametrize("mode", list(TD_ORACLE_WALKS))
    @pytest.mark.parametrize("pair", TD_PAIRS.values(), ids=TD_PAIRS.keys())
    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    @pytest.mark.parametrize("steps", [40, 31], ids=["even", "odd"])
    @pytest.mark.parametrize("coin_angle", [math.pi / 4, 0.0], ids=["hadamard", "ballistic"])
    def test_long_walks_match_the_two_walker_oracle(self, coin_angle, steps, noise, pair, mode):
        # an odd T ends the walk on the odd sites. Under the diagonal coin
        # C(0) the real amplitudes of the default pair keep exactly equal
        # populations, so the stepwise start rho1 - rho2 keeps an exactly
        # zero diagonal
        cfg = WalkConfig(steps=steps, coin_angle=coin_angle)
        cfg, found, expected = td_and_oracle(cfg, noise, mode, pair)
        assert found.shape == expected.shape == (cfg.steps + 1,)
        assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))

    @pytest.mark.parametrize("mode", list(TD_ORACLE_WALKS))
    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    def test_equal_population_walkers_match_the_oracle(self, noise, mode):
        # under a real coin the conjugate pair's walkers have equal
        # populations at every step, so Delta = rho1 - rho2 has a zero
        # diagonal and its trace norm comes from the coherences alone
        cfg = WalkConfig(steps=30, coin_angle=1.2286)
        pair = TD_PAIRS["conjugate"]
        probs = [
            np.sum(np.abs(evolve_noiseless(replace(cfg, delta=d, eta=e))) ** 2, axis=1)
            for d, e in (pair[:2], pair[2:])
        ]
        np.testing.assert_allclose(probs[0], probs[1], rtol=1e-12, atol=0)
        _, found, expected = td_and_oracle(cfg, noise, mode, pair)
        assert np.max(expected) > 0.1
        assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


class TestLongTimeLimits:
    """The late walk against its closed-form limits: noiseless, one-shot noisy and stepwise."""

    @pytest.mark.parametrize("Gamma", [2.0, 1.0, 0.5])
    def test_stepwise_variance_spreads_at_the_classical_rate(self, Gamma):
        # a Hadamard walk whose step ratio tends to r spreads with the late
        # slope (1 + r^2)/(1 - r^2) (Brun, Carteret, Ambainis, PRA 67, 032304,
        # 2003); under OUN with a fast bath r -> e^(-Gamma/2), so the slope is
        # coth(Gamma/2). The last step of T = 100 grows by it to a relative
        # 2.3e-6 at Gamma = 0.5, and to 1e-11 or closer at Gamma = 1 and 2
        cfg = WalkConfig(steps=100)
        noise = OunParams(Gamma=Gamma, gamma=5.0)
        variance = witness_series(cfg, noise, mode="stepwise", witnesses=("Variance",))["Variance"]
        assert variance[-1] - variance[-2] == pytest.approx(1.0 / math.tanh(Gamma / 2.0), rel=1e-5)

    @pytest.mark.parametrize(
        "delta, eta",
        [(0.0, 0.0), (math.pi / 4, -math.pi / 2), (math.pi / 4, 0.0)],
        ids=["zero", "circular", "plus"],
    )
    def test_hadamard_coin_entropy_tends_to_its_limit(self, delta, eta):
        # S(C_inf) = 0.87243 from each start, the 0.872 of Abal et al., PRA 73,
        # 042302 (2006). The noiseless entropy approaches it as T^(-1/2):
        # sqrt(T) |S(C(T)) - S(C_inf)| reads at most 0.388 from T = 100 to 1600
        limit = von_neumann_entropy(coin_block_limit(math.pi / 4, walk_mod._coin_vector(delta, eta)))
        assert limit == pytest.approx(0.87243, abs=5e-6)
        cfg = WalkConfig(steps=1600, delta=delta, eta=eta)
        entropy = witness_series(cfg, None, witnesses=("Entropy",))["Entropy"]
        t = np.arange(100, cfg.steps + 1)
        assert np.all(np.sqrt(t) * np.abs(entropy[100:] - limit) <= 0.4)

    @pytest.mark.parametrize(
        "noise, k_limit",
        [(OunParams(Gamma=1.0, gamma=5.0), 0.0), (PlnParams(Gamma=0.2, gamma=0.02), math.exp(-0.1))],
        ids=["oun", "pln"],
    )
    @pytest.mark.parametrize(
        "delta, eta",
        [(0.0, 0.0), (math.pi / 4, -math.pi / 2), (math.pi / 4, 0.0), (0.7, 0.3)],
        ids=["zero", "circular", "plus", "generic"],
    )
    def test_one_shot_tags_tend_to_their_kernel_limits(self, noise, k_limit, delta, eta):
        # each one-shot tag is a closed form of C(t) and k(t), so under a
        # kernel with a limit it tends to that form at (C_inf, k_inf): k -> 0
        # under OUN with a fast bath, and to the plateau e^(-Gamma/2) under
        # PLN. The reference walker psi = sqrt(C_inf) has psi psi^dag = C_inf.
        # sqrt(T) |tag(T) - tag_inf| read at most 1.10 from T = 100 to 1600
        # (MID under OUN from |+>), with no growth over that range
        tags = ("Entropy", "MI", "QD", "MID")
        coin = walk_mod._coin_vector(delta, eta)
        w, u = np.linalg.eigh(coin_block_limit(math.pi / 4, coin))
        limits = one_shot_witnesses(((u * np.sqrt(w)) @ u.conj().T)[None], np.array([k_limit]), tags)
        cfg = WalkConfig(steps=1600, delta=delta, eta=eta)
        found = witness_series(cfg, noise, witnesses=tags)
        scale = np.sqrt(np.arange(100, cfg.steps + 1))
        for tag in tags:
            assert np.all(scale * np.abs(found[tag][100:] - limits[tag][0]) <= 1.25), tag

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(theta=st.floats(min_value=0.1, max_value=1.4), delta=ANGLES, eta=ANGLES)
    @example(theta=1.4, delta=2.081461173802089, eta=-2.747524323996315)
    def test_coin_block_tends_to_its_limit(self, theta, delta, eta):
        # the cross terms of C(t) decay as t^(-1/2) for every coin away from
        # theta = 0, where the eigenvalues of U(k) meet, and pi/2, where U(k)^2
        # is the identity and C(t) does not converge. On [0.1, 1.4] the largest
        # sqrt(T) ||C(T) - C_inf||_F of T <= 1600 measured 1.18 (the example, at
        # T = 6), and it grows towards pi/2
        coin = walk_mod._coin_vector(delta, eta)
        cfg = WalkConfig(steps=1600, coin_angle=theta, delta=delta, eta=eta)
        blocks = witness_mod._one_shot_blocks(cfg, coin[None], ("Entropy",))[0][:, 0]
        error = np.linalg.norm(blocks - coin_block_limit(theta, coin), axis=(1, 2))
        assert np.all(np.sqrt(np.arange(cfg.steps + 1)) * error <= 1.5)


def binary_entropy(p):
    """h(p) = -p log2 p - (1 - p) log2 (1 - p) in bits, for p in (0, 1)."""
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


class TestClassicalEnd:
    """Stepwise mode where its coherences vanish, against the classical walks it becomes."""

    #: every step ratio of OUN(40, 5) after t = 1 is at most 2.1e-9 (its
    #: runs are refused from T = 37 on, where the kernel underflows)
    NOISE = OunParams(Gamma=40.0, gamma=5.0)

    @pytest.mark.parametrize("delta, eta", [(0.7, 0.5), (0.3, 1.9), (1.1, 0.0)])
    @pytest.mark.parametrize(
        "theta, mi_tol", [(math.pi / 4, 1e-12), (math.pi / 5, 1e-12), (1.2, 1e-10)], ids=["pi/4", "pi/5", "1.2"]
    )
    def test_stepwise_walk_becomes_the_persistent_walk(self, theta, mi_tol, delta, eta):
        # Entropy and Variance match to 8.5e-14 or closer, and MI to 8.2e-15
        # at pi/4 and pi/5. At theta = 1.2 a coin keeps its direction with
        # probability cos^2 1.2 = 0.13 per step, so by t = 30 the tails hold
        # 24 joint and 12 position populations below EIGENVALUE_CUTOFF, which
        # the library's entropies count as zero and the chain does not: MI
        # reads 4.2e-11 high there, at OUN(30, 5) as at OUN(40, 5)
        cfg = WalkConfig(steps=30, coin_angle=theta, delta=delta, eta=eta)
        found = witness_series(cfg, self.NOISE, mode="stepwise", witnesses=("Entropy", "MI", "Variance"))
        expected = persistent_walk(cfg)
        for tag, tol in (("Entropy", 1e-12), ("MI", mi_tol), ("Variance", 1e-12)):
            np.testing.assert_allclose(found[tag], expected[tag], rtol=0.0, atol=tol, err_msg=tag)

    @pytest.mark.parametrize("theta, tol", [(math.pi / 4, 1e-12), (1.2, 1e-10)], ids=["pi/4", "1.2"])
    def test_persistent_walk_states_hold_no_quantum_correlations(self, theta, tol):
        # a diagonal state has QD = MID = 0; measured at most 3.4e-13 at pi/4.
        # At theta = 1.2 QD reads 5.6e-11: its conditional entropies count
        # every positive eigenvalue, and S(rho) drops the tails' populations
        # below EIGENVALUE_CUTOFF (see above)
        cfg = WalkConfig(steps=30, coin_angle=theta, delta=0.7, eta=0.5)
        found = witness_series(cfg, self.NOISE, mode="stepwise", witnesses=("QD", "MID"))
        for tag, values in found.items():
            assert np.max(np.abs(values)) <= tol, tag

    @pytest.mark.parametrize(
        "noise", [OunParams(Gamma=0.1, gamma=0.01), RtnParams(a=0.05, gamma=0.5)], ids=["oun", "rtn-overdamped"]
    )
    def test_straight_coin_matches_its_closed_form(self, noise):
        # at coin angle 0 the walker is c|0, -t> + s e^(-i eta) |1, t> up to a
        # sign, c = cos delta and s = sin delta, with its coherence scaled by
        # k(t). Both marginals are diag(c^2, s^2), so Entropy = h(c^2); the
        # joint spectrum is lambda+- = (1 +- sqrt((c^2 - s^2)^2 + k^2 sin^2 2 delta)) / 2,
        # so MI = 2 h(c^2) - S(lambda), and measuring the coin leaves pure
        # position states, so QD = MID = h(c^2) - S(lambda)
        cfg = WalkConfig(steps=20, coin_angle=0.0, delta=0.7, eta=0.5)
        tags = ("Entropy", "MI", "QD", "MID")
        found = witness_series(cfg, noise, mode="stepwise", witnesses=tags)
        c2 = math.cos(cfg.delta) ** 2
        k = kernel_value(noise, np.arange(1.0, cfg.steps + 1))
        root = np.sqrt((2.0 * c2 - 1.0) ** 2 + (k * math.sin(2.0 * cfg.delta)) ** 2)
        marginal, joint = binary_entropy(c2), binary_entropy((1.0 + root) / 2.0)
        expected = {"Entropy": marginal, "MI": 2.0 * marginal - joint, "QD": marginal - joint}
        expected["MID"] = expected["QD"]
        for tag in tags:
            assert found[tag][0] == pytest.approx(0.0, abs=1e-12), tag
            np.testing.assert_allclose(found[tag][1:], expected[tag], rtol=0.0, atol=1e-12, err_msg=tag)
