import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    SIDED_NOISES,
    basis_start,
    dense_one_shot,
    density_from_factor,
    embed,
    evolve_noiseless,
    koashi_winter_discord,
    one_shot_witnesses,
    rho_pe_concurrence,
    trace_distance,
    two_walker_trace_distances,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import nmqwalk.walk as walk_mod
import nmqwalk.witness as witness_mod
from nmqwalk.exceptions import DimensionMismatchError, NmqwalkError
from nmqwalk.noise import SIGMA_3, OunParams, PlnParams, RtnParams, kernel_value, kraus_at
from nmqwalk.qops import partial_trace
from nmqwalk.walk import (
    EDGE_AMPLITUDE_TOL,
    WalkConfig,
    density_from_amplitudes,
    distribution_variance,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)
from nmqwalk.witness import (
    DEFAULT_TD_PAIR,
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
    state that ``evolve`` yields with its sites, measured one at a time."""
    positions = lattice_positions(cfg).astype(float)
    values = {tag: [] for tag in WITNESS_TAGS}
    values["TD"] = two_walker_trace_distances(cfg, noise, evolve, td_pair)
    for _, rho, sites in evolve(cfg, noise):
        state = _State(rho)
        values["MI"].append(state.mutual_information)
        values["MID"].append(_mid(state))
        values["QD"].append(state.discord)
        values["Entropy"].append(state.coin_entropy)
        values["Variance"].append(
            distribution_variance(position_distribution(rho), positions[sites])
        )
    return values


def dense_one_shot_states(cfg, noise):
    """The states of ``dense_one_shot`` with the sites they cover, the whole lattice."""
    sites = np.arange(cfg.n_positions)
    for t, rho in dense_one_shot(cfg, noise):
        yield t, rho, sites


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
        with pytest.raises(DimensionMismatchError):
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
        assert _State(rho).mutual_information == pytest.approx(2.0, abs=1e-10)


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
        # the series loop meets the psi of the Gram-route test above at
        # every step of a walk on 5 sites, so it must build each step's
        # canonical position frame from the amplitudes it holds; a walk from
        # one site reaches such a step rarely, with exactly equal coin
        # populations and zero coin coherence. psi enters as the basis walk
        # psi_0, which is the walker itself for the coin |0> (delta = 0)
        amps = np.zeros((2, 5))
        amps[0, 1:3] = 0.5
        amps[1, 1:3] = 0.5, -0.5
        basis = np.stack([amps, np.zeros((2, 5))], axis=1)  # (coin, basis walk, site)
        steps = [(t, basis, np.arange(5)) for t in (0, 1)]
        monkeypatch.setattr(witness_mod, "_basis_walks", lambda cfg, coins: iter(steps))
        noise = RtnParams(a=0.9, gamma=0.5)
        found = witness_series(WalkConfig(steps=1, delta=0.0), noise, witnesses=("MID",))["MID"]
        expected = [
            _mid(_State(density_from_factor(np.einsum("rcd,dj->cjr", kraus_at(noise, t), amps))))
            for t in (0.0, 1.0)
        ]
        np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-12)

    def test_deterministic_under_degeneracy(self):
        assert _mid(_State(BELL)) == _mid(_State(BELL))

    def test_pure_walk_states_equal_coin_entropy(self):
        # Luo's MID of a pure state is its entanglement entropy. _State keeps
        # rho on its support of t + 1 sites only. The full position marginal
        # on the T = 100 lattice has rank <= 2, so its kernel is a 201-fold
        # degenerate eigenspace; the explicit eigenbasis check below, not
        # _mid, covers that its rebuilt basis stays orthonormal.
        cfg = WalkConfig(steps=100)
        split = (2, cfg.n_positions)
        eye = np.eye(cfg.n_positions)
        for t, rho in dense_one_shot(cfg, None):
            state = _State(rho)
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
            state = _State(rho)
            assert -1e-6 <= state.discord <= _mid(state) + 1e-6


class TestScalarWitnesses:
    def test_initial_coin_entropy_zero(self):
        cfg = WalkConfig(steps=3)
        rho = dict(dense_one_shot(cfg, None))[0]
        assert _State(rho).coin_entropy == pytest.approx(0.0, abs=1e-12)

    def test_dephased_entangled_coin_fully_mixed(self):
        # killing the coherences of a Bell state leaves the coin at I/2
        dephased = np.diag(np.diag(BELL))
        assert _State(dephased).coin_entropy == pytest.approx(1.0, abs=1e-12)

    def test_variance_point_mass(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert distribution_variance(p, lattice_positions(WalkConfig(steps=1))) == 0.0

    def test_variance_symmetric_pair(self):
        # weights 1/2 at x = -2 and x = 0 on the 5-site lattice [-2..2]
        p = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
        assert distribution_variance(p, lattice_positions(WalkConfig(steps=1))) == pytest.approx(1.0)


class FullLatticeState(_State):
    """A dense state measured on every site, as before the support compression."""

    def __init__(self, rho):
        self.rho = rho
        self._dims = (2, rho.shape[0] // 2)


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
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rho=hermitian_with_empty_sites())
    @example(rho=np.zeros((6, 6)))
    @example(rho=INDEFINITE_WITH_EMPTY_SITE)
    def test_compression_keeps_spectra_and_witnesses(self, rho):
        n = rho.shape[0] // 2
        state = _State(rho)
        full = FullLatticeState(rho)
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
        assert state.mutual_information == pytest.approx(full.mutual_information, abs=1e-12)
        assert _mid(state) == pytest.approx(_mid(full), abs=1e-12)
        assert state.discord == pytest.approx(full.discord, abs=1e-9)

    def test_stepwise_states_keep_their_light_cone(self):
        # the yielded block is the support of the state on the whole lattice:
        # no site of the light cone is empty, and no other site is not
        cfg = WalkConfig(steps=60, delta=0.7, eta=0.3)
        for t, rho, sites in evolve_stepwise(cfg, OunParams(Gamma=0.1, gamma=0.01)):
            assert _State(rho)._dims == (2, t + 1), f"t={t}"
            full = _State(embed(rho, sites, cfg.n_positions))
            assert full._dims == (2, t + 1), f"t={t}"
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
TD_ORACLE_WALKS = {"one_shot": evolve_one_shot, "stepwise": evolve_stepwise}
ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def one_shot_walks(draw):
    """A walk of T <= 8 steps from any x0 in [-T - 1, T + 1], with any coin
    and start, and its kernel: a noise model, or T + 1 values in [-1, 1] that
    often hit -1, 0 and 1."""
    steps = draw(st.integers(min_value=0, max_value=8))
    cfg = WalkConfig(
        steps=steps,
        coin_angle=draw(ANGLES),
        delta=draw(ANGLES),
        eta=draw(ANGLES),
        initial_position=draw(st.integers(min_value=-steps - 1, max_value=steps + 1)),
    )
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
        ids=["one_shot-evolve_one_shot", "stepwise-evolve_stepwise"],
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
        # one walk of the basis pair feeds the single walker and the TD pair,
        # and its edge guard reads those walkers; no one-shot state is formed
        calls = []
        walks = walk_mod._basis_walks

        def counting(cfg, coins):
            calls.append(len(coins))
            return walks(cfg, coins)

        def refuse(*args, **kwargs):
            raise AssertionError("witness_series formed one-shot states")

        monkeypatch.setattr(walk_mod, "_basis_walks", counting)
        monkeypatch.setattr(witness_mod, "_basis_walks", counting)
        monkeypatch.setattr(walk_mod, "evolve_one_shot", refuse)
        witness_series(WalkConfig(steps=4), RtnParams(a=0.08, gamma=0.01), witnesses=tags)
        assert calls == [walkers]

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
        walk=(WalkConfig(steps=5, delta=0.7, eta=0.3, initial_position=-6), OunParams(0.1, 0.01)),
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
        sites = np.arange(cfg.n_positions)

        def oracle(c, _):
            for t, rho in dense_one_shot(c, None, ks):
                yield t, rho, sites

        expected = single_state_values(cfg, None, oracle, pair)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(witness_mod, "kernel_value", lambda noise, t: ks)
            found = witness_series(cfg, None, witnesses=WITNESS_TAGS, td_pair=pair)
        for tag in WITNESS_TAGS:
            assert found[tag].shape == (cfg.steps + 1,), tag
            if tag == "Variance":
                # the variance rounds on the scale of <x^2>, up to half_width^2,
                # so a zero variance off the origin reads ~1e-32 in one path
                np.testing.assert_allclose(
                    found[tag], expected[tag], rtol=1e-12, atol=1e-12 * cfg.half_width**2
                )
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
        # evolve_stepwise runs the same block walk as the TD pair
        calls = []
        blocks = walk_mod._light_cone_blocks

        def counting(cfg, noise, start):
            calls.append(start)
            return blocks(cfg, noise, start)

        monkeypatch.setattr(walk_mod, "_light_cone_blocks", counting)
        monkeypatch.setattr(witness_mod, "_light_cone_blocks", counting)
        cfg = WalkConfig(steps=4)
        noise = OunParams(Gamma=0.1, gamma=0.01)
        witness_series(cfg, noise, mode="stepwise", witnesses=("TD",))
        assert len(calls) == 1
        witness_series(cfg, noise, mode="stepwise", witnesses=("TD", "Entropy"))
        assert len(calls) == 1 + 2

    def test_optimizer_runs_only_on_dense_states(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the discord optimizer ran on a one-shot factor")

        optimizer = witness_mod.minimize
        monkeypatch.setattr(witness_mod, "minimize", refuse)
        cfg = WalkConfig(steps=ORACLE_STEPS, delta=0.7, eta=0.3)
        for noise in ORACLE_NOISES.values():
            witness_series(cfg, noise, witnesses=("QD",))

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return optimizer(*args, **kwargs)

        monkeypatch.setattr(witness_mod, "minimize", counting)
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
    """A walk of T <= 40 steps from any start x0 in [-T - 1, T + 1]."""
    steps = draw(st.integers(min_value=0, max_value=40))
    return WalkConfig(
        steps=steps,
        coin_angle=draw(ANGLES),
        initial_position=draw(st.integers(min_value=-steps - 1, max_value=steps + 1)),
    )


class TestCoinMap:
    """Every walker's noiseless coin block from the Gram matrix of one walk of
    the basis pair, the one-shot coin map L_t."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=td_walks(), starts=st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=4))
    @example(cfg=WalkConfig(steps=40, coin_angle=0.6, initial_position=-41), starts=[(0.7, 0.3)])
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
        cfg = WalkConfig(steps=ORACLE_STEPS, coin_angle=0.6, initial_position=3)
        pairs = np.random.default_rng(20).uniform(-math.pi, math.pi, size=(8, 4))
        coins = np.array([walk_mod._coin_vector(*half) for half in pairs.reshape(16, 2)])
        blocks = witness_mod._one_shot_blocks(cfg, coins, ())[0]
        k = np.clip(kernel_value(noise, np.arange(cfg.steps + 1.0)), -1.0, 1.0)
        delta = blocks[:, 0::2] - blocks[:, 1::2]
        delta[:, :, 0, 1] *= k[:, None]
        delta[:, :, 1, 0] *= k[:, None]
        for p, pair in enumerate(pairs):
            found = [trace_distance(d, np.zeros((2, 2))) for d in delta[:, p]]
            expected = two_walker_trace_distances(cfg, noise, evolve_one_shot, tuple(pair))
            assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))


def outcome(run):
    """What ``run()`` returns, or the name of the error type it raises."""
    try:
        return run()
    except NmqwalkError as exc:
        return type(exc).__name__


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
        # Delta(t) = 0 exactly in one-shot mode; the stepwise block of
        # X = (1 + i) rho cancels only up to rounding
        cfg = WalkConfig(steps=20)
        pair = (0.7, 0.3, 0.7, 0.3)
        for mode in TD_ORACLE_WALKS:
            td = witness_series(cfg, RtnParams(0.05, 0.008), mode=mode, td_pair=pair)["TD"]
            assert np.all(np.abs(td) <= 1e-15), mode

    @pytest.mark.parametrize("mode", list(TD_ORACLE_WALKS))
    @pytest.mark.parametrize("pair", TD_PAIRS.values(), ids=TD_PAIRS.keys())
    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    @pytest.mark.parametrize(
        "steps, x0, coin_angle",
        [(30, -31, math.pi / 4), (30, 31, math.pi / 4), (40, 5, math.pi / 4), (40, 5, 0.0)],
        ids=["at-left-edge", "at-right-edge", "off-centre", "off-centre-ballistic"],
    )
    def test_edge_walkers_fail_as_the_two_walker_oracle(
        self, steps, x0, coin_angle, noise, pair, mode, origin_lattice
    ):
        # the fixture narrows the lattice so that both walkers reach an edge.
        # Under the diagonal coin C(0) the real amplitudes of the default pair
        # keep exactly equal populations, so an evolution of rho1 - rho2 alone
        # would have an exactly zero diagonal and never meet the guard
        cfg = WalkConfig(steps=steps, coin_angle=coin_angle, initial_position=x0)
        expected = outcome(
            lambda: two_walker_trace_distances(cfg, noise, TD_ORACLE_WALKS[mode], pair)
        )
        found = outcome(
            lambda: witness_series(cfg, noise, mode=mode, witnesses=("TD",), td_pair=pair)["TD"]
        )
        assert expected == "EdgeAmplitudeError"
        assert found == expected

    @pytest.mark.parametrize("mode", list(TD_ORACLE_WALKS))
    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    def test_edge_guard_reads_each_walker_on_its_own(self, noise, mode, origin_lattice):
        # at T = 30 both walkers of the conjugate pair reach the right edge,
        # and only there, with one amplitude a just under the guard's bound.
        # The stepwise block X = rho1 + i rho2 has X_ii = (1 + i) a^2 there, so
        # a guard on sqrt|X_ii| = 2^(1/4) a would fire where neither walker does
        cfg = WalkConfig(steps=30, coin_angle=1.2286, initial_position=1)
        pair = TD_PAIRS["conjugate"]
        edges = [
            np.max(np.abs(evolve_noiseless(replace(cfg, delta=d, eta=e))[-1, :, -1]))
            for d, e in (pair[:2], pair[2:])
        ]
        assert edges[0] == pytest.approx(edges[1], rel=1e-12)
        assert 2**-0.25 < edges[0] / EDGE_AMPLITUDE_TOL < 1
        expected = two_walker_trace_distances(cfg, noise, TD_ORACLE_WALKS[mode], pair)
        found = witness_series(cfg, noise, mode=mode, witnesses=("TD",), td_pair=pair)["TD"]
        assert np.all(np.abs(found - expected) <= 1e-12 * np.maximum(1.0, np.abs(expected)))
