import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import dense_one_shot, density_from_factor
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nmqwalk.witness as witness_mod
from nmqwalk.exceptions import DimensionMismatchError
from nmqwalk.noise import SIGMA_3, OunParams, PlnParams, RtnParams, kraus_at
from nmqwalk.qops import partial_trace
from nmqwalk.walk import (
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
    coin_entropy,
    discord,
    mid,
    mutual_information,
    trace_distance,
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


def single_state_values(cfg, noise, evolve):
    """Every witness tag at each step, from the public single-state functions
    applied to the dense states that ``evolve`` yields."""
    split = (2, cfg.n_positions)
    positions = lattice_positions(cfg.steps).astype(float)
    d1, e1, d2, e2 = DEFAULT_TD_PAIR
    values = {tag: [] for tag in WITNESS_TAGS}
    values["TD"] = [
        trace_distance(partial_trace(r1, split, "coin"), partial_trace(r2, split, "coin"))
        for (_, r1), (_, r2) in zip(
            evolve(replace(cfg, delta=d1, eta=e1), noise),
            evolve(replace(cfg, delta=d2, eta=e2), noise),
        )
    ]
    for _, rho in evolve(cfg, noise):
        values["MI"].append(mutual_information(rho))
        values["MID"].append(mid(rho))
        values["QD"].append(discord(rho))
        values["Entropy"].append(coin_entropy(rho))
        values["Variance"].append(
            distribution_variance(position_distribution(rho), positions)
        )
    return values


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


@st.composite
def one_shot_factors(draw):
    """A Kraus factor for k in [-1, 1] and a random psi in C^2 (x) C^n, n <= 6."""
    n = draw(st.integers(min_value=1, max_value=6))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n, max_size=4 * n)))
    psi = parts[: 2 * n] + 1j * parts[2 * n :]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    return kraus_factor((psi / norm).reshape(2, n), draw(st.floats(-1.0, 1.0)))


PUBLIC_MEASURES = (mutual_information, mid, discord, coin_entropy)


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
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_two_bits(self):
        assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-12)

    def test_noiseless_walk_step_two_maximally_entangled(self):
        cfg = WalkConfig(steps=2)
        rho = dict(dense_one_shot(cfg, None))[2]
        assert mutual_information(rho) == pytest.approx(2.0, abs=1e-10)


class TestMid:
    def test_product_state_zero(self):
        rng = np.random.default_rng(7)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert mid(rho) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_one_bit(self):
        # both marginals are I/2: the canonical basis rule decides
        assert mid(BELL) == pytest.approx(1.0, abs=1e-9)

    def test_classical_classical_state_zero(self):
        # table chosen so both marginals are non-degenerate
        rho = classical_classical([[0.35, 0.25], [0.1, 0.3]])
        assert mid(rho) == pytest.approx(0.0, abs=1e-9)

    def test_gram_route_keeps_the_canonical_basis(self):
        # psi = |0>(e1 + e2)/2 + |1>(e1 - e2)/2: the position marginal is I/2
        # on sites 1 and 2, where the 2 x 2 Gram route first finds the
        # vectors (e1 +- e2)/sqrt(2); only the canonical basis e1, e2 gives
        # the dense value
        amps = np.zeros((2, 5), dtype=complex)
        amps[0, 1:3] = 0.5
        amps[1, 1:3] = 0.5, -0.5
        factor = np.einsum("rcd,dj->cjr", kraus_at(RtnParams(a=0.9, gamma=0.5), 2.0), amps)
        assert mid(factor) == pytest.approx(mid(density_from_factor(factor)), abs=1e-12)

    def test_deterministic_under_degeneracy(self):
        assert mid(BELL) == mid(BELL)

    def test_pure_walk_states_equal_coin_entropy(self):
        # Luo's MID of a pure state is its entanglement entropy. The
        # position marginal has rank <= 2, so on the T = 100 lattice its
        # kernel is a 201-fold degenerate eigenspace whose rebuilt basis
        # must stay orthonormal.
        cfg = WalkConfig(steps=100)
        split = (2, cfg.n_positions)
        eye = np.eye(cfg.n_positions)
        for t, rho in dense_one_shot(cfg, None):
            assert mid(rho) == pytest.approx(coin_entropy(rho), abs=1e-9), f"t={t}"
            u = _canonical_eigenbasis(partial_trace(rho, split, "position"))
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10, f"t={t}"


class TestDiscord:
    def test_product_state_zero(self):
        rng = np.random.default_rng(11)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert discord(rho) == pytest.approx(0.0, abs=1e-6)

    def test_classical_classical_state_zero(self):
        rho = classical_classical([[0.4, 0.1], [0.2, 0.3]])
        assert discord(rho) == pytest.approx(0.0, abs=1e-6)

    def test_fully_dephased_factor_not_negative(self):
        # psi = i(0.970 |coin 0, site 1> + 0.243 |coin 1, site 0>) at k = 0 is
        # classical-classical; dropping its conditional eigenvalues below
        # 1e-12 from the entropy makes its discord read -2.55e-12
        psi = np.zeros((2, 2), dtype=complex)
        psi[0, 1], psi[1, 0] = 0.970j, 0.243j
        qd = discord(kraus_factor(psi / np.linalg.norm(psi), 0.0))
        assert qd == pytest.approx(0.0, abs=1e-15)

    def test_bell_state_one_bit(self):
        assert discord(BELL) == pytest.approx(1.0, abs=1e-6)
        # the classical correlation J = MI - QD
        assert mutual_information(BELL) - discord(BELL) == pytest.approx(1.0, abs=1e-6)

    def test_bounded_by_mid_on_walk_states(self):
        cfg = WalkConfig(steps=8)
        noise = RtnParams(a=0.08, gamma=0.01)
        for t, rho in dense_one_shot(cfg, noise):
            d = discord(rho)
            m = mid(rho)
            assert -1e-6 <= d <= m + 1e-6


class TestScalarWitnesses:
    def test_initial_coin_entropy_zero(self):
        cfg = WalkConfig(steps=3)
        rho = dict(dense_one_shot(cfg, None))[0]
        assert coin_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_entangled_coin_fully_mixed(self):
        # killing the coherences of a Bell state leaves the coin at I/2
        dephased = np.diag(np.diag(BELL))
        assert coin_entropy(dephased) == pytest.approx(1.0, abs=1e-12)

    def test_variance_point_mass(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert distribution_variance(p, lattice_positions(1)) == 0.0

    def test_variance_symmetric_pair(self):
        # weights 1/2 at x = -2 and x = 0 on the 5-site lattice [-2..2]
        p = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
        assert distribution_variance(p, lattice_positions(1)) == pytest.approx(1.0)


class TestStateForms:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(factor=one_shot_factors())
    def test_factor_equals_its_density_matrix(self, factor):
        rho = density_from_factor(factor)
        assert mutual_information(factor) == pytest.approx(mutual_information(rho), abs=1e-12)
        assert coin_entropy(factor) == pytest.approx(coin_entropy(rho), abs=1e-12)
        m = mid(factor)
        qd = discord(factor)
        assert m == pytest.approx(mid(rho), abs=1e-9)
        assert qd == pytest.approx(discord(rho), abs=1e-9)
        # QD >= 0 up to rounding; QD <= MID to the tolerance of the comparisons above
        assert -1e-12 <= qd <= m + 1e-9

    @pytest.mark.parametrize(
        "shape", [(5, 5), (3, 4, 2), (2, 6)], ids=["odd-square", "qutrit-factor", "non-square"]
    )
    @pytest.mark.parametrize("measure", PUBLIC_MEASURES, ids=lambda f: f.__name__)
    def test_other_shapes_rejected(self, measure, shape):
        with pytest.raises(DimensionMismatchError):
            measure(np.ones(shape))


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
        [("one_shot", dense_one_shot), ("stepwise", evolve_stepwise)],
        ids=["one_shot-evolve_one_shot", "stepwise-evolve_stepwise"],
    )
    def test_one_pass_matches_single_state_functions(self, mode, oracle):
        cfg = WalkConfig(steps=8, delta=0.7, eta=0.3)
        noise = RtnParams(a=0.08, gamma=0.01)
        found = witness_series(cfg, noise, mode=mode, witnesses=WITNESS_TAGS)
        assert list(found) == list(WITNESS_TAGS)
        expected = single_state_values(cfg, noise, oracle)
        for tag in WITNESS_TAGS:
            if mode == "stepwise":
                # the same dense matrices through the same calls
                np.testing.assert_array_equal(found[tag], expected[tag], err_msg=tag)
            else:
                # rank-2 factor against dense matrices: rounding differs
                assert_matches_oracle(found[tag], expected[tag], tag)

    @pytest.mark.parametrize("noise", ORACLE_NOISES.values(), ids=ORACLE_NOISES.keys())
    def test_rank2_one_shot_matches_dense_oracle(self, noise):
        cfg = WalkConfig(steps=ORACLE_STEPS, delta=0.7, eta=0.3)
        found = witness_series(cfg, noise, witnesses=WITNESS_TAGS)
        expected = single_state_values(cfg, noise, dense_one_shot)
        for tag in WITNESS_TAGS:
            assert_matches_oracle(found[tag], expected[tag], tag)

    def test_one_walk_for_all_single_walker_tags(self, monkeypatch):
        calls = []

        def counting(cfg, noise):
            calls.append(cfg)
            return evolve_one_shot(cfg, noise)

        monkeypatch.setattr(witness_mod, "evolve_one_shot", counting)
        cfg = WalkConfig(steps=4)
        noise = RtnParams(a=0.08, gamma=0.01)
        single = tuple(tag for tag in WITNESS_TAGS if tag != "TD")
        witness_series(cfg, noise, witnesses=single)
        assert len(calls) == 1
        witness_series(cfg, noise, witnesses=("TD", *single))
        assert len(calls) == 1 + 3

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
