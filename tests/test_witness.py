from dataclasses import replace

import numpy as np
import pytest

import nmqwalk.witness as witness_mod
from nmqwalk.exceptions import DimensionMismatchError
from nmqwalk.noise import RtnParams
from nmqwalk.qops import density_from_pure, partial_trace
from nmqwalk.walk import (
    WalkConfig,
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

BELL = density_from_pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
PLUS = density_from_pure(np.array([1, 1]) / np.sqrt(2))
MINUS = density_from_pure(np.array([1, -1]) / np.sqrt(2))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


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
        assert mutual_information(rho, (2, 3)) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_two_bits(self):
        assert mutual_information(BELL, (2, 2)) == pytest.approx(2.0, abs=1e-12)

    def test_noiseless_walk_step_two_maximally_entangled(self):
        cfg = WalkConfig(steps=2)
        rho = dict(evolve_one_shot(cfg, None))[2]
        assert mutual_information(rho, (2, cfg.n_positions)) == pytest.approx(
            2.0, abs=1e-10
        )


class TestMid:
    def test_product_state_zero(self):
        rng = np.random.default_rng(7)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert mid(rho, (2, 3)).value == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_one_bit(self):
        result = mid(BELL, (2, 2))
        assert result.value == pytest.approx(1.0, abs=1e-9)
        assert result.degenerate_marginal  # both marginals are I/2

    def test_classical_classical_state_zero(self):
        # table chosen so both marginals are non-degenerate
        rho = classical_classical([[0.35, 0.25], [0.1, 0.3]])
        result = mid(rho, (2, 2))
        assert result.value == pytest.approx(0.0, abs=1e-9)
        assert not result.degenerate_marginal

    def test_degeneracy_flagged_only_inside_the_support(self):
        # the position marginal of a walk state has rank <= 2, so its kernel
        # is always degenerate; only t = 2, where the coin marginal is I/2,
        # has a degenerate eigenvalue inside a support
        cfg = WalkConfig(steps=20)
        split = (2, cfg.n_positions)
        noise = RtnParams(a=0.05, gamma=0.008)
        flagged = [
            t for t, rho in evolve_one_shot(cfg, noise)
            if mid(rho, split).degenerate_marginal
        ]
        assert flagged == [2]

    def test_deterministic_under_degeneracy(self):
        a = mid(BELL, (2, 2)).value
        b = mid(BELL, (2, 2)).value
        assert a == b

    def test_pure_walk_states_equal_coin_entropy(self):
        # Luo's MID of a pure state is its entanglement entropy. The
        # position marginal has rank <= 2, so on the T = 100 lattice its
        # kernel is a 201-fold degenerate eigenspace whose rebuilt basis
        # must stay orthonormal.
        cfg = WalkConfig(steps=100)
        split = (2, cfg.n_positions)
        eye = np.eye(cfg.n_positions)
        for t, rho in evolve_one_shot(cfg, None):
            assert mid(rho, split).value == pytest.approx(
                coin_entropy(rho, split), abs=1e-9
            ), f"t={t}"
            u, _ = _canonical_eigenbasis(partial_trace(rho, split, "position"))
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10, f"t={t}"


class TestDiscord:
    def test_product_state_zero(self):
        rng = np.random.default_rng(11)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert discord(rho, (2, 3)).value == pytest.approx(0.0, abs=1e-6)

    def test_classical_classical_state_zero(self):
        rho = classical_classical([[0.4, 0.1], [0.2, 0.3]])
        assert discord(rho, (2, 2)).value == pytest.approx(0.0, abs=1e-6)

    def test_bell_state_one_bit(self):
        result = discord(BELL, (2, 2))
        assert result.value == pytest.approx(1.0, abs=1e-6)
        assert result.classical_correlation == pytest.approx(1.0, abs=1e-6)

    def test_bounded_by_mid_on_walk_states(self):
        cfg = WalkConfig(steps=8)
        noise = RtnParams(a=0.08, gamma=0.01)
        for t, rho in evolve_one_shot(cfg, noise):
            split = (2, cfg.n_positions)
            d = discord(rho, split).value
            m = mid(rho, split).value
            assert -1e-6 <= d <= m + 1e-6

    def test_qutrit_coin_rejected(self):
        with pytest.raises(DimensionMismatchError):
            discord(np.eye(6) / 6, (3, 2))


class TestScalarWitnesses:
    def test_initial_coin_entropy_zero(self):
        cfg = WalkConfig(steps=3)
        rho = dict(evolve_one_shot(cfg, None))[0]
        assert coin_entropy(rho, (2, cfg.n_positions)) == pytest.approx(0.0, abs=1e-12)

    def test_dephased_entangled_coin_fully_mixed(self):
        # killing the coherences of a Bell state leaves the coin at I/2
        dephased = np.diag(np.diag(BELL))
        assert coin_entropy(dephased, (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_variance_point_mass(self):
        p = np.zeros(5)
        p[2] = 1.0
        assert distribution_variance(p, lattice_positions(1)) == 0.0

    def test_variance_symmetric_pair(self):
        # weights 1/2 at x = -2 and x = 0 on the 5-site lattice [-2..2]
        p = np.array([0.5, 0.0, 0.5, 0.0, 0.0])
        assert distribution_variance(p, lattice_positions(1)) == pytest.approx(1.0)


class TestSeries:
    def test_mi_starts_at_zero_and_lengths_match(self):
        cfg = WalkConfig(steps=12)
        s = witness_series(cfg, RtnParams(a=0.9, gamma=0.05), witnesses=("MI",))["MI"]
        assert len(s.steps) == len(s.values) == 13
        assert s.values[0] == pytest.approx(0.0, abs=1e-9)
        assert np.all(s.values >= -1e-9)

    def test_noiseless_td_non_monotonic_and_bounded(self):
        s = witness_series(WalkConfig(steps=30), None)["TD"]
        assert np.all((s.values >= -1e-12) & (s.values <= 1 + 1e-12))
        assert np.any(np.diff(s.values) > 1e-6)

    def test_td_orthogonal_pair_starts_at_one(self):
        s = witness_series(WalkConfig(steps=4), None, witnesses=("TD",))["TD"]
        assert s.values[0] == pytest.approx(1.0, abs=1e-12)

    def test_variance_series_matches_direct(self):
        cfg = WalkConfig(steps=6)
        s = witness_series(cfg, None, witnesses=("Variance",))["Variance"]
        assert s.values[2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "mode, evolve", [("one_shot", evolve_one_shot), ("stepwise", evolve_stepwise)]
    )
    def test_one_pass_matches_single_state_functions(self, mode, evolve):
        cfg = WalkConfig(steps=8, delta=0.7, eta=0.3)
        noise = RtnParams(a=0.08, gamma=0.01)
        split = (2, cfg.n_positions)
        positions = lattice_positions(cfg.steps).astype(float)
        found = witness_series(cfg, noise, mode=mode, witnesses=WITNESS_TAGS)
        assert list(found) == list(WITNESS_TAGS)

        d1, e1, d2, e2 = DEFAULT_TD_PAIR
        td = [
            trace_distance(partial_trace(r1, split, "coin"), partial_trace(r2, split, "coin"))
            for (_, r1), (_, r2) in zip(
                evolve(replace(cfg, delta=d1, eta=e1), noise),
                evolve(replace(cfg, delta=d2, eta=e2), noise),
            )
        ]
        expected = {tag: [] for tag in WITNESS_TAGS}
        expected["TD"] = td
        for _, rho in evolve(cfg, noise):
            expected["MI"].append(mutual_information(rho, split))
            expected["MID"].append(mid(rho, split).value)
            expected["QD"].append(discord(rho, split).value)
            expected["Entropy"].append(coin_entropy(rho, split))
            expected["Variance"].append(
                distribution_variance(position_distribution(rho, cfg.n_positions), positions)
            )
        for tag in WITNESS_TAGS:
            assert found[tag].witness == tag
            np.testing.assert_array_equal(found[tag].steps, np.arange(cfg.steps + 1))
            np.testing.assert_array_equal(found[tag].values, expected[tag], err_msg=tag)

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
        assert len(found["MI"].values) == 5

    def test_unknown_witness_rejected(self):
        with pytest.raises(ValueError):
            witness_series(WalkConfig(steps=4), None, witnesses=("MI", "Negativity"))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            witness_series(WalkConfig(steps=4), None, mode="exact", witnesses=("MI",))
