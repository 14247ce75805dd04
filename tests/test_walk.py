import math

import numpy as np
import pytest

import nmqwalk.walk as walk_mod
from nmqwalk.exceptions import EdgeAmplitudeError, NonInvertibleMapError
from nmqwalk.noise import RtnParams
from nmqwalk.qops import check_density_matrix
from nmqwalk.walk import (
    WalkConfig,
    coin_operator,
    distribution_variance,
    evolve_noiseless,
    evolve_one_shot,
    evolve_stepwise,
    initial_state,
    lattice_positions,
    position_distribution,
)


def shift_operator(n_positions: int) -> np.ndarray:
    """Dense coin-conditioned shift S on the truncated lattice (test oracle).

    Interior columns are isometric; the two boundary columns map outside
    the lattice and are zeroed, so S is only a partial isometry. Evolution
    routines never populate those columns (enforced by the edge guard).
    """
    if n_positions < 3 or n_positions % 2 == 0:
        raise ValueError(f"n_positions must be odd and >= 3, got {n_positions}")
    s = np.zeros((2 * n_positions, 2 * n_positions), dtype=complex)
    for c, d in enumerate((-1, +1)):
        for x in range(n_positions):
            if 0 <= x + d < n_positions:
                s[c * n_positions + x + d, c * n_positions + x] = 1.0
    return s


class TestOperators:
    def test_hadamard_coin(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(coin_operator(math.pi / 4), h, atol=1e-15)

    def test_coin_unitary(self):
        c = coin_operator(0.3)
        np.testing.assert_allclose(c @ c.conj().T, np.eye(2), atol=1e-15)

    def test_shift_moves_coin_states_oppositely(self):
        n = 5
        s = shift_operator(n)
        # coin 0 at center moves left, coin 1 moves right
        v = np.zeros(2 * n)
        v[2] = 1.0
        assert (s @ v)[1] == pytest.approx(1.0)
        v = np.zeros(2 * n)
        v[n + 2] = 1.0
        assert (s @ v)[n + 3] == pytest.approx(1.0)

    def test_shift_partial_isometry(self):
        s = shift_operator(7)
        g = s.conj().T @ s
        # interior columns are isometric; the two escaping ones are zeroed
        diag = np.real(np.diag(g))
        assert np.sum(diag) == pytest.approx(2 * 7 - 2)
        np.testing.assert_allclose(g, np.diag(diag), atol=1e-15)

    def test_shift_size_validation(self):
        with pytest.raises(ValueError):
            shift_operator(4)


class TestNoiselessEvolution:
    def test_two_step_oracle(self):
        # from (|0> + |1>)/sqrt(2) at the origin: (|0>|-2> + |1>|0>)/sqrt(2)
        cfg = WalkConfig(steps=2)
        amps = evolve_noiseless(cfg)[2]
        center = cfg.steps + 1
        expected = np.zeros((2, cfg.n_positions), dtype=complex)
        expected[0, center - 2] = 1 / np.sqrt(2)
        expected[1, center] = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps, expected, atol=1e-14)

    def test_norm_preserved(self):
        amps = evolve_noiseless(WalkConfig(steps=30))
        norms = np.sum(np.abs(amps) ** 2, axis=(1, 2))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_matches_dense_operator_product(self):
        cfg = WalkConfig(steps=6, coin_angle=0.6, delta=0.8, eta=1.1)
        w = shift_operator(cfg.n_positions) @ np.kron(
            coin_operator(cfg.coin_angle), np.eye(cfg.n_positions)
        )
        vec = initial_state(cfg).reshape(-1)
        for t, amps in enumerate(evolve_noiseless(cfg)):
            np.testing.assert_allclose(amps.reshape(-1), vec, atol=1e-12)
            vec = w @ vec

    def test_edge_guard_fires_when_started_at_boundary(self):
        cfg = WalkConfig(steps=2, initial_position=3)
        with pytest.raises(EdgeAmplitudeError):
            evolve_noiseless(cfg)

    def test_initial_position_outside_lattice_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(steps=2, initial_position=4)

    def test_symmetric_initial_state_gives_symmetric_distribution(self):
        cfg = WalkConfig(steps=20, eta=math.pi / 2)
        probs = position_distribution(evolve_noiseless(cfg)[-1])
        np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)


class TestNoisyEvolution:
    NOISE = RtnParams(a=0.9, gamma=0.5)

    def test_one_shot_states_are_physical(self):
        for t, rho in evolve_one_shot(WalkConfig(steps=8), self.NOISE):
            check_density_matrix(rho)

    def test_one_shot_scales_coherence_blocks(self):
        cfg = WalkConfig(steps=5)
        n = cfg.n_positions
        pure = {t: rho for t, rho in evolve_one_shot(cfg, None)}
        noisy = {t: rho for t, rho in evolve_one_shot(cfg, self.NOISE)}
        from nmqwalk.noise import kernel_value

        for t in pure:
            k = kernel_value(self.NOISE, float(t))
            np.testing.assert_allclose(
                noisy[t][:n, n:], k * pure[t][:n, n:], atol=1e-14
            )
            np.testing.assert_allclose(noisy[t][:n, :n], pure[t][:n, :n], atol=1e-14)

    def test_stepwise_equals_one_shot_without_noise(self):
        cfg = WalkConfig(steps=10)
        for (t1, r1), (t2, r2) in zip(
            evolve_one_shot(cfg, None), evolve_stepwise(cfg, None)
        ):
            assert t1 == t2
            np.testing.assert_allclose(r1, r2, atol=1e-12)

    def test_stepwise_preserves_trace_and_hermiticity(self):
        for t, rho in evolve_stepwise(WalkConfig(steps=8), self.NOISE):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_stepwise_detects_vanishing_kernel(self, monkeypatch):
        monkeypatch.setattr(
            walk_mod, "kernel_value", lambda noise, t: 0.0 if t >= 1 else 1.0
        )
        gen = evolve_stepwise(WalkConfig(steps=4), self.NOISE)
        next(gen)
        next(gen)  # the map into t=1 (kernel hits zero there) still exists
        with pytest.raises(NonInvertibleMapError):
            next(gen)

    @pytest.mark.parametrize("evolve", [evolve_one_shot, evolve_stepwise])
    def test_edge_guard_fires_in_both_modes(self, evolve):
        # started next to the right edge, the coin-1 weight reaches it at t = 3
        cfg = WalkConfig(steps=4, initial_position=4)
        with pytest.raises(EdgeAmplitudeError):
            list(evolve(cfg, self.NOISE))


class TestDistributions:
    def test_probabilities_sum_to_one(self):
        cfg = WalkConfig(steps=25)
        probs = position_distribution(evolve_noiseless(cfg)[-1])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_and_amplitude_paths_agree(self):
        cfg = WalkConfig(steps=6)
        amps = evolve_noiseless(cfg)[-1]
        rho = dict(evolve_one_shot(cfg, None))[6]
        np.testing.assert_allclose(
            position_distribution(amps),
            position_distribution(rho, cfg.n_positions),
            atol=1e-13,
        )

    def test_variance_early_steps(self):
        cfg = WalkConfig(steps=2)
        positions = lattice_positions(2).astype(float)
        amps = evolve_noiseless(cfg)
        assert distribution_variance(position_distribution(amps[1]), positions) == (
            pytest.approx(0.0, abs=1e-14)
        )
        assert distribution_variance(position_distribution(amps[2]), positions) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_lattice_positions_span(self):
        pos = lattice_positions(3)
        assert pos[0] == -4 and pos[-1] == 4 and len(pos) == 9
