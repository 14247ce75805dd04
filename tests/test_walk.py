import math

import numpy as np
import pytest
from conftest import dense_one_shot, density_from_factor, full_lattice_stepwise
from hypothesis import given, settings
from hypothesis import strategies as st

import nmqwalk.noise as noise_mod
import nmqwalk.walk as walk_mod
from nmqwalk.exceptions import (
    DimensionMismatchError,
    EdgeAmplitudeError,
    KernelRangeError,
    NonInvertibleMapError,
)
from nmqwalk.noise import OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.qops import check_density_matrix
from nmqwalk.walk import (
    WalkConfig,
    coin_operator,
    dephase_density,
    density_from_amplitudes,
    distribution_variance,
    evolve_noiseless,
    evolve_one_shot,
    evolve_stepwise,
    initial_state,
    lattice_positions,
    position_distribution,
)

RATES = st.floats(min_value=1e-3, max_value=2.0)
NOISES = st.one_of(
    st.none(),
    st.builds(RtnParams, a=st.floats(min_value=0.0, max_value=2.0), gamma=RATES),
    st.builds(OunParams, Gamma=RATES, gamma=RATES),
    st.builds(PlnParams, Gamma=RATES, gamma=RATES),
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
        probs = position_distribution(evolve_noiseless(cfg)[-1][..., None])
        np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)


class TestNoisyEvolution:
    NOISE = RtnParams(a=0.9, gamma=0.5)

    def test_one_shot_states_are_physical(self):
        cfg = WalkConfig(steps=8)
        for t, factor in evolve_one_shot(cfg, self.NOISE):
            assert factor.shape == (2, cfg.n_positions, 2)
            check_density_matrix(density_from_factor(factor))

    def test_one_shot_scales_coherence_blocks(self):
        cfg = WalkConfig(steps=5)
        n = cfg.n_positions
        pure = {t: density_from_factor(b) for t, b in evolve_one_shot(cfg, None)}
        noisy = {t: density_from_factor(b) for t, b in evolve_one_shot(cfg, self.NOISE)}
        for t in pure:
            k = kernel_value(self.NOISE, float(t))
            np.testing.assert_allclose(
                noisy[t][:n, n:], k * pure[t][:n, n:], atol=1e-14
            )
            np.testing.assert_allclose(noisy[t][:n, :n], pure[t][:n, :n], atol=1e-14)

    def test_stepwise_equals_one_shot_without_noise(self):
        cfg = WalkConfig(steps=10)
        for (t1, b1), (t2, r2) in zip(
            evolve_one_shot(cfg, None), evolve_stepwise(cfg, None)
        ):
            assert t1 == t2
            np.testing.assert_allclose(density_from_factor(b1), r2, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        noise=NOISES,
        steps=st.integers(min_value=0, max_value=6),
        delta=st.floats(min_value=-math.pi, max_value=math.pi),
        eta=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_factor_matches_dense_dephasing(self, noise, steps, delta, eta):
        # sum_r b_r b_r^dag is the dephased pure state D[k](|psi><psi|)
        cfg = WalkConfig(steps=steps, delta=delta, eta=eta)
        amps = evolve_noiseless(cfg)
        for t, factor in evolve_one_shot(cfg, noise):
            k = float(kernel_value(noise, float(t)))
            expected = dephase_density(density_from_amplitudes(amps[t]), k, cfg.n_positions)
            np.testing.assert_allclose(density_from_factor(factor), expected, atol=1e-14)

    @pytest.mark.parametrize("k", [1.0 + 1e-9, -1.0 - 1e-9])
    def test_kernel_outside_unit_range_raises(self, monkeypatch, k):
        # |k| > 1 has no Kraus pair; it must stop the walk, not give NaN
        # columns, and the whole grid is checked before the first state
        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, lambda p, t: np.where(t < 2, 1.0, k))
        for evolve in (evolve_one_shot, evolve_stepwise):
            with pytest.raises(KernelRangeError, match=r"at t=2\.0 "):
                next(evolve(WalkConfig(steps=4), self.NOISE))

    def test_stepwise_preserves_trace_and_hermiticity(self):
        for t, rho in evolve_stepwise(WalkConfig(steps=8), self.NOISE):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_stepwise_detects_vanishing_kernel(self, monkeypatch):
        # the map into t=1 (kernel hits zero there) exists, the one out of it
        # does not; the whole grid is checked before the first state
        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, lambda p, t: np.where(t >= 1, 0.0, 1.0))
        with pytest.raises(NonInvertibleMapError, match=r"t1=1\.0;"):
            next(evolve_stepwise(WalkConfig(steps=4), self.NOISE))

    def test_kernel_evaluated_once_per_walk(self, monkeypatch):
        calls = {"kraus_at": 0, "kernel": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(walk_mod, "kraus_at", counted("kraus_at", walk_mod.kraus_at))
        monkeypatch.setitem(
            noise_mod._KERNELS, RtnParams, counted("kernel", noise_mod._KERNELS[RtnParams])
        )
        list(evolve_one_shot(WalkConfig(steps=12), self.NOISE))
        assert calls == {"kraus_at": 1, "kernel": 1}
        calls["kernel"] = 0
        list(evolve_stepwise(WalkConfig(steps=12), self.NOISE))
        assert calls["kernel"] <= 2

    @pytest.mark.parametrize("evolve", [evolve_one_shot, evolve_stepwise])
    def test_edge_guard_fires_in_both_modes(self, evolve):
        cases = [
            # started next to the right edge, the coin-1 weight reaches it at t = 3
            (WalkConfig(steps=4, initial_position=4), self.NOISE),
            # only an amplitude of 1.4e-14 (a population of 2e-28) reaches the edge
            (WalkConfig(steps=100, initial_position=10), None),
        ]
        for cfg, noise in cases:
            with pytest.raises(EdgeAmplitudeError):
                list(evolve(cfg, noise))


#: the noise settings on which the light-cone walk is checked against the
#: full-lattice loop
STEPWISE_NOISES = {
    "none": None,
    "oun": OunParams(Gamma=0.1, gamma=0.01),
    "pln": PlnParams(Gamma=0.1, gamma=0.01),
    "rtn-underdamped": RtnParams(a=0.05, gamma=0.008),
}


def stepwise_run(evolve, cfg, noise):
    """The states ``evolve`` yields and the edge error that ends it, if any."""
    states = []
    try:
        for t, rho in evolve(cfg, noise):
            assert t == len(states)
            states.append(rho)
    except EdgeAmplitudeError as exc:
        return states, str(exc)
    return states, None


class TestStepwiseLightCone:
    @pytest.mark.parametrize("noise", STEPWISE_NOISES.values(), ids=STEPWISE_NOISES.keys())
    @pytest.mark.parametrize("x0", [0, 2], ids=["centred", "off-centre"])
    def test_equals_full_lattice_loop(self, noise, x0):
        # from x0 = 2 the light cone reaches the right edge at t = 99 with
        # amplitudes below the guard, which then wrap to the left edge
        cfg = WalkConfig(steps=100, delta=0.7, eta=0.3, initial_position=x0)
        pairs = zip(evolve_stepwise(cfg, noise), full_lattice_stepwise(cfg, noise), strict=True)
        for (t, found), (_, expected) in pairs:
            assert found.shape == expected.shape == (2 * cfg.n_positions,) * 2
            assert np.array_equal(found, expected), f"t={t}"

    @pytest.mark.parametrize("noise", STEPWISE_NOISES.values(), ids=STEPWISE_NOISES.keys())
    @pytest.mark.parametrize(
        "steps, x0", [(30, -31), (30, 31), (40, 5)], ids=["at-left-edge", "at-right-edge", "off-centre"]
    )
    def test_edge_walkers_fail_as_on_full_lattice(self, noise, steps, x0):
        # the light cone wraps at the lattice ends as np.roll does, so the
        # guard fires at the same step with the same amplitude
        cfg = WalkConfig(steps=steps, delta=0.7, eta=0.3, initial_position=x0)
        found, error = stepwise_run(evolve_stepwise, cfg, noise)
        expected, expected_error = stepwise_run(full_lattice_stepwise, cfg, noise)
        assert expected_error is not None
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"

    def test_yielded_states_are_copies(self):
        # the walk keeps its own buffer: overwriting a yielded state changes
        # no later one
        cfg = WalkConfig(steps=6)
        pairs = zip(
            evolve_stepwise(cfg, TestNoisyEvolution.NOISE),
            full_lattice_stepwise(cfg, TestNoisyEvolution.NOISE),
            strict=True,
        )
        for (t, found), (_, expected) in pairs:
            assert np.array_equal(found, expected), f"t={t}"
            found[...] = np.nan


class TestDistributions:
    def test_probabilities_sum_to_one(self):
        cfg = WalkConfig(steps=25)
        probs = position_distribution(evolve_noiseless(cfg)[-1][..., None])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_and_amplitude_paths_agree(self):
        cfg = WalkConfig(steps=6)
        noise = RtnParams(a=0.9, gamma=0.5)
        amps = evolve_noiseless(cfg)[-1]
        rho = dict(dense_one_shot(cfg, noise))[6]
        factor = dict(evolve_one_shot(cfg, noise))[6]
        for state in (rho, factor):
            np.testing.assert_allclose(
                position_distribution(amps[..., None]), position_distribution(state), atol=1e-13
            )

    @pytest.mark.parametrize(
        "shape", [(2, 7), (5, 5), (3, 7, 2)], ids=["non-square", "odd-square", "qutrit-factor"]
    )
    def test_other_shapes_rejected(self, shape):
        # an amplitude array enters as its rank-1 factor amps[..., None]
        with pytest.raises(DimensionMismatchError):
            position_distribution(np.ones(shape))

    def test_variance_early_steps(self):
        cfg = WalkConfig(steps=2)
        positions = lattice_positions(2).astype(float)
        amps = evolve_noiseless(cfg)
        assert distribution_variance(position_distribution(amps[1, ..., None]), positions) == (
            pytest.approx(0.0, abs=1e-14)
        )
        assert distribution_variance(position_distribution(amps[2, ..., None]), positions) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_lattice_positions_span(self):
        pos = lattice_positions(3)
        assert pos[0] == -4 and pos[-1] == 4 and len(pos) == 9
