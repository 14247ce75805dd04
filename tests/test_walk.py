import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    SIDED_NOISES,
    basis_start,
    check_density_matrix,
    dense_one_shot,
    dense_populations,
    density_from_factor,
    embed,
    evolve_noiseless,
    evolve_stepwise,
    full_lattice_stepwise,
    initial_state,
    lattice_half_width,
    lattice_positions,
    lattice_size,
    one_shot_factors,
    step_amplitudes,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmqwalk.noise as noise_mod
import nmqwalk.walk as walk_mod
from nmqwalk.exceptions import KernelRangeError, NmqwalkError, NonInvertibleMapError
from nmqwalk.noise import OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.walk import (
    WalkConfig,
    coin_operator,
    density_from_amplitudes,
    distribution_variance,
    populations,
)

MODES = ("one_shot", "stepwise")
#: every walk that checks the kernel's range before its first state
KERNEL_CHECKED_WALKS = {
    "one_shot": lambda cfg, noise: populations(cfg, noise, "one_shot"),
    "stepwise": lambda cfg, noise: populations(cfg, noise, "stepwise"),
    "evolve_stepwise": evolve_stepwise,
}
#: one record of each noise model, and none
MODEL_NOISES = {
    "none": None,
    "rtn": RtnParams(a=0.9, gamma=0.5),
    "oun": OunParams(Gamma=0.1, gamma=0.01),
    "pln": PlnParams(Gamma=0.1, gamma=0.01),
}


def cone_indices(cfg, t):
    """The oracles' lattice indices of the light cone after t steps."""
    return walk_mod._cone_positions(t) + lattice_half_width(cfg)


def noiseless_history(cfg):
    """The amplitudes (T + 1, 2, n) of cfg's walker on the oracles' lattice, as
    the one-shot walk forms it from the basis pair: sum_i v_i psi_i on the
    light cone."""
    coin = walk_mod._coin_vector(cfg.delta, cfg.eta)
    out = np.zeros((cfg.steps + 1, 2, lattice_size(cfg)), dtype=complex)
    for t, a in walk_mod._basis_walks(cfg):
        out[t][:, cone_indices(cfg, t)] = np.einsum("i,cix->cx", coin, a)
    return out


def last_populations(cfg, noise=None, mode="one_shot"):
    """The (x, probs) of the last step of ``populations``."""
    *_, (_, x, probs) = populations(cfg, noise, mode)
    return x, probs


def shift_operator(n_positions: int) -> np.ndarray:
    """Dense coin-conditioned shift S on the truncated lattice (test oracle).

    Interior columns are isometric; the two boundary columns map outside
    the lattice and are zeroed, so S is only a partial isometry. The
    oracles' lattice is wide enough that no walk populates those columns.
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
        amps = noiseless_history(cfg)[2]
        center = cfg.steps + 1
        expected = np.zeros((2, lattice_size(cfg)), dtype=complex)
        expected[0, center - 2] = 1 / np.sqrt(2)
        expected[1, center] = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps, expected, atol=1e-14)

    def test_norm_preserved(self):
        amps = noiseless_history(WalkConfig(steps=30))
        norms = np.sum(np.abs(amps) ** 2, axis=(1, 2))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_matches_dense_operator_product(self):
        cfg = WalkConfig(steps=6, coin_angle=0.6, delta=0.8, eta=1.1)
        n = lattice_size(cfg)
        w = shift_operator(n) @ np.kron(coin_operator(cfg.coin_angle), np.eye(n))
        vec = initial_state(cfg).reshape(-1)
        for t, amps in enumerate(noiseless_history(cfg)):
            np.testing.assert_allclose(amps.reshape(-1), vec, atol=1e-12)
            vec = w @ vec

    @pytest.mark.parametrize(
        "field, value", [("steps", True), ("steps", 3.0)], ids=["bool-steps", "float-steps"]
    )
    def test_non_integer_walk_field_rejected(self, field, value):
        # unchecked, steps=True ran a one-step walk
        with pytest.raises(ValueError, match=f"^{field} must be"):
            WalkConfig(**{"steps": 3, field: value})

    def test_steps_past_exact_float_times_rejected(self):
        # the time grids are np.arange(steps + 1.0), exact up to 2**53
        assert WalkConfig(steps=2**53 - 1).steps == 2**53 - 1
        with pytest.raises(ValueError, match=r"^steps must be at most 2\*\*53 - 1, got 9007199254740992$"):
            WalkConfig(steps=2**53)

    def test_numpy_integer_walk_fields_accepted(self):
        cfg = WalkConfig(steps=np.int64(3))
        assert last_populations(cfg)[0].tolist() == [-3, -1, 1, 3]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["coin_angle", "delta", "eta"])
    def test_non_finite_angle_rejected(self, field, value):
        # unchecked, a NaN angle yields NaN states without an error, and an
        # infinite one fails inside math.cos with no field named
        with pytest.raises(ValueError, match=f"^{field} must be a finite angle"):
            WalkConfig(steps=5, **{field: value})

    def test_symmetric_initial_state_gives_symmetric_distribution(self):
        cfg = WalkConfig(steps=20, eta=math.pi / 2)
        x, probs = last_populations(cfg)
        assert np.array_equal(x, np.arange(-20, 21, 2))
        np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)


class TestNoisyEvolution:
    NOISE = RtnParams(a=0.9, gamma=0.5)

    @pytest.mark.parametrize("mode", MODES)
    def test_populations_are_a_distribution_on_the_light_cone(self, mode):
        # a CP-divisible kernel, so every stepwise state is physical
        cfg = WalkConfig(steps=8, delta=0.7, eta=0.3)
        for t, x, probs in populations(cfg, OunParams(Gamma=0.1, gamma=0.01), mode):
            assert np.array_equal(x, np.arange(-t, t + 1, 2))
            assert probs.shape == (t + 1,) and np.all(probs >= 0.0), f"t={t}"
            assert probs.sum() == pytest.approx(1.0, abs=1e-12), f"t={t}"

    def test_stepwise_equals_one_shot_without_noise(self):
        cfg = WalkConfig(steps=10)
        for (t1, x1, p1), (t2, x2, p2) in zip(
            populations(cfg, None, "one_shot"), populations(cfg, None, "stepwise"), strict=True
        ):
            assert t1 == t2 and np.array_equal(x1, x2)
            np.testing.assert_allclose(p1, p2, rtol=0.0, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            next(populations(WalkConfig(steps=2), None, "exact"))

    # the Kraus-factor oracle that the trace-distance and single-state
    # oracles of test_witness.py walk

    def test_one_shot_states_are_physical(self):
        cfg = WalkConfig(steps=8)
        pairs = zip(
            one_shot_factors(cfg, self.NOISE), populations(cfg, self.NOISE, "one_shot"), strict=True
        )
        for (t, factor, x), (_, cone, probs) in pairs:
            assert factor.shape == (2, lattice_size(cfg), 2)
            assert np.array_equal(x, lattice_positions(cfg))
            rho = check_density_matrix(density_from_factor(factor))
            np.testing.assert_allclose(
                dense_populations(rho)[cone + lattice_half_width(cfg)], probs,
                rtol=0.0, atol=1e-13, err_msg=f"t={t}",
            )

    def test_one_shot_scales_coherence_blocks(self):
        cfg = WalkConfig(steps=5)
        n = lattice_size(cfg)
        pure = {t: density_from_factor(b) for t, b, _ in one_shot_factors(cfg, None)}
        noisy = {t: density_from_factor(b) for t, b, _ in one_shot_factors(cfg, self.NOISE)}
        for t in pure:
            k = kernel_value(self.NOISE, float(t))
            np.testing.assert_allclose(noisy[t][:n, n:], k * pure[t][:n, n:], atol=1e-14)
            np.testing.assert_allclose(noisy[t][:n, :n], pure[t][:n, :n], atol=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        noise=SIDED_NOISES,
        steps=st.integers(min_value=0, max_value=6),
        delta=st.floats(min_value=-math.pi, max_value=math.pi),
        eta=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_factor_matches_dense_dephasing(self, noise, steps, delta, eta):
        # sum_r b_r b_r^dag is the dephased pure state D[k](|psi><psi|)
        cfg = WalkConfig(steps=steps, delta=delta, eta=eta)
        pairs = zip(one_shot_factors(cfg, noise), dense_one_shot(cfg, noise), strict=True)
        for (t, factor, _), (_, rho) in pairs:
            np.testing.assert_allclose(density_from_factor(factor), rho, atol=1e-14, err_msg=f"t={t}")

    @pytest.mark.parametrize("walk", KERNEL_CHECKED_WALKS.values(), ids=KERNEL_CHECKED_WALKS.keys())
    @pytest.mark.parametrize("k", [1.0 + 1e-9, -1.0 - 1e-9])
    def test_kernel_outside_unit_range_raises(self, monkeypatch, k, walk):
        # |k| > 1 has no Kraus pair; it must stop the walk, not give NaN
        # columns, and the whole grid is checked before the first state
        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, lambda p, t: np.where(t < 2, 1.0, k))
        with pytest.raises(KernelRangeError, match=r"at t=2\.0 "):
            next(walk(WalkConfig(steps=4), self.NOISE))

    def test_stepwise_preserves_trace_and_hermiticity(self):
        for t, rho, _ in evolve_stepwise(WalkConfig(steps=8), self.NOISE):
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_stepwise_detects_vanishing_kernel(self, monkeypatch):
        # the map into t=1 (kernel hits zero there) exists, the one out of it
        # does not; the whole grid is checked before the first state
        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, lambda p, t: np.where(t >= 1, 0.0, 1.0))
        with pytest.raises(NonInvertibleMapError, match=r"t1=1\.0;"):
            next(evolve_stepwise(WalkConfig(steps=4), self.NOISE))

    @pytest.mark.parametrize(
        "mode, shapes", [("one_shot", [(13,)]), ("stepwise", [(12,), (12,)])], ids=MODES
    )
    def test_kernel_evaluated_once_per_walk(self, monkeypatch, mode, shapes):
        # one-shot: one call on the grid t = 0..T; stepwise: kernel_ratio's
        # one call on t1 = 0..T-1 and one on t2 = 1..T
        calls = []
        kernel = noise_mod._KERNELS[RtnParams]

        def counted(p, t):
            calls.append(np.shape(t))
            return kernel(p, t)

        monkeypatch.setitem(noise_mod._KERNELS, RtnParams, counted)
        list(populations(WalkConfig(steps=12), self.NOISE, mode))
        assert calls == shapes

ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def batched_walks(draw):
    """A walk of T <= 40 steps, and 1 to 3 (delta, eta) starts."""
    cfg = WalkConfig(steps=draw(st.integers(min_value=0, max_value=40)), coin_angle=draw(ANGLES))
    return cfg, draw(st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=3))


#: how far a walker sum_i v_i psi_i of the basis walks may lie from its own
#: np.roll walk: the two round apart by an ulp or so per entry, and 1.1e-15
#: was the largest gap on 400 random walks of T <= 100
WALKER_TOL = 4e-15


def stream_run(cfg):
    """Every step of the basis walks, each as (2 basis, 2 coin, n) on the
    oracles' lattice."""
    found = []
    for t, a in walk_mod._basis_walks(cfg):
        assert a.shape == (2, 2, t + 1) and a.dtype == float
        basis = np.zeros((2, 2, lattice_size(cfg)))
        basis[:, :, cone_indices(cfg, t)] = a.swapaxes(0, 1)
        found.append(basis)
    return found


def roll_oracle_run(cfg, start=None):
    """The roll oracle's T + 1 amplitude arrays from ``start`` (default cfg's walker)."""
    coin = coin_operator(cfg.coin_angle)
    found = [initial_state(cfg) if start is None else start]
    for _ in range(cfg.steps):
        found.append(step_amplitudes(found[-1], coin))
    return found


def assert_stream_is_roll_oracle(cfg, starts):
    """The basis walks equal the roll walks of the exact |0> and |1> bit for
    bit, and each walker sum_i v_i psi_i of ``starts`` equals its own roll
    walk to WALKER_TOL."""
    found = stream_run(cfg)
    assert len(found) == cfg.steps + 1
    for i in range(2):
        expected = roll_oracle_run(cfg, basis_start(cfg, i))
        for t, basis in enumerate(found):
            assert np.array_equal(basis[i], expected[t]), f"basis walk {i}, t={t}"
    for w, (d, e) in enumerate(starts):
        coin = walk_mod._coin_vector(d, e)
        expected = roll_oracle_run(replace(cfg, delta=d, eta=e))
        for t, basis in enumerate(found):
            np.testing.assert_allclose(
                np.einsum("i,icx->cx", coin, basis), expected[t], rtol=0, atol=WALKER_TOL,
                err_msg=f"walker {w}, t={t}",
            )


class TestNoiselessStream:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(walk=batched_walks())
    def test_steps_equal_roll_oracle(self, walk):
        assert_stream_is_roll_oracle(*walk)

    def test_one_shot_walks_the_basis_pair_once(self, monkeypatch):
        calls = []
        walks = walk_mod._basis_walks

        def counting(cfg):
            calls.append(cfg)
            return walks(cfg)

        monkeypatch.setattr(walk_mod, "_basis_walks", counting)
        cfg = WalkConfig(steps=4)
        list(populations(cfg, OunParams(Gamma=0.1, gamma=0.01), "one_shot"))
        assert calls == [cfg]


#: the noise settings on which the light-cone walk is checked against the
#: full-lattice loop
STEPWISE_NOISES = {
    "none": None,
    "oun": OunParams(Gamma=0.1, gamma=0.01),
    "pln": PlnParams(Gamma=0.1, gamma=0.01),
    "rtn-underdamped": RtnParams(a=0.05, gamma=0.008),
}


@st.composite
def light_cone_walks(draw):
    """A walk of T <= 24 steps with any coin and start."""
    return WalkConfig(
        steps=draw(st.integers(min_value=0, max_value=24)),
        coin_angle=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
        delta=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
        eta=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
    )


def stepwise_run(evolve, cfg, noise):
    """The states ``evolve`` yields, each on the oracles' lattice, their
    positions, and the error that ends the walk, if any."""
    states, positions = [], []
    try:
        for t, state, x in evolve(cfg, noise):
            assert t == len(states)
            states.append(embed(state, x, cfg))
            positions.append(x)
    except NmqwalkError as exc:
        return states, positions, f"{type(exc).__name__}: {exc}"
    return states, positions, None


class TestStepwiseLightCone:
    @pytest.mark.parametrize("noise", STEPWISE_NOISES.values(), ids=STEPWISE_NOISES.keys())
    def test_equals_full_lattice_loop(self, noise):
        cfg = WalkConfig(steps=100, delta=0.7, eta=0.3)
        n = lattice_size(cfg)
        pairs = zip(evolve_stepwise(cfg, noise), full_lattice_stepwise(cfg, noise), strict=True)
        for (t, found, x), (_, expected, _) in pairs:
            assert found.shape == (2 * (t + 1),) * 2 and expected.shape == (2 * n,) * 2
            assert np.array_equal(x, np.arange(-t, t + 1, 2))
            assert np.array_equal(embed(found, x, cfg), expected), f"t={t}"

    @pytest.mark.parametrize("noise", STEPWISE_NOISES.values(), ids=STEPWISE_NOISES.keys())
    @pytest.mark.parametrize("coin_angle", [0.0, 1.2286, -2.5], ids=["ballistic", "real", "obtuse"])
    def test_long_walks_under_other_coins_match_the_full_lattice(self, coin_angle, noise):
        # the hypothesis walks stop at T = 24; these run to T = 40, every
        # block the full-lattice state bit for bit
        cfg = WalkConfig(steps=40, coin_angle=coin_angle, delta=0.7, eta=0.3)
        found, positions, error = stepwise_run(evolve_stepwise, cfg, noise)
        expected, _, expected_error = stepwise_run(full_lattice_stepwise, cfg, noise)
        assert error is None and expected_error is None
        assert len(found) == len(expected) == cfg.steps + 1
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"
        assert np.array_equal(positions[-1], np.arange(-cfg.steps, cfg.steps + 1, 2))

    def test_yielded_states_are_copies(self):
        # the walk keeps its own state: overwriting a yielded one changes no
        # later one
        cfg = WalkConfig(steps=6)
        pairs = zip(
            evolve_stepwise(cfg, TestNoisyEvolution.NOISE),
            full_lattice_stepwise(cfg, TestNoisyEvolution.NOISE),
            strict=True,
        )
        for (t, found, x), (_, expected, _) in pairs:
            assert np.array_equal(embed(found, x, cfg), expected), f"t={t}"
            found[...] = np.nan

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=light_cone_walks(), noise=SIDED_NOISES)
    @example(cfg=WalkConfig(steps=24, coin_angle=0.4), noise=None)
    def test_blocks_are_the_full_lattice_states(self, cfg, noise):
        found, positions, error = stepwise_run(evolve_stepwise, cfg, noise)
        expected, _, expected_error = stepwise_run(full_lattice_stepwise, cfg, noise)
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"
        # the light-cone positions, ascending
        for t, x in enumerate(positions):
            assert np.array_equal(x, np.arange(-t, t + 1, 2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        cfg=light_cone_walks(),
        pair=st.tuples(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 4),
        noise=SIDED_NOISES,
    )
    @example(
        cfg=WalkConfig(steps=24, coin_angle=-2.5),
        pair=(0.7, 0.3, -0.8, 1.0),
        noise=None,
    )
    def test_two_walker_blocks_are_the_full_lattice_states(self, cfg, pair, noise):
        # the start rho1 - rho2 of the stepwise TD walk: Hermitian, of trace 0
        rho1, rho2 = (
            density_from_amplitudes(walk_mod._coin_vector(*angles))
            for angles in (pair[:2], pair[2:])
        )
        start = rho1 - rho2
        found, _, error = stepwise_run(
            lambda cfg, noise: (
                (t, blocks[0], walk_mod._cone_positions(t))
                for t, blocks in walk_mod._light_cone_blocks(
                    cfg, walk_mod._step_ratios(cfg, noise), start[None]
                )
            ),
            cfg,
            noise,
        )
        expected, _, expected_error = stepwise_run(
            lambda cfg, noise: full_lattice_stepwise(cfg, noise, start), cfg, noise
        )
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        cfg=light_cone_walks(),
        pair=st.tuples(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 4),
        noise=SIDED_NOISES,
    )
    def test_stacked_walkers_are_each_walked_alone(self, cfg, pair, noise):
        # bit for bit, and the stack stops where a walker alone stops, with its error
        rho0 = density_from_amplitudes(walk_mod._coin_vector(cfg.delta, cfg.eta))
        rho1, rho2 = (
            density_from_amplitudes(walk_mod._coin_vector(*angles))
            for angles in (pair[:2], pair[2:])
        )
        starts = np.stack([rho0, rho1 - rho2])

        def walk(start):
            states = []
            try:
                ratios = walk_mod._step_ratios(cfg, noise)
                for _, blocks in walk_mod._light_cone_blocks(cfg, ratios, start):
                    states.append(blocks)
            except NmqwalkError as exc:
                return states, type(exc).__name__
            return states, None

        stacked, error = walk(starts)
        alone = [walk(start[None]) for start in starts]
        first = min(alone, key=lambda run: len(run[0]))
        assert len(stacked) == len(first[0]) and error == first[1]
        for w, (states, _) in enumerate(alone):
            for t, blocks in enumerate(stacked):
                assert np.array_equal(blocks[w], states[t][0]), (w, t)


def assert_populations_are_the_dense_diagonal(cfg, noise, mode):
    """Each step of ``populations`` holds the diagonal of the whole-lattice
    oracle of ``mode``: the dephased pure state at readout, or the stepwise
    walk with its map at every step."""
    if mode == "one_shot":
        dense = dense_one_shot(cfg, noise)
    else:
        dense = ((t, rho) for t, rho, _ in full_lattice_stepwise(cfg, noise))
    for (t, x, probs), (_, rho) in zip(populations(cfg, noise, mode), dense, strict=True):
        found = np.zeros(lattice_size(cfg))
        found[x + lattice_half_width(cfg)] = probs
        np.testing.assert_allclose(
            found, dense_populations(rho), rtol=0.0, atol=1e-13, err_msg=f"t={t}"
        )


class TestDistributions:
    def test_probabilities_sum_to_one(self):
        assert last_populations(WalkConfig(steps=25))[1].sum() == pytest.approx(1.0, abs=1e-12)

    def test_density_and_amplitude_paths_agree(self):
        # at readout the dephased state, its Kraus factor and the noiseless
        # amplitudes hold the populations that one-shot populations reads
        cfg = WalkConfig(steps=6)
        noise = RtnParams(a=0.9, gamma=0.5)
        x, probs = last_populations(cfg, noise)
        found = np.zeros(lattice_size(cfg))
        found[x + lattice_half_width(cfg)] = probs
        rho = dict(dense_one_shot(cfg, noise))[6]
        factor = list(one_shot_factors(cfg, noise))[6][1]
        for expected in (
            np.sum(np.abs(evolve_noiseless(cfg)[-1]) ** 2, axis=0),
            dense_populations(rho),
            dense_populations(density_from_factor(factor)),
        ):
            np.testing.assert_allclose(found, expected, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("noise", MODEL_NOISES.values(), ids=MODEL_NOISES.keys())
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "steps, coin_angle",
        [(8, math.pi / 4), (9, math.pi / 4), (9, 1.2286)],
        ids=["hadamard-8", "hadamard-9", "real-9"],
    )
    def test_populations_are_the_dense_diagonal(self, steps, coin_angle, mode, noise):
        cfg = WalkConfig(steps=steps, coin_angle=coin_angle, delta=0.7, eta=0.3)
        assert_populations_are_the_dense_diagonal(cfg, noise, mode)

    def test_variance_early_steps(self):
        cfg = WalkConfig(steps=2)
        found = [
            distribution_variance(probs, x.astype(float))
            for _, x, probs in populations(cfg, None, "one_shot")
        ]
        assert found[1] == pytest.approx(0.0, abs=1e-14)
        assert found[2] == pytest.approx(1.0, abs=1e-12)
