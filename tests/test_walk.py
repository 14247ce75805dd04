import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    SIDED_NOISES,
    check_density_matrix,
    dense_one_shot,
    density_from_factor,
    dephase_density,
    embed,
    evolve_noiseless,
    full_lattice_stepwise,
    initial_state,
    step_amplitudes,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import nmqwalk.noise as noise_mod
import nmqwalk.walk as walk_mod
from nmqwalk.exceptions import (
    DimensionMismatchError,
    EdgeAmplitudeError,
    KernelRangeError,
    NmqwalkError,
    NonInvertibleMapError,
)
from nmqwalk.noise import OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.walk import (
    WalkConfig,
    coin_operator,
    density_from_amplitudes,
    distribution_variance,
    evolve_one_shot,
    evolve_stepwise,
    lattice_positions,
    position_distribution,
)
from nmqwalk.witness import WITNESS_TAGS, witness_series

RATES = st.floats(min_value=1e-3, max_value=2.0)
NOISES = st.one_of(
    st.none(),
    st.builds(RtnParams, a=st.floats(min_value=0.0, max_value=2.0), gamma=RATES),
    st.builds(OunParams, Gamma=RATES, gamma=RATES),
    st.builds(PlnParams, Gamma=RATES, gamma=RATES),
)


def noiseless_history(cfg):
    """The amplitudes (T + 1, 2, n_positions) the streaming walk yields for cfg's walker."""
    coins = walk_mod._coin_vector(cfg.delta, cfg.eta)[None]
    return np.stack([amps[0] for amps in walk_mod._noiseless_steps(cfg, coins)])


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
        amps = noiseless_history(cfg)[2]
        center = cfg.steps + 1
        expected = np.zeros((2, cfg.n_positions), dtype=complex)
        expected[0, center - 2] = 1 / np.sqrt(2)
        expected[1, center] = 1 / np.sqrt(2)
        np.testing.assert_allclose(amps, expected, atol=1e-14)

    def test_norm_preserved(self):
        amps = noiseless_history(WalkConfig(steps=30))
        norms = np.sum(np.abs(amps) ** 2, axis=(1, 2))
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_matches_dense_operator_product(self):
        cfg = WalkConfig(steps=6, coin_angle=0.6, delta=0.8, eta=1.1)
        w = shift_operator(cfg.n_positions) @ np.kron(
            coin_operator(cfg.coin_angle), np.eye(cfg.n_positions)
        )
        vec = initial_state(cfg).reshape(-1)
        for t, amps in enumerate(noiseless_history(cfg)):
            np.testing.assert_allclose(amps.reshape(-1), vec, atol=1e-12)
            vec = w @ vec

    def test_edge_guard_fires_when_started_at_boundary(self, origin_lattice):
        cfg = WalkConfig(steps=2, initial_position=3)
        with pytest.raises(EdgeAmplitudeError):
            noiseless_history(cfg)

    def test_initial_position_outside_lattice_rejected(self):
        with pytest.raises(ValueError):
            WalkConfig(steps=2, initial_position=4)

    @pytest.mark.parametrize("evolve", [evolve_one_shot, evolve_stepwise])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["coin_angle", "delta", "eta"])
    def test_non_finite_angle_rejected(self, field, value, evolve):
        # unchecked, a NaN angle yields NaN states without an error, and an
        # infinite one fails inside math.cos with no field named
        with pytest.raises(ValueError, match=f"^{field} must be a finite angle"):
            list(evolve(WalkConfig(steps=5, **{field: value}), None))

    def test_symmetric_initial_state_gives_symmetric_distribution(self):
        cfg = WalkConfig(steps=20, eta=math.pi / 2)
        probs = position_distribution(noiseless_history(cfg)[-1][..., None])
        np.testing.assert_allclose(probs, probs[::-1], atol=1e-12)


class TestNoisyEvolution:
    NOISE = RtnParams(a=0.9, gamma=0.5)

    def test_one_shot_states_are_physical(self):
        cfg = WalkConfig(steps=8)
        for t, factor, sites in evolve_one_shot(cfg, self.NOISE):
            assert factor.shape == (2, cfg.n_positions, 2)
            assert np.array_equal(sites, np.arange(cfg.n_positions))
            check_density_matrix(density_from_factor(factor))

    def test_one_shot_scales_coherence_blocks(self):
        cfg = WalkConfig(steps=5)
        n = cfg.n_positions
        pure = {t: density_from_factor(b) for t, b, _ in evolve_one_shot(cfg, None)}
        noisy = {t: density_from_factor(b) for t, b, _ in evolve_one_shot(cfg, self.NOISE)}
        for t in pure:
            k = kernel_value(self.NOISE, float(t))
            np.testing.assert_allclose(
                noisy[t][:n, n:], k * pure[t][:n, n:], atol=1e-14
            )
            np.testing.assert_allclose(noisy[t][:n, :n], pure[t][:n, :n], atol=1e-14)

    def test_stepwise_equals_one_shot_without_noise(self):
        cfg = WalkConfig(steps=10)
        for (t1, b1, _), (t2, r2, sites) in zip(
            evolve_one_shot(cfg, None), evolve_stepwise(cfg, None)
        ):
            assert t1 == t2
            np.testing.assert_allclose(
                density_from_factor(b1), embed(r2, sites, cfg.n_positions), atol=1e-12
            )

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
        for t, factor, _ in evolve_one_shot(cfg, noise):
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
        for t, rho, _ in evolve_stepwise(WalkConfig(steps=8), self.NOISE):
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
    def test_edge_guard_fires_in_both_modes(self, evolve, origin_lattice):
        cases = [
            # started next to the right edge, the coin-1 weight reaches it at t = 3
            (WalkConfig(steps=4, initial_position=4), self.NOISE),
            # only an amplitude of 1.4e-14 (a population of 2e-28) reaches the edge
            (WalkConfig(steps=100, initial_position=10), None),
        ]
        for cfg, noise in cases:
            with pytest.raises(EdgeAmplitudeError):
                list(evolve(cfg, noise))


ANGLES = st.floats(min_value=-math.pi, max_value=math.pi)


@st.composite
def batched_walks(draw):
    """A walk of T <= 40 steps from any x0 in [-T - 1, T + 1], and 1 to 3 (delta, eta) starts."""
    steps = draw(st.integers(min_value=0, max_value=40))
    cfg = WalkConfig(
        steps=steps,
        coin_angle=draw(ANGLES),
        initial_position=draw(st.integers(min_value=-steps - 1, max_value=steps + 1)),
    )
    return cfg, draw(st.lists(st.tuples(ANGLES, ANGLES), min_size=1, max_size=3))


def stream_run(cfg, starts):
    """Every (k, 2, n) step the streaming walk yields for the k starts, and
    whether its edge guard ended the walk."""
    coins = np.array([walk_mod._coin_vector(d, e) for d, e in starts])
    found = []
    try:
        for amps in walk_mod._noiseless_steps(cfg, coins):
            assert amps.shape == (len(starts), 2, cfg.n_positions)
            found.append(amps.copy())
    except EdgeAmplitudeError:
        return found, True
    return found, False


def roll_oracle_run(cfg):
    """The roll oracle's amplitudes of cfg's walker, up to the step its guard fires."""
    coin = coin_operator(cfg.coin_angle)
    found = [initial_state(cfg)]
    try:
        for _ in range(cfg.steps):
            found.append(step_amplitudes(found[-1], coin))
    except EdgeAmplitudeError:
        return found, True
    return found, False


def assert_stream_is_roll_oracle(cfg, starts):
    """Each walker of the stream equals its own roll walk bit for bit, and the
    stream ends at the first step where one of those walks fires its guard.
    Returns whether the guard fired."""
    found, fired = stream_run(cfg, starts)
    runs = [roll_oracle_run(replace(cfg, delta=d, eta=e)) for d, e in starts]
    assert len(found) == min(len(amps) for amps, _ in runs)
    assert fired == any(f for _, f in runs)
    for w, (expected, _) in enumerate(runs):
        for t, amps in enumerate(found):
            assert np.array_equal(amps[w], expected[t]), f"walker {w}, t={t}"
    return fired


class TestNoiselessStream:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(walk=batched_walks())
    def test_steps_equal_roll_oracle(self, walk):
        # the default lattice keeps one empty site past the walker's reach
        assert not assert_stream_is_roll_oracle(*walk)

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(walk=batched_walks())
    # coin C(0) does not mix coin states: only the second walker reaches an
    # edge, at t = 6
    @example(
        walk=(WalkConfig(steps=10, coin_angle=0.0, initial_position=5), [(0.0, 0.0), (1.5, 0.0)])
    )
    def test_edge_guard_fires_as_roll_oracle(self, walk, origin_lattice):
        assert_stream_is_roll_oracle(*walk)

    def test_wrap_below_the_guard_equals_roll_oracle(self, origin_lattice):
        # from x0 = 2 on the lattice of 2(T + 1) + 1 sites an amplitude below
        # the guard reaches the right edge at t = 99 and wraps to the left
        # edge at t = 100, as np.roll wraps it
        cfg = WalkConfig(steps=100, initial_position=2)
        starts = [(0.7, 0.3), (math.pi / 4, 0.0)]
        assert not assert_stream_is_roll_oracle(cfg, starts)
        last = stream_run(cfg, starts)[0][-1]
        assert last[:, 1, 0].all(), "nothing wrapped to the left edge"


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
    """A walk of T <= 24 steps from any start x0 in [-T - 1, T + 1]."""
    steps = draw(st.integers(min_value=0, max_value=24))
    return WalkConfig(
        steps=steps,
        coin_angle=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
        delta=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
        eta=draw(st.floats(min_value=-math.pi, max_value=math.pi)),
        initial_position=draw(st.integers(min_value=-steps - 1, max_value=steps + 1)),
    )


def stepwise_run(evolve, cfg, noise):
    """The states ``evolve`` yields, each on the whole lattice, their sites,
    and the error that ends the walk, if any."""
    states, sites = [], []
    try:
        for t, state, covered in evolve(cfg, noise):
            assert t == len(states)
            states.append(embed(state, covered, cfg.n_positions))
            sites.append(covered)
    except NmqwalkError as exc:
        return states, sites, f"{type(exc).__name__}: {exc}"
    return states, sites, None


class TestStepwiseLightCone:
    @pytest.mark.parametrize("noise", STEPWISE_NOISES.values(), ids=STEPWISE_NOISES.keys())
    @pytest.mark.parametrize("x0", [0, 2], ids=["centred", "off-centre"])
    def test_equals_full_lattice_loop(self, noise, x0):
        # from x0 = 2 the lattice is two sites wider on either side
        cfg = WalkConfig(steps=100, delta=0.7, eta=0.3, initial_position=x0)
        n = cfg.n_positions
        pairs = zip(evolve_stepwise(cfg, noise), full_lattice_stepwise(cfg, noise), strict=True)
        for (t, found, sites), (_, expected, _) in pairs:
            assert found.shape == (2 * (t + 1),) * 2 and expected.shape == (2 * n,) * 2
            assert np.array_equal(lattice_positions(cfg)[sites], x0 + np.arange(-t, t + 1, 2))
            assert np.array_equal(embed(found, sites, n), expected), f"t={t}"

    def test_wrap_below_the_guard_equals_full_lattice_loop(self, origin_lattice):
        # on the lattice of 2(T + 1) + 1 sites the light cone from x0 = 2
        # reaches the right edge at t = 99 with amplitudes below the guard,
        # which then wrap to the left edge as np.roll wraps them
        cfg = WalkConfig(steps=100, delta=0.7, eta=0.3, initial_position=2)
        noise = STEPWISE_NOISES["oun"]
        pairs = zip(evolve_stepwise(cfg, noise), full_lattice_stepwise(cfg, noise), strict=True)
        for (t, found, sites), (_, expected, _) in pairs:
            found = embed(found, sites, cfg.n_positions)
            assert np.array_equal(found, expected), f"t={t}"
        assert found.diagonal().reshape(2, -1)[:, 0].any(), "nothing wrapped to the left edge"

    @pytest.mark.parametrize("noise", STEPWISE_NOISES.values(), ids=STEPWISE_NOISES.keys())
    @pytest.mark.parametrize(
        "steps, x0", [(30, -31), (30, 31), (40, 5)], ids=["at-left-edge", "at-right-edge", "off-centre"]
    )
    def test_edge_walkers_fail_as_on_full_lattice(self, noise, steps, x0, origin_lattice):
        # on a lattice too small for the walk the light cone wraps at the
        # lattice ends as np.roll does, so the guard fires at the same step
        # with the same amplitude
        cfg = WalkConfig(steps=steps, delta=0.7, eta=0.3, initial_position=x0)
        found, _, error = stepwise_run(evolve_stepwise, cfg, noise)
        expected, _, expected_error = stepwise_run(full_lattice_stepwise, cfg, noise)
        assert expected_error is not None and expected_error.startswith("EdgeAmplitudeError")
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"

    def test_yielded_states_are_copies(self):
        # the walk keeps its own state: overwriting a yielded one changes no
        # later one
        cfg = WalkConfig(steps=6)
        pairs = zip(
            evolve_stepwise(cfg, TestNoisyEvolution.NOISE),
            full_lattice_stepwise(cfg, TestNoisyEvolution.NOISE),
            strict=True,
        )
        for (t, found, sites), (_, expected, _) in pairs:
            assert np.array_equal(embed(found, sites, cfg.n_positions), expected), f"t={t}"
            found[...] = np.nan

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=light_cone_walks(), noise=SIDED_NOISES)
    @example(cfg=WalkConfig(steps=24, coin_angle=0.4, initial_position=-25), noise=None)
    def test_blocks_are_the_full_lattice_states(self, cfg, noise):
        found, sites, error = stepwise_run(evolve_stepwise, cfg, noise)
        expected, _, expected_error = stepwise_run(full_lattice_stepwise, cfg, noise)
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"
        # the light-cone sites, in ascending lattice order
        x0 = cfg.initial_position
        for t, covered in enumerate(sites):
            assert np.array_equal(lattice_positions(cfg)[covered], x0 + np.arange(-t, t + 1, 2))

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cfg=light_cone_walks(), noise=SIDED_NOISES)
    @example(cfg=WalkConfig(steps=12, delta=0.7, initial_position=13), noise=OunParams(0.1, 0.01))
    @example(
        cfg=WalkConfig(steps=12, delta=0.7, initial_position=-12), noise=RtnParams(0.05, 0.008)
    )
    def test_edge_walkers_fail_as_the_full_lattice_loop(self, cfg, noise, origin_lattice):
        # the fixture narrows the lattice the same way for every example; a
        # walker started off the origin reaches one of its edges
        found, _, error = stepwise_run(evolve_stepwise, cfg, noise)
        expected, _, expected_error = stepwise_run(full_lattice_stepwise, cfg, noise)
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        cfg=light_cone_walks(),
        pair=st.tuples(*[st.floats(min_value=-math.pi, max_value=math.pi)] * 4),
        noise=SIDED_NOISES,
    )
    @example(
        cfg=WalkConfig(steps=24, coin_angle=-2.5, initial_position=25),
        pair=(0.7, 0.3, -0.8, 1.0),
        noise=None,
    )
    def test_two_walker_blocks_are_the_full_lattice_states(self, cfg, pair, noise):
        # the non-Hermitian start X = rho1 + i rho2 of the stepwise TD walk
        rho1, rho2 = (
            density_from_amplitudes(walk_mod._coin_vector(*angles))
            for angles in (pair[:2], pair[2:])
        )
        start = rho1 + 1j * rho2
        found, _, error = stepwise_run(
            lambda cfg, noise: walk_mod._light_cone_blocks(cfg, noise, start), cfg, noise
        )
        expected, _, expected_error = stepwise_run(
            lambda cfg, noise: full_lattice_stepwise(cfg, noise, start), cfg, noise
        )
        assert error == expected_error
        assert len(found) == len(expected)
        for t, (a, b) in enumerate(zip(found, expected)):
            assert np.array_equal(a, b), f"t={t}"


def guard_steps(walk):
    """The steps of ``walk``, a generator of (t, ...), at which the edge
    guard runs, up to the end of the walk or the guard's error."""
    steps, last = [], [-1]
    check = walk_mod._check_edges

    def counting(amps):
        steps.append(last[0] + 1)
        check(amps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk_mod, "_check_edges", counting)
        try:
            for t, *_ in walk:
                last[0] = t
        except EdgeAmplitudeError:
            pass
    return steps


class TestEdgeGuardSteps:
    """The guard runs only from the first step at which the walk can reach
    an end column."""

    @pytest.mark.parametrize("mode", ["one_shot", "stepwise"])
    @pytest.mark.parametrize("x0", [-7, 0, 4])
    def test_valid_walks_never_run_the_guard(self, monkeypatch, mode, x0):
        calls = []
        monkeypatch.setattr(walk_mod, "_check_edges", calls.append)
        cfg = WalkConfig(steps=6, delta=0.7, eta=0.3, initial_position=x0)
        witness_series(cfg, OunParams(Gamma=0.1, gamma=0.01), mode=mode, witnesses=WITNESS_TAGS)
        assert calls == []

    @pytest.mark.parametrize("evolve", [evolve_one_shot, evolve_stepwise])
    @pytest.mark.parametrize(
        "x0, reach", [(3, 8), (-5, 6), (-11, 1), (11, 1)], ids=["right", "left", "at-left", "at-right"]
    )
    def test_first_call_is_at_reach(self, evolve, x0, reach, origin_lattice):
        # on 2(T + 1) + 1 = 23 sites the start's lattice index is x0 + 11;
        # reach is min(x0 + 11, 11 - x0), and at least 1 since step 0 has no
        # guard
        cfg = WalkConfig(steps=10, delta=0.7, eta=0.3, initial_position=x0)
        steps = guard_steps(evolve(cfg, OunParams(Gamma=0.1, gamma=0.01)))
        assert steps and steps == list(range(reach, reach + len(steps)))


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
        factor = list(evolve_one_shot(cfg, noise))[6][1]
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
        positions = lattice_positions(cfg).astype(float)
        amps = evolve_noiseless(cfg)
        assert distribution_variance(position_distribution(amps[1, ..., None]), positions) == (
            pytest.approx(0.0, abs=1e-14)
        )
        assert distribution_variance(position_distribution(amps[2, ..., None]), positions) == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_lattice_positions_span(self):
        pos = lattice_positions(WalkConfig(steps=3))
        assert pos[0] == -4 and pos[-1] == 4 and len(pos) == 9

    @pytest.mark.parametrize("x0", [-2, 3])
    def test_lattice_widens_by_the_start_offset(self, x0):
        cfg = WalkConfig(steps=3, initial_position=x0)
        pos = lattice_positions(cfg)
        half = 4 + abs(x0)
        assert pos[0] == -half and pos[-1] == half and len(pos) == cfg.n_positions


#: off-origin starts that the narrower lattice of 2(T + 1) + 1 sites refused
#: with an EdgeAmplitudeError: (x0, delta, eta), all at T = 60
OFF_ORIGIN_STARTS = {
    "left-1-default-coin": (-1, math.pi / 4, 0.0),
    "right-1": (1, 0.7, 0.3),
    "right-2": (2, 0.7, 0.3),
    "left-2": (-2, 0.7, 0.3),
}


def lattice_distribution(cfg, state, sites):
    """Position probabilities of a yielded state on the whole lattice."""
    probs = np.zeros(cfg.n_positions)
    probs[sites] = position_distribution(state)
    return probs


class TestOffOriginStart:
    NOISE = OunParams(Gamma=0.1, gamma=0.01)

    @pytest.mark.parametrize("evolve", [evolve_one_shot, evolve_stepwise])
    @pytest.mark.parametrize(
        "x0, delta, eta", OFF_ORIGIN_STARTS.values(), ids=OFF_ORIGIN_STARTS.keys()
    )
    def test_distribution_is_the_origin_one_shifted(self, evolve, x0, delta, eta):
        cfg = WalkConfig(steps=60, delta=delta, eta=eta, initial_position=x0)
        origin = WalkConfig(steps=60, delta=delta, eta=eta)
        shift = lattice_positions(origin) + x0
        inside = np.isin(lattice_positions(cfg), shift)
        pairs = zip(evolve(cfg, self.NOISE), evolve(origin, self.NOISE), strict=True)
        for (t, *found), (_, *expected) in pairs:
            probs = lattice_distribution(cfg, *found)
            np.testing.assert_allclose(
                probs[inside], lattice_distribution(origin, *expected), rtol=0, atol=1e-15,
                err_msg=f"t={t}",
            )
            assert not probs[~inside].any(), f"t={t}"
