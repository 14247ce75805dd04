import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmqwalk.noise as noise_mod
from nmqwalk.exceptions import KernelRangeError
from nmqwalk.noise import (
    _CRITICAL_TOL,
    _KERNEL_SLACK,
    OunParams,
    PlnParams,
    RtnParams,
    kernel_value,
    kraus_at,
    oun_p,
    pln_p,
    rtn_lambda,
)

TIMES = np.arange(0.0, 50.5, 0.5)

RATES = st.floats(min_value=1e-4, max_value=10.0)
STRENGTHS = st.floats(min_value=0.0, max_value=10.0)
KERNEL_TIMES = st.floats(min_value=0.0, max_value=2000.0)


def near_critical_rtn(gamma: float, offset: float) -> RtnParams:
    """RTN with 2a/gamma = 1 + offset."""
    return RtnParams(a=0.5 * gamma * (1.0 + offset), gamma=gamma)


MODELS = st.one_of(
    st.builds(RtnParams, a=STRENGTHS, gamma=RATES),
    # 2a/gamma within 1e-10 of 1, on both sides of the _CRITICAL_TOL switch
    # between the cos and cosh branches
    st.builds(near_critical_rtn, RATES, st.floats(min_value=-1e-10, max_value=1e-10)),
    st.builds(OunParams, Gamma=STRENGTHS, gamma=RATES),
    st.builds(PlnParams, Gamma=STRENGTHS, gamma=RATES),
)


class TestRtnKernel:
    def test_starts_at_one(self):
        assert rtn_lambda(RtnParams(a=0.9, gamma=0.05), 0.0) == pytest.approx(1.0)

    def test_bounded_by_one(self):
        for p in (RtnParams(0.9, 0.05), RtnParams(0.9, 5.0), RtnParams(0.1, 0.4)):
            assert np.max(np.abs(rtn_lambda(p, TIMES))) <= 1.0 + 1e-12

    def test_oscillates_above_critical_ratio(self):
        # a/gamma > 1/2: underdamped, the kernel changes sign
        vals = rtn_lambda(RtnParams(a=0.9, gamma=0.05), TIMES)
        assert np.any(vals < 0)

    def test_no_sign_change_well_below_critical_ratio(self):
        # a/gamma < 1/4: safely overdamped, monotone-signed decay
        vals = rtn_lambda(RtnParams(a=0.1, gamma=0.5), TIMES)
        assert np.all(vals > 0)

    def test_continuous_at_critical_damping(self):
        gamma = 0.4
        t = np.linspace(0, 30, 61)
        at_boundary = rtn_lambda(RtnParams(a=gamma / 2, gamma=gamma), t)
        near = rtn_lambda(RtnParams(a=gamma / 2 * (1 + 1e-8), gamma=gamma), t)
        np.testing.assert_allclose(near, at_boundary, atol=1e-6)
        np.testing.assert_allclose(
            at_boundary, np.exp(-gamma * t) * (1 + gamma * t), atol=1e-12
        )

    def test_scalar_in_scalar_out(self):
        assert isinstance(rtn_lambda(RtnParams(0.9, 0.05), 1.0), float)


class TestOunKernel:
    def test_starts_at_one_and_decreases(self):
        vals = oun_p(OunParams(Gamma=1.0, gamma=0.05), TIMES)
        assert vals[0] == pytest.approx(1.0)
        assert np.all(np.diff(vals) < 0)

    def test_white_noise_limit(self):
        # for gamma >> 1 the memory kernel collapses and P(t) -> exp(-Gamma t / 2)
        assert oun_p(OunParams(Gamma=1.0, gamma=1e8), 1.0) == pytest.approx(
            math.exp(-0.5), rel=1e-6
        )


class TestPlnKernel:
    def test_starts_at_one_and_decreases(self):
        vals = pln_p(PlnParams(Gamma=5.0, gamma=0.05), TIMES)
        assert vals[0] == pytest.approx(1.0)
        assert np.all(np.diff(vals) < 0)

    def test_long_time_plateau(self):
        # P(t) -> exp(-Gamma/2) regardless of gamma
        p = PlnParams(Gamma=5.0, gamma=0.05)
        assert pln_p(p, 1e9) == pytest.approx(math.exp(-2.5), rel=1e-6)
        p2 = PlnParams(Gamma=5.0, gamma=2.0)
        assert pln_p(p2, 1e9) == pytest.approx(math.exp(-2.5), rel=1e-6)


class TestKraus:
    @pytest.mark.parametrize(
        "noise",
        [
            RtnParams(a=0.9, gamma=0.05),
            RtnParams(a=0.9, gamma=5.0),
            OunParams(Gamma=1.0, gamma=0.05),
            PlnParams(Gamma=5.0, gamma=0.05),
        ],
    )
    def test_completeness(self, noise):
        for t in TIMES:
            k1, k2 = kraus_at(noise, float(t))
            total = k1.conj().T @ k1 + k2.conj().T @ k2
            assert np.max(np.abs(total - np.eye(2))) <= 1e-14

    def test_populations_fixed_coherences_scaled(self):
        noise = RtnParams(a=0.9, gamma=0.05)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        t = 3.0
        k1, k2 = kraus_at(noise, t)
        out = k1 @ rho @ k1.conj().T + k2 @ rho @ k2.conj().T
        k = kernel_value(noise, t)
        assert out[0, 0] == pytest.approx(rho[0, 0])
        assert out[1, 1] == pytest.approx(rho[1, 1])
        assert out[0, 1] == pytest.approx(rho[0, 1] * k)

    def test_no_noise_is_the_identity_pair(self):
        k1, k2 = kraus_at(None, 1.0)
        np.testing.assert_array_equal(k1, np.eye(2))
        np.testing.assert_array_equal(k2, np.zeros((2, 2)))


class TestKernelProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(noise=MODELS, t=KERNEL_TIMES)
    @example(noise=near_critical_rtn(0.4, 0.4 * _CRITICAL_TOL), t=3.0)
    @example(noise=near_critical_rtn(0.4, 0.6 * _CRITICAL_TOL), t=3.0)
    @example(noise=near_critical_rtn(0.4, -0.6 * _CRITICAL_TOL), t=3.0)
    @example(noise=RtnParams(a=0.25, gamma=1.0), t=900.0)
    def test_kernel_within_unit_range(self, noise, t):
        # the slack is the rounding allowance kraus_at accepts
        k = kernel_value(noise, t)
        assert abs(k) <= 1.0 + _KERNEL_SLACK

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(noise=MODELS, t=KERNEL_TIMES)
    # a PLN point where (t gamma + 1) ** 2 rounds differently for a scalar t
    @example(noise=PlnParams(Gamma=3.110927, gamma=0.50476), t=149.0)
    def test_scalar_and_array_time_agree(self, noise, t):
        # the walk evaluates k one t at a time, the Choi scan on a whole grid
        assert kernel_value(noise, t) == kernel_value(noise, np.array([t]))[0]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(noise=MODELS, t=KERNEL_TIMES)
    def test_kraus_pair_is_complete(self, noise, t):
        k1, k2 = kraus_at(noise, t)
        total = k1.conj().T @ k1 + k2.conj().T @ k2
        assert np.max(np.abs(total - np.eye(2))) <= 1e-14

    @pytest.mark.parametrize("bad", [1.0 + 1e-9, -1.0 - 1e-9, math.nan])
    def test_kraus_rejects_out_of_range_kernel(self, monkeypatch, bad):
        monkeypatch.setattr(noise_mod, "kernel_value", lambda noise, t: bad)
        with pytest.raises(KernelRangeError):
            kraus_at(RtnParams(a=0.9, gamma=0.05), 1.0)


class TestParamsAndDispatch:
    def test_no_noise_kernel_is_one(self):
        assert kernel_value(None, 3.0) == 1.0

    def test_dispatch_matches_direct(self):
        p = OunParams(Gamma=0.5, gamma=0.1)
        assert kernel_value(p, 2.0) == oun_p(p, 2.0)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: RtnParams(a=-0.1, gamma=1.0),
            lambda: RtnParams(a=0.1, gamma=0.0),
            lambda: OunParams(Gamma=-1.0, gamma=1.0),
            lambda: OunParams(Gamma=1.0, gamma=-1.0),
            lambda: PlnParams(Gamma=-1.0, gamma=1.0),
        ],
    )
    def test_parameter_ranges_enforced(self, bad):
        with pytest.raises(ValueError):
            bad()
