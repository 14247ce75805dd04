import math

import numpy as np
import pytest
from conftest import (
    MONOTONE_KERNELS,
    SignedKrausSet,
    apply_kraus,
    apply_signed,
    dephase_density,
    intermediate_kraus,
    kraus_at,
    random_qubit_states,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nmqwalk.divisibility import cp_divisibility_scan, is_cp, kernel_ratio
from nmqwalk.exceptions import NonInvertibleMapError
from nmqwalk.noise import OunParams, PlnParams, RtnParams, kernel_value
from nmqwalk.walk import density_from_amplitudes

RATES = st.floats(min_value=1e-3, max_value=5.0)
MODELS = st.one_of(
    st.builds(RtnParams, a=RATES, gamma=RATES),
    st.builds(OunParams, Gamma=RATES, gamma=RATES),
    st.builds(PlnParams, Gamma=RATES, gamma=RATES),
)


@st.composite
def qubit_states(draw):
    """A qubit density matrix from a Bloch vector in the closed unit ball."""
    bloch = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    x, y, z = bloch / max(1.0, float(np.linalg.norm(bloch)))
    return 0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]])


def intermediate_choi(r):
    """Unnormalized Choi matrix of the intermediate dephasing map (test oracle).

    Built by applying the map to half of |Phi+> = |00> + |11>: ones at
    (0,0) and (3,3), the ratio r at the (0,3)/(3,0) corners.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[0, 3] = m[3, 0] = r
    return m


class TestChoi:
    def test_closed_form_matches_numeric_spectrum(self):
        # the scan's lambda3 and lambda4 with the two zeros are the Choi
        # spectrum, for ratios below -1, inside [-1, 1] and above 1
        noise = RtnParams(a=0.9, gamma=0.05)
        t2 = 0.8 + np.linspace(0.25, 10.0, 40)
        r = kernel_ratio(noise, 0.8, t2)
        assert r.min() < -1.0 and r.max() > 1.0 and np.any(np.abs(r) <= 1.0)
        points = cp_divisibility_scan(noise, 0.8, t2).points
        for ratio, l3, l4 in zip(r, points["lambda3"], points["lambda4"]):
            analytic = np.sort([0.0, 0.0, l3, l4])
            numeric = np.sort(np.linalg.eigvalsh(intermediate_choi(ratio)))
            np.testing.assert_allclose(numeric, analytic, atol=1e-12)

    def test_cp_iff_ratio_within_unit_interval(self):
        assert is_cp(0.9)
        assert is_cp(-1.0)
        assert not is_cp(1.2)
        assert not is_cp(-1.0000001)
        assert is_cp(np.array([0.9, -1.0, 1.2, -1.0000001])).tolist() == [True, True, False, False]

    def test_ratio_continuity_near_t1(self):
        noise = RtnParams(a=0.9, gamma=0.05)
        (l3,) = cp_divisibility_scan(noise, 1.0, [1.0 + 1e-8]).points["lambda3"]
        assert abs(l3) < 1e-6


class TestKernelRatio:
    def test_value(self):
        noise = OunParams(Gamma=1.0, gamma=0.05)
        assert kernel_ratio(noise, 2.0, 5.0) == pytest.approx(
            kernel_value(noise, 5.0) / kernel_value(noise, 2.0)
        )

    def test_elementwise_in_t1(self):
        # the stepwise walk takes all its step ratios in one call
        noise = RtnParams(a=0.9, gamma=0.05)
        t1 = np.arange(6.0)
        expected = [kernel_ratio(noise, float(s), s + 1.0) for s in t1]
        np.testing.assert_array_equal(kernel_ratio(noise, t1, t1 + 1.0), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(noise=MONOTONE_KERNELS, t1=st.floats(0.0, 1e4), dt=st.floats(1e-3, 1e3))
    @example(noise=OunParams(Gamma=0.1, gamma=0.01), t1=745.0, dt=1.0)
    @example(noise=OunParams(Gamma=1.0, gamma=5.0), t1=65.0, dt=1.0)
    def test_monotone_kernels_have_no_zeros(self, noise, t1, dt):
        # OUN, PLN and overdamped RTN are positive at every t: the ratio is
        # the plain quotient wherever k(t1) is a normal float (k(745) = 9.8e-15
        # under OUN(0.1, 0.01)), and only an underflow below that is refused
        t2 = t1 + dt
        k1 = kernel_value(noise, t1)
        if k1 >= np.finfo(float).tiny:
            assert kernel_ratio(noise, t1, t2) == kernel_value(noise, t2) / k1
        else:
            with pytest.raises(NonInvertibleMapError, match="kernel vanishes"):
                kernel_ratio(noise, t1, t2)

    def test_underdamped_rtn_is_refused_at_the_zeros_of_its_oscillation(self):
        # RTN(5, 1) has decayed to |k(40)| = 2e-18, yet its factor
        # cos(wt) + sin(wt)/root is far from zero there, so E(40, 0) inverts
        far = RtnParams(a=5.0, gamma=1.0)
        assert abs(kernel_value(far, 40.0)) < 1e-14
        assert kernel_ratio(far, 40.0, 41.0) == kernel_value(far, 41.0) / kernel_value(far, 40.0)
        # 2a/gamma = sqrt(2) puts the first zero of the factor at w t = 3 pi / 4,
        # and w = gamma = 3 pi / 4 puts it at t = 1
        gamma = 3.0 * math.pi / 4.0
        zero = RtnParams(a=gamma / math.sqrt(2.0), gamma=gamma)
        with pytest.raises(NonInvertibleMapError, match=r"t1=1\.0;"):
            kernel_ratio(zero, np.array([0.5, 1.0]), np.array([2.0, 2.0]))

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            kernel_ratio(OunParams(Gamma=1.0, gamma=0.05), 3.0, 3.0)

    def test_non_invertible_detected(self, monkeypatch):
        import nmqwalk.divisibility as div

        monkeypatch.setattr(div, "kernel_value", lambda noise, t: 0.0)
        with pytest.raises(NonInvertibleMapError):
            kernel_ratio(RtnParams(a=0.9, gamma=0.05), 1.0, 2.0)


class TestSignedKraus:
    @pytest.mark.parametrize("r", [-1.6, -0.4, 0.0, 0.7, 1.0, 1.9])
    def test_generalized_completeness(self, r):
        ks = intermediate_kraus(r)
        total = sum(
            s * (op.conj().T @ op) for op, s in zip(ks.operators, ks.signs)
        )
        np.testing.assert_allclose(total, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("r", [-1.6, -0.4, 0.7, 1.9])
    def test_action_equals_coherence_scaling(self, r):
        ks = intermediate_kraus(r)
        for rho in random_qubit_states(20, seed=17):
            np.testing.assert_allclose(
                apply_signed(rho, ks), dephase_density(rho, r, 1), atol=1e-13
            )
        # on a coin (x) position state each K_j acts as K_j (x) I
        n = 5
        rng = np.random.default_rng(31)
        psi = rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n)
        rho = density_from_amplitudes(psi / np.linalg.norm(psi))
        lifted = SignedKrausSet(tuple(np.kron(op, np.eye(n)) for op in ks.operators), ks.signs)
        np.testing.assert_allclose(
            apply_signed(rho, lifted), dephase_density(rho, r, n), atol=1e-13
        )

    def test_signs_follow_negative_choi_eigenvalue(self):
        assert intermediate_kraus(1.5).signs == (1, -1)
        assert intermediate_kraus(-1.5).signs == (-1, 1)
        assert intermediate_kraus(0.5).signs == (1, 1)


class TestComposition:
    def test_intermediate_after_full_map_equals_longer_full_map(self):
        noise = RtnParams(a=0.9, gamma=0.05)
        rng = np.random.default_rng(23)
        states = random_qubit_states(25, seed=29)
        for rho in states:
            t1 = float(rng.uniform(0.2, 8.0))
            t2 = t1 + float(rng.uniform(0.2, 8.0))
            if abs(kernel_value(noise, t1)) < 1e-3:
                continue
            rho_t1 = apply_kraus(rho, kraus_at(noise, t1))
            via_intermediate = apply_signed(
                rho_t1, intermediate_kraus(kernel_ratio(noise, t1, t2))
            )
            direct = apply_kraus(rho, kraus_at(noise, t2))
            np.testing.assert_allclose(via_intermediate, direct, atol=1e-10)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        noise=MODELS,
        t1=st.floats(min_value=0.0, max_value=20.0),
        dt=st.floats(min_value=1e-3, max_value=20.0),
        rho=qubit_states(),
    )
    def test_composition_for_every_model(self, noise, t1, dt, rho):
        assume(abs(kernel_value(noise, t1)) > 1e-3)
        t2 = t1 + dt
        rho_t1 = apply_kraus(rho, kraus_at(noise, t1))
        via_intermediate = apply_signed(
            rho_t1, intermediate_kraus(kernel_ratio(noise, t1, t2))
        )
        direct = apply_kraus(rho, kraus_at(noise, t2))
        np.testing.assert_allclose(via_intermediate, direct, rtol=0, atol=1e-10)


class TestScan:
    GRID = np.arange(1.1, 20.05, 0.1)

    def test_rtn_non_markovian_regime_violates_cp(self):
        result = cp_divisibility_scan(RtnParams(a=0.9, gamma=0.05), 1.0, self.GRID)
        l3 = result.points["lambda3"]
        assert result.invertible and not result.points["is_cp"].all()
        assert np.any(l3 < 0)
        assert np.sum(np.abs(np.diff(np.sign(l3)))) / 2 >= 2

    def test_oun_stays_cp(self):
        noise = OunParams(Gamma=1.0, gamma=5.0)
        result = cp_divisibility_scan(noise, 1.0, self.GRID)
        assert result.invertible and result.points["is_cp"].all()
        # one record per grid point
        assert result.points.dtype.names == ("t2", "lambda3", "lambda4", "is_cp")
        np.testing.assert_array_equal(result.points["t2"], self.GRID)
        r = kernel_ratio(noise, 1.0, self.GRID)
        np.testing.assert_array_equal(result.points["lambda3"], 1.0 - r)
        np.testing.assert_array_equal(result.points["lambda4"], 1.0 + r)

    def test_oun_far_below_1e_14_stays_invertible(self):
        # k(70) = 3e-16 under OUN(1, 5), and every ratio is a CP e^(-(t2 - 70)/2)
        noise = OunParams(Gamma=1.0, gamma=5.0)
        grid = 70.0 + self.GRID
        result = cp_divisibility_scan(noise, 70.0, grid)
        assert result.invertible and result.points["is_cp"].all()
        np.testing.assert_allclose(
            result.points["lambda3"], -np.expm1(-0.5 * (grid - 70.0)), rtol=1e-12
        )

    def test_kernel_zero_at_t1_flags_every_point(self, monkeypatch):
        import nmqwalk.divisibility as div

        monkeypatch.setattr(div, "kernel_value", lambda noise, t: np.zeros_like(t, dtype=float))
        result = cp_divisibility_scan(RtnParams(a=0.9, gamma=0.05), 1.0, self.GRID)
        assert not result.invertible
        assert len(result.points) == len(self.GRID)
        assert not result.points["is_cp"].any()
        assert np.isnan(result.points["lambda3"]).all()
        assert np.isnan(result.points["lambda4"]).all()

    @pytest.mark.parametrize("grid", [[1.5, 1.0, 2.0], [0.5], [1.5, 0.9]])
    def test_grid_entry_not_after_t1_rejected(self, grid):
        with pytest.raises(ValueError, match="t2 > t1"):
            cp_divisibility_scan(OunParams(Gamma=1.0, gamma=5.0), 1.0, grid)
