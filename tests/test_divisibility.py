import numpy as np
import pytest

from nmqwalk.divisibility import (
    apply_signed,
    choi_eigenvalues,
    cp_divisibility_scan,
    intermediate_kraus,
    is_cp,
    kernel_ratio,
)
from nmqwalk.exceptions import NonInvertibleMapError
from nmqwalk.noise import OunParams, RtnParams, kernel_value, kraus_at


def dephase(rho, k):
    out = rho.copy().astype(complex)
    out[0, 1] *= k
    out[1, 0] *= k
    return out


def intermediate_choi(r):
    """Unnormalized Choi matrix of the intermediate dephasing map (test oracle).

    Built by applying the map to half of |Phi+> = |00> + |11>: ones at
    (0,0) and (3,3), the ratio r at the (0,3)/(3,0) corners.
    """
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0
    m[0, 3] = m[3, 0] = r
    return m


def random_qubit_states(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    rho = a @ a.conj().transpose(0, 2, 1)
    return rho / np.trace(rho, axis1=1, axis2=2)[:, None, None]


class TestChoi:
    def test_closed_form_matches_numeric_spectrum(self):
        for r in (-1.7, -0.3, 0.0, 0.8, 1.0, 2.4):
            analytic = np.sort(choi_eigenvalues(r))
            numeric = np.sort(np.linalg.eigvalsh(intermediate_choi(r)))
            np.testing.assert_allclose(numeric, analytic, atol=1e-12)

    def test_cp_iff_ratio_within_unit_interval(self):
        assert is_cp(0.9)
        assert is_cp(-1.0)
        assert not is_cp(1.2)
        assert not is_cp(-1.0000001)
        assert is_cp(np.array([0.9, -1.0, 1.2, -1.0000001])).tolist() == [True, True, False, False]

    def test_ratio_continuity_near_t1(self):
        noise = RtnParams(a=0.9, gamma=0.05)
        _, _, l3, _ = choi_eigenvalues(kernel_ratio(noise, 1.0, 1.0 + 1e-8))
        assert abs(l3) < 1e-6


class TestKernelRatio:
    def test_value(self):
        noise = OunParams(Gamma=1.0, gamma=0.05)
        assert kernel_ratio(noise, 2.0, 5.0) == pytest.approx(
            kernel_value(noise, 5.0) / kernel_value(noise, 2.0)
        )

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
                apply_signed(rho, ks), dephase(rho, r), atol=1e-13
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
            k1a, k1b = kraus_at(noise, t1)
            rho_t1 = k1a @ rho @ k1a.conj().T + k1b @ rho @ k1b.conj().T
            via_intermediate = apply_signed(
                rho_t1, intermediate_kraus(kernel_ratio(noise, t1, t2))
            )
            k2a, k2b = kraus_at(noise, t2)
            direct = k2a @ rho @ k2a.conj().T + k2b @ rho @ k2b.conj().T
            np.testing.assert_allclose(via_intermediate, direct, atol=1e-10)


class TestScan:
    GRID = np.arange(1.1, 20.05, 0.1)

    def test_rtn_non_markovian_regime_violates_cp(self):
        result = cp_divisibility_scan(RtnParams(a=0.9, gamma=0.05), 1.0, self.GRID)
        l3 = np.array([p.lambda3 for p in result.points])
        assert result.non_markovian_by_cp
        assert np.any(l3 < 0)
        assert np.sum(np.abs(np.diff(np.sign(l3)))) / 2 >= 2

    def test_oun_stays_cp(self):
        result = cp_divisibility_scan(OunParams(Gamma=1.0, gamma=5.0), 1.0, self.GRID)
        assert not result.non_markovian_by_cp
        assert all(p.is_cp and p.invertible for p in result.points)

    def test_kernel_zero_at_t1_flags_every_point(self, monkeypatch):
        import nmqwalk.divisibility as div

        monkeypatch.setattr(div, "kernel_value", lambda noise, t: np.zeros_like(t, dtype=float))
        result = cp_divisibility_scan(RtnParams(a=0.9, gamma=0.05), 1.0, self.GRID)
        assert len(result.points) == len(self.GRID)
        for p in result.points:
            assert not p.invertible and not p.is_cp
            assert np.isnan(p.lambda3) and np.isnan(p.lambda4)
        assert not result.non_markovian_by_cp

    @pytest.mark.parametrize("grid", [[1.5, 1.0, 2.0], [0.5], [1.5, 0.9]])
    def test_grid_entry_not_after_t1_rejected(self, grid):
        with pytest.raises(ValueError, match="t2 > t1"):
            cp_divisibility_scan(OunParams(Gamma=1.0, gamma=5.0), 1.0, grid)
