import numpy as np
import pytest
import conftest
from conftest import check_density_matrix, trace_norm, von_neumann_entropy

from nmqwalk.qops import entropy_of_spectrum, partial_trace
from nmqwalk.walk import density_from_amplitudes

BELL = density_from_amplitudes(np.array([1, 0, 0, 1]) / np.sqrt(2))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit_is_one_bit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_three_quarters_one_quarter(self):
        value = von_neumann_entropy(np.diag([0.75, 0.25]))
        assert value == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        assert von_neumann_entropy(q @ rho @ q.conj().T) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-10
        )

    def test_entropy_of_spectrum_matches(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 5)
        assert entropy_of_spectrum(np.linalg.eigvalsh(rho)) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    def test_pure_spectrum_prints_zero(self):
        # negating the empty sum gave -0.0, which the data files printed as -0
        assert "%.12g" % entropy_of_spectrum([1.0, 0.0]) == "0"
        assert "%.12g" % entropy_of_spectrum([]) == "0"

    def test_non_physical_spectrum_is_not_clamped(self):
        # the weight 2 of a spectrum that leaves the state space reads -2 bits
        assert entropy_of_spectrum([2.0, -1.0]) == -2.0


def view(rho):
    """The coin-block view r[c, j, d, k] (2, m, 2, m) of a coin (x) position matrix."""
    m = rho.shape[0] // 2
    return rho.reshape(2, m, 2, m)


class TestPartialTrace:
    # the library reads both marginals from the coin-block view; the
    # conftest oracle takes the whole matrix and its declared dimensions
    def test_bell_marginals_maximally_mixed(self):
        for keep in ("coin", "position"):
            np.testing.assert_allclose(partial_trace(view(BELL), keep), np.eye(2) / 2, atol=1e-14)

    def test_product_state_factors(self):
        rng = np.random.default_rng(11)
        a = random_density(rng, 2)
        b = random_density(rng, 5)
        rho = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(view(rho), "coin"), a, atol=1e-13)
        np.testing.assert_allclose(partial_trace(view(rho), "position"), b, atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 6)
        assert np.trace(partial_trace(view(rho), "coin")) == pytest.approx(1.0)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="cannot factor"):
            conftest.partial_trace(np.eye(6) / 6, (2, 2), "coin")

    def test_bad_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(view(np.eye(4) / 4), "both")


class TestValidation:
    def test_valid_density_passes(self):
        check_density_matrix(np.eye(3) / 3)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            check_density_matrix(np.diag([1.5, -0.5]))


class TestNormsAndSpectra:
    def test_trace_norm_pauli_x(self):
        assert trace_norm(np.array([[0, 1], [1, 0]])) == pytest.approx(2.0)

    def test_trace_norm_matches_svd_for_non_hermitian(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert trace_norm(m) == pytest.approx(
            np.sum(np.linalg.svd(m, compute_uv=False)), abs=1e-10
        )
