import numpy as np
import pytest
from numpy.testing import assert_allclose

from tensorstable.linalg import (
    SIGMA,
    HermitianOperator,
    block_positivity_min,
    hermitian_spectrum,
    kron,
    partial_transpose,
    psd_verdict,
)

RNG = np.random.default_rng(20240901)


def rand_hermitian(dim, rng=RNG):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def psi_plus_projector():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 2**-0.5
    return HermitianOperator(np.outer(psi, psi.conj()))


class TestKron:
    def test_identity(self):
        assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_paulis(self):
        assert_allclose(kron(SIGMA[3], SIGMA[3]), np.diag([1, -1, -1, 1]).astype(complex))

    def test_sigma1_sigma2(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = -1j
        expected[1, 2] = 1j
        expected[2, 1] = -1j
        expected[3, 0] = 1j
        assert_allclose(kron(SIGMA[1], SIGMA[2]), expected)

    def test_associativity(self):
        for _ in range(20):
            a, b, c = (rand_hermitian(2) for _ in range(3))
            lhs = kron(kron(a, b), c)
            rhs = kron(a, kron(b, c))
            assert np.abs(lhs - rhs).max() < 1e-13

    def test_factor_bookkeeping(self):
        a = HermitianOperator(rand_hermitian(2))
        b = HermitianOperator(rand_hermitian(4))
        assert kron(a, b).nfactors == 3


class TestHermitianOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            HermitianOperator(np.eye(3))

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(m)

    def test_symmetrizes_small_drift(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-12
        h = HermitianOperator(m)
        assert np.abs(h.matrix - h.matrix.conj().T).max() == 0

    @pytest.mark.parametrize(
        "m", [np.diag([1.0, 1e308]), [[0.0, 1e308], [1e308, 0.0]]], ids=["diagonal", "off-diagonal"]
    )
    def test_entries_whose_mean_overflows_are_rejected(self, m):
        # (m + m^dag)/2 used to store inf+nanj, with two RuntimeWarnings, and min_eig() read nan.
        with pytest.raises(ValueError, match=r"must be finite, and so must \(m \+ m\^dag\)/2"):
            HermitianOperator(m)

    def test_entries_whose_mean_fits_are_kept(self):
        h = HermitianOperator(np.diag([1.0, 8e307]))
        assert h.matrix.tobytes() == np.diag([1.0, 8e307]).astype(complex).tobytes()
        assert h.min_eig() == 1.0

    @pytest.mark.parametrize(
        "m",
        [[[0.0, 1e308], [-1e308, 0.0]], [[0.0, 1.7e308 + 1.7e308j], [-1.7e308 - 1.7e308j, 0.0]]],
        ids=["real", "complex"],
    )
    def test_huge_drift_is_not_hermitian(self, m):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(m)

    @pytest.mark.parametrize("m", [[["x", 0], [0, 1]], {}, "x"])
    def test_rejects_non_numeric_entries(self, m):
        with pytest.raises(ValueError, match="matrix entries must be numbers"):
            HermitianOperator(m)


class TestPartialTranspose:
    def test_max_entangled(self):
        pt = partial_transpose(psi_plus_projector(), [1])
        assert_allclose(pt.spectrum(), [-0.5, 0.5, 0.5, 0.5], atol=1e-13)

    def test_involution(self):
        h = HermitianOperator(rand_hermitian(8))
        back = partial_transpose(partial_transpose(h, [1]), [1])
        assert_allclose(back.matrix, h.matrix, atol=1e-14)


class TestSpectrum:
    def test_identity(self):
        assert_allclose(hermitian_spectrum(np.eye(4)), np.ones(4))

    def test_sigma1(self):
        assert_allclose(hermitian_spectrum(SIGMA[1]), [-1, 1], atol=1e-15)

    def test_swap_eigenvalues(self):
        pt = partial_transpose(psi_plus_projector(), [1])
        assert_allclose(pt.spectrum(), [-0.5, 0.5, 0.5, 0.5], atol=1e-13)

    def test_reconstruction(self):
        for dim in (2, 4, 16, 64):
            h = rand_hermitian(dim)
            w, v = np.linalg.eigh(h)
            back = (v * w) @ v.conj().T
            scale = np.abs(w).max()
            assert np.abs(back - h).max() <= 1e-10 * max(scale, 1.0)


class TestPsdVerdict:
    def test_bands(self):
        assert psd_verdict(np.array([0.0, 1.0])) == "psd"
        assert psd_verdict(np.array([-1e-10, 1.0])) == "psd"
        assert psd_verdict(np.array([-1e-3, 1.0])) == "not_psd"
        assert psd_verdict(np.array([-1e-7, 1.0])) == "marginal"

    def test_scales_with_radius(self):
        assert psd_verdict(np.array([-5e-9, 100.0])) == "psd"

    @pytest.mark.parametrize(
        "eigs", [[-np.inf, 1.0], [-1.0, np.inf], [np.nan, 1.0], [0.0, np.nan], [np.inf], [-np.inf], [np.nan]]
    )
    def test_non_finite_spectra_are_marginal(self, eigs):
        # An infinite radius would stretch the confirm band to -inf.
        assert psd_verdict(np.array(eigs)) == "marginal"


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: block_positivity_min(HermitianOperator(np.eye(8) / 8), cut=(0.9, 2.7)),
         "cut indices must be non-negative integers, got 0.9"),
        (lambda: partial_transpose(psi_plus_projector(), [1.7]), "subsystems must be non-negative integers, got 1.7"),
        (lambda: partial_transpose(psi_plus_projector(), ["1"]), "subsystems must be non-negative integers, got '1'"),
        (lambda: partial_transpose(psi_plus_projector(), [2]), r"factor index out of range for 2 factors: \[2\]"),
    ],
    ids=["cut-float", "subsystems-float", "subsystems-str", "subsystems-out-of-range"],
)
def test_qubit_index_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_numpy_integer_indices_are_accepted():
    pt = partial_transpose(psi_plus_projector(), [np.int64(1)])
    assert pt.matrix.tobytes() == partial_transpose(psi_plus_projector(), [1]).matrix.tobytes()
