import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avibasis.linalg import (
    gen_sym_eig,
    lstsq,
    orthonormal_basis,
    principal_angles,
)


class TestSymEig:
    """The standard symmetric problem, solved as ``gen_sym_eig(a, I)``."""

    def test_diagonal(self):
        res = gen_sym_eig(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(res.eigenvalues, [2.0, 1.0])
        assert np.allclose(res.eigenvectors, np.eye(2))
        assert res.retained_rank == 2

    def test_identity(self):
        res = gen_sym_eig(np.eye(3), np.eye(3))
        assert np.allclose(res.eigenvalues, [1.0, 1.0, 1.0])

    def test_hand_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        res = gen_sym_eig(a, np.eye(2))
        assert np.allclose(res.eigenvalues, [3.0, 1.0])
        s = 1 / np.sqrt(2)
        assert np.allclose(np.abs(res.eigenvectors[:, 0]), [s, s])
        assert np.allclose(np.abs(res.eigenvectors[:, 1]), [s, s])
        for i in range(2):
            v = res.eigenvectors[:, i]
            assert np.linalg.norm(a @ v - res.eigenvalues[i] * v) <= 1e-12

    def test_sign_convention(self):
        res = gen_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
        for i in range(2):
            col = res.eigenvectors[:, i]
            assert col[np.abs(col).argmax()] > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square matrix"):
            gen_sym_eig(np.zeros((2, 3)), np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            gen_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


class TestGenSymEig:
    def test_b_identity_reduces_to_sym_eig(self):
        res = gen_sym_eig(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(res.eigenvalues, [2.0, 1.0])
        assert np.allclose(res.eigenvectors, np.eye(2))

    def test_diagonal_closed_form(self):
        res = gen_sym_eig(np.eye(2), np.diag([4.0, 1.0]))
        assert np.allclose(res.eigenvalues, [1.0, 0.25])
        assert np.allclose(res.eigenvectors[:, 0], [0.0, 1.0])
        assert np.allclose(res.eigenvectors[:, 1], [0.5, 0.0])

    def test_null_direction_discarded(self):
        res = gen_sym_eig(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert res.retained_rank == 1
        assert np.allclose(res.eigenvalues, [1.0])
        assert np.allclose(res.eigenvectors[:, 0], [1.0, 0.0])

    def test_zero_b_empty_result(self):
        res = gen_sym_eig(np.eye(3), np.zeros((3, 3)))
        assert res.retained_rank == 0
        assert res.eigenvalues.shape == (0,)
        assert res.eigenvectors.shape == (3, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gen_sym_eig(np.eye(2), np.eye(3))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 50))
    def test_reconstruction_and_b_orthonormality(self, seed, dim):
        # Gram factors with extra rows keep the random PSD pair sanely
        # conditioned; square Wishart matrices can be near-singular, which
        # no whitening-based solver survives at this residual level.
        rng = np.random.default_rng(seed)
        ra = rng.standard_normal((dim + 12, dim))
        rb = rng.standard_normal((dim + 12, dim))
        a = ra.T @ ra
        b = rb.T @ rb
        res = gen_sym_eig(a, b)
        v, lam = res.eigenvectors, res.eigenvalues
        assert np.linalg.norm(a @ v - b @ v @ np.diag(lam)) <= 1e-8 * (
            np.linalg.norm(a) + np.linalg.norm(b)
        )
        assert np.linalg.norm(v.T @ b @ v - np.eye(res.retained_rank)) <= 1e-8
        off = v.T @ a @ v - np.diag(lam)
        assert np.abs(off).max() <= 1e-8 * max(1.0, np.abs(lam).max())
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 1e-9 * max(1.0, lam.max()))

    def test_determinism(self):
        rng = np.random.default_rng(11)
        r = rng.standard_normal((8, 8))
        a, b = r @ r.T, np.eye(8) + np.outer(np.ones(8), np.ones(8))
        r1 = gen_sym_eig(a, b)
        r2 = gen_sym_eig(a, b)
        assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


class TestLstsq:
    def test_mean_of_targets(self):
        w, res = lstsq(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        assert np.allclose(w, [2.0])
        assert res == pytest.approx(np.sqrt(2.0))

    def test_identity(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        w, res = lstsq(np.eye(3), y)
        assert np.allclose(w, y)
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_zero_matrix(self):
        y = np.array([1.0, 2.0, 2.0])
        w, res = lstsq(np.zeros((3, 2)), y)
        assert np.allclose(w, 0.0)
        assert res == pytest.approx(3.0)

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            lstsq(np.eye(3), np.zeros(2))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_optimality_under_perturbation(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((8, 4))
        y = rng.standard_normal((8, 2))
        w, res = lstsq(m, y)
        for _ in range(5):
            delta = rng.standard_normal(w.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            perturbed = np.linalg.norm(m @ (w + delta) - y)
            assert perturbed >= res - 1e-12

    def test_rank_deficient(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        w, res = lstsq(m, np.array([3.0, 3.0, 3.0]))
        assert res == pytest.approx(0.0, abs=1e-12)
        # minimum-norm solution splits the weight evenly
        assert np.allclose(w, [1.5, 1.5])


class TestPrincipalAngles:
    def test_same_span(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 3))
        mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        angles = principal_angles(orthonormal_basis(a), orthonormal_basis(a @ mix))
        assert angles.max() <= 1e-10

    def test_orthogonal_spans(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        angles = principal_angles(orthonormal_basis(a), orthonormal_basis(b))
        assert np.allclose(angles, np.pi / 2)

    def test_orthonormal_basis_rank(self):
        a = np.ones((5, 3))
        q = orthonormal_basis(a)
        assert q.shape == (5, 1)
