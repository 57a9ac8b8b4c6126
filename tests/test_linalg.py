import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avibasis.linalg import (
    _lstsq_weights,
    gen_sym_eig,
    lstsq,
    orthonormal_basis,
    principal_angles,
)
from conftest import time_limit


class TestSymEig:
    """The standard symmetric problem, solved as ``gen_sym_eig(a, I)``."""

    def test_diagonal(self):
        vals, vecs = gen_sym_eig(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(vals, [2.0, 1.0])
        assert np.allclose(vecs, np.eye(2))
        assert vecs.shape[1] == 2

    def test_identity(self):
        vals, _ = gen_sym_eig(np.eye(3), np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_hand_2x2(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        vals, vecs = gen_sym_eig(a, np.eye(2))
        assert np.allclose(vals, [3.0, 1.0])
        s = 1 / np.sqrt(2)
        assert np.allclose(np.abs(vecs[:, 0]), [s, s])
        assert np.allclose(np.abs(vecs[:, 1]), [s, s])
        for i in range(2):
            v = vecs[:, i]
            assert np.linalg.norm(a @ v - vals[i] * v) <= 1e-12

    def test_sign_convention(self):
        _, vecs = gen_sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
        for i in range(2):
            col = vecs[:, i]
            assert col[np.abs(col).argmax()] > 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square matrix"):
            gen_sym_eig(np.zeros((2, 3)), np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            gen_sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))


class TestGenSymEig:
    def test_b_identity_reduces_to_sym_eig(self):
        vals, vecs = gen_sym_eig(np.diag([2.0, 1.0]), np.eye(2))
        assert np.allclose(vals, [2.0, 1.0])
        assert np.allclose(vecs, np.eye(2))

    def test_diagonal_closed_form(self):
        vals, vecs = gen_sym_eig(np.eye(2), np.diag([4.0, 1.0]))
        assert np.allclose(vals, [1.0, 0.25])
        assert np.allclose(vecs[:, 0], [0.0, 1.0])
        assert np.allclose(vecs[:, 1], [0.5, 0.0])

    def test_null_direction_discarded(self):
        vals, vecs = gen_sym_eig(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert vecs.shape[1] == 1
        assert np.allclose(vals, [1.0])
        assert np.allclose(vecs[:, 0], [1.0, 0.0])

    def test_zero_b_empty_result(self):
        vals, vecs = gen_sym_eig(np.eye(3), np.zeros((3, 3)))
        assert vecs.shape[1] == 0
        assert vals.shape == (0,)
        assert vecs.shape == (3, 0)

    @pytest.mark.parametrize("a,b,name", [
        (np.eye(2), [[np.inf, 0.0], [0.0, 1.0]], "right-hand"),
        (np.eye(2), [[1e308, 1e308], [1e308, 1e308]], "right-hand"),  # finite; (b + b.T) / 2 is not
        ([[1.0, np.nan], [np.nan, 1.0]], np.eye(2), "left-hand"),
    ], ids=["inf", "overflowing symmetrization", "nan"])
    def test_rejects_non_finite(self, a, b, name):
        with pytest.raises(ValueError, match=f"^{name} matrix must be finite"):
            gen_sym_eig(np.array(a), np.array(b))

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
        lam, v = gen_sym_eig(a, b)
        assert np.linalg.norm(a @ v - b @ v @ np.diag(lam)) <= 1e-8 * (
            np.linalg.norm(a) + np.linalg.norm(b)
        )
        assert np.linalg.norm(v.T @ b @ v - np.eye(v.shape[1])) <= 1e-8
        off = v.T @ a @ v - np.diag(lam)
        assert np.abs(off).max() <= 1e-8 * max(1.0, np.abs(lam).max())
        assert np.all(lam >= 0)
        assert np.all(np.diff(lam) <= 1e-9 * max(1.0, lam.max()))

    def test_determinism(self):
        rng = np.random.default_rng(11)
        r = rng.standard_normal((8, 8))
        a, b = r @ r.T, np.eye(8) + np.outer(np.ones(8), np.ones(8))
        vals1, vecs1 = gen_sym_eig(a, b)
        vals2, vecs2 = gen_sym_eig(a, b)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)


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

    def test_design_without_columns(self):
        y = np.array([[1.0, 2.0], [2.0, 4.0]])
        w, res = lstsq(np.zeros((2, 0)), y)
        assert w.shape == (0, 2)
        assert res == np.linalg.norm(y) == 5.0

    @pytest.mark.parametrize("m,y", [(np.zeros((0, 3)), np.zeros((0, 2))), (np.zeros((4, 3)), np.ones((4, 2)))],
                             ids=["no rows", "all zero"])
    def test_rank_zero_design_gives_zeros(self, m, y):
        w, res = lstsq(m, y)
        assert w.shape == (3, 2) and not w.any()
        assert res == np.linalg.norm(y)

    @pytest.mark.parametrize("m,y", [
        # LAPACK's SVD of this design never returned
        ([[-np.inf, 1, -0.0], [-np.inf, 0, 1e-8], [-0.0, 0.5, -3], [2, 2, 0]], np.ones(4)),
        (np.eye(2), [1.0, np.nan]),
    ], ids=["inf design", "nan right-hand side"])
    def test_rejects_non_finite(self, m, y):
        with pytest.raises(ValueError, match="must be finite"):
            lstsq(np.array(m), np.array(y))

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


def _design(rng, rows: int, cols: int) -> np.ndarray:
    """A random design, of full rank or with zero, duplicated or dependent rows, or all zero."""
    m = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4)
    kind = rng.integers(5)
    if kind == 1:
        m[rng.random(rows) < 0.5] = 0.0
    elif kind == 2:
        m[rng.integers(rows, size=rows)] = m[rng.integers(rows)]
    elif kind == 3:
        m = rng.standard_normal((rows, 1)) @ m[:1]
    elif kind == 4:
        m[:] = 0.0
    return m


class TestStackedLstsqWeights:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(1, 4), st.integers(1, 6),
           st.integers(1, 2))
    def test_each_item_is_the_one_matrix_solve_bit_for_bit(self, seed, count, rows, cols, rhs):
        """Item i of a stack is item i solved alone, as a matrix."""
        rng = np.random.default_rng(seed)
        m = np.array([_design(rng, rows, cols) for _ in range(count)]).reshape(count, rows, cols)
        y = rng.standard_normal((count, rows, rhs))
        got = _lstsq_weights(m, y)
        assert got.shape == (count, cols, rhs)
        for item, (mi, yi) in enumerate(zip(m, y)):
            assert got[item].tobytes() == _lstsq_weights(mi, yi).tobytes()

    @pytest.mark.parametrize("rows,cols", [(75, 6), (300, 20), (300, 40)])
    def test_a_matrix_is_a_stack_of_one(self, rows, cols):
        rng = np.random.default_rng(rows + cols)
        m, y = rng.standard_normal((rows, cols)), rng.standard_normal((rows, 3))
        assert _lstsq_weights(m, y).tobytes() == _lstsq_weights(m[None], y[None])[0].tobytes()


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

    def test_orthonormal_basis_of_empty_matrices(self):
        assert orthonormal_basis(np.zeros((3, 0))).shape == (3, 0)
        assert orthonormal_basis(np.zeros((0, 3))).shape == (0, 0)
        assert orthonormal_basis(np.zeros((3, 2))).shape == (3, 0)

    @pytest.mark.parametrize("m", [[[np.inf, 1.0], [0.0, 1.0]], [[np.nan, 1.0], [0.0, 1.0]]],
                             ids=["inf", "nan"])
    def test_orthonormal_basis_rejects_non_finite(self, m):
        # unchecked, inf gave an empty (2, 0) basis and NaN "SVD did not converge"
        with time_limit(), pytest.raises(ValueError, match="^matrix must be finite$"):
            orthonormal_basis(np.array(m))

    def test_orthonormal_basis_rank(self):
        a = np.ones((5, 3))
        q = orthonormal_basis(a)
        assert q.shape == (5, 1)
