import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avibasis.densepoly import (
    DensePolynomial,
    _add_scaled,
    _compile,
    _evaluate,
    coeff_dot,
    coefficient_vector,
    finite_diff_gradient,
    graded_monomials,
    monomial_count,
)
from conftest import bits, copying_fold

X = DensePolynomial.variable(2, 0)
Y = DensePolynomial.variable(2, 1)
CIRCLE = X * X + Y * Y - DensePolynomial.constant(2, 1)


def small_poly(num_vars=2, max_degree=3):
    exponent = st.tuples(*([st.integers(0, max_degree)] * num_vars)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exponent, st.integers(-5, 5), max_size=4).map(
        lambda terms: DensePolynomial(num_vars, terms)
    )


class TestArithmetic:
    def test_product_xy(self):
        assert (X * Y).terms == {(1, 1): 1}

    def test_difference_of_squares(self):
        assert ((X + Y) * (X - Y)).terms == {(2, 0): 1, (0, 2): -1}

    def test_circle_times_x(self):
        product = CIRCLE * X
        assert product.terms == {(3, 0): 1, (1, 2): 1, (1, 0): -1}
        rng = np.random.default_rng(5)
        for _ in range(5):
            p = rng.uniform(-2, 2, size=2)
            assert product(p) == pytest.approx(CIRCLE(p) * p[0], rel=1e-12, abs=1e-12)

    def test_num_vars_mismatch(self):
        with pytest.raises(ValueError):
            X + DensePolynomial.variable(3, 0)

    def test_zero_pruning(self):
        p = X - X
        assert p.is_zero
        assert p.terms == {}

    def test_exact_fractions(self):
        half = DensePolynomial.constant(1, Fraction(1, 2))
        third = DensePolynomial.constant(1, Fraction(1, 3))
        prod = half * third
        assert prod.terms == {(0,): Fraction(1, 6)}

    @settings(max_examples=50, deadline=None)
    @given(small_poly(), small_poly(), st.integers(0, 1))
    def test_product_rule_exact(self, a, b, k):
        left = (a * b).diff(k)
        right = a.diff(k) * b + a * b.diff(k)
        assert left == right

    @settings(max_examples=50, deadline=None)
    @given(small_poly(), small_poly(), st.integers(0, 2**32 - 1))
    def test_evaluation_homomorphism(self, a, b, seed):
        x = np.random.default_rng(seed).uniform(-2, 2, size=2)
        lhs = (a * b)(x)
        rhs = a(x) * b(x)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


# Small integers and dyadic fractions: sums of them are exact, so a
# monomial can cancel to exactly 0 and then reappear.
COEFFICIENT = st.one_of(st.integers(-3, 3), st.integers(-8, 8).map(lambda k: k / 4.0))


def dyadic_poly(num_vars=2, max_degree=2):
    exponent = st.tuples(*([st.integers(0, max_degree)] * num_vars)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exponent, COEFFICIENT, max_size=4).map(
        lambda terms: DensePolynomial(num_vars, terms)
    )


def nested_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


class TestInPlaceArithmetic:
    """The in-place fold and the pair product keep the term order and the
    bits of the copying rules written out above."""

    def test_cancelled_monomial_reappears_at_the_end(self):
        one = DensePolynomial.constant(2, 1)
        pairs = [(X + one + Y, 1.0), (X, 1.0), (Y, -1.0), (Y, 0.5)]
        out = {}
        for p, c in pairs:
            _add_scaled(out, p, c)
        # x keeps its place when it grows; y cancels, then comes back last
        assert out == {(1, 0): 2.0, (0, 0): 1.0, (0, 1): 0.5}
        assert list(out) == [(1, 0), (0, 0), (0, 1)]
        assert bits(out) == bits(copying_fold(pairs))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(dyadic_poly(), COEFFICIENT), max_size=8))
    def test_add_scaled_is_the_copying_fold(self, pairs):
        out = {}
        total = DensePolynomial.zero(2)
        for p, c in pairs:
            _add_scaled(out, p, c)
            total = total + p.scale(c)
        assert bits(out) == bits(copying_fold(pairs))
        assert bits(total.terms) == bits(copying_fold(pairs))

    @settings(max_examples=200, deadline=None)
    @given(dyadic_poly(max_degree=3), dyadic_poly(max_degree=3))
    def test_product_is_the_nested_loop(self, p, q):
        assert bits((p * q).terms) == bits(nested_product(p, q))


class TestDiffEval:
    def test_diff_circle(self):
        assert CIRCLE.diff(0).terms == {(1, 0): 2}

    def test_diff_constant(self):
        assert DensePolynomial.constant(2, 4.0).diff(0).is_zero

    def test_diff_cubic(self):
        cubic = CIRCLE * X
        assert cubic.diff(1).terms == {(1, 1): 2}

    def test_diff_out_of_range(self):
        with pytest.raises(IndexError):
            CIRCLE.diff(2)

    def test_eval_roots(self):
        assert CIRCLE(np.array([1.0, 0.0])) == 0.0
        assert (X * Y)(np.array([0.0, -1.0])) == 0.0
        assert DensePolynomial.zero(2)(np.array([3.0, 7.0])) == 0.0

    def test_batch_evaluate(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        assert np.allclose(CIRCLE.evaluate(pts), [0.0, 0.0, 3.0])


def numpy_scalar_call(p, x):
    """``p(x)`` as one loop over NumPy scalars, a term and a variable at a
    time: the arithmetic the compiled evaluator must reproduce."""
    total = 0.0
    for exps, coeff in p.terms.items():
        term = float(coeff)
        for xk, e in zip(np.asarray(x, dtype=float), exps):
            if e:
                term *= xk**e
        total += term
    return total


EVAL_COEFFICIENT = st.one_of(
    st.integers(-50, 50),
    st.floats(-1e3, 1e3),
    st.fractions(min_value=-50, max_value=50, max_denominator=100),
)


@st.composite
def poly_and_point(draw):
    """A small polynomial with int, float or Fraction coefficients and a
    point; coordinates reach 1e±9, and now and then inf, nan or an
    overflowing power."""
    num_vars = draw(st.integers(1, 3))
    exponent = st.tuples(*([st.integers(0, 5)] * num_vars))
    poly = DensePolynomial(num_vars, draw(st.dictionaries(exponent, EVAL_COEFFICIENT, max_size=6)))
    coordinate = st.one_of(
        st.floats(-1e9, 1e9),
        st.floats(1e-9, 1e-6) | st.floats(-1e-6, -1e-9),
        st.sampled_from([0.0, -0.0, 1e70, -1e70, math.inf, -math.inf, math.nan]),
    )
    return poly, draw(st.lists(coordinate, min_size=num_vars, max_size=num_vars))


def _recorded(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = call()
    return np.float64(value).tobytes(), [str(w.message) for w in caught]


class TestCompiledEvaluation:
    @settings(max_examples=400, deadline=None)
    @given(poly_and_point())
    def test_call_is_the_numpy_scalar_loop_bit_for_bit(self, case):
        p, x = case
        assert _recorded(lambda: p(x)) == _recorded(lambda: numpy_scalar_call(p, x))

    def test_overflowing_power_gives_inf_and_warns_as_numpy(self):
        p = DensePolynomial(2, {(5, 0): 1, (0, 1): 1})
        value, messages = _recorded(lambda: p([1e70, 1.0]))
        assert value == np.float64(np.inf).tobytes()
        assert messages == ["overflow encountered in scalar power"]

    def test_compiled_terms_skip_zero_exponents(self):
        assert _compile((CIRCLE, DensePolynomial.zero(2))) == [
            [(1.0, ((0, 2),)), (1.0, ((1, 2),)), (-1.0, ())], []]
        assert _evaluate(_compile((CIRCLE, X * Y)), [2.0, 3.0]) == [12.0, 6.0]


class TestFiniteDifferences:
    def test_square(self):
        f = lambda v: float(v[0] ** 2)
        grad = finite_diff_gradient(f, np.array([1.0]), h=1e-5)
        assert grad[0] == pytest.approx(2.0, abs=1e-9)

    def test_constant(self):
        grad = finite_diff_gradient(lambda v: 3.0, np.array([0.3, -1.2]))
        assert np.allclose(grad, 0.0)

    def test_cubic(self):
        f = lambda v: float(v[0] ** 3)
        grad = finite_diff_gradient(f, np.array([1.0]), h=1e-4)
        assert grad[0] == pytest.approx(3.0, abs=1e-7)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda v: 0.0, np.zeros(1), h=0.0)


class TestCoefficientVectors:
    def test_zero_polynomial(self):
        vec = coefficient_vector(DensePolynomial.zero(2), 2)
        assert vec.shape == (6,)
        assert np.all(vec == 0)

    def test_univariate_graded(self):
        p = DensePolynomial(1, {(0,): 1, (1,): -1, (3,): 2})
        assert np.allclose(coefficient_vector(p, 3), [1, -1, 0, 2])

    def test_orthogonal_linear_forms(self):
        a = coefficient_vector(X + Y, 1)
        b = coefficient_vector(X - Y, 1)
        assert float(a @ b) == 0.0
        assert coeff_dot(X + Y, X - Y) == 0.0

    def test_degree_overflow(self):
        with pytest.raises(ValueError):
            coefficient_vector(CIRCLE, 1)

    def test_monomial_count(self):
        for n, t in [(1, 3), (2, 4), (4, 3)]:
            assert len(list(graded_monomials(n, t))) == monomial_count(n, t)
            assert monomial_count(n, t) == math.comb(n + t, n)

    def test_coeff_dot_matches_vectors(self):
        p = DensePolynomial(2, {(2, 0): 1.5, (1, 1): -2.0})
        q = DensePolynomial(2, {(1, 1): 3.0, (0, 0): 1.0})
        bound = 2
        vp, vq = coefficient_vector(p, bound), coefficient_vector(q, bound)
        assert coeff_dot(p, q) == pytest.approx(float(vp @ vq))
