import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avibasis.densepoly
from avibasis.densepoly import (
    DensePolynomial,
    _add_scaled,
    _compile,
    _evaluate,
    _Fold,
    _gram,
    _Monomials,
    _pair_products,
    _Terms,
    coeff_dot,
    finite_diff_gradient,
    monomial_count,
)
from conftest import bits, copying_fold, polynomials

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
        assert p.terms == {}

    def test_scalar_products_go_through_scale(self):
        for product in (lambda: X * 2.0, lambda: 2.0 * X):
            with pytest.raises(TypeError):
                product()
        assert bits(X.scale(2.0).terms) == [((1, 0), "float", "2.0")]

    def test_unhashable(self):
        # the terms dict can change, so a hash could not stay valid
        with pytest.raises(TypeError):
            hash(X)

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
        total = DensePolynomial(2)
        for p, c in pairs:
            _add_scaled(out, p, c)
            total = total + p.scale(c)
        assert bits(out) == bits(copying_fold(pairs))
        assert bits(total.terms) == bits(copying_fold(pairs))

    @settings(max_examples=200, deadline=None)
    @given(dyadic_poly(), dyadic_poly())
    def test_difference_is_the_copying_fold(self, p, q):
        # the fold adds q times -1, which is -q exactly
        assert bits((p - q).terms) == bits(copying_fold([(p, 1), (q, -1)]))

    @settings(max_examples=200, deadline=None)
    @given(dyadic_poly(max_degree=3), dyadic_poly(max_degree=3))
    def test_product_is_the_nested_loop(self, p, q):
        assert bits((p * q).terms) == bits(nested_product(p, q))


# Quarter-integer floats: folds of them cancel exactly, as above.
WEIGHT = st.integers(-8, 8).map(lambda k: k / 4.0)
# Floats whose sums round, so the order of a sum shows in its bits.
ROUNDING = st.floats(-4.0, 4.0, allow_nan=False).filter(lambda c: c != 0.0)


@st.composite
def fold_case(draw, max_combinations=5):
    """A batch of polynomials (int or quarter-integer coefficients, a zero
    polynomial possible) and a weight matrix of 0 to ``max_combinations``
    rows, zero weights included."""
    polys = draw(st.lists(dyadic_poly(max_degree=3), min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(WEIGHT, min_size=len(polys), max_size=len(polys)),
                         max_size=max_combinations))
    return polys, rows


def float_poly(num_vars=2, max_degree=2, coefficient=WEIGHT):
    exponent = st.tuples(*([st.integers(0, max_degree)] * num_vars)).filter(
        lambda e: sum(e) <= max_degree
    )
    return st.dictionaries(exponent, coefficient, max_size=5).map(
        lambda terms: DensePolynomial(num_vars, terms)
    )


@st.composite
def equal_length_polys(draw):
    """Polynomials that share one monomial set, each in its own term order,
    with coefficients whose sums round: ``coeff_dot``'s tie rule decides
    which term order a pair is summed in."""
    exps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         min_size=2, max_size=6, unique=True))
    polys = []
    for _ in range(draw(st.integers(2, 4))):
        order = draw(st.permutations(exps))
        coeffs = draw(st.lists(ROUNDING, min_size=len(exps), max_size=len(exps)))
        polys.append(DensePolynomial(2, dict(zip(order, coeffs))))
    return polys


def folded(polys, rows, num_vars=2):
    terms = _Fold(_Terms.of(_Monomials(), polys))(rows)
    assert np.all(terms.coef != 0)  # cancelled monomials leave the arrays too
    return polynomials(terms, num_vars)


class TestTermArrays:
    """The symbolic kernel's batched fold, pair products and Gram keep the
    bits and the term order of the dict rules they replace: the copying
    fold, ``__mul__`` and ``coeff_dot``."""

    def test_fold_keeps_the_term_order_of_a_reinserted_monomial(self):
        one = DensePolynomial.constant(2, 1)
        polys = [X + one + Y, X, Y, Y]
        (got,) = folded(polys, [[1.0, 1.0, -1.0, 0.5]])
        assert list(got.terms) == [(1, 0), (0, 0), (0, 1)]
        assert bits(got.terms) == bits(copying_fold(zip(polys, [1.0, 1.0, -1.0, 0.5])))

    @settings(max_examples=300, deadline=None)
    @given(fold_case())
    def test_fold_is_the_copying_fold(self, case):
        polys, rows = case
        got = folded(polys, rows)
        assert len(got) == len(rows)
        for poly, row in zip(got, rows):
            assert bits(poly.terms) == bits(copying_fold([(p, c) for p, c in zip(polys, row) if c != 0.0]))

    def test_a_zero_weight_on_an_inf_coefficient_forms_no_nan(self):
        polys = [DensePolynomial(2, {(1, 0): math.inf, (0, 1): 1.0}), DensePolynomial(2, {(1, 0): 2.0})]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0 * inf would warn "invalid value"
            (got,) = folded(polys, [[0.0, 1.0]])
        assert bits(got.terms) == bits(copying_fold([(polys[1], 1.0)]))

    @settings(max_examples=100, deadline=None)
    @given(fold_case(max_combinations=12))
    def test_a_fold_split_at_the_byte_budget_is_unchanged(self, case):
        polys, rows = case
        whole = folded(polys, rows)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(avibasis.densepoly, "_CHUNK_BYTES", 8)  # one combination per chunk
            split = folded(polys, rows)
        assert [bits(p.terms) for p in split] == [bits(p.terms) for p in whole]

    def test_degree_one_variables_keep_int_coefficients_exact(self):
        variables = [DensePolynomial.variable(3, k) for k in range(3)]
        polys = [DensePolynomial.constant(3, 1.0)] + variables
        rows = [[0.5, 1.0, -0.25, 0.0], [0.0, 0.0, 3.0, 1e-300]]
        for poly, row in zip(folded(polys, rows, num_vars=3), rows):
            assert bits(poly.terms) == bits(copying_fold([(p, c) for p, c in zip(polys, row) if c != 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(float_poly(max_degree=3, coefficient=st.one_of(WEIGHT, ROUNDING)), max_size=4),
           st.lists(float_poly(max_degree=3, coefficient=st.one_of(WEIGHT, ROUNDING)), max_size=4))
    def test_pair_products_are_mul(self, left, right):
        table = _Monomials()
        terms = _Terms.of(table, left), _Terms.of(table, right)
        want = [bits((p * q).terms) for p in left for q in right]
        products = _pair_products(*terms)
        assert [bits(p.terms) for p in polynomials(products, 2)] == want
        assert np.all(products.coef != 0)  # zero sums dropped from the arrays too
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(avibasis.densepoly, "_CHUNK_BYTES", 8)  # one product per chunk
            assert [bits(p.terms) for p in polynomials(_pair_products(*terms), 2)] == want

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.lists(float_poly(coefficient=ROUNDING), max_size=6), equal_length_polys()))
    def test_gram_is_coeff_dot(self, polys):
        gram = _gram(_Terms.of(_Monomials(), polys))
        assert gram.shape == (len(polys), len(polys))
        for i in range(len(polys)):
            for j in range(i, len(polys)):
                want = coeff_dot(polys[i], polys[j]).hex()
                assert gram[i, j].hex() == want and gram[j, i].hex() == want

    @settings(max_examples=50, deadline=None)
    @given(st.lists(float_poly(coefficient=ROUNDING), min_size=1, max_size=8))
    def test_a_gram_split_at_the_byte_budget_is_unchanged(self, polys):
        terms = _Terms.of(_Monomials(), polys)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(avibasis.densepoly, "_CHUNK_BYTES", 8)  # one pair per chunk
            split = _gram(terms)
        assert split.tobytes() == _gram(terms).tobytes()


class TestDiffEval:
    def test_diff_circle(self):
        assert CIRCLE.diff(0).terms == {(1, 0): 2}

    def test_diff_constant(self):
        assert not DensePolynomial.constant(2, 4.0).diff(0).terms

    def test_diff_cubic(self):
        cubic = CIRCLE * X
        assert cubic.diff(1).terms == {(1, 1): 2}

    def test_diff_out_of_range(self):
        with pytest.raises(IndexError):
            CIRCLE.diff(2)

    def test_eval_roots(self):
        assert CIRCLE(np.array([1.0, 0.0])) == 0.0
        assert (X * Y)(np.array([0.0, -1.0])) == 0.0
        assert DensePolynomial(2)(np.array([3.0, 7.0])) == 0.0

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


def evaluate_loop(p, points):
    """``p.evaluate(points)`` as one loop over the terms, each a vector over
    the points multiplied in variable order and added into zeros in term
    order: the arithmetic the compiled evaluator must reproduce on columns."""
    points = np.asarray(points, dtype=float)
    values = np.zeros(points.shape[0])
    for exps, coeff in p.terms.items():
        term = np.full(points.shape[0], float(coeff))
        for k, e in enumerate(exps):
            if e:
                term *= points[:, k] ** e
        values += term
    return values


@st.composite
def poly_and_points(draw):
    """A polynomial of 1-4 variables, exponents 0-5 and up to 12 terms with
    int, float or Fraction coefficients, and up to 6 points whose
    coordinates are scaled by 10^k, k from -5 to 5."""
    num_vars = draw(st.integers(1, 4))
    exponent = st.tuples(*([st.integers(0, 5)] * num_vars))
    poly = DensePolynomial(num_vars, draw(st.dictionaries(exponent, EVAL_COEFFICIENT, max_size=12)))
    size = draw(st.integers(0, 6)) * num_vars
    coordinates = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
    return poly, np.reshape(coordinates, (-1, num_vars)) * 10.0 ** draw(st.integers(-5, 5))


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

    @settings(max_examples=400, deadline=None)
    @given(poly_and_points())
    @example((DensePolynomial(3), np.ones((4, 3))))  # zero
    @example((DensePolynomial.constant(2, Fraction(1, 3)), np.full((3, 2), 1e5)))
    @example((DensePolynomial(1, {(0,): 7, (2,): -1.5}), np.array([[1e-5], [2.5]])))
    def test_evaluate_is_the_term_loop_bit_for_bit(self, case):
        p, points = case
        values, want = p.evaluate(points), evaluate_loop(p, points)
        assert (values.dtype, values.shape, values.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_compiled_terms_skip_zero_exponents(self):
        assert _compile((CIRCLE, DensePolynomial(2))) == [
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

    def test_rejects_nan_step(self):
        with pytest.raises(ValueError, match="step must be positive"):
            finite_diff_gradient(lambda v: 0.0, np.zeros(1), h=math.nan)


def dense_vectors(*polys):
    """Coefficient vectors of ``polys`` over the union of their monomials."""
    index = {e: i for i, e in enumerate(sorted({e for p in polys for e in p.terms}))}
    vecs = np.zeros((len(polys), len(index)))
    for row, p in zip(vecs, polys):
        for e, c in p.terms.items():
            row[index[e]] = float(c)
    return vecs


class TestCoefficientVectors:
    def test_orthogonal_linear_forms(self):
        a, b = dense_vectors(X + Y, X - Y)
        assert float(a @ b) == 0.0
        assert coeff_dot(X + Y, X - Y) == 0.0

    def test_monomial_count(self):
        for n, t in [(1, 3), (2, 4), (4, 3)]:
            exponents = [e for e in itertools.product(range(t + 1), repeat=n) if sum(e) <= t]
            assert len(exponents) == monomial_count(n, t)
            assert monomial_count(n, t) == math.comb(n + t, n)

    def test_coeff_dot_matches_vectors(self):
        p = DensePolynomial(2, {(2, 0): 1.5, (1, 1): -2.0})
        q = DensePolynomial(2, {(1, 1): 3.0, (0, 0): 1.0})
        vp, vq = dense_vectors(p, q)
        assert coeff_dot(p, q) == pytest.approx(float(vp @ vq))

    def test_coefficient_norm_sums_left_to_right(self):
        # a compensated sum (the builtin sum of floats from Python 3.12 on)
        # gives 100000000.00000001; n_ratio and the replay goldens read these bits
        p = DensePolynomial(2, {(2, 0): 1e8, (1, 1): 1.0, (0, 0): 1.0})
        assert p.coefficient_norm() == 1e8
