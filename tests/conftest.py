import json

import numpy as np
import pytest

from avibasis import DensePolynomial, FitConfig, NormalizationKind, fit
from avibasis.model_io import _model_text

FOUR_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@pytest.fixture
def four_points():
    return FOUR_POINTS.copy()


def random_cloud(rng, num_points, num_vars, scale=1.5):
    return rng.uniform(-scale, scale, size=(num_points, num_vars))


def random_model(rng, num_points=None, num_vars=None, epsilon=0.0,
                 normalization=None, max_degree=None):
    """Fit a model on a random cloud; sizes default to small desk scale."""
    num_points = num_points or int(rng.integers(4, 10))
    num_vars = num_vars or int(rng.integers(2, 4))
    pts = random_cloud(rng, num_points, num_vars)
    cfg = FitConfig(
        epsilon=epsilon,
        normalization=normalization or NormalizationKind.gradient(),
        max_degree=max_degree,
    )
    return fit(pts, cfg), pts


def random_polynomial(rng, num_vars, max_degree, max_terms=5, coeff_range=4):
    """Random small-integer-coefficient polynomial (never the zero poly)."""
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=num_vars))
        while sum(exps) > max_degree:
            exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, size=num_vars))
        coeff = int(rng.integers(-coeff_range, coeff_range + 1))
        if coeff:
            terms[exps] = terms.get(exps, 0) + coeff
    if not terms:
        terms = {(0,) * num_vars: 1}
    return DensePolynomial(num_vars, terms)


def model_dict(model, report=None):
    """The JSON object ``save_model`` writes, floats as 17-digit strings."""
    return json.loads(_model_text(model, report))


def raw_points(point_set):
    """A generated dataset's points with its recorded centering undone."""
    return point_set.points + point_set.preprocessing.center


def polynomials(terms, num_vars):
    """Every polynomial of a term-array batch (``densepoly._Terms``), in order."""
    return [terms.polynomial(k, num_vars) for k in range(len(terms))]


def bits(terms):
    """Term order, exponents, and each coefficient's type and exact value."""
    return [(e, type(c).__name__, repr(c)) for e, c in terms.items()]


def copying_fold(pairs):
    """``out = out + p.scale(c)`` over ``pairs`` with a fresh dict per
    step: the scaled copy drops zero products, the sum keeps every key in
    place and the zero sums are dropped at the end of the step."""
    terms = {}
    for p, c in pairs:
        scaled = {e: c * a for e, a in p.terms.items() if c * a != 0}
        merged = dict(terms)
        for e, v in scaled.items():
            merged[e] = merged.get(e, 0) + v
        terms = {e: v for e, v in merged.items() if v != 0}
    return terms


def circle_and_hyperbola_targets(num_vars=2):
    """The two generators of the four-point variety: x^2 + y^2 - 1 and xy."""
    circle = DensePolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    cross = DensePolynomial(2, {(1, 1): 1.0})
    return circle, cross


def match_scalar_multiple(poly, target, tol=1e-8):
    """True when ``poly`` equals ``c * target`` for some nonzero c."""
    norm_p = poly.coefficient_norm()
    norm_t = target.coefficient_norm()
    if norm_p == 0 or norm_t == 0:
        return False
    best = None
    for sign in (1.0, -1.0):
        scaled = target.scale(sign * norm_p / norm_t)
        diff = poly - scaled
        err = max((abs(c) for c in diff.terms.values()), default=0.0)
        if best is None or err < best:
            best = err
    return best <= tol
