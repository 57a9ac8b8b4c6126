"""Non-finite and extreme input, as a property: float64 arrays that mix
finite values, +-inf, NaN, +-0, subnormals and +-1e308 either give a
result or one one-line ``ValueError``, with no warning, no other exception
and no hang, from the solvers, the fit (each normalization, with and
without preprocessing), the reduction, the tolerance search's grid, the
norm ratio and the custom-points dataset.  ``evaluate`` does not trap: with
numpy's warnings off it returns at any finite points."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avibasis import (
    CustomPoints,
    EpsilonTarget,
    FitConfig,
    NormalizationKind,
    epsilon_search,
    evaluate,
    fit,
    n_ratio,
    reduce_basis,
)
from avibasis.linalg import gen_sym_eig, lstsq
from conftest import FOUR_POINTS, time_limit

SPECIAL = [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]
ELEMENTS = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(SPECIAL))
KINDS = [
    NormalizationKind.identity(),
    NormalizationKind.coefficient(),
    NormalizationKind.gradient(),
    NormalizationKind.subsampled_gradient((0,), (0,)),
]
GRADIENT_KINDS = KINDS[2:]
MODEL = fit(FOUR_POINTS, FitConfig())  # two variables, four G polynomials


def matrices(max_rows=6, min_cols=1, max_cols=3):
    shapes = st.tuples(st.integers(1, max_rows), st.integers(min_cols, max_cols))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=ELEMENTS))


def returns_or_refuses(call, *args, **kwargs):
    """``call(*args, **kwargs)``, or None where it raises one one-line
    ``ValueError``; a warning, another exception or a hang fails the test."""
    with warnings.catch_warnings(), time_limit(20):
        warnings.simplefilter("error")
        try:
            return call(*args, **kwargs)
        except ValueError as exc:
            assert "\n" not in str(exc)
            return None


def symmetric(a):
    """The lower triangle of ``a`` mirrored, with no arithmetic on it."""
    return np.where(np.tri(len(a), dtype=bool), a, a.T)


@settings(max_examples=150, deadline=None)
@given(matrices(max_cols=4))
@example(np.full((4, 1), 1e308))  # a residual past the float range
def test_lstsq(a):
    returns_or_refuses(lstsq, a[:, :-1], a[:, -1])
    returns_or_refuses(lstsq, a[:, :-1], a)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: arrays(np.float64, (2, n, n), elements=ELEMENTS)))
@example(np.array([[[1.0]], [[5e-324]]]))  # whitening by a subnormal overflows
def test_gen_sym_eig(pair):
    a, b = pair
    returns_or_refuses(gen_sym_eig, a, b)
    returns_or_refuses(gen_sym_eig, symmetric(a), symmetric(b))


@pytest.mark.parametrize("preprocess", [False, True], ids=["raw", "center-unit-mean-norm"])
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.variant)
@settings(max_examples=40, deadline=None)
@given(points=matrices())
def test_fit(kind, preprocess, points):
    returns_or_refuses(fit, points, FitConfig(normalization=kind, center=preprocess, unit_mean_norm=preprocess))


@settings(max_examples=100, deadline=None)
@given(matrices(min_cols=2, max_cols=2))
@example(np.array([[1e308, 1e308]]))  # gradients past the float range
def test_reduce_basis_n_ratio_and_custom_points(points):
    returns_or_refuses(reduce_basis, MODEL, points)
    for kind in GRADIENT_KINDS:
        returns_or_refuses(n_ratio, MODEL, kind, points)
    returns_or_refuses(CustomPoints, points)


@settings(max_examples=100, deadline=None)
@given(arrays(np.float64, st.integers(1, 6), elements=ELEMENTS))
def test_epsilon_search_grid(grid):
    target = EpsilonTarget(num_linear=0, d_min=2, num_at_dmin=1)
    returns_or_refuses(epsilon_search, FOUR_POINTS, target, grid=grid)
    returns_or_refuses(epsilon_search, FOUR_POINTS, target, grid=np.unique(np.abs(grid)))


@settings(max_examples=100, deadline=None)
@given(matrices(min_cols=2, max_cols=2))
def test_evaluate_returns_at_finite_points(points):
    with np.errstate(all="ignore"):
        values = returns_or_refuses(evaluate, MODEL, MODEL.handles(), points)
    assert (values is None) == (not np.isfinite(points).all())
