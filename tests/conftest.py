import json
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from avibasis import DensePolynomial, FitConfig, NormalizationKind, fit
from avibasis.model_io import _model_text

FOUR_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


@pytest.fixture
def four_points():
    return FOUR_POINTS.copy()


@contextmanager
def time_limit(seconds: int = 20):
    """End the run with SIGALRM's default action if the body takes more than
    ``seconds``: a Python handler could not stop a LAPACK call that never
    returns, as its SVD of a non-finite matrix may not."""
    previous = signal.signal(signal.SIGALRM, signal.SIG_DFL)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


# -- oracles: earlier spellings of the tolerance search's expressions ----------
# Each is the code the search ran before it was rewritten with fewer calls;
# the rewrites must give the same results.


def satisfies_oracle(degrees, target):
    """``analysis._satisfies`` with a per-degree lookup."""
    g_counts = tuple(rec.partition.count("G") for rec in degrees)
    def g_at(degree: int) -> int:
        return g_counts[degree - 1] if degree <= len(g_counts) else 0
    ok = g_at(1) == target.num_linear
    ok = ok and all(g_at(t) == 0 for t in range(2, target.d_min))
    ok = ok and g_at(target.d_min) >= target.num_at_dmin
    return g_counts, ok


def descend_oracle(target, path) -> bool:
    """``analysis._descend`` from the list of every degree's G count."""
    g_counts = [rec.partition.count("G") for rec in path]
    return len(path) < target.d_min and g_counts[0] == target.num_linear and not any(g_counts[1:])


def best_run_oracle(trace):
    """``(found, epsilon, lower, upper)`` of ``epsilon_search``'s result, from
    its trace by the loop that found the first longest satisfying run."""
    best_start, best_len = -1, 0
    run_start = None
    for i, ok in enumerate([point.satisfied for point in trace] + [False]):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = None
    if best_len == 0:
        return False, None, None, None
    lower, upper = trace[best_start].epsilon, trace[best_start + best_len - 1].epsilon
    return True, (lower + upper) / 2.0, lower, upper


def grid_check_oracle(grid):
    """The tolerance grid checks of ``epsilon_search`` through ``np.isfinite``,
    ``np.all``, ``np.any`` and ``np.diff``; raises their ``ValueError``."""
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid > 0)):
        raise ValueError("the tolerance grid must be positive and finite")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("the tolerance grid must be strictly increasing")
