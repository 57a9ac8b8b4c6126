import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avibasis
from avibasis import (
    BasisModel,
    DensePolynomial,
    EpsilonTarget,
    FitConfig,
    NormalizationKind,
    epsilon_search,
    evaluate,
    expand,
    fit,
    gradient,
    lstsq,
)
from avibasis.analysis import _descend, _satisfies, default_epsilon_grid
from avibasis.densepoly import _Monomials, _Terms
from avibasis.fit import (
    _classify_all,
    _fit_path,
    _prepare,
    classify,
    normalization_matrix,
    orthogonalize,
)
from avibasis.model import DegreeRecord
from conftest import (best_run_oracle, descend_oracle, grid_check_oracle, random_cloud, random_polynomial,
                      satisfies_oracle)


def _path_models(points, config, epsilons, descend=None):
    """``_fit_path``'s groups as ``(i, model)`` pairs, one per tolerance,
    each model built from its group's records as ``fit`` builds its one."""
    prep, pts, m = _prepare(points, config)
    for indices, degrees, truncated in _fit_path(pts, m, config, epsilons, descend):
        for i in indices:
            yield i, BasisModel(num_vars=pts.shape[1], constant_value=m, degrees=degrees,
                                epsilon=epsilons[i], normalization=config.normalization,
                                preprocessing=prep, truncated=truncated)


def _classify_all_oracle(eigvals, epsilons):
    """The classification rule written out once per tolerance: the same
    checks, square roots and floor, and each tolerance's partition built
    on its own from its cut."""
    ev = np.asarray(eigvals, dtype=float)
    if ev.size == 0:
        return [()] * len(epsilons)
    scale = max(1.0, float(np.abs(ev).max()))
    if np.any(np.diff(ev) > 1e-9 * scale):
        raise ValueError("eigenvalues must be sorted in descending order")
    if float(ev.min()) < -1e-10 * scale:
        raise ValueError("eigenvalue is negative beyond roundoff")
    roots = np.sqrt(np.clip(ev, 0.0, None))
    floor = 1e-10 * max(float(roots.max()), 1.0)
    values = roots.tolist()
    return [tuple("G" if r <= cut else "F" for r in values)
            for cut in (max(float(eps), floor) for eps in epsilons)]


@st.composite
def _eigval_arrays(draw):
    """Descending eigenvalues with ties, signed zeros and roundoff
    negatives, out of order by up to about the sort check's tolerance,
    with NaN entries, or empty."""
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e-22, 1e-12, 0.01, 0.25, 1.0, 4.0, 1e3, -1e-11, -1e-10]),
                      st.floats(-2e-10, 1e3, allow_nan=False))
    values = sorted(draw(st.lists(value, max_size=12)), reverse=True)
    ties = draw(st.lists(st.integers(0, max(len(values) - 1, 0)), max_size=3)) if values else []
    for i in ties:  # repeat an entry next to itself
        values.insert(i, values[i])
    jitter = draw(st.sampled_from([0.0, 1e-12, -1e-12, 5e-10, -5e-10, 2e-9]))
    values = [v + jitter * i for i, v in enumerate(values)]
    for i in draw(st.lists(st.integers(0, len(values)), max_size=2)):
        values.insert(i, float("nan"))
    return np.array(values, dtype=float)


# cuts at, between and around the roots above, and the non-finite ones
_tolerances = st.one_of(st.sampled_from([0.0, -0.0, 1e-11, 1e-6, 0.1, 0.5, 1.0, 2.0, 31.6227766016838,
                                         float("inf"), float("nan")]),
                        st.floats(0.0, 40.0))


class TestClassify:
    def test_clear_split(self):
        assert classify(np.array([9.0, 0.0]), 0.1) == ("F", "G")

    def test_boundary_goes_to_g(self):
        assert classify(np.array([0.01]), 0.1) == ("G",)

    def test_numerical_zero_policy(self):
        assert classify(np.array([1e-20]), 0.0) == ("G",)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            classify(np.array([1.0, 2.0]), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1e-22, 1e-12, 0.01, 0.25, 1.0, 4.0, 1e3]), max_size=8),
           st.lists(st.sampled_from([0.0, 1e-11, 0.05, 0.1, 0.5, 1.0, 2.0, 40.0]), min_size=1, max_size=10),
           st.floats(-1e-12, 1e-12))
    def test_one_pass_gives_each_tolerances_partition(self, values, epsilons, jitter):
        def reference(eigvals, eps):  # the per-tolerance rule, numpy scalars throughout
            if eigvals.size == 0:
                return ()
            roots = np.sqrt(np.clip(eigvals, 0.0, None))
            cut = max(float(eps), 1e-10 * max(float(roots.max()), 1.0))
            return tuple("G" if r <= cut else "F" for r in roots)

        # descending up to roundoff: ties broken by a jitter classify tolerates
        eigvals = np.array(sorted(values, reverse=True)) + jitter * np.arange(len(values))
        eigvals = np.clip(eigvals, -1e-11, None)
        want = [reference(eigvals, eps) for eps in epsilons]
        assert _classify_all(eigvals, epsilons) == want
        assert [classify(eigvals, eps) for eps in epsilons] == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e-12, 1e3), max_size=8).map(lambda v: np.array(sorted(v, reverse=True))),
           st.lists(st.floats(0.0, 40.0), min_size=1, max_size=10), st.floats(-1e-12, 1e-12))
    def test_partitions_are_nested_with_distinct_g_counts(self, eigvals, epsilons, jitter):
        # out of order by up to the roundoff the sort check allows
        eigvals = eigvals + jitter * np.arange(eigvals.size)
        try:
            partitions = _classify_all(eigvals, epsilons)
        except ValueError:
            return  # not accepted by classify
        g_sets = {eps: {c for c, tag in enumerate(p) if tag == "G"} for eps, p in zip(epsilons, partitions)}
        for small in epsilons:
            for large in epsilons:
                if small <= large:
                    assert g_sets[small] <= g_sets[large]
        distinct = set(partitions)
        assert len({p.count("G") for p in distinct}) == len(distinct)

    @settings(max_examples=300, deadline=None)
    @given(_eigval_arrays(), st.lists(_tolerances, min_size=1, max_size=80))
    def test_matches_the_per_tolerance_oracle(self, eigvals, epsilons):
        def outcome(classify_all):
            try:
                return classify_all(eigvals, epsilons)
            except Exception as exc:  # the same error, type and message
                return type(exc), str(exc)

        assert outcome(_classify_all) == outcome(_classify_all_oracle)

    def test_rejects_very_negative(self):
        with pytest.raises(ValueError):
            classify(np.array([1.0, -0.5]), 0.0)

    def test_clamps_roundoff_negative(self):
        assert classify(np.array([1.0, -1e-13]), 0.5) == ("F", "G")


class TestOrthogonalize:
    def test_already_orthogonal(self):
        f = np.array([[1.0], [1.0], [1.0], [1.0]])
        c = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        c_out, w = orthogonalize(c, f)
        assert np.abs(w).max() <= 1e-12
        assert np.allclose(c_out, c)

    def test_self_subtraction(self):
        f = np.random.default_rng(0).normal(size=(6, 2))
        c_out, _ = orthogonalize(f.copy(), f)
        assert np.abs(c_out).max() <= 1e-12

    def test_constant_block_centers(self):
        pts = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 9.0]])
        f = np.full((3, 1), 0.5)
        c_out, _ = orthogonalize(pts, f)
        assert np.allclose(c_out, pts - pts.mean(axis=0), atol=1e-12)

    def test_result_orthogonal_to_span(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(10, 3))
        c_pre = rng.normal(size=(10, 4))
        c_out, _ = orthogonalize(c_pre, f)
        assert np.abs(f.T @ c_out).max() <= 1e-9

    @pytest.mark.parametrize("c_pre, f", [(np.arange(5.0), np.ones((5, 2))),
                                          (np.ones((5, 1)), np.arange(5.0))])
    def test_rejects_one_dimensional_blocks(self, c_pre, f):
        with pytest.raises(ValueError, match="must be 2-D"):
            orthogonalize(c_pre, f)

    def test_rejects_mismatched_row_counts(self):
        with pytest.raises(ValueError, match="row counts differ"):
            orthogonalize(np.ones((5, 2)), np.ones((4, 1)))


class TestNormalizationMatrix:
    def test_identity(self):
        assert np.array_equal(
            normalization_matrix(NormalizationKind.identity(), np.zeros((4, 3))), np.eye(3)
        )

    def test_gradient_of_raw_variables(self):
        # candidates = coordinates orthogonalized against the constant:
        # gradients are standard basis vectors at every point
        num_points, n = 5, 3
        grads = np.zeros((num_points, n, n))
        for j in range(n):
            grads[:, j, j] = 1.0
        gram = normalization_matrix(NormalizationKind.gradient(), np.zeros((num_points, n)), grads)
        assert np.allclose(gram, num_points * np.eye(n))

    def test_coefficient_singleton(self):
        p = DensePolynomial(1, {(0,): 1.0, (1,): -1.0, (3,): 2.0})
        gram = normalization_matrix(NormalizationKind.coefficient(), np.zeros((4, 1)),
                                    expansions=_Terms.of(_Monomials(), (p,)))
        assert np.allclose(gram, [[6.0]])

    def test_subsampled_restriction(self):
        rng = np.random.default_rng(3)
        grads = rng.normal(size=(6, 3, 4))
        kind = NormalizationKind.subsampled_gradient((0, 2), (1, 4, 5))
        gram = normalization_matrix(kind, np.zeros((6, 4)), grads)
        sub = grads[np.ix_((1, 4, 5), (0, 2))].reshape(-1, 4)
        assert np.allclose(gram, sub.T @ sub)

    def test_missing_caches(self):
        evals = np.zeros((4, 2))
        with pytest.raises(ValueError):
            normalization_matrix(NormalizationKind.gradient(), evals)
        with pytest.raises(ValueError):
            normalization_matrix(NormalizationKind.coefficient(), evals)


class TestNormalizationKind:
    def test_subsampled_requires_subsets(self):
        with pytest.raises(ValueError):
            NormalizationKind("subsampled_gradient")
        with pytest.raises(ValueError):
            NormalizationKind("gradient", var_subset=(0,))
        with pytest.raises(ValueError):
            NormalizationKind("bogus")


class TestFitSmallCases:
    def test_two_points_on_a_line(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        model = fit(pts, FitConfig(epsilon=0.0))
        f_eval = evaluate(model, model.f_handles(), pts)
        assert len(model.f_handles()) == 2
        assert np.linalg.matrix_rank(f_eval, tol=1e-10) == 2

    def test_four_point_counts(self, four_points=None):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        grad_model = fit(pts, FitConfig(epsilon=0.0, normalization=NormalizationKind.gradient()))
        vca_model = fit(pts, FitConfig(epsilon=0.0, normalization=NormalizationKind.identity()))
        assert len(grad_model.g_handles()) == 4
        assert len(vca_model.g_handles()) == 5

    def test_single_point(self):
        pts = np.array([[2.0, -1.0, 0.5]])
        model = fit(pts, FitConfig(epsilon=0.0))
        assert len(model.f_handles()) == 1  # just the constant
        g = model.g_handles()
        assert len(g) == 3
        assert all(h.degree == 1 for h in g)
        assert model.max_degree <= 2
        assert not model.truncated
        values = evaluate(model, g, pts)
        assert np.abs(values).max() <= 1e-12

    def test_duplicate_points_kept(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        model = fit(pts, FitConfig(epsilon=0.0))
        f_eval = evaluate(model, model.f_handles(), pts)
        assert np.linalg.matrix_rank(f_eval, tol=1e-8) == 2  # two distinct points

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), FitConfig())

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(epsilon=-0.1)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            FitConfig(epsilon=float("nan"))
        with pytest.raises(ValueError, match="epsilon"):
            list(_path_models(np.eye(3), FitConfig(), [0.1, float("nan")]))

    @pytest.mark.parametrize("rank_tol", [0.0, -1e-12, float("nan")])
    def test_bad_rank_tol_rejected(self, rank_tol):
        # the rank cut is linalg.RANK_TOL; no config sets it
        with pytest.raises(TypeError, match="rank_tol"):
            FitConfig(rank_tol=rank_tol)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            fit(np.array([1.0, 2.0, 3.0]), FitConfig())

    def test_subsample_out_of_range(self):
        pts = np.eye(3)
        cfg = FitConfig(normalization=NormalizationKind.subsampled_gradient((5,), (0,)))
        with pytest.raises(ValueError):
            fit(pts, cfg)

    def test_truncation_flag(self):
        rng = np.random.default_rng(0)
        pts = random_cloud(rng, 12, 2)
        model = fit(pts, FitConfig(epsilon=0.0, max_degree=1))
        assert model.truncated

    def test_coefficient_expansion_guard_raises(self, monkeypatch):
        from avibasis import ExpansionLimitError

        monkeypatch.setattr("avibasis.model.EXPANSION_TERM_CAP", 4)
        rng = np.random.default_rng(1)
        pts = random_cloud(rng, 8, 2)
        cfg = FitConfig(normalization=NormalizationKind.coefficient())
        with pytest.raises(ExpansionLimitError):
            fit(pts, cfg)

    def test_constant_values_per_normalization(self):
        pts = np.array([[1.0, -3.0], [2.0, 0.0]])
        ident = fit(pts, FitConfig(normalization=NormalizationKind.identity()))
        assert ident.constant_value == pytest.approx(1.0 / np.sqrt(2.0))
        coef = fit(pts, FitConfig(normalization=NormalizationKind.coefficient()))
        assert coef.constant_value == 1.0
        grad = fit(pts, FitConfig(normalization=NormalizationKind.gradient()))
        assert grad.constant_value == pytest.approx(6.0 / 4.0)

    def test_preprocessing_recorded_and_consistent(self):
        rng = np.random.default_rng(8)
        pts = random_cloud(rng, 6, 2) + np.array([10.0, -5.0])
        model = fit(pts, FitConfig(epsilon=0.0, center=True, unit_mean_norm=True))
        assert model.preprocessing.center is not None
        assert model.preprocessing.scale is not None
        values = evaluate(model, model.g_handles(), pts)
        assert np.abs(values).max() <= 1e-8


class TestMeanNormOverTheFloatRange:
    """The mean point norm, which ``unit_mean_norm`` divides by and the
    default tolerance grid scales with, follows the points from 1e-300 to
    1e300 instead of overflowing or underflowing in its squares."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-300, 300), st.integers(3, 15), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example(160, 12, 3, 5)
    @example(-200, 12, 3, 5)
    @example(math.log10(5e307), 12, 3, 5)  # the centering mean's sum overflowed
    def test_counts_and_grid_follow_the_scale(self, k, num_points, num_vars, seed):
        pts = np.random.default_rng(seed).standard_normal((num_points, num_vars))
        alpha = 10.0**k
        config = FitConfig(center=True, unit_mean_norm=True)
        assert fit(alpha * pts, config).degree_counts() == fit(pts, config).degree_counts()
        # alpha * pts rounds each coordinate once, which moves a row norm by
        # at most a few ulps
        grid = default_epsilon_grid(pts)
        np.testing.assert_allclose(default_epsilon_grid(alpha * pts) / alpha, grid, rtol=1e-14, atol=0)
        # a power of two scales exactly, and so does the grid
        two = 2.0 ** round(3 * k)
        assert default_epsilon_grid(two * pts).tobytes() == (two * grid).tobytes()

    @pytest.mark.parametrize("pts", [
        np.array([[-1.7e308, 0.0], [1.7e308, 1.0], [1.7e308, 2.0]]),
        np.random.default_rng(5).standard_normal((12, 3)) * 1e308,  # largest coordinate 1.73e308
    ], ids=["three rows", "cloud"])
    def test_centred_overflow_is_one_value_error(self, pts):
        """Centred differences past the largest double are refused before
        anything divides by them, and without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^centred coordinates overflow"):
                fit(pts, FitConfig(center=True, unit_mean_norm=True))


class TestFitInvariants:
    def test_unit_gradient_norms(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            pts = random_cloud(rng, int(rng.integers(4, 12)), int(rng.integers(2, 4)))
            model = fit(pts, FitConfig(epsilon=0.0))
            handles = [h for h in model.handles() if h.degree >= 1]
            for h, g in zip(handles, gradient(model, handles, pts)):
                assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-6)

    def test_unit_coefficient_norms(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            pts = random_cloud(rng, int(rng.integers(4, 9)), 2)
            model = fit(pts, FitConfig(epsilon=0.0, normalization=NormalizationKind.coefficient()))
            for h in model.handles():
                if h.degree == 0:
                    continue
                assert expand(model, h).coefficient_norm() == pytest.approx(1.0, abs=1e-6)

    def test_extent_of_vanishing(self):
        rng = np.random.default_rng(44)
        pts = random_cloud(rng, 8, 3)
        model = fit(pts, FitConfig(epsilon=0.0))
        handles = [h for h in model.handles() if h.degree >= 1]
        values = evaluate(model, handles, pts)
        for col, h in enumerate(handles):
            lam = model.record(h.degree).eigvals[h.column]
            assert np.linalg.norm(values[:, col]) == pytest.approx(
                np.sqrt(max(lam, 0.0)), abs=1e-8
            )

    def test_cross_degree_orthogonality(self):
        rng = np.random.default_rng(45)
        pts = random_cloud(rng, 9, 3)
        model = fit(pts, FitConfig(epsilon=0.0))
        f_eval = evaluate(model, model.f_handles(), pts)
        gram = f_eval.T @ f_eval
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8

    def test_epsilon_zero_completeness(self):
        rng = np.random.default_rng(46)
        for _ in range(4):
            num_points = int(rng.integers(4, 13))
            num_vars = int(rng.integers(2, 4))
            pts = random_cloud(rng, num_points, num_vars)
            model = fit(pts, FitConfig(epsilon=0.0))
            f_eval = evaluate(model, model.f_handles(), pts)
            assert np.linalg.matrix_rank(f_eval, tol=1e-8) == num_points
            g_handles = model.g_handles()
            if g_handles:
                g_eval = evaluate(model, g_handles, pts)
                assert np.abs(g_eval).max() <= 1e-8
                # absorption: products of vanishing polynomials with
                # coordinates still vanish on the points
                for k in range(num_vars):
                    assert np.abs(g_eval * pts[:, [k]]).max() <= 1e-8

    def test_degreewise_span_of_random_polynomials(self):
        rng = np.random.default_rng(47)
        pts = random_cloud(rng, 7, 2)
        model = fit(pts, FitConfig(epsilon=0.0))
        for t in range(1, model.max_degree + 1):
            handles = [h for h in model.f_handles() if h.degree <= t]
            f_eval = evaluate(model, handles, pts)
            for _ in range(3):
                poly = random_polynomial(rng, 2, t)
                _, residual = lstsq(f_eval, poly.evaluate(pts))
                assert residual <= 1e-8 * max(1.0, np.linalg.norm(poly.evaluate(pts)))

    def test_determinism(self):
        rng = np.random.default_rng(48)
        pts = random_cloud(rng, 8, 2)
        m1 = fit(pts, FitConfig(epsilon=0.0))
        m2 = fit(pts, FitConfig(epsilon=0.0))
        for r1, r2 in zip(m1.degrees, m2.degrees):
            assert np.array_equal(r1.eigvecs, r2.eigvecs)
            assert np.array_equal(r1.eigvals, r2.eigvals)

    def test_subsampled_gradient_unit_norm_on_subset(self):
        rng = np.random.default_rng(49)
        pts = random_cloud(rng, 8, 3)
        kind = NormalizationKind.subsampled_gradient((0, 1), (0, 2, 4))
        model = fit(pts, FitConfig(epsilon=0.0, normalization=kind))
        handles = [h for h in model.handles() if h.degree >= 1]
        for h, g in zip(handles, gradient(model, handles, pts)):
            restricted = g[np.ix_((0, 2, 4), (0, 1))]
            assert np.linalg.norm(restricted) == pytest.approx(1.0, abs=1e-6)


@st.composite
def _path_case(draw):
    """A cloud, a fit configuration, and an increasing tolerance grid that
    holds some stored sqrt(eigenvalues) exactly (``classify`` cuts with <=)."""
    num_points, num_vars = draw(st.integers(3, 15)), draw(st.integers(1, 4))
    pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.5, 1.5, size=(num_points, num_vars))
    kind = draw(st.sampled_from([
        NormalizationKind.identity(),
        NormalizationKind.coefficient(),
        NormalizationKind.gradient(),
        NormalizationKind.subsampled_gradient(
            draw(st.lists(st.integers(0, num_vars - 1), min_size=1, max_size=num_vars, unique=True)),
            draw(st.lists(st.integers(0, num_points - 1), min_size=1, max_size=num_points, unique=True)),
        ),
    ]))
    if kind.variant == "coefficient":  # symbolic expansions grow fast with the degree
        max_degree = draw(st.integers(1, 4))
    else:
        max_degree = draw(st.one_of(st.none(), st.integers(1, 6)))
    config = FitConfig(normalization=kind, max_degree=max_degree)
    probe = fit(pts, replace(config, epsilon=draw(st.sampled_from([0.0, 0.05, 0.3]))))
    roots = sorted({float(r) for rec in probe.degrees
                    for r in np.sqrt(np.clip(rec.eigvals, 0.0, None)) if r > 0.0})
    stored = draw(st.lists(st.sampled_from(roots), max_size=4)) if roots else []
    spread = draw(st.lists(st.floats(-4.0, 0.5).map(lambda e: 10.0**e), min_size=1, max_size=12))
    return pts, config, sorted(set(stored + spread))


_targets = st.builds(EpsilonTarget, num_linear=st.integers(0, 3), d_min=st.integers(2, 3),
                     num_at_dmin=st.integers(0, 2))


class TestFitPath:
    """The chain of fits gives, at every tolerance, a prefix of the lone fit."""

    @settings(max_examples=80, deadline=None)
    @given(_path_case(), _targets)
    def test_every_model_is_the_lone_fit_bit_for_bit(self, case, target):
        pts, config, grid = case
        pairs = list(_path_models(pts, config, grid, lambda path: _descend(target, path)))
        assert sorted(i for i, _ in pairs) == list(range(len(grid)))
        for i, got in pairs:
            eps = grid[i]
            want = fit(pts, replace(config, epsilon=eps))
            assert got.epsilon == want.epsilon == eps
            # a prefix the search stops below is truncated, as is a capped fit
            assert 1 <= len(got.degrees) <= len(want.degrees)
            assert got.truncated == (len(got.degrees) < len(want.degrees) or want.truncated)
            assert got.constant_value == want.constant_value
            for t, (g, w) in enumerate(zip(got.degrees, want.degrees), start=1):
                assert got.parents(t) == want.parents(t)
                assert g.partition == w.partition
                assert np.array_equal(g.eigvals, w.eigvals)
                assert np.array_equal(g.eigvecs, w.eigvecs)
                assert np.array_equal(g.ortho_weights, w.ortho_weights)

    @settings(max_examples=60, deadline=None)
    @given(_path_case(), _targets)
    def test_search_trace_is_the_lone_fits_counts(self, case, target):
        pts, config, grid = case
        result = epsilon_search(pts, target, normalization=config.normalization, grid=grid)
        assert [p.epsilon for p in result.trace] == grid
        for point in result.trace:  # the search takes no degree cap
            lone = fit(pts, replace(config, epsilon=point.epsilon, max_degree=None))
            lone_counts = tuple(g for g, _ in lone.degree_counts())
            assert 1 <= len(point.g_counts) <= target.d_min
            assert point.g_counts == lone_counts[:len(point.g_counts)]
            assert point.satisfied == _satisfies(lone.degrees, target)[1]

    @settings(max_examples=60, deadline=None)
    @given(_path_case(), _targets)
    def test_search_result_is_its_traces_first_longest_run(self, case, target):
        pts, config, grid = case
        result = epsilon_search(pts, target, normalization=config.normalization, grid=grid)
        assert (result.found, result.epsilon, result.lower, result.upper) == best_run_oracle(result.trace)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([1e-3, 0.1, 0.5, 1.0, 2.0, 0.0, -0.0, -1.0, math.inf, math.nan]), max_size=5),
           st.sampled_from([None, "ascending"]))
    def test_grid_checks_match_their_oracle(self, grid, order):
        grid = np.array(sorted(grid) if order and math.nan not in grid else grid, dtype=float)
        pts = random_cloud(np.random.default_rng(0), 6, 2)
        with np.errstate(all="ignore"):
            try:
                grid_check_oracle(grid)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    epsilon_search(pts, EpsilonTarget(0, 2, 1), grid=grid)
                assert str(raised.value) == str(exc)
            else:
                assert len(epsilon_search(pts, EpsilonTarget(0, 2, 1), grid=grid).trace) == grid.size

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("FG"), max_size=4).map(tuple), min_size=1, max_size=4), _targets)
    def test_satisfies_and_descend_match_their_oracles(self, partitions, target):
        path = tuple(DegreeRecord(np.zeros((1, 0)), np.zeros((0, len(p))), np.zeros(len(p)), p)
                     for p in partitions)
        assert _satisfies(path, target) == satisfies_oracle(path, target)
        assert _descend(target, path) == descend_oracle(target, path)

    @pytest.mark.parametrize("target", [EpsilonTarget(0, 2, 1), EpsilonTarget(1, 2, 1),
                                        EpsilonTarget(0, 3, 1), EpsilonTarget(1, 3, 0)])
    def test_search_steps_each_surviving_prefix_once(self, target, monkeypatch):
        import avibasis.linalg

        pts = random_cloud(np.random.default_rng(3), 10, 2)
        grid = list(np.geomspace(1e-3, 3.0, 25))
        lone = [fit(pts, FitConfig(epsilon=e)) for e in grid]

        def survives(prefix):  # the target can still be met below this prefix
            g = [rec.partition.count("G") for rec in prefix]
            return not g or (g[0] == target.num_linear and not any(g[1:]))

        # degree t of a fit is determined by the partitions of degrees 1..t-1
        prefixes = {tuple(rec.partition for rec in m.degrees[:t])
                    for m in lone for t in range(min(len(m.degrees), target.d_min))
                    if survives(m.degrees[:t])}
        calls = []
        solve = avibasis.linalg.gen_sym_eig
        monkeypatch.setattr(avibasis.linalg, "gen_sym_eig", lambda *a: calls.append(1) or solve(*a))
        epsilon_search(pts, target, grid=grid)
        assert len(calls) == len(prefixes)
        assert 1 < len(prefixes) <= target.d_min

    @pytest.mark.parametrize("target", [EpsilonTarget(0, 2, 1), EpsilonTarget(1, 2, 1),
                                        EpsilonTarget(0, 3, 1), EpsilonTarget(1, 3, 0)])
    def test_search_builds_no_model_and_reads_each_prefix_once(self, target, monkeypatch):
        import avibasis.analysis

        pts = random_cloud(np.random.default_rng(3), 10, 2)
        grid = list(np.geomspace(1e-3, 3.0, 25))
        lone = [fit(pts, FitConfig(epsilon=e)) for e in grid]
        built, read = [], []
        post_init, satisfies = BasisModel.__post_init__, avibasis.analysis._satisfies
        monkeypatch.setattr(BasisModel, "__post_init__", lambda self: built.append(self) or post_init(self))
        monkeypatch.setattr(avibasis.analysis, "_satisfies", lambda degrees, target: read.append(
            tuple(rec.partition for rec in degrees)) or satisfies(degrees, target))
        result = epsilon_search(pts, target, grid=grid)
        assert built == []
        # the prefix each grid value was stepped to, read off its lone fit
        prefixes = {tuple(rec.partition for rec in m.degrees[:len(point.g_counts)])
                    for m, point in zip(lone, result.trace)}
        assert sorted(read) == sorted(prefixes)
        assert 1 < len(prefixes) < len(grid)

    @pytest.mark.parametrize("kind", [NormalizationKind.identity(), NormalizationKind.coefficient(),
                                      NormalizationKind.gradient(),
                                      NormalizationKind.subsampled_gradient((1,), (0, 2, 4))])
    def test_fit_runs_each_layer_once_per_degree(self, kind, monkeypatch):
        import importlib

        import avibasis.linalg

        fit_module = importlib.import_module("avibasis.fit")  # the package's ``fit`` is the function
        calls = []
        for module, name in ((fit_module, "orthogonalize"), (fit_module, "normalization_matrix"),
                             (avibasis.linalg, "gen_sym_eig")):
            monkeypatch.setattr(module, name, lambda *a, _f=getattr(module, name), _n=name, **kw:
                                calls.append(_n) or _f(*a, **kw))
        model = fit(random_cloud(np.random.default_rng(4), 8, 2), FitConfig(epsilon=0.01, normalization=kind))
        k = len(model.degrees)
        assert k > 1
        assert sorted(calls) == sorted(["orthogonalize", "normalization_matrix", "gen_sym_eig"] * k)

    def test_two_partitions_stepping_on_raise(self):
        pts = random_cloud(np.random.default_rng(3), 10, 2)
        grid = list(np.geomspace(1e-3, 3.0, 25))
        with pytest.raises(ValueError, match="two partitions step on from degree 1"):
            list(_path_models(pts, FitConfig(), grid))
        # one tolerance, or a descend that keeps one partition, is a chain
        assert len(list(_path_models(pts, FitConfig(), grid[:1]))) == 1
        assert len(list(_path_models(pts, FitConfig(), grid, lambda path: _descend(EpsilonTarget(0, 3, 1), path)))) == 25


_THREAD_CHILD = """
import sys
import numpy as np
from avibasis import ConcentricEllipses, DatasetSpec, FitConfig, evaluate, fit, generate_dataset
spec = DatasetSpec(ConcentricEllipses(((1.41, 0.71), (2.0, 1.0))), samples=5000,
                   extra_linear_vars=(0.0, 0.5, 1.0), noise_std_fraction=0.02, seed=7)
points = generate_dataset(spec).points
model = fit(points, FitConfig(epsilon=0.05))
np.savez(sys.argv[1], counts=model.degree_counts(), partitions=["".join(r.partition) for r in model.degrees],
         eigvals=np.concatenate([r.eigvals for r in model.degrees]), values=evaluate(model, model.handles(), points))
"""


class TestBlasThreadCount:
    """A fit large enough for BLAS to split its products, at 1 and at 2 BLAS
    threads, set only through the environment of a fresh process.  Its bits
    may differ (with OpenBLAS 0.3.31 on 2 cores they do from degree 8 on, in
    the orthogonalization weights, with the row products formed by blocks
    of 1,024 points as without); the counts and partitions may not, and
    eigenvalues and replay values agree within ``BOUND``, relative."""

    BOUND = 1e-8  # measured there, blocked: 3.5e-11 (eigenvalues), 2.3e-11 (values)

    def test_counts_equal_and_values_within_the_bound(self, tmp_path):
        src = os.path.dirname(os.path.dirname(avibasis.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / f"threads{threads}.npz"
            subprocess.run([sys.executable, "-c", _THREAD_CHILD, str(out)], env=env, check=True, timeout=120)
            runs.append(np.load(out))
        one, two = runs
        np.testing.assert_array_equal(one["counts"], two["counts"])
        np.testing.assert_array_equal(one["partitions"], two["partitions"])
        lam = one["eigvals"]
        assert np.all(np.abs(two["eigvals"] - lam) <= self.BOUND * np.abs(lam))
        values = one["values"]
        assert np.abs(two["values"] - values).max() <= self.BOUND * np.abs(values).max()
