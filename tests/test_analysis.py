import json
import math
from pathlib import Path

import numpy as np
import pytest

from avibasis import (
    ConcentricEllipses,
    CustomPoints,
    DatasetSpec,
    DensePolynomial,
    EpsilonTarget,
    FitConfig,
    NormalizationKind,
    PolynomialSystem,
    epsilon_search,
    evaluate,
    expand,
    extract_features,
    fit,
    generate_dataset,
    invariance_report,
    n_ratio,
)
from avibasis import linalg
from avibasis.analysis import _sample_polynomial_system, default_epsilon_grid
from avibasis.densepoly import _compile, _evaluate
from conftest import FOUR_POINTS, random_cloud, raw_points


class TestInvarianceReport:
    def test_identity_transform(self):
        rng = np.random.default_rng(1)
        pts = random_cloud(rng, 8, 2)
        rep = invariance_report(pts, b=np.zeros(2), alpha=1.0, epsilon=0.3)
        assert rep.counts_match
        for degree_ratios in rep.eigenvalue_ratios:
            for r in degree_ratios:
                assert r == pytest.approx(1.0, rel=1e-9)
        for entry in rep.subspace_gaps:
            for key, val in entry.items():
                if key != "degree" and not math.isnan(val):
                    assert val <= 1e-9

    def test_each_block_is_factored_once(self, monkeypatch):
        """One orthonormal basis per (degree, kind) block of each of the three
        fits: the base block's serves both comparisons and the out-of-span
        energy."""
        spec = DatasetSpec(ConcentricEllipses(radii=((1.0, 0.5),)), samples=20,
                           noise_std_fraction=0.05, seed=7)
        pts = generate_dataset(spec).points
        calls = []
        factor = linalg.orthonormal_basis
        monkeypatch.setattr(linalg, "orthonormal_basis", lambda m: calls.append(m.shape) or factor(m))
        rep = invariance_report(pts, b=np.array([0.5, -1.0]), alpha=2.0, epsilon=0.05)
        assert rep.counts_match
        blocks = sum(1 for counts in rep.base_counts for n in counts if n)
        assert blocks and len(calls) == 3 * blocks

    def test_four_point_scaling(self):
        rep = invariance_report(FOUR_POINTS, b=np.zeros(2), alpha=2.0, epsilon=0.0)
        assert rep.base_counts == rep.scaled_counts
        for degree_ratios in rep.eigenvalue_ratios:
            for r in degree_ratios:
                assert r == pytest.approx(4.0, rel=1e-6)

    def test_four_point_translation(self):
        rep = invariance_report(FOUR_POINTS, b=np.array([10.0, -3.0]), alpha=1.0, epsilon=0.0)
        assert rep.base_counts == rep.translated_counts
        for entry in rep.subspace_gaps:
            val = entry["G_translation"]
            if not math.isnan(val):
                assert val <= 1e-6

    def test_random_cases_counts_and_ratios(self):
        rng = np.random.default_rng(2)
        alphas = [-3.0, 0.5, 2.0, 10.0]
        for case in range(6):
            pts = random_cloud(rng, int(rng.integers(5, 10)), int(rng.integers(2, 4)))
            scale = float(np.abs(pts).mean())
            eps = float(rng.uniform(0.1, 0.5)) * scale
            b = rng.uniform(-4, 4, size=pts.shape[1])
            alpha = alphas[case % len(alphas)]
            rep = invariance_report(pts, b=b, alpha=alpha, epsilon=eps)
            assert rep.counts_match
            expected = alpha * alpha
            for degree_ratios in rep.eigenvalue_ratios:
                for r in degree_ratios:
                    assert r == pytest.approx(expected, rel=1e-6)
            for degree_ratios in rep.translation_eigenvalue_ratios:
                for r in degree_ratios:
                    assert r == pytest.approx(1.0, rel=1e-6)
            for entry in rep.subspace_gaps:
                for key, val in entry.items():
                    if key != "degree" and not math.isnan(val):
                        assert val <= 1e-6

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            invariance_report(FOUR_POINTS, b=np.zeros(2), alpha=0.0, epsilon=0.0)

    def test_one_dimensional_points_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            invariance_report(np.array([1.0, 2.0, 3.0]), b=np.zeros(1), alpha=2.0, epsilon=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and nonzero"):
            invariance_report(FOUR_POINTS, b=np.zeros(2), alpha=alpha, epsilon=0.1)

    @pytest.mark.parametrize("b", [[math.nan, 0.0], [math.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_translation_rejected(self, b):
        with pytest.raises(ValueError, match=r"^translation vector must be finite$"):
            invariance_report(FOUR_POINTS, b=b, alpha=2.0, epsilon=0.1)

    @pytest.mark.parametrize("probe_count", [0, -1])
    def test_probe_count_below_one_rejected(self, probe_count):
        with pytest.raises(ValueError, match=f"probe_count must be >= 1, got {probe_count}"):
            invariance_report(FOUR_POINTS, b=np.zeros(2), alpha=2.0, epsilon=0.0, probe_count=probe_count)

    def test_one_probe_is_enough(self):
        rep = invariance_report(FOUR_POINTS, b=np.zeros(2), alpha=2.0, epsilon=0.0, probe_count=1)
        assert rep.counts_match


class TestNRatio:
    def test_gradient_self_ratio_is_one(self):
        rng = np.random.default_rng(3)
        pts = random_cloud(rng, 8, 2)
        model = fit(pts, FitConfig(epsilon=0.0))
        assert n_ratio(model, NormalizationKind.gradient(), pts) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_coefficient_self_ratio_is_one(self):
        rng = np.random.default_rng(4)
        pts = random_cloud(rng, 7, 2)
        model = fit(pts, FitConfig(epsilon=0.0, normalization=NormalizationKind.coefficient()))
        assert n_ratio(model, NormalizationKind.coefficient()) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_cross_ratio_exceeds_one(self):
        rng = np.random.default_rng(5)
        pts = random_cloud(rng, 8, 2)
        model = fit(pts, FitConfig(epsilon=0.0))
        assert n_ratio(model, NormalizationKind.coefficient()) > 1.0

    def test_single_polynomial_is_exactly_one(self):
        pts = np.array([[1.0], [2.0], [3.0]])
        model = fit(pts, FitConfig(epsilon=0.0))
        assert len(model.g_handles()) == 1
        assert n_ratio(model, NormalizationKind.gradient(), pts) == 1.0

    def test_empty_vanishing_set_rejected(self):
        rng = np.random.default_rng(6)
        pts = random_cloud(rng, 9, 2)
        model = fit(pts, FitConfig(epsilon=0.0, max_degree=1))
        assert not model.g_handles()
        with pytest.raises(ValueError):
            n_ratio(model, NormalizationKind.gradient(), pts)

    def test_zero_norm_gives_infinity(self):
        # the xy-like vanishing polynomial has zero x0-partial at the point
        # (1, 0); subsampling to that single (point, variable) cell zeroes
        # its restricted gradient norm
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        kind = NormalizationKind.subsampled_gradient((0,), (0,))
        value = n_ratio(model, kind, FOUR_POINTS)
        assert value == math.inf

    @pytest.mark.parametrize(
        "var_subset,point_subset,message",
        [((7,), (0,), "variable subset"), ((0,), (0, 4), "point subset")],
    )
    def test_out_of_range_subset_rejected(self, var_subset, point_subset, message):
        # the subset indexes the gradients of a 2-variable, 4-point fit
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        kind = NormalizationKind.subsampled_gradient(var_subset, point_subset)
        with pytest.raises(ValueError, match=f"{message} index out of range"):
            n_ratio(model, kind, FOUR_POINTS)

    def test_gradient_kind_needs_points(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError):
            n_ratio(model, NormalizationKind.gradient())

    def test_identity_kind_measures_combination_vectors(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0, normalization=NormalizationKind.identity()))
        assert n_ratio(model, NormalizationKind.identity()) == pytest.approx(1.0, abs=1e-9)


class TestEpsilonSearch:
    @pytest.mark.parametrize("count", [1, 2, 60, 75])
    def test_default_grid_is_the_geomspace_grid(self, count):
        pts = random_cloud(np.random.default_rng(count), 9, 3)
        scale = float(np.linalg.norm(pts, axis=1).mean())
        want = (np.geomspace(1e-4, 1.0, count) * scale).tolist()
        grid = default_epsilon_grid(pts, count)
        assert [v.hex() for v in grid.tolist()] == [v.hex() for v in want]

    def test_noiseless_variety_finds_range(self):
        spec = DatasetSpec(
            variety=ConcentricEllipses(radii=((1.5, 0.75),), rotation=0.4),
            samples=30,
            extra_linear_vars=(0.5,),
            noise_std_fraction=0.0,
            seed=3,
        )
        ds = generate_dataset(spec)
        target = EpsilonTarget(num_linear=1, d_min=2, num_at_dmin=1)
        result = epsilon_search(ds, target)
        assert result.found
        assert result.lower < result.epsilon < result.upper
        assert result.epsilon == pytest.approx((result.lower + result.upper) / 2.0)
        model = fit(ds, FitConfig(epsilon=result.epsilon))
        counts = model.degree_counts()
        assert counts[0][0] == 1
        assert counts[1][0] >= 1

    def test_impossible_target_not_found(self):
        rng = np.random.default_rng(8)
        pts = random_cloud(rng, 8, 2)
        target = EpsilonTarget(num_linear=3, d_min=2, num_at_dmin=0)  # > num_vars
        result = epsilon_search(pts, target)
        assert not result.found
        assert result.epsilon is None
        assert len(result.trace) == 60
        assert not any(p.satisfied for p in result.trace)

    def test_bad_grid_rejected(self):
        rng = np.random.default_rng(9)
        pts = random_cloud(rng, 6, 2)
        target = EpsilonTarget(num_linear=0, d_min=2, num_at_dmin=0)
        with pytest.raises(ValueError):
            epsilon_search(pts, target, grid=np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            epsilon_search(pts, target, grid=np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="one-dimensional"):
            epsilon_search(pts, target, grid=np.array([[0.1], [1.0]]))
        with pytest.raises(ValueError, match="finite"):  # inf - inf is NaN, which passed the order check
            epsilon_search(pts, target, grid=np.array([1.0, np.inf, np.inf]))

    @pytest.mark.parametrize("grid", [[0.1, math.nan], [math.nan], [math.nan, 0.1]])
    def test_nan_grid_rejected(self, grid):
        pts = random_cloud(np.random.default_rng(9), 6, 2)
        target = EpsilonTarget(num_linear=0, d_min=2, num_at_dmin=0)
        with pytest.raises(ValueError, match="positive"):
            epsilon_search(pts, target, grid=grid)

    @pytest.mark.parametrize("grid", [None, [0.1, 1.0]])
    def test_nan_points_rejected(self, grid):
        # the default grid is read off the points, so they are checked first
        pts = np.vstack([random_cloud(np.random.default_rng(9), 6, 2), [0.0, np.nan]])
        target = EpsilonTarget(num_linear=0, d_min=2, num_at_dmin=0)
        with pytest.raises(ValueError, match="points contain NaN or Inf"):
            epsilon_search(pts, target, grid=grid)

    def test_target_validation(self):
        with pytest.raises(ValueError):
            EpsilonTarget(num_linear=-1, d_min=2, num_at_dmin=0)
        with pytest.raises(ValueError):
            EpsilonTarget(num_linear=0, d_min=1, num_at_dmin=0)


class TestGenerateDataset:
    def test_circle_points_on_variety(self):
        spec = DatasetSpec(
            variety=ConcentricEllipses(radii=((1.0, 1.0),)), samples=8, seed=7
        )
        ds = generate_dataset(spec)
        raw = raw_points(ds)
        assert np.abs(raw[:, 0] ** 2 + raw[:, 1] ** 2 - 1.0).max() <= 1e-12

    def test_seed_determinism(self):
        spec = DatasetSpec(
            variety=ConcentricEllipses(radii=((2.0, 1.0), (1.0, 0.5))),
            samples=11,
            extra_linear_vars=(0.3,),
            noise_std_fraction=0.05,
            seed=42,
        )
        a = generate_dataset(spec)
        b = generate_dataset(spec)
        assert np.array_equal(a.points, b.points)

    def test_unit_weight_extra_var_copies_x0(self):
        spec = DatasetSpec(
            variety=ConcentricEllipses(radii=((1.0, 0.5),)),
            samples=9,
            extra_linear_vars=(1.0,),
            seed=1,
        )
        raw = raw_points(generate_dataset(spec))
        assert np.allclose(raw[:, 2], raw[:, 0])

    def test_vector_weights(self):
        spec = DatasetSpec(
            variety=ConcentricEllipses(radii=((1.0, 0.5),)),
            samples=6,
            extra_linear_vars=((2.0, -1.0),),
            seed=1,
        )
        raw = raw_points(generate_dataset(spec))
        assert np.allclose(raw[:, 2], 2.0 * raw[:, 0] - raw[:, 1])

    def test_polynomial_system_residuals(self):
        x1, x2, x3 = (DensePolynomial.variable(3, k) for k in range(3))
        system = PolynomialSystem((x1 * x3 - x2 * x2, x1 * x1 * x1 - x2 * x3))
        spec = DatasetSpec(variety=system, samples=15, seed=5)
        raw = raw_points(generate_dataset(spec))
        for poly in system.polynomials:
            assert np.abs(poly.evaluate(raw)).max() <= 1e-10

    def test_noise_fraction_scales(self):
        base = DatasetSpec(
            variety=ConcentricEllipses(radii=((1.0, 1.0),)), samples=40, seed=2
        )
        noisy = DatasetSpec(
            variety=ConcentricEllipses(radii=((1.0, 1.0),)),
            samples=40,
            noise_std_fraction=0.05,
            seed=2,
        )
        clean_pts = generate_dataset(base).points
        noisy_pts = generate_dataset(noisy).points
        delta = noisy_pts - clean_pts
        assert 0 < np.abs(delta).max() < 1.0

    def test_custom_points(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        spec = DatasetSpec(variety=CustomPoints(pts), samples=2, seed=0)
        ds = generate_dataset(spec)
        assert np.allclose(raw_points(ds), pts)
        with pytest.raises(ValueError):
            generate_dataset(DatasetSpec(variety=CustomPoints(pts), samples=3, seed=0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_spec_values_rejected(self, bad):
        circle = ConcentricEllipses(radii=((1.0, 1.0),))
        cases = [
            ("noise_std_fraction", lambda: DatasetSpec(circle, 5, noise_std_fraction=bad)),
            ("radii", lambda: ConcentricEllipses(radii=((1.0, bad),))),
            ("rotation", lambda: ConcentricEllipses(radii=((1.0, 1.0),), rotation=bad)),
            ("extra_linear_vars", lambda: DatasetSpec(circle, 5, extra_linear_vars=(bad,))),
            ("extra_linear_vars", lambda: DatasetSpec(circle, 5, extra_linear_vars=((1.0, bad),))),
            ("polynomial coefficients", lambda: _system({(2,): 1.0, (0,): bad})),
        ]
        for field, build in cases:
            with pytest.raises(ValueError, match=field):
                build()

    def test_unknown_variety_rejected(self):
        class Bogus:
            pass

        spec = DatasetSpec.__new__(DatasetSpec)
        object.__setattr__(spec, "variety", Bogus())
        object.__setattr__(spec, "samples", 3)
        object.__setattr__(spec, "extra_linear_vars", ())
        object.__setattr__(spec, "noise_std_fraction", 0.0)
        object.__setattr__(spec, "seed", 0)
        with pytest.raises(ValueError):
            generate_dataset(spec)


def _system(*polys):
    return PolynomialSystem(tuple(DensePolynomial(len(next(iter(p))), p) for p in polys))


# Pinned by the golden file below: 20 samples with noise fraction 0.01 each.
SAMPLED_SYSTEMS = {
    # the coefcurve200 benchmark curve: x^2 + y^2 + z^2 - 1 = 0, xy - z = 0
    "space_curve": _system({(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0},
                           {(1, 1, 0): 1.0, (0, 0, 1): -1.0}),
    # Gauss-Newton cycles 0 <-> 1 on x^3 - 2x + 2, so starts near 0 or 1
    # are redrawn from the rng
    "cubic": _system({(3,): 1.0, (1,): -2.0, (0,): 2.0}),
}
# Written by the sampler that evaluated the system and a freshly derived
# gradient at every Gauss-Newton step as NumPy scalars, with the residual-
# computing least-squares solve; the values are float.hex strings.
SAMPLED = json.loads((Path(__file__).parent / "data" / "datasets" / "polynomial_systems.json").read_text())


class TestPolynomialSystemSamples:
    @pytest.mark.parametrize("case", sorted(SAMPLED))
    def test_points_and_center_are_pinned_bit_for_bit(self, case):
        name, seed = case.split("/seed=")
        ds = generate_dataset(DatasetSpec(SAMPLED_SYSTEMS[name], 20, noise_std_fraction=0.01, seed=int(seed)))
        assert [[v.hex() for v in row] for row in ds.points.tolist()] == SAMPLED[case]["points"]
        assert [v.hex() for v in ds.preprocessing.center.tolist()] == SAMPLED[case]["center"]

    @pytest.mark.parametrize("seed", [4, 9])
    def test_cubic_cases_take_the_restart_path(self, seed):
        rng = np.random.default_rng(seed)
        draws = []

        class Counting:
            def standard_normal(self, size):
                draws.append(int(np.prod(size)))
                return rng.standard_normal(size)

        pts = _sample_polynomial_system(SAMPLED_SYSTEMS["cubic"], 20, Counting())
        starts = sum(draws) // SAMPLED_SYSTEMS["cubic"].num_vars
        assert starts > 20 + 10  # every point takes a start; restarts take more
        assert np.abs(SAMPLED_SYSTEMS["cubic"].polynomials[0].evaluate(pts)).max() <= 1e-13


class TestExtractFeatures:
    def test_own_class_block_vanishes(self):
        rng = np.random.default_rng(10)
        pts_a = random_cloud(rng, 6, 2)
        pts_b = random_cloud(rng, 6, 2) + 2.0
        model_a = fit(pts_a, FitConfig(epsilon=0.0))
        model_b = fit(pts_b, FitConfig(epsilon=0.0))
        size_a = len(model_a.g_handles())
        features = extract_features([model_a, model_b], pts_a[0])
        assert features.shape == (size_a + len(model_b.g_handles()),)
        assert np.all(features[:size_a] <= 1e-8)

    def test_values_match_expansions(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        x = np.array([2.0, 0.0])
        features = extract_features([model], x)
        expected = np.array(
            [abs(expand(model, h)(x)) for h in model.g_handles()]
        )
        assert np.allclose(features, expected, atol=1e-9)

    def test_empty_class_block(self):
        rng = np.random.default_rng(11)
        pts = random_cloud(rng, 9, 2)
        truncated = fit(pts, FitConfig(epsilon=0.0, max_degree=1))
        assert not truncated.g_handles()
        full = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        features = extract_features([truncated, full], np.array([1.0, 1.0]))
        assert features.shape == (len(full.g_handles()),)

    def test_dimension_mismatch(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError):
            extract_features([model], np.array([1.0, 2.0, 3.0]))


# A batched row may take another BLAS path than a one-point call; measured
# up to 3.7e-12 of a column's largest value on 300-point noisy ellipses.
FEATURE_RTOL = 1e-11


def ellipse_class_models():
    """Two noisy-ellipse class models and the points of both classes."""
    datasets = [
        generate_dataset(DatasetSpec(ConcentricEllipses(((1.41, 0.71), (2.0, 1.0))),
                                     samples=60, extra_linear_vars=(0.5,),
                                     noise_std_fraction=0.02, seed=seed))
        for seed in (7, 8)
    ]
    config = FitConfig(epsilon=0.05, normalization=NormalizationKind.gradient())
    models = [fit(d, config) for d in datasets]
    return models, np.vstack([d.points for d in datasets])


def assert_close_per_column(got, want):
    scale = np.abs(want).max(axis=0)
    assert np.all(np.abs(got - want) <= FEATURE_RTOL * scale)


class TestBatchedFeatures:
    def test_rows_match_single_point_calls(self):
        models, points = ellipse_class_models()
        batched = extract_features(models, points)
        rows = np.array([extract_features(models, x) for x in points])
        assert batched.shape == rows.shape == (len(points), sum(len(m.g_handles()) for m in models))
        assert_close_per_column(batched, rows)

    def test_column_order(self):
        models, points = ellipse_class_models()
        blocks = [np.abs(evaluate(m, m.g_handles(), points)) for m in models]
        assert np.array_equal(extract_features(models, points), np.hstack(blocks))
        swapped = extract_features(models[::-1], points)
        assert np.array_equal(swapped, np.hstack(blocks[::-1]))

    def test_model_without_vanishing_polynomials(self):
        rng = np.random.default_rng(11)
        truncated = fit(random_cloud(rng, 9, 2), FitConfig(epsilon=0.0, max_degree=1))
        full = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        points = random_cloud(rng, 5, 2)
        assert extract_features([truncated], points).shape == (5, 0)
        assert extract_features([], points).shape == (5, 0)
        mixed = extract_features([truncated, full, truncated], points)
        assert np.array_equal(mixed, extract_features([full], points))

    def test_width_mismatch(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError, match=r"^model expects 2 variables, point has 3$"):
            extract_features([model], np.ones((4, 3)))

    def test_rejects_higher_rank_input(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError, match="2-D"):
            extract_features([model], np.ones((2, 4, 2)))


def _oracle_project(values, jacobian, start, rng):
    """The point-by-point Gauss-Newton projection the lockstep sampler replaced."""
    x = start.copy()
    for attempt in range(25):
        for _ in range(80):
            point = x.tolist()
            res = _evaluate(values, point)
            if all(abs(r) <= 1e-13 for r in res):
                return x
            jac = np.array(_evaluate(jacobian, point)).reshape(len(res), x.size)
            if not (np.isfinite(res).all() and np.isfinite(jac).all()):
                break  # a failed start
            step = linalg.lstsq(jac, -np.array(res))[0]
            limit = 1.0 + math.sqrt(x.dot(x))
            norm = math.sqrt(step.dot(step))
            if norm > limit:
                step = step * (limit / norm)
            x = x + step
        x = rng.standard_normal(x.size)
    raise RuntimeError("projection onto the variety failed to converge")


def _oracle_sample(system, samples, rng):
    values = _compile(system.polynomials)
    jacobian = _compile([g for p in system.polynomials for g in p.gradient()])
    pts = np.zeros((samples, system.num_vars))
    for i in range(samples):
        pts[i] = _oracle_project(values, jacobian, rng.standard_normal(system.num_vars), rng)
    return pts


PARITY_SYSTEMS = {
    "space_curve": SAMPLED_SYSTEMS["space_curve"],
    "cubic": SAMPLED_SYSTEMS["cubic"],
    # the same polynomial twice: every Jacobian has rank 1 of 2 rows
    "duplicated": _system({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0},
                          {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),
    # y^2 = x^3: the Jacobian vanishes at the cusp
    "cusp": _system({(0, 2): 1.0, (3, 0): -1.0}),
    "sphere4": _system({(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0, (0, 0, 2, 0): 1.0,
                        (0, 0, 0, 2): 1.0, (0, 0, 0, 0): -1.0}),
}


def _hexes(a):
    return [v.hex() for v in np.ravel(a).tolist()]


class TestSamplerParity:
    """The lockstep sampler gives the point-by-point loop's points and
    leaves the rng where that loop leaves it, bit for bit."""

    @pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
    @pytest.mark.parametrize("samples,seed", [(1, 0), (1, 3), (1, 17), (20, 0), (20, 3), (20, 17),
                                              (333, 0), (333, 17)])
    def test_dataset_matches_point_by_point_sampler(self, name, samples, seed):
        system = PARITY_SYSTEMS[name]
        ds = generate_dataset(DatasetSpec(system, samples, seed=seed))
        rng = np.random.default_rng(seed)
        raw = _oracle_sample(system, samples, rng)
        center = raw.mean(axis=0)
        assert _hexes(ds.points) == _hexes(raw - center)
        assert _hexes(ds.preprocessing.center) == _hexes(center)
        after = np.random.default_rng(seed)
        _sample_polynomial_system(system, samples, after)
        assert _hexes(after.standard_normal(4)) == _hexes(rng.standard_normal(4))

    @pytest.mark.parametrize("seed", [1, 8])
    def test_noisy_dataset_matches_point_by_point_sampler(self, seed):
        system = PARITY_SYSTEMS["space_curve"]
        ds = generate_dataset(DatasetSpec(system, 20, extra_linear_vars=(0.5,),
                                          noise_std_fraction=0.01, seed=seed))
        rng = np.random.default_rng(seed)
        base = _oracle_sample(system, 20, rng)
        pts = np.column_stack([base, 0.5 * base[:, 0] + 0.5 * base[:, 1]])
        pts = pts - pts.mean(axis=0)
        pts = pts + rng.normal(0.0, 0.01 * float(np.abs(pts).mean()), size=pts.shape)
        assert _hexes(ds.points) == _hexes(pts)

    @pytest.mark.parametrize("name,position", [("space_curve", 0), ("space_curve", 19), ("cubic", 27)])
    def test_non_finite_start_is_a_failed_start(self, name, position):
        system = PARITY_SYSTEMS[name]

        class Stream:  # standard normals with a NaN start at ``position``
            def __init__(self):
                self.values = np.random.default_rng(2).standard_normal((100, system.num_vars))
                self.values[position] = math.nan
                self.taken = 0

            def standard_normal(self, size):
                count = int(np.prod(size))
                self.taken += count
                return self.values.ravel()[self.taken - count:self.taken].reshape(size)

        want, got = Stream(), Stream()
        assert _hexes(_sample_polynomial_system(system, 20, got)) == _hexes(_oracle_sample(system, 20, want))
        assert got.taken == want.taken > 20 * system.num_vars

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("terms", [
        {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0},  # x^2 + y^2 + 1: no real zero
        {(2,): 1e308, (0,): -1e308},  # overflows to non-finite steps
    ], ids=["no real zero", "overflow"])
    def test_failing_system_raises_the_same_error(self, terms):
        system = _system(terms)
        with pytest.raises(RuntimeError) as want:
            _oracle_sample(system, 3, np.random.default_rng(0))
        with pytest.raises(RuntimeError) as got:
            generate_dataset(DatasetSpec(system, 3, seed=0))
        assert str(got.value) == str(want.value)
