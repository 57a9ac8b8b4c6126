import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from avibasis import (
    ConcentricEllipses,
    DatasetSpec,
    FitConfig,
    NormalizationKind,
    PolyHandle,
    expand,
    fit,
    generate_dataset,
    gradient,
    lstsq,
    reduce_basis,
)
from avibasis.fit import GRADIENT
from avibasis.model import DegreeRecord
from avibasis.reduction import gradient_dependence_residuals, rank_deflate_degree
from conftest import (
    FOUR_POINTS,
    circle_and_hyperbola_targets,
    match_scalar_multiple,
    random_cloud,
    random_polynomial,
)


def _report_equal(a, b):
    if a.kept != b.kept or a.threshold != b.threshold:
        return False
    if len(a.removed) != len(b.removed) or len(a.rank_deflated) != len(b.rank_deflated):
        return False
    for ra, rb in zip(a.removed, b.removed):
        if ra.handle != rb.handle or ra.max_residual != rb.max_residual:
            return False
        if not np.array_equal(ra.per_point_residuals, rb.per_point_residuals):
            return False
    for da, db in zip(a.rank_deflated, b.rank_deflated):
        if (da.degree, da.removed, da.original_count, da.gram_rank) != (
            db.degree,
            db.removed,
            db.original_count,
            db.gram_rank,
        ):
            return False
    return True


class TestFourPointReduction:
    @pytest.mark.parametrize(
        "kind,total", [(NormalizationKind.identity(), 5), (NormalizationKind.gradient(), 4)]
    )
    def test_reduces_to_two_generators(self, kind, total):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0, normalization=kind))
        assert len(model.g_handles()) == total
        report = reduce_basis(model, FOUR_POINTS, threshold=1e-9)
        assert len(report.kept) == 2
        circle, cross = circle_and_hyperbola_targets()
        polys = [expand(model, h) for h in report.kept]
        matched_circle = [p for p in polys if match_scalar_multiple(p, circle)]
        matched_cross = [p for p in polys if match_scalar_multiple(p, cross)]
        assert len(matched_circle) == 1 and len(matched_cross) == 1

    def test_partition_invariant(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0, normalization=NormalizationKind.identity()))
        report = reduce_basis(model, FOUR_POINTS)
        all_g = set(model.g_handles())
        kept = set(report.kept)
        removed = {r.handle for r in report.removed}
        deflated = set(report.deflation_victims())
        assert kept | removed | deflated == all_g
        assert not (kept & removed) and not (kept & deflated) and not (removed & deflated)

    def test_idempotent(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        r1 = reduce_basis(model, FOUR_POINTS)
        r2 = reduce_basis(model, FOUR_POINTS)
        assert _report_equal(r1, r2)

    def test_negative_threshold_rejected(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError):
            reduce_basis(model, FOUR_POINTS, threshold=-1.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError, match="threshold must be finite and >= 0"):
            reduce_basis(model, FOUR_POINTS, threshold=threshold)

    @pytest.mark.parametrize("rank_tol", [0.0, -1e-12, np.nan])
    def test_bad_rank_tol_rejected(self, rank_tol):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        # the rank cut is linalg.RANK_TOL; no argument sets it
        with pytest.raises(TypeError, match="rank_tol"):
            reduce_basis(model, FOUR_POINTS, rank_tol=rank_tol)


class TestSweepRules:
    def test_single_polynomial_kept(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
        model = fit(pts, FitConfig(epsilon=0.0))
        report = reduce_basis(model, pts)
        lowest = min(h.degree for h in model.g_handles())
        lowest_handles = [h for h in model.g_handles() if h.degree == lowest]
        assert set(lowest_handles) <= set(report.kept)

    def test_conservativeness(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            pts = random_cloud(rng, int(rng.integers(5, 10)), int(rng.integers(2, 4)))
            model = fit(pts, FitConfig(epsilon=0.0))
            report = reduce_basis(model, pts)
            for entry in report.removed:
                assert entry.max_residual <= report.threshold
                assert entry.max_residual == pytest.approx(
                    float(entry.per_point_residuals.max())
                )

    def test_constructed_redundancy_removed(self):
        """Products of a vanishing polynomial with random polynomials are
        gradient-dependent at every point and must be removable."""
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 20:
            pts = random_cloud(rng, int(rng.integers(4, 9)), int(rng.integers(2, 4)))
            model = fit(pts, FitConfig(epsilon=0.0))
            report = reduce_basis(model, pts)
            if not report.kept:
                continue
            kept_grads = np.stack(
                [g for g in gradient(model, list(report.kept), pts)], axis=2
            )
            for handle in report.kept:
                base = expand(model, handle)
                q = random_polynomial(rng, model.num_vars, 2)
                while q.degree() < 1:
                    q = random_polynomial(rng, model.num_vars, 2)
                product = base * q
                grads = product.gradient()
                cand = np.column_stack([d.evaluate(pts) for d in grads])
                # generators of strictly lower degree than the product
                pool_idx = [
                    i for i, h in enumerate(report.kept) if h.degree < product.degree()
                ]
                if not pool_idx:
                    continue
                pool = kept_grads[:, :, pool_idx]
                residuals = gradient_dependence_residuals(pool, cand)
                assert residuals.max() <= 1e-9
                checked += 1

    def test_order_insensitivity_within_degree(self):
        """Permuting same-degree vanishing columns does not change kept
        cardinalities per degree."""
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        base_report = reduce_basis(model, FOUR_POINTS)

        rec = model.record(3)
        g_cols = rec.columns("G")
        perm = np.arange(rec.num_outputs)
        perm[g_cols[0]], perm[g_cols[1]] = g_cols[1], g_cols[0]
        permuted = DegreeRecord(
            ortho_weights=rec.ortho_weights,
            eigvecs=rec.eigvecs[:, perm],
            eigvals=rec.eigvals[perm],
            partition=tuple(rec.partition[i] for i in perm),
        )
        degrees = list(model.degrees)
        degrees[2] = permuted
        from avibasis.model import BasisModel

        shuffled = BasisModel(
            num_vars=model.num_vars,
            constant_value=model.constant_value,
            degrees=tuple(degrees),
            epsilon=model.epsilon,
            normalization=model.normalization,
            preprocessing=model.preprocessing,
        )
        report = reduce_basis(shuffled, FOUR_POINTS)

        def per_degree(rep):
            out = {}
            for h in rep.kept:
                out[h.degree] = out.get(h.degree, 0) + 1
            return out

        assert per_degree(report) == per_degree(base_report)


class TestRankDeflation:
    def test_full_rank_untouched(self):
        handles = (PolyHandle(2, 0, "G"), PolyHandle(2, 1, "G"))
        gram = np.diag([2.0, 3.0])
        kept, removed, rank = rank_deflate_degree(handles, gram, np.array([0.0, 0.1]))
        assert kept == handles and removed == () and rank == 2

    def test_smallest_extent_removed_first(self):
        handles = (PolyHandle(2, 0, "G"), PolyHandle(2, 1, "G"))
        gram = np.ones((2, 2))  # identical gradients, rank 1
        extents = np.array([0.0, 0.001])
        kept, removed, rank = rank_deflate_degree(handles, gram, extents)
        assert rank == 1
        assert removed == (handles[0],)
        assert kept == (handles[1],)

    def test_span_preserving_guard(self):
        # removing the smallest-extent entry naively would leave two
        # parallel gradients; the guard must keep the span instead
        handles = tuple(PolyHandle(2, i, "G") for i in range(3))
        v1 = np.array([1.0, 0.0])
        v2 = np.array([0.0, 1.0])
        vecs = np.column_stack([v2, v1, v1])  # columns: distinct, dup, dup
        gram = vecs.T @ vecs
        extents = np.array([0.0, 0.001, 0.002])
        kept, removed, rank = rank_deflate_degree(handles, gram, extents)
        assert rank == 2
        assert len(kept) == 2
        # the two kept ones must span both directions
        kept_idx = [h.column for h in kept]
        assert 0 in kept_idx  # the only v2 column must survive

    def test_vca_four_points_deflates_duplicate(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0, normalization=NormalizationKind.identity()))
        report = reduce_basis(model, FOUR_POINTS)
        assert len(report.deflation_victims()) == 1
        assert report.rank_deflated[0].degree == 2
        assert report.rank_deflated[0].original_count == 3
        assert report.rank_deflated[0].gram_rank == 2

    def test_gradient_fit_skips_deflation(self):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        report = reduce_basis(model, FOUR_POINTS)
        assert report.rank_deflated == ()


# -- batched residuals against the per-point least-squares oracle ---------------


def _lstsq_residuals(generator_grads, candidate_grad):
    """Reference: one ``linalg.lstsq`` per point and per candidate."""
    y = candidate_grad if candidate_grad.ndim == 3 else candidate_grad[:, :, None]
    out = np.zeros((y.shape[0], y.shape[2]))
    for p in range(y.shape[0]):
        for c in range(y.shape[2]):
            out[p, c] = lstsq(generator_grads[p], y[p, :, c])[1]
    return out if candidate_grad.ndim == 3 else out[:, 0]


@st.composite
def _pool_and_candidates(draw):
    """Integer-valued gradients (so exact rank deficiency stays exact),
    scaled by a power of two per point (so a cut-off relative to the
    largest singular value over all points would show); the pool may have
    duplicated columns, a point with all-zero generator gradients, and more
    generators than variables."""
    points, num_vars, num_gens = draw(st.tuples(st.integers(1, 6), st.integers(1, 4),
                                                st.integers(1, 6)))
    entries = st.integers(-2, 2).map(float)
    gens = draw(arrays(float, (points, num_vars, num_gens), elements=entries))
    gens *= 2.0 ** draw(arrays(int, (points, 1, 1), elements=st.integers(-30, 30)))
    if num_gens > 1 and draw(st.booleans()):
        gens[:, :, -1] = 2.0 * gens[:, :, 0]
    if draw(st.booleans()):
        gens[draw(st.integers(0, points - 1))] = 0.0
    y = draw(arrays(float, (points, num_vars, draw(st.integers(1, 3))), elements=entries))
    y *= 2.0 ** draw(st.integers(-20, 20))
    if draw(st.booleans()):
        # one candidate inside the span: its residual is pure roundoff
        y[:, :, 0] = gens @ draw(arrays(float, num_gens, elements=entries))
    return gens, (y if draw(st.booleans()) else y[:, :, 0])


class TestBatchedResiduals:
    @settings(max_examples=200, deadline=None)
    @given(_pool_and_candidates())
    def test_matches_per_point_lstsq(self, case):
        gens, y = case
        got = gradient_dependence_residuals(gens, y)
        want = _lstsq_residuals(gens, y)
        assert got.shape == want.shape == y.shape[:1] + y.shape[2:]
        y_norm = np.linalg.norm(y, axis=1)
        assert np.all(np.abs(got - want) <= 1e-12 * y_norm)

    def test_zero_generators_give_candidate_norm(self):
        y = np.array([[3.0, 4.0], [0.0, 1.0]])
        got = gradient_dependence_residuals(np.zeros((2, 2, 3)), y)
        assert np.array_equal(got, [5.0, 1.0])


def _per_handle_reduction(model, points, threshold):
    """Reference sweep: a fresh pool and per-point ``lstsq`` per handle.

    Returns ``(kept, [(handle, residuals)], rank_deflated records)``.
    """
    handles = model.g_handles()
    grad_of = dict(zip(handles, gradient(model, handles, points)))
    by_degree = {}
    for h in handles:
        by_degree.setdefault(h.degree, []).append(h)
    survivors, deflated = {}, []
    for degree, hs in sorted(by_degree.items()):
        survivors[degree] = hs
        if model.normalization.variant == GRADIENT:
            continue
        flat = np.stack([grad_of[h] for h in hs], axis=2).reshape(-1, len(hs))
        extents = np.array([model.extent_of_vanishing(h) for h in hs])
        kept, dropped, rank = rank_deflate_degree(tuple(hs), flat.T @ flat, extents)
        survivors[degree] = list(kept)
        if dropped:
            deflated.append((degree, dropped, len(hs), rank))
    kept, removed = [], []
    lowest = min((d for d, hs in survivors.items() if hs), default=None)
    for degree in sorted(survivors):
        for handle in survivors[degree]:
            if degree == lowest:
                kept.append(handle)
                continue
            pool = np.stack([grad_of[h] for h in kept if h.degree < degree], axis=2)
            residuals = _lstsq_residuals(pool, grad_of[handle])
            if residuals.max() <= threshold:
                removed.append((handle, residuals))
            else:
                kept.append(handle)
    return kept, removed, deflated, grad_of


def _small_ellipse():
    spec = DatasetSpec(
        variety=ConcentricEllipses(((1.41, 0.71), (2.0, 1.0))),
        samples=40,
        extra_linear_vars=(0.5,),
        noise_std_fraction=0.02,
        seed=3,
    )
    return generate_dataset(spec).points


def _cloud(seed):
    rng = np.random.default_rng(seed)
    return random_cloud(rng, int(rng.integers(4, 10)), int(rng.integers(2, 4)))


# Cloud seeds chosen so that each cloud has removals under both fits, and
# rank-deflation victims under the identity fit.
_REFERENCE_CASES = [
    ("four points, gradient", lambda: FOUR_POINTS, NormalizationKind.gradient(), 0.0, 1e-9),
    ("four points, identity", lambda: FOUR_POINTS, NormalizationKind.identity(), 0.0, 1e-9),
    ("ellipse, gradient", _small_ellipse, NormalizationKind.gradient(), 0.05, 1e-9),
    ("ellipse, coefficient", _small_ellipse, NormalizationKind.coefficient(), 0.05, 1e-2),
] + [
    (f"cloud {seed}, {kind.variant}", lambda seed=seed: _cloud(seed), kind, 0.0, 1e-9)
    for seed in (21, 22, 25, 28)
    for kind in (NormalizationKind.gradient(), NormalizationKind.identity())
]


class TestAgainstPerHandleReference:
    @pytest.mark.parametrize(
        "make_points,kind,epsilon,threshold",
        [case[1:] for case in _REFERENCE_CASES],
        ids=[case[0] for case in _REFERENCE_CASES],
    )
    def test_same_partition_and_residuals(self, make_points, kind, epsilon, threshold):
        pts = make_points()
        model = fit(pts, FitConfig(epsilon=epsilon, normalization=kind))
        report = reduce_basis(model, pts, threshold=threshold)
        kept, removed, deflated, grad_of = _per_handle_reduction(model, pts, threshold)
        assert report.kept == tuple(kept)
        assert [r.handle for r in report.removed] == [h for h, _ in removed]
        assert [
            (d.degree, d.removed, d.original_count, d.gram_rank) for d in report.rank_deflated
        ] == deflated
        for entry, (handle, want) in zip(report.removed, removed):
            assert entry.per_point_residuals.ndim == 1
            assert entry.per_point_residuals.flags.c_contiguous
            bound = 1e-12 * np.linalg.norm(grad_of[handle], axis=1)
            assert np.all(np.abs(entry.per_point_residuals - want) <= bound)
