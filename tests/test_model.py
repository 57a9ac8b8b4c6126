import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avibasis.model
from avibasis.densepoly import coeff_dot
from avibasis.fit import normalization_matrix

from avibasis import (
    BasisModel,
    DegreeRecord,
    DensePolynomial,
    ExpansionLimitError,
    FitConfig,
    NormalizationKind,
    PointSet,
    PolyHandle,
    Preprocessing,
    evaluate,
    expand,
    finite_diff_gradient,
    fit,
    gradient,
    gradient_with_op_count,
    load_model,
    reduce_basis,
    save_model,
)
from conftest import bits, copying_fold, random_model


class TestPointSet:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PointSet(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet(np.zeros((0, 2)))

    def test_raw_points_roundtrip(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        prep = Preprocessing(center=np.array([1.0, 1.0]), scale=2.0)
        ps = PointSet(prep.apply(pts), prep)
        assert np.allclose(ps.raw_points(), pts)


class TestEvaluate:
    def test_constant_handle(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        values = evaluate(model, [PolyHandle(0, 0, "F")], np.array([[5.0, -3.0]]))
        assert values[0, 0] == model.constant_value

    def test_g_handles_vanish_at_training_points(self, four_points):
        for kind in (NormalizationKind.gradient(), NormalizationKind.identity()):
            model = fit(four_points, FitConfig(epsilon=0.0, normalization=kind))
            values = evaluate(model, model.g_handles(), four_points)
            assert np.abs(values).max() <= 1e-10

    def test_circle_handle_off_variety_value(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        report = reduce_basis(model, four_points)
        # after reduction the kept pair spans {x^2+y^2-1, xy}; find the circle
        circle = DensePolynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
        for handle in report.kept:
            poly = expand(model, handle)
            coeff = poly.terms.get((2, 0), 0.0)
            if abs(coeff) < 1e-12:
                continue
            scaled = circle.scale(coeff)
            assert max(abs(c) for c in (poly - scaled).terms.values() or [0.0]) <= 1e-9
            value = evaluate(model, [handle], np.array([[2.0, 0.0]]))[0, 0]
            assert value == pytest.approx(3.0 * coeff, rel=1e-9)
            break
        else:
            pytest.fail("no circle-like kept polynomial found")

    def test_replay_reproduces_eigenvalues(self, four_points):
        rng = np.random.default_rng(2)
        for _ in range(5):
            model, pts = random_model(rng)
            handles = [h for h in model.handles() if h.degree >= 1]
            values = evaluate(model, handles, pts)
            for col, handle in enumerate(handles):
                lam = model.record(handle.degree).eigvals[handle.column]
                assert float(values[:, col] @ values[:, col]) == pytest.approx(
                    lam, abs=1e-9
                )

    def test_handle_validation(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        with pytest.raises(IndexError):
            evaluate(model, [PolyHandle(99, 0, "G")], four_points)
        with pytest.raises(IndexError):
            evaluate(model, [PolyHandle(1, 57, "F")], four_points)
        with pytest.raises(ValueError):
            evaluate(model, [PolyHandle(1, 0, "G")], four_points)  # column 0 is F

    def test_dimension_mismatch(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError):
            evaluate(model, model.g_handles(), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_points_rejected(self, four_points, bad):
        model = fit(four_points, FitConfig(epsilon=0.0))
        with pytest.raises(ValueError, match="points contain NaN or Inf"):
            evaluate(model, model.g_handles(), np.array([[0.5, 0.5], [bad, 0.0]]))


class TestGradient:
    def test_degree_zero_gradient_is_zero(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        (grad,) = gradient(model, [PolyHandle(0, 0, "F")], four_points)
        assert np.all(grad == 0)

    def test_degree_one_gradient_constant_rows(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        handles = [h for h in model.handles() if h.degree == 1]
        probe = np.random.default_rng(0).normal(size=(6, 2))
        for handle, grad in zip(handles, gradient(model, handles, probe)):
            assert np.allclose(grad, grad[0:1, :], atol=1e-14)

    def test_circle_gradients_at_four_points(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        report = reduce_basis(model, four_points)
        for handle in report.kept:
            poly = expand(model, handle)
            coeff = float(poly.terms.get((2, 0), 0.0))
            if abs(coeff) < 1e-12:
                continue
            (grad,) = gradient(model, [handle], four_points)
            expected = 2.0 * coeff * four_points
            assert np.allclose(grad, expected, atol=1e-10)
            assert np.linalg.norm(grad) == pytest.approx(4.0 * abs(coeff), rel=1e-9)
            return
        pytest.fail("no circle-like kept polynomial found")

    def test_gradient_matches_symbolic_and_finite_differences(self):
        rng = np.random.default_rng(7)
        kinds = [
            NormalizationKind.gradient(),
            NormalizationKind.identity(),
            NormalizationKind.coefficient(),
        ]
        for i in range(6):
            model, pts = random_model(
                rng,
                num_points=int(rng.integers(4, 8)),
                num_vars=int(rng.integers(2, 5)),
                normalization=kinds[i % len(kinds)],
                max_degree=5,
            )
            probes = rng.uniform(-2, 2, size=(4, model.num_vars))
            handles = list(model.handles())
            grads = gradient(model, handles, probes)
            for handle, grad in zip(handles, grads):
                poly = expand(model, handle)
                partials = poly.gradient()
                for p_idx, x in enumerate(probes):
                    symbolic = np.array([d(x) for d in partials])
                    assert np.abs(grad[p_idx] - symbolic).max() <= 1e-9
                    fd = finite_diff_gradient(poly, x, h=1e-5)
                    err = np.abs(grad[p_idx] - fd)
                    assert np.all(err <= 1e-5 * (1.0 + np.abs(grad[p_idx])))

    def test_evaluation_matches_expansion(self):
        rng = np.random.default_rng(9)
        model, pts = random_model(rng, num_points=6, num_vars=2, max_degree=5)
        probes = rng.uniform(-2, 2, size=(5, 2))
        handles = list(model.handles())
        values = evaluate(model, handles, probes)
        for col, handle in enumerate(handles):
            poly = expand(model, handle)
            direct = poly.evaluate(probes)
            assert np.abs(values[:, col] - direct).max() <= 1e-9


class TestExpand:
    def test_constant_expansion(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        poly = expand(model, PolyHandle(0, 0, "F"))
        assert poly.terms == {(0, 0): model.constant_value}

    def test_degree_one_is_affine(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        handle = [h for h in model.handles() if h.degree == 1][0]
        poly = expand(model, handle)
        assert poly.degree() == 1
        (grad,) = gradient(model, [handle], four_points[:1])
        linear_coeffs = np.array(
            [poly.terms.get((1, 0), 0.0), poly.terms.get((0, 1), 0.0)]
        )
        assert np.allclose(grad[0], linear_coeffs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_fit_expansions_are_expand(self, seed, tmp_path, monkeypatch):
        """The F expansions a coefficient fit forms are, bit for bit and in
        term order, ``expand`` of its F handles, also after a round trip
        through model JSON."""
        kernels = []
        init = avibasis.model._Expansions.__init__

        def recording_init(self, *args):
            init(self, *args)
            kernels.append(self)

        rng = np.random.default_rng(seed)
        pts = rng.uniform(-1.5, 1.5, size=(int(rng.integers(3, 10)), int(rng.integers(1, 4))))
        config = FitConfig(epsilon=float(rng.choice([0.0, 1e-3, 0.05])),
                           normalization=NormalizationKind.coefficient())
        with monkeypatch.context() as patch:
            patch.setattr(avibasis.model._Expansions, "__init__", recording_init)
            model = fit(pts, config)
        (kernel,) = kernels
        fitted = [p for block in kernel.blocks for p in block.polynomials(model.num_vars)]
        save_model(tmp_path / "m.json", model)
        loaded, _ = load_model(tmp_path / "m.json")

        def bits(poly):
            return [(exps, float(c).hex()) for exps, c in poly.terms.items()]

        handles = [h for h in model.f_handles() if h.degree < model.max_degree]
        assert len(handles) == len(fitted)
        for h, poly in zip(handles, fitted):
            assert bits(expand(model, h)) == bits(poly)
            assert bits(expand(loaded, h)) == bits(poly)

    @pytest.mark.parametrize("seed", range(6))
    def test_combine_is_the_copying_fold(self, seed):
        """``_Expansions.combine`` keeps the bits and the term order of
        ``out = out + p.scale(c)`` over its terms, on clouds of quarter-
        integer points, whose expansions have exact cancellations."""
        rng = np.random.default_rng(100 + seed)
        pts = np.round(4 * rng.uniform(-1.5, 1.5, size=(int(rng.integers(3, 9)), int(rng.integers(1, 4))))) / 4
        model = fit(pts, FitConfig(epsilon=float(rng.choice([0.0, 1e-3])),
                                   normalization=NormalizationKind.coefficient()))
        kernel = avibasis.model._Expansions(model.num_vars, model.constant_value)
        for h in model.handles():  # in ascending degree
            if h.degree == 0:
                continue
            kernel.replay(model, h.degree)
            fold, w = kernel.step  # pre-candidates, then the F blocks below
            u = model.record(h.degree).eigvecs[:, h.column]
            coeffs = [float(c) for c in np.concatenate([u, -(w @ u)])]
            polys = fold.terms.polynomials(model.num_vars)
            want = copying_fold([(p, c) for p, c in zip(polys, coeffs) if c != 0.0])
            assert bits(kernel.combine([u]).polynomial(0, model.num_vars).terms) == bits(want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 8), st.integers(1, 3), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3]))
    def test_kernel_steps_are_the_dict_rules(self, num_points, num_vars, seed, epsilon):
        """On quarter-integer clouds, whose expansions cancel exactly, every
        step of a replay keeps the bits and the term order of the dict
        rules: the pair products of ``__mul__``, the combinations of the
        copying fold, and the Gram of ``coeff_dot``."""
        rng = np.random.default_rng(seed)
        pts = np.round(4 * rng.uniform(-1.5, 1.5, size=(num_points, num_vars))) / 4
        model = fit(pts, FitConfig(epsilon=epsilon, normalization=NormalizationKind.coefficient()))
        kernel = avibasis.model._Expansions(num_vars, model.constant_value)
        for t in range(1, model.max_degree + 1):
            kernel.replay(model, t)
            rec = model.record(t)
            fold, w = kernel.step
            polys = fold.terms.polynomials(num_vars)
            if t > 1:
                first, last = (kernel.blocks[k].polynomials(num_vars) for k in (1, t - 1))
                products = [p * q for p in first for q in last]
                assert [bits(p.terms) for p in polys[: len(products)]] == [bits(p.terms) for p in products]
            for c, poly in enumerate(kernel.outputs[t].polynomials(num_vars)):
                u = rec.eigvecs[:, c]
                weights = np.concatenate([u, -(w @ u)]).tolist()
                want = copying_fold([(p, a) for p, a in zip(polys, weights) if a != 0.0])
                assert bits(poly.terms) == bits(want)
            units = kernel.combine(list(np.eye(rec.num_candidates)))
            gram = normalization_matrix(NormalizationKind.coefficient(), np.zeros((num_points, len(units))),
                                        expansions=units)
            dicts = units.polynomials(num_vars)
            want = [[coeff_dot(dicts[min(i, j)], dicts[max(i, j)]) for j in range(len(dicts))]
                    for i in range(len(dicts))]
            assert gram.tobytes() == np.array(want).reshape(gram.shape).tobytes()

    def test_mutating_an_expansion_leaves_the_cache_unchanged(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0, normalization=NormalizationKind.coefficient()))
        handle = model.g_handles()[0]
        first = expand(model, handle)
        want = bits(first.terms)
        first.terms.clear()
        first.terms[(7, 7)] = 1.0
        second = expand(model, handle)
        assert bits(second.terms) == want
        assert second is not expand(model, handle)

    def test_term_guard_raises_before_the_kernel_allocates(self):
        """A degree-1 expansion in a million variables has a dense size
        bound over ``EXPANSION_TERM_CAP``; the guard refuses it before the
        kernel forms anything (one exponent vector alone is 8 MB)."""
        record = DegreeRecord(ortho_weights=np.zeros((1, 1)), eigvecs=np.ones((1, 1)), eigvals=np.ones(1),
                              partition=("F",))
        model = BasisModel(num_vars=10**6, constant_value=1.0, degrees=(record,), epsilon=0.0,
                           normalization=NormalizationKind.coefficient())
        tracemalloc.start()
        try:
            with pytest.raises(ExpansionLimitError):
                expand(model, PolyHandle(1, 0, "F"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_term_guard(self, four_points, monkeypatch):
        model = fit(four_points, FitConfig(epsilon=0.0))
        handle = model.g_handles()[0]
        monkeypatch.setattr("avibasis.model.EXPANSION_TERM_CAP", 2)
        with pytest.raises(ExpansionLimitError):
            expand(model, handle)


class TestOpCount:
    def test_matches_vectorized_gradient(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        probe = np.array([0.7, -0.3])
        for handle in model.handles():
            grad, ops = gradient_with_op_count(model, handle, probe)
            (expected,) = gradient(model, [handle], probe[None, :])
            assert np.abs(grad - expected[0]).max() <= 1e-12
            if handle.degree >= 2:
                assert ops > 0

    def test_op_count_scales_with_candidates(self):
        rng = np.random.default_rng(4)
        counts = []
        for num_points in (8, 16):
            pts = rng.uniform(-1.5, 1.5, size=(num_points, 3))
            model = fit(pts, FitConfig(epsilon=0.0))
            degree = model.max_degree
            handle = [h for h in model.handles() if h.degree == degree][0]
            rec = model.record(degree)
            _, ops = gradient_with_op_count(model, handle, pts[0])
            counts.append((ops, model.num_vars * rec.num_candidates))
        ratios = [ops / work for ops, work in counts]
        assert max(ratios) / min(ratios) < 1.5


class TestValidate:
    def test_tampered_partition_detected(self, four_points):
        model = fit(four_points, FitConfig(epsilon=0.0))
        rec = model.degrees[1]
        flipped = tuple("F" if t == "G" else "G" for t in rec.partition)
        object.__setattr__(rec, "partition", flipped)
        with pytest.raises(ValueError):
            model.validate()

    def test_parents_are_the_f_count_grid(self):
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(9, 3))
        model = fit(pts, FitConfig(epsilon=0.0, normalization=NormalizationKind.identity()))
        f = [rec.partition.count("F") for rec in model.degrees]
        assert model.parents(1) == (0, 1, 2)
        for t in range(2, model.max_degree + 1):
            want = tuple((i, j) for i in range(f[0]) for j in range(f[t - 2]))
            assert model.parents(t) == want
            assert len(want) == model.record(t).num_candidates
        with pytest.raises(IndexError):
            model.parents(model.max_degree + 1)

    @pytest.mark.parametrize("max_degree", [None, 1])
    def test_flipped_truncated_flag_refused(self, four_points, max_degree):
        model = fit(four_points, FitConfig(epsilon=0.0, max_degree=max_degree))
        model.validate()
        assert model.truncated == (max_degree == 1)
        flipped = dataclasses.replace(model, truncated=not model.truncated)
        with pytest.raises(ValueError, match=f"truncated is {flipped.truncated}, which disagrees"):
            flipped.validate()


@st.composite
def _fitted_cloud(draw):
    """A fit of a small random cloud under any of the four normalizations,
    with or without preprocessing, and the raw training points."""
    num_points = draw(st.integers(3, 8))
    num_vars = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.5, 1.5, size=(num_points, num_vars)) * 10.0 ** draw(st.integers(-2, 2))
    kinds = [
        NormalizationKind.identity(),
        NormalizationKind.coefficient(),
        NormalizationKind.gradient(),
        NormalizationKind.subsampled_gradient(
            draw(st.lists(st.integers(0, num_vars - 1), min_size=1, max_size=num_vars, unique=True)),
            draw(st.lists(st.integers(0, num_points - 1), min_size=1, max_size=num_points, unique=True)),
        ),
    ]
    config = FitConfig(
        epsilon=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        normalization=draw(st.sampled_from(kinds)),
        center=draw(st.booleans()),
        unit_mean_norm=draw(st.booleans()),
    )
    return fit(pts, config), pts


class TestReplayProperties:
    @settings(max_examples=60, deadline=None)
    @given(_fitted_cloud(), st.data())
    def test_handle_subset_is_exactly_the_matching_columns(self, fitted, data):
        model, pts = fitted
        everything = list(model.handles())
        # unordered, with duplicates, with or without the constant, or empty
        picks = data.draw(st.lists(st.integers(0, len(everything) - 1), max_size=2 * len(everything)))
        subset = [everything[i] for i in picks]
        probes = np.vstack([pts, np.random.default_rng(len(picks)).uniform(-2.0, 2.0, size=(5, model.num_vars))])

        all_values = evaluate(model, everything, probes)
        values = evaluate(model, subset, probes)
        assert values.shape == (probes.shape[0], len(subset))
        assert np.array_equal(values, all_values[:, picks])

        all_grads = gradient(model, everything, probes)
        grads = gradient(model, subset, probes)
        assert len(grads) == len(subset)
        for i, g in zip(picks, grads):
            assert np.array_equal(g, all_grads[i])

    @settings(max_examples=60, deadline=None)
    @given(_fitted_cloud())
    def test_training_replay_reproduces_eigvals_bit_for_bit(self, fitted):
        model, pts = fitted
        for t, rec in enumerate(model.degrees, start=1):
            handles = [PolyHandle(t, c, tag) for c, tag in enumerate(rec.partition)]
            # the fit takes these norms on a row-major block; einsum over
            # evaluate's column-major result may round differently
            block = np.ascontiguousarray(evaluate(model, handles, pts))
            assert np.array_equal(np.einsum("ij,ij->j", block, block), rec.eigvals)


class TestGradientFreeFits:
    @pytest.mark.parametrize("kind", [NormalizationKind.identity(), NormalizationKind.coefficient()])
    def test_non_gradient_fit_builds_no_gradients(self, kind, monkeypatch):
        pts = np.random.default_rng(5).uniform(-1.5, 1.5, size=(12, 3))
        expected = fit(pts, FitConfig(epsilon=0.01, normalization=kind))

        def forbidden(*args):
            raise AssertionError("a non-gradient fit propagated gradients")

        monkeypatch.setattr(avibasis.model, "_pair_grad", forbidden)
        with pytest.raises(AssertionError):  # the patched helper is on the fit's path
            fit(pts, FitConfig(epsilon=0.01, normalization=NormalizationKind.gradient()))
        model = fit(pts, FitConfig(epsilon=0.01, normalization=kind))
        assert model.max_degree >= 2
        for got, want in zip(model.degrees, expected.degrees, strict=True):
            assert got.partition == want.partition
            for name in ("eigvals", "eigvecs", "ortho_weights"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
