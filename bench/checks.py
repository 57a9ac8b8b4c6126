"""Correctness checks applied to every benchmarked operation's output.

Each check raises ``CheckError`` with a one-line reason; the runner counts
the operation as failed and the run goes on.  Checks run outside the timed
region and outside tracing.
"""

from __future__ import annotations

import numpy as np

# |p(x) - g(x)| for an expanded polynomial p against the replayed value g,
# relative to sum_e |c_e| * |x^e| (the magnitude that cancels in p(x)).
EXPAND_RTOL = 1e-9
# Replays of a few rows alone against the same rows of a large batch:
# matrix products may block differently, so bit equality is not promised.
ROW_RTOL = 1e-9
# Central differences of the replayed values against the replayed gradient.
FD_STEP = 1e-5
FD_RTOL = 1e-4


class CheckError(Exception):
    """An operation's output is wrong."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


def check_fit(api, model, points: np.ndarray, epsilon: float, pinned=None) -> None:
    """Structural, numerical and (on pinned inputs) exact-count checks of a fit.

    - the model passes ``validate()``;
    - degree by degree, the stored eigenvalues equal, bit for bit, the squared
      column norms of ``evaluate`` at the training points;
    - every vanishing polynomial has training evaluation norm <= epsilon;
    - total |F| (constant included) <= number of points;
    - ``degree_counts()`` equals ``pinned`` when given.
    """
    model.validate()
    values = api.model.evaluate(model, model.handles(), points)
    column = 1  # column 0 is the constant
    for t, rec in enumerate(model.degrees, start=1):
        block = np.ascontiguousarray(values[:, column:column + rec.num_outputs])
        column += rec.num_outputs
        norms2 = np.einsum("ij,ij->j", block, block)
        require(np.array_equal(norms2, rec.eigvals),
                f"degree {t}: stored eigenvalues differ from replayed norms")
        g_cols = rec.columns("G")
        if g_cols.size:
            worst = float(np.sqrt(norms2[g_cols].max()))
            require(worst <= epsilon, f"degree {t}: G norm {worst:.3g} > epsilon {epsilon:.3g}")
    num_f = len(model.f_handles())
    require(num_f <= points.shape[0], f"|F| = {num_f} exceeds |X| = {points.shape[0]}")
    if pinned is not None:
        require(model.degree_counts() == pinned,
                f"degree counts {model.degree_counts()} differ from the pinned {pinned}")


def check_rows(api, model, handles, points: np.ndarray, values: np.ndarray, rows) -> None:
    """Finite values of the right shape; sampled rows match a small replay."""
    require(values.shape == (points.shape[0], len(handles)), f"value shape {values.shape}")
    require(np.isfinite(values).all(), "non-finite values")
    rows = np.asarray(rows)
    again = api.model.evaluate(model, handles, points[rows])
    scale = max(1.0, float(np.abs(again).max()))
    err = float(np.abs(again - values[rows]).max())
    require(err <= ROW_RTOL * scale, f"batch rows differ from a small replay by {err:.3g}")


def check_gradients(api, model, handles, points: np.ndarray, grads, rows) -> None:
    """Finite gradients of the right shape that match central differences of
    ``evaluate`` at the sampled rows."""
    n = model.num_vars
    require(len(grads) == len(handles), "one gradient per handle expected")
    for g in grads:
        require(g.shape == (points.shape[0], n), f"gradient shape {g.shape}")
        require(np.isfinite(g).all(), "non-finite gradient")
    for row in rows:
        x = points[row]
        h = FD_STEP * max(1.0, float(np.abs(x).max()))
        probes = np.concatenate([x + h * np.eye(n), x - h * np.eye(n)])
        values = api.model.evaluate(model, handles, probes)
        fd = (values[:n] - values[n:]) / (2.0 * h)  # (vars, handles)
        exact = np.stack([g[row] for g in grads], axis=1)
        scale = max(1.0, float(np.abs(exact).max()))
        err = float(np.abs(fd - exact).max())
        require(err <= FD_RTOL * scale, f"gradient differs from central differences by {err:.3g}")


def check_reduction(model, report, kept_count=None) -> None:
    """Kept, removed and rank-deflated handles partition the G handles."""
    g = list(model.g_handles())
    parts = list(report.kept) + [r.handle for r in report.removed] + list(report.deflation_victims())
    require(len(parts) == len(set(parts)), "a handle appears twice in the reduction report")
    require(set(parts) == set(g), "reduction report does not partition the G handles")
    for removed in report.removed:
        require(removed.max_residual <= report.threshold, "a removed polynomial exceeds the threshold")
    if kept_count is not None:
        require(len(report.kept) == kept_count,
                f"kept {len(report.kept)} of {len(g)}, pinned {kept_count}")


def check_expansions(api, model, handles, polys, points: np.ndarray) -> None:
    """Each expansion evaluated at the points matches the replayed values."""
    require(len(polys) == len(handles), "one expansion per handle expected")
    values = api.model.evaluate(model, handles, points)
    magnitude_points = np.abs(points)
    for j, poly in enumerate(polys):
        absolute = api.densepoly.DensePolynomial(
            poly.num_vars, {e: abs(float(c)) for e, c in poly.terms.items()})
        scale = absolute.evaluate(magnitude_points)
        err = np.abs(poly.evaluate(points) - values[:, j])
        require(bool(np.all(err <= EXPAND_RTOL * np.maximum(scale, 1e-300))),
                f"expansion of {handles[j].label()} differs from evaluate by {err.max():.3g}")


def g_counts_satisfy(model, target) -> bool:
    """Whether the model's vanishing counts have the target shape."""
    g = [count for count, _ in model.degree_counts()]

    def at(degree: int) -> int:
        return g[degree - 1] if degree <= len(g) else 0

    return (at(1) == target.num_linear
            and all(at(t) == 0 for t in range(2, target.d_min))
            and at(target.d_min) >= target.num_at_dmin)


def check_search(result, model, target) -> None:
    require(result.found, "epsilon search found no tolerance")
    require(result.lower <= result.epsilon <= result.upper, "chosen epsilon outside its interval")
    require(g_counts_satisfy(model, target), "the fit at the chosen epsilon misses the target")


def check_invariance(report, rtol: float = 1e-6) -> None:
    """Counts agree across the transforms and eigenvalues scale as predicted."""
    require(report.counts_match, "per-degree counts differ under translation or scaling")
    expected = report.alpha ** 2
    for ratios, want in ((report.eigenvalue_ratios, expected),
                         (report.translation_eigenvalue_ratios, 1.0)):
        for r in (r for degree in ratios for r in degree):
            require(abs(r - want) <= rtol * want, f"eigenvalue ratio {r:.9g}, expected {want:.9g}")
    require(report.max_eval_discrepancy <= rtol,
            f"evaluation discrepancy {report.max_eval_discrepancy:.3g}")


def check_saved_roundtrip(api, path: str, scratch_path: str) -> None:
    """load -> save reproduces the saved file byte for byte."""
    model, report = api.model_io.load_model(path)
    api.model_io.save_model(scratch_path, model, report)
    with open(path, "rb") as a, open(scratch_path, "rb") as b:
        require(a.read() == b.read(), f"{path}: save -> load -> save is not byte-identical")
