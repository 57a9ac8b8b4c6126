"""Diagnostics, dataset generators, tolerance search, feature extraction.

Covers the experiment-side machinery: consistency reports under translation
and scaling of the input, the max/min norm ratio of a basis under a chosen
normalization mapping, a linear search for a workable vanishing tolerance,
per-class feature vectors, and seeded samplers for benchmark varieties
(a polynomial system's by Gauss-Newton projection of a stream of starts,
in lockstep).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .densepoly import DensePolynomial, _compile, _evaluate
from .fit import (
    COEFFICIENT,
    FitConfig,
    GRADIENT,
    IDENTITY,
    NormalizationKind,
    SUBSAMPLED_GRADIENT,
    _fit_path,
    _prepare,
    _subsample,
    fit,
)
from .model import BasisModel, PointSet, Preprocessing, _as_points, evaluate, expand, gradient

__all__ = [
    "ConcentricEllipses",
    "PolynomialSystem",
    "CustomPoints",
    "DatasetSpec",
    "generate_dataset",
    "extract_features",
    "n_ratio",
    "EpsilonTarget",
    "EpsilonScanPoint",
    "EpsilonSearchResult",
    "epsilon_search",
    "default_epsilon_grid",
    "InvarianceReport",
    "invariance_report",
]


# -- dataset generation -------------------------------------------------------


def _check_finite(name: str, values) -> None:
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ConcentricEllipses:
    """Union of axis-ratio ellipses centered at the origin, then rotated.

    ``radii`` holds one ``(semi_axis_x, semi_axis_y)`` pair per ellipse.
    """

    radii: tuple[tuple[float, float], ...]
    rotation: float = 0.0

    def __post_init__(self) -> None:
        radii = tuple((float(a), float(b)) for a, b in self.radii)
        if not radii:
            raise ValueError("at least one ellipse is required")
        _check_finite("radii", radii)
        _check_finite("rotation", self.rotation)
        object.__setattr__(self, "radii", radii)


@dataclass(frozen=True, eq=False)
class PolynomialSystem:
    """Common zero set of a collection of polynomials."""

    polynomials: tuple[DensePolynomial, ...]

    def __post_init__(self) -> None:
        polys = tuple(self.polynomials)
        if not polys:
            raise ValueError("at least one polynomial is required")
        n = polys[0].num_vars
        if any(p.num_vars != n for p in polys):
            raise ValueError("polynomials must share the variable count")
        for p in polys:
            _check_finite("polynomial coefficients", list(p.terms.values()))
        object.__setattr__(self, "polynomials", polys)

    @property
    def num_vars(self) -> int:
        return self.polynomials[0].num_vars


@dataclass(frozen=True, eq=False)
class CustomPoints:
    """Explicitly provided base points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("custom points must be a non-empty 2-D array")
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True, eq=False)
class DatasetSpec:
    """Recipe for a sampled dataset.

    ``extra_linear_vars`` entries are either a scalar k (appending
    ``k*x0 + (1-k)*x1``) or a full weight vector over the base variables.
    Noise is Gaussian with standard deviation ``noise_std_fraction`` times
    the mean absolute coordinate value, added after mean-centering.
    """

    variety: ConcentricEllipses | PolynomialSystem | CustomPoints
    samples: int
    extra_linear_vars: tuple = ()
    noise_std_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 <= self.noise_std_fraction < math.inf:
            raise ValueError("noise_std_fraction must be finite and >= 0")
        object.__setattr__(self, "extra_linear_vars", tuple(self.extra_linear_vars))
        for weights in self.extra_linear_vars:
            _check_finite("extra_linear_vars", weights)


def _sample_ellipses(spec: ConcentricEllipses, samples: int, rng) -> np.ndarray:
    k = len(spec.radii)
    counts = [samples // k + (1 if i < samples % k else 0) for i in range(k)]
    rot = np.array(
        [
            [math.cos(spec.rotation), -math.sin(spec.rotation)],
            [math.sin(spec.rotation), math.cos(spec.rotation)],
        ]
    )
    chunks = []
    for (a, b), count in zip(spec.radii, counts):
        if count == 0:
            continue
        phi = rng.uniform(0.0, 2.0 * math.pi, size=count)
        pts = np.column_stack([a * np.cos(phi), b * np.sin(phi)])
        chunks.append(pts @ rot.T)
    return np.concatenate(chunks, axis=0)


def _project_to_variety(values: list, jacobian: list, starts: np.ndarray) -> list:
    """80 Gauss-Newton steps from each seed point towards the zero set, in
    lockstep.

    ``values`` is the system compiled by ``densepoly._compile`` and
    ``jacobian`` its partial derivatives, row by row.  Returns one outcome
    per start: the first iterate whose residuals are all within 1e-13,
    ``None`` when none of the 80 is, or the ``LinAlgError`` its solve raised.
    Each step evaluates the starts one by one, then solves their least
    squares with one stacked SVD, with the bits of ``linalg._lstsq_weights``:
    the products take its operand layouts, and a start whose solve drops a
    singular value or meets a non-finite value goes through it.  Norms are
    ``sqrt(v . v)``, the arithmetic ``np.linalg.norm`` uses on a vector.
    """
    outcomes: list = [None] * len(starts)
    live, x = np.arange(len(starts)), starts
    for _ in range(80):
        rows, res, jac = [], [], []
        for row, (i, point) in enumerate(zip(live.tolist(), x.tolist())):
            r = _evaluate(values, point)
            if all(abs(v) <= 1e-13 for v in r):  # False on NaN, as the max is
                outcomes[i] = x[row]
                continue
            rows.append(row)
            res.append(r)
            jac.append(_evaluate(jacobian, point))
        if not rows:
            break
        live, x = live[rows], x[rows]
        y = -np.array(res)[:, :, None]
        jac = np.array(jac).reshape(len(rows), y.shape[1], x.shape[1])
        stacked = np.flatnonzero(np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2)))
        try:
            u, s, vt = np.linalg.svd(jac[stacked], full_matrices=False)
        except np.linalg.LinAlgError:  # one start's failure: each meets its own below
            stacked = stacked[:0]
            u, s, vt = np.linalg.svd(jac[stacked], full_matrices=False)
        full = (s[:, 0] > 0.0) & (s > linalg.RANK_TOL * s[:, :1]).all(axis=1)
        stacked, u, s, vt = stacked[full], u[full], s[full], vt[full]
        step = np.zeros_like(x)
        # u's transpose C-contiguous and vt's F-contiguous, as the copies
        # ``u[:, keep].T`` and ``vt[keep].T`` are in ``_lstsq_weights``
        coeff = (np.ascontiguousarray(u.transpose(0, 2, 1)) @ y[stacked]) / s[:, :, None]
        step[stacked] = (vt.transpose(0, 2, 1) @ coeff)[:, :, 0]
        single, ok = np.ones(len(rows), dtype=bool), np.ones(len(rows), dtype=bool)
        single[stacked] = False
        for row in np.flatnonzero(single).tolist():
            try:
                step[row] = linalg._lstsq_weights(jac[row], y[row])[:, 0]
            except np.linalg.LinAlgError as exc:  # raised when the sampler reaches this start
                outcomes[live[row]] = exc
                ok[row] = False
        limit = 1.0 + np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
        norm = np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0])
        over = norm > limit
        step[over] *= (limit[over] / norm[over])[:, None]
        live, x = live[ok], (x + step)[ok]
    return outcomes


def _sample_polynomial_system(system: PolynomialSystem, samples: int, rng) -> np.ndarray:
    """Project a stream of standard-normal seed points onto the zero set,
    with the system and its Jacobian compiled once.

    Each point is the first start of its run whose 80 steps converge; a
    start that does not is replaced by the next one in the stream, and 25
    such starts in a row fail the sampler.  A start's steps depend only on
    the start, so each round projects exactly as many new starts as points
    are missing, together: the rng ends where a point-by-point loop leaves
    it, and the points are that loop's, bit for bit.
    """
    values = _compile(system.polynomials)
    jacobian = _compile([g for p in system.polynomials for g in p.gradient()])
    points: list = []
    failures = 0
    while len(points) < samples:
        starts = rng.standard_normal((samples - len(points), system.num_vars))
        for outcome in _project_to_variety(values, jacobian, starts):
            if isinstance(outcome, Exception):
                raise outcome
            if outcome is not None:
                points.append(outcome)
                failures = 0
                continue
            failures += 1
            if failures == 25:
                raise RuntimeError("projection onto the variety failed to converge")
    return np.array(points)


def generate_dataset(spec: DatasetSpec) -> PointSet:
    """Sample a dataset per the recipe: variety points, appended linear
    mixture variables, mean-centering, then optional Gaussian noise.

    Fully deterministic for a given seed.  The returned PointSet records
    the centering vector, so pre-centering coordinates are recoverable.
    """
    rng = np.random.default_rng(spec.seed)
    variety = spec.variety
    if isinstance(variety, ConcentricEllipses):
        base = _sample_ellipses(variety, spec.samples, rng)
    elif isinstance(variety, PolynomialSystem):
        base = _sample_polynomial_system(variety, spec.samples, rng)
    elif isinstance(variety, CustomPoints):
        if variety.points.shape[0] != spec.samples:
            raise ValueError("custom points row count must equal the sample count")
        base = variety.points.copy()
    else:
        raise ValueError(f"unknown variety {type(variety).__name__}")

    columns = [base]
    for weights in spec.extra_linear_vars:
        if np.ndim(weights) == 0:
            if base.shape[1] < 2:
                raise ValueError("scalar mixture weights need at least two base variables")
            k = float(weights)
            col = k * base[:, 0] + (1.0 - k) * base[:, 1]
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (base.shape[1],):
                raise ValueError("mixture weight vector length must match the base dimension")
            col = base @ w
        columns.append(col[:, None])
    pts = np.concatenate(columns, axis=1)

    center = pts.mean(axis=0)
    pts = pts - center
    if spec.noise_std_fraction > 0:
        sigma = spec.noise_std_fraction * float(np.abs(pts).mean())
        if sigma > 0:
            pts = pts + rng.normal(0.0, sigma, size=pts.shape)
    return PointSet(pts, Preprocessing(center=center))


# -- feature extraction -------------------------------------------------------


def extract_features(class_models: list[BasisModel], x) -> np.ndarray:
    """Concatenated absolute values of every class's vanishing polynomials,
    class by class, degree-ascending within each class.

    A point ``(vars,)`` gives ``(features,)``; a matrix ``(points, vars)``
    gives ``(points, features)`` from one ``evaluate`` per model.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2):
        raise ValueError("expected a point (1-D array) or points (2-D array)")
    points = x if x.ndim == 2 else x[None, :]
    blocks = [np.zeros((len(points), 0))]
    for model in class_models:
        if model.num_vars != points.shape[1]:
            raise ValueError(
                f"model expects {model.num_vars} variables, point has {points.shape[1]}"
            )
        handles = model.g_handles()
        if handles:
            blocks.append(np.abs(evaluate(model, handles, points)))
    features = np.concatenate(blocks, axis=1)
    return features if x.ndim == 2 else features[0]


# -- norm-ratio metric --------------------------------------------------------


def n_ratio(model: BasisModel, kind: NormalizationKind, points=None) -> float:
    """Max/min norm of the vanishing polynomials under a chosen mapping.

    Gradient-based mappings measure stacked gradient evaluations and
    require the point set; the coefficient mapping measures coefficient
    vectors; the identity mapping measures combination vectors.  A zero
    minimum norm yields ``inf``.
    """
    handles = model.g_handles()
    if not handles:
        raise ValueError("the model has no vanishing polynomials")
    if kind.variant in (GRADIENT, SUBSAMPLED_GRADIENT):
        if points is None:
            raise ValueError("gradient norms require the point set")
        grads = gradient(model, handles, points)
        if kind.variant == SUBSAMPLED_GRADIENT:
            grads = [_subsample(g, kind) for g in grads]
        norms = [float(np.linalg.norm(g)) for g in grads]
    elif kind.variant == COEFFICIENT:
        norms = [expand(model, h).coefficient_norm() for h in handles]
    elif kind.variant == IDENTITY:
        norms = [
            float(np.linalg.norm(model.record(h.degree).eigvecs[:, h.column]))
            for h in handles
        ]
    else:  # pragma: no cover - NormalizationKind validates variants
        raise ValueError(f"unsupported mapping {kind.variant!r}")
    low, high = min(norms), max(norms)
    if low <= 1e-12 * high:  # numerically zero minimum
        return math.inf
    return high / low


# -- epsilon search -----------------------------------------------------------


@dataclass(frozen=True)
class EpsilonTarget:
    """Shape the vanishing set must have for a tolerance to qualify:
    exactly ``num_linear`` degree-1 polynomials, none of degrees
    2..d_min-1, and at least ``num_at_dmin`` at degree ``d_min``."""

    num_linear: int
    d_min: int
    num_at_dmin: int

    def __post_init__(self) -> None:
        if self.num_linear < 0 or self.num_at_dmin < 0:
            raise ValueError("counts must be >= 0")
        if self.d_min < 2:
            raise ValueError("d_min is the lowest nonlinear degree and must be >= 2")


@dataclass(frozen=True, eq=False)
class EpsilonScanPoint:
    """One grid tolerance of a search.  ``g_counts`` holds the G counts of
    the degrees the search stepped at this tolerance: the leading entries
    of the full fit's counts, up to ``d_min`` or to the first degree that
    rules the target out."""

    epsilon: float
    g_counts: tuple[int, ...]
    satisfied: bool


@dataclass(frozen=True, eq=False)
class EpsilonSearchResult:
    found: bool
    epsilon: float | None
    lower: float | None
    upper: float | None
    trace: tuple[EpsilonScanPoint, ...]


@functools.lru_cache(maxsize=8)
def _unit_grid(count: int) -> np.ndarray:
    """``np.geomspace(1e-4, 1.0, count)``, computed once per count and
    read-only, as every caller shares it."""
    grid = np.geomspace(1e-4, 1.0, count)
    grid.flags.writeable = False
    return grid


def default_epsilon_grid(points, count: int = 60) -> np.ndarray:
    """Log-spaced tolerance grid spanning 1e-4..1 times the mean point norm."""
    pts = _as_points(points)
    scale = float(np.linalg.norm(pts, axis=1).mean())
    if scale <= 0:
        scale = 1.0
    return _unit_grid(count) * scale


def _satisfies(degrees, target: EpsilonTarget) -> tuple[tuple[int, ...], bool]:
    """The G counts of the records ``degrees`` and whether they have the
    target's shape."""
    g_counts = tuple(rec.partition.count("G") for rec in degrees)
    def g_at(degree: int) -> int:
        return g_counts[degree - 1] if degree <= len(g_counts) else 0
    ok = g_at(1) == target.num_linear
    ok = ok and all(g_at(t) == 0 for t in range(2, target.d_min))
    ok = ok and g_at(target.d_min) >= target.num_at_dmin
    return g_counts, ok


def _descend(target: EpsilonTarget, path) -> bool:
    """Whether a degree below the records ``path`` could still change the
    target's ``satisfied`` flag: only the one prefix with ``num_linear`` G
    at degree 1 and none above, so the prefixes stepped form a chain."""
    g_counts = [rec.partition.count("G") for rec in path]
    return len(path) < target.d_min and g_counts[0] == target.num_linear and not any(g_counts[1:])


def epsilon_search(
    points,
    target: EpsilonTarget,
    normalization: NormalizationKind | None = None,
    grid=None,
) -> EpsilonSearchResult:
    """Linear scan for tolerances whose basis matches the target shape.

    Fits every grid value down one chain of shared degree-steps, each run
    once (degree t depends on the tolerance only through the F/G splits
    below it).  The target reads degrees 1..d_min only, so the chain is
    stepped no deeper than ``d_min`` and not below a prefix that already
    misses the target, which leaves one prefix per degree.  So the search
    takes no degree cap: one could change a result only by stopping below
    ``d_min``.  The target is read once per group of grid values whose
    fits end with the same records, and no model is built; each grid
    value's ``satisfied`` flag is the one the full (uncapped) fit at that
    tolerance gives, and its ``g_counts`` cover the degrees stepped.
    Finds the longest contiguous run of satisfying tolerances ``(eps_1,
    eps_2)`` and reports their midpoint.  When nothing on the grid
    qualifies the result carries ``found=False`` and the full scan trace.
    """
    normalization = normalization or NormalizationKind.gradient()
    grid = default_epsilon_grid(points) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0 or not np.all(grid > 0):
        raise ValueError("the tolerance grid must be positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("the tolerance grid must be strictly increasing")

    config = FitConfig(normalization=normalization)
    epsilons = [float(eps) for eps in grid]

    _, pts, m = _prepare(points, config)
    trace: list = [None] * len(epsilons)
    for indices, degrees, _ in _fit_path(pts, m, config, epsilons, lambda path: _descend(target, path)):
        g_counts, ok = _satisfies(degrees, target)
        for i in indices:
            trace[i] = EpsilonScanPoint(epsilons[i], g_counts, ok)
    flags = [point.satisfied for point in trace]

    best_start, best_len = -1, 0
    run_start = None
    for i, ok in enumerate(list(flags) + [False]):
        if ok and run_start is None:
            run_start = i
        elif not ok and run_start is not None:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = None
    if best_len == 0:
        return EpsilonSearchResult(False, None, None, None, tuple(trace))
    lower = float(grid[best_start])
    upper = float(grid[best_start + best_len - 1])
    return EpsilonSearchResult(True, (lower + upper) / 2.0, lower, upper, tuple(trace))


# -- translation / scaling consistency ---------------------------------------


@dataclass(frozen=True, eq=False)
class InvarianceReport:
    """Consistency of a gradient-normalized fit under input transforms.

    Counts and eigenvalues are compared degree by degree across the base
    fit, the fit on translated points, and the fit on scaled points (with
    a linearly scaled tolerance).  Polynomials are never matched one by
    one -- eigenvector sign and degenerate rotations are free -- so
    subspace gaps are measured as principal angles between evaluation
    blocks on a shared probe set.
    """

    alpha: float
    translation: np.ndarray
    epsilon: float
    base_counts: tuple[tuple[int, int], ...]
    translated_counts: tuple[tuple[int, int], ...]
    scaled_counts: tuple[tuple[int, int], ...]
    eigenvalue_ratios: tuple[tuple[float, ...], ...]
    translation_eigenvalue_ratios: tuple[tuple[float, ...], ...]
    subspace_gaps: tuple[dict, ...]
    max_eval_discrepancy: float

    @property
    def counts_match(self) -> bool:
        return self.base_counts == self.translated_counts == self.scaled_counts


def _pad_counts(counts: tuple, length: int) -> tuple:
    return counts + ((0, 0),) * (length - len(counts))


def _block_gap(
    base_block: np.ndarray, q: np.ndarray, other_block: np.ndarray
) -> tuple[float, float]:
    """(max principal angle, relative out-of-span energy) between blocks,
    given ``q``, the orthonormal basis of ``base_block``."""
    if base_block.shape[1] == 0 and other_block.shape[1] == 0:
        return 0.0, 0.0
    if base_block.shape[1] == 0 or other_block.shape[1] == 0:
        return math.nan, math.nan
    angles = linalg.principal_angles(q, linalg.orthonormal_basis(other_block))
    out = other_block - q @ (q.T @ other_block)
    denom = float(np.linalg.norm(other_block))
    energy = float(np.linalg.norm(out)) / denom if denom > 0 else 0.0
    gap = float(angles.max()) if angles.size else 0.0
    return gap, energy


def _blocks(model: BasisModel, eval_points) -> dict:
    """(degree, kind) -> the evaluation block of those handles at
    ``eval_points``, all from one replay of ``model``."""
    handles = model.handles()
    values = evaluate(model, handles, eval_points)
    columns: dict = {}
    for c, h in enumerate(handles):
        columns.setdefault((h.degree, h.kind), []).append(c)
    # row-major (``evaluate`` returns column-major): the layout whose bits
    # the subspace comparisons' BLAS and LAPACK calls keep
    return {key: np.ascontiguousarray(values[:, cols]) for key, cols in columns.items()}


def _eig_ratios(
    lam_other: np.ndarray,
    lam_base: np.ndarray,
    factor: float,
    base_scale: float,
    other_scale: float,
) -> tuple[float, ...]:
    """Ratios other/base for eigenvalues above a relative floor.

    ``factor`` is the expected ratio.  The floor is relative to the
    model-wide largest eigenvalue, which keeps fully vanished directions
    (whose eigenvalues are pure roundoff) out of the comparison.
    """
    size = min(lam_other.size, lam_base.size)
    if size == 0:
        return ()
    floor = 1e-12 * max(base_scale, other_scale / factor, 1e-300)
    out = []
    for i in range(size):
        if lam_base[i] > floor and lam_other[i] > floor * factor:
            out.append(float(lam_other[i] / lam_base[i]))
    return tuple(out)


def _model_eig_scale(model: BasisModel) -> float:
    return max(
        (float(rec.eigvals.max()) for rec in model.degrees if rec.eigvals.size),
        default=0.0,
    )


def invariance_report(
    points,
    b,
    alpha: float,
    epsilon: float,
    probe_count: int = 40,
    seed: int = 0,
) -> InvarianceReport:
    """Fit (X, eps), (X - b, eps), (alpha X, |alpha| eps) with gradient
    normalization and report per-degree counts, eigenvalue ratios (scaling
    should give alpha^2, translation should give 1), and evaluation
    subspace gaps on a shared probe set of ``probe_count`` points.
    ``alpha`` must be finite and nonzero and ``probe_count`` at least 1."""
    if not math.isfinite(alpha) or alpha == 0:
        raise ValueError(f"alpha must be finite and nonzero, got {alpha!r}")
    if probe_count < 1:
        raise ValueError(f"probe_count must be >= 1, got {probe_count!r}")
    pts = _as_points(points)
    b = np.asarray(b, dtype=float)
    if b.shape != (pts.shape[1],):
        raise ValueError("translation vector dimension mismatch")

    kind = NormalizationKind.gradient()
    base = fit(pts, FitConfig(epsilon=epsilon, normalization=kind))
    translated = fit(pts - b, FitConfig(epsilon=epsilon, normalization=kind))
    scaled = fit(alpha * pts, FitConfig(epsilon=abs(alpha) * epsilon, normalization=kind))

    rng = np.random.default_rng(seed)
    spread = np.maximum(pts.std(axis=0), 1e-2 * (float(np.abs(pts).mean()) + 1.0))
    probes = pts.mean(axis=0) + rng.standard_normal((probe_count, pts.shape[1])) * (1.25 * spread)

    length = max(base.max_degree, translated.max_degree, scaled.max_degree)
    base_scale = _model_eig_scale(base)
    scaled_scale = _model_eig_scale(scaled)
    translated_scale = _model_eig_scale(translated)
    replays = [_blocks(base, probes), _blocks(translated, probes - b), _blocks(scaled, alpha * probes)]
    empty = np.zeros((probe_count, 0))
    gaps = []
    ratios_scaled = []
    ratios_translated = []
    discrepancy = 0.0
    for t in range(1, length + 1):
        entry: dict = {"degree": t}
        lam_b = base.record(t).eigvals if t <= base.max_degree else np.zeros(0)
        lam_s = scaled.record(t).eigvals if t <= scaled.max_degree else np.zeros(0)
        lam_tr = translated.record(t).eigvals if t <= translated.max_degree else np.zeros(0)
        ratios_scaled.append(_eig_ratios(lam_s, lam_b, alpha * alpha, base_scale, scaled_scale))
        ratios_translated.append(
            _eig_ratios(lam_tr, lam_b, 1.0, base_scale, translated_scale)
        )
        for kind_tag in ("F", "G"):
            base_block, tr_block, sc_block = (blocks.get((t, kind_tag), empty) for blocks in replays)
            q = linalg.orthonormal_basis(base_block) if base_block.shape[1] else None
            gap_tr, energy_tr = _block_gap(base_block, q, tr_block)
            gap_sc, energy_sc = _block_gap(base_block, q, sc_block)
            entry[f"{kind_tag}_translation"] = gap_tr
            entry[f"{kind_tag}_scaling"] = gap_sc
            for energy in (energy_tr, energy_sc):
                if not math.isnan(energy):
                    discrepancy = max(discrepancy, energy)
        gaps.append(entry)

    return InvarianceReport(
        alpha=float(alpha),
        translation=b,
        epsilon=float(epsilon),
        base_counts=_pad_counts(base.degree_counts(), length),
        translated_counts=_pad_counts(translated.degree_counts(), length),
        scaled_counts=_pad_counts(scaled.degree_counts(), length),
        eigenvalue_ratios=tuple(ratios_scaled),
        translation_eigenvalue_ratios=tuple(ratios_translated),
        subspace_gaps=tuple(gaps),
        max_eval_discrepancy=discrepancy,
    )
