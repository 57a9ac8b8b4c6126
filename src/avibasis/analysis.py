"""Diagnostics, dataset generators, tolerance search, feature extraction.

Covers the experiment-side machinery: consistency reports under translation
and scaling of the input, the max/min norm ratio of a basis under a chosen
normalization mapping, a linear search for a workable vanishing tolerance,
per-class feature vectors, and seeded samplers for benchmark varieties
(a polynomial system's by Gauss-Newton projection of a stream of starts,
in lockstep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from . import linalg
from .densepoly import DensePolynomial, _compile, _evaluate
from .fit import (
    COEFFICIENT,
    FitConfig,
    NormalizationKind,
    SUBSAMPLED_GRADIENT,
    _fit_path,
    _prepare,
    _subsample,
    fit,
)
from .model import BasisModel, PointSet, Preprocessing, _as_points, _as_slice, evaluate, expand, gradient

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


@dataclass(frozen=True)
class ConcentricEllipses:
    """Union of axis-ratio ellipses centered at the origin, then rotated.

    ``radii`` holds one ``(semi_axis_x, semi_axis_y)`` pair per ellipse.
    """

    radii: tuple[tuple[float, float], ...]
    rotation: float = 0.0
    num_vars = 2

    def __post_init__(self) -> None:
        radii = tuple((float(a), float(b)) for a, b in self.radii)
        if not radii:
            raise ValueError("at least one ellipse is required")
        linalg._require_finite("radii must be finite", radii)
        linalg._require_finite("rotation must be finite", self.rotation)
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
            linalg._require_finite("polynomial coefficients must be finite", list(p.terms.values()))
        object.__setattr__(self, "polynomials", polys)

    @property
    def num_vars(self) -> int:
        return self.polynomials[0].num_vars


@dataclass(frozen=True, eq=False)
class CustomPoints:
    """Explicitly provided base points, checked by PointSet's rule."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _as_points(self.points))

    @property
    def num_vars(self) -> int:
        return self.points.shape[1]


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
        for name in ("samples", "seed"):
            object.__setattr__(self, name, linalg._integer(name, getattr(self, name)))
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.noise_std_fraction < math.inf:
            raise ValueError("noise_std_fraction must be finite and >= 0")
        if isinstance(self.variety, CustomPoints) and self.variety.points.shape[0] != self.samples:
            raise ValueError("samples must equal the row count of the custom points")
        object.__setattr__(self, "extra_linear_vars", tuple(self.extra_linear_vars))
        for weights in self.extra_linear_vars:
            linalg._require_finite("extra_linear_vars must be finite", weights)
            if np.shape(weights) not in ((), (self.variety.num_vars,)):
                raise ValueError("extra_linear_vars: a weight vector's length must match the base dimension")
            if np.ndim(weights) == 0 and self.variety.num_vars < 2:
                raise ValueError("extra_linear_vars: scalar mixture weights need at least two base variables")


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
    per start: the first iterate whose residuals are all within 1e-13, or
    ``None`` when none of the 80 is or a residual or Jacobian entry on the
    way is not finite.  Each step evaluates the starts one by one, then
    solves their least squares as one stack with ``linalg._lstsq_weights``,
    each start with the bits of its own solve.  Norms are ``sqrt(v . v)``,
    the arithmetic ``np.linalg.norm`` uses on a vector.
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
        y = -np.array(res)[:, :, None]
        jac = np.array(jac).reshape(len(rows), y.shape[1], x.shape[1])
        finite = np.isfinite(jac).all(axis=(1, 2)) & np.isfinite(y).all(axis=(1, 2))  # else a failed start
        live, x, y, jac = live[rows][finite], x[rows][finite], y[finite], jac[finite]
        step = linalg._lstsq_weights(jac, y)[:, :, 0]
        limit = 1.0 + np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
        norm = np.sqrt((step[:, None, :] @ step[:, :, None])[:, 0, 0])
        over = norm > limit
        step[over] *= (limit[over] / norm[over])[:, None]
        x = x + step
    return outcomes


@np.errstate(over="ignore", invalid="ignore")  # a non-finite residual is a failed start
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
    the centering vector: ``points + preprocessing.center`` undoes the
    centering (not the noise).
    """
    rng = np.random.default_rng(spec.seed)
    variety = spec.variety
    if isinstance(variety, ConcentricEllipses):
        base = _sample_ellipses(variety, spec.samples, rng)
    elif isinstance(variety, PolynomialSystem):
        base = _sample_polynomial_system(variety, spec.samples, rng)
    elif isinstance(variety, CustomPoints):
        base = variety.points.copy()
    else:
        raise ValueError(f"unknown variety {type(variety).__name__}")

    columns = [base]
    for weights in spec.extra_linear_vars:
        if np.ndim(weights) == 0:
            k = float(weights)
            col = k * base[:, 0] + (1.0 - k) * base[:, 1]
        else:
            col = base @ np.asarray(weights, dtype=float)
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


@linalg._overflow_trap("measuring norms: the points are too large for the model's products")
def n_ratio(model: BasisModel, kind: NormalizationKind, points=None) -> float:
    """Max/min norm of the vanishing polynomials under a chosen mapping.

    Gradient-based mappings measure stacked gradient evaluations and
    require the point set, which PointSet's rule checks; the coefficient
    mapping measures coefficient vectors, the identity mapping combination
    vectors.  ``inf`` when ``linalg._significant`` cuts the minimum norm."""
    handles = model.g_handles()
    if not handles:
        raise ValueError("the model has no vanishing polynomials")
    if kind.uses_gradients:
        if points is None:
            raise ValueError("gradient norms require the point set")
        grads = gradient(model, handles, _as_points(points))
        if kind.variant == SUBSAMPLED_GRADIENT:
            grads = [_subsample(g, kind) for g in grads]
        norms = [float(np.linalg.norm(g)) for g in grads]
    elif kind.variant == COEFFICIENT:
        norms = [expand(model, h).coefficient_norm() for h in handles]
    else:  # identity: NormalizationKind admits no other variant
        norms = [
            float(np.linalg.norm(model.record(h.degree).eigvecs[:, h.column]))
            for h in handles
        ]
    low, high = min(norms), max(norms)
    if not linalg._significant(low, high):  # numerically zero minimum
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
        for name in ("num_linear", "d_min", "num_at_dmin"):
            object.__setattr__(self, name, linalg._integer(name, getattr(self, name)))
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


def default_epsilon_grid(points, count: int = 60) -> np.ndarray:
    """Log-spaced tolerance grid spanning 1e-4..1 times the mean point norm."""
    pts = _as_points(points)
    scale = linalg._mean_norm(pts)
    if scale <= 0:
        scale = 1.0
    return np.geomspace(1e-4, 1.0, count) * scale


def _satisfies(degrees, target: EpsilonTarget) -> tuple[tuple[int, ...], bool]:
    """The G counts of the records ``degrees`` and whether they have the
    target's shape."""
    g_counts = tuple(rec.partition.count("G") for rec in degrees)
    g_at = g_counts + (0,) * target.d_min  # degree t's count at t - 1, 0 past the last degree
    return g_counts, (g_at[0] == target.num_linear and not any(g_at[1:target.d_min - 1])
                      and g_at[target.d_min - 1] >= target.num_at_dmin)


def _descend(target: EpsilonTarget, path) -> bool:
    """Whether a degree below the records ``path`` could still change the
    target's ``satisfied`` flag: only the one prefix with ``num_linear`` G
    at degree 1 and none above, so the prefixes stepped form a chain."""
    return (len(path) < target.d_min and path[0].partition.count("G") == target.num_linear
            and all("G" not in rec.partition for rec in path[1:]))


@linalg._overflow_trap("searching: the points are too large for fits without preprocessing")
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
    if grid.ndim != 1:
        raise ValueError("the tolerance grid must be one-dimensional")
    if grid.size == 0 or not ((grid > 0) & (grid < np.inf)).all():
        raise ValueError("the tolerance grid must be positive and finite")
    if (grid[1:] - grid[:-1] <= 0).any():
        raise ValueError("the tolerance grid must be strictly increasing")

    config = FitConfig(normalization=normalization)
    epsilons = grid.tolist()

    _, pts, m = _prepare(points, config)
    trace: list = [None] * len(epsilons)
    for indices, degrees, _ in _fit_path(pts, m, config, epsilons, lambda path: _descend(target, path)):
        g_counts, ok = _satisfies(degrees, target)
        for i in indices:
            trace[i] = EpsilonScanPoint(epsilons[i], g_counts, ok)

    best: tuple = ()  # the first of the longest runs of satisfying tolerances
    for ok, run in groupby(trace, attrgetter("satisfied")):
        run = tuple(run)
        if ok and len(run) > len(best):
            best = run
    if not best:
        return EpsilonSearchResult(False, None, None, None, tuple(trace))
    lower, upper = best[0].epsilon, best[-1].epsilon
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


def _blocks(model: BasisModel, eval_points) -> dict:
    """(degree, kind) -> the evaluation block of those handles at
    ``eval_points``, all from one replay of ``model``."""
    handles = model.handles()
    values = evaluate(model, handles, eval_points)
    columns: dict = {}
    for c, h in enumerate(handles):
        columns.setdefault((h.degree, h.kind), []).append(c)
    # row-major (``evaluate`` returns column-major): the layout whose bits
    # the subspace comparisons' BLAS and LAPACK calls keep.  A block's
    # handles are consecutive when its degree's F and G columns are, so it
    # is a column slice and this copy the only one; a copy even of a
    # one-column slice, which is C-contiguous already, so that no block is
    # a view that keeps the whole matrix alive.
    return {key: np.array(values[:, _as_slice(cols)], order="C") for key, cols in columns.items()}


@linalg._overflow_trap("diagnosing: the points are too large for fits without preprocessing")
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
    subspace gaps on ``probe_count`` shared probe points, drawn from ``seed``
    (both integers).  ``alpha`` must be finite and nonzero, ``probe_count`` >= 1.
    Eigenvalues count where ``linalg._significant`` counts them against the
    larger of the two models' largest (pure roundoff stays out); a gap is
    NaN when a block exists on one side only, 0 on neither."""
    if not math.isfinite(alpha) or alpha == 0:
        raise ValueError(f"alpha must be finite and nonzero, got {alpha!r}")
    probe_count = linalg._integer("probe_count", probe_count)
    if probe_count < 1:
        raise ValueError(f"probe_count must be >= 1, got {probe_count!r}")
    pts = _as_points(points)
    b = np.asarray(b, dtype=float)
    if b.shape != (pts.shape[1],):
        raise ValueError("translation vector dimension mismatch")
    linalg._require_finite("translation vector must be finite", b)

    rng = np.random.default_rng(linalg._integer("seed", seed))
    spread = np.maximum(pts.std(axis=0), 1e-2 * (float(np.abs(pts).mean()) + 1.0))
    probes = pts.mean(axis=0) + rng.standard_normal((probe_count, pts.shape[1])) * (1.25 * spread)
    # (points, tolerance, probes, expected eigenvalue ratio): the base fit,
    # then the translated and the scaled one
    runs = [
        (pts, epsilon, probes, 1.0),
        (pts - b, epsilon, probes - b, 1.0),
        (alpha * pts, abs(alpha) * epsilon, alpha * probes, alpha * alpha),
    ]
    kind = NormalizationKind.gradient()
    models = [fit(x, FitConfig(epsilon=eps, normalization=kind)) for x, eps, _, _ in runs]
    replays = [_blocks(model, p) for model, (_, _, p, _) in zip(models, runs)]
    top = [max((float(r.eigvals.max()) for r in m.degrees if r.eigvals.size), default=0.0) for m in models]
    shared = [max(top[0], top[s] / runs[s][3]) for s in (1, 2)]  # in the base fit's units

    length = max(model.max_degree for model in models)
    empty = np.zeros((probe_count, 0))
    ratios: list = [[], []]
    gaps = []
    discrepancy = 0.0
    for t in range(1, length + 1):
        lam = [model.record(t).eigvals if t <= model.max_degree else np.zeros(0) for model in models]
        for s in (1, 2):
            ref, side = lam[0][:lam[s].size], lam[s][:lam[0].size]
            keep = linalg._significant(ref, shared[s - 1]) & linalg._significant(side, shared[s - 1] * runs[s][3])
            ratios[s - 1].append(tuple((side[keep] / ref[keep]).tolist()))
        entry: dict = {"degree": t}
        for kind_tag in ("F", "G"):
            base, *sides = (blocks.get((t, kind_tag), empty) for blocks in replays)
            q = linalg.orthonormal_basis(base) if base.shape[1] else None
            for name, block in zip(("translation", "scaling"), sides):
                gap = 0.0
                if bool(base.shape[1]) != bool(block.shape[1]):
                    gap = math.nan
                elif base.shape[1]:
                    angles = linalg.principal_angles(q, linalg.orthonormal_basis(block))
                    gap = float(angles.max()) if angles.size else 0.0
                    # relative energy of the side's block outside the base's span
                    denom = float(np.linalg.norm(block))
                    out = float(np.linalg.norm(block - q @ (q.T @ block)))
                    discrepancy = max(discrepancy, out / denom if denom > 0 else 0.0)
                entry[f"{kind_tag}_{name}"] = gap
        gaps.append(entry)

    counts = [c + ((0, 0),) * (length - len(c)) for c in (model.degree_counts() for model in models)]
    return InvarianceReport(
        alpha=float(alpha),
        translation=b,
        epsilon=float(epsilon),
        base_counts=counts[0],
        translated_counts=counts[1],
        scaled_counts=counts[2],
        eigenvalue_ratios=tuple(ratios[1]),
        translation_eigenvalue_ratios=tuple(ratios[0]),
        subspace_gaps=tuple(gaps),
        max_eval_discrepancy=discrepancy,
    )
