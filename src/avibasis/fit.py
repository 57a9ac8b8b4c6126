"""Degree-by-degree construction of vanishing/nonvanishing polynomial bases.

At each degree, candidate polynomials are formed as pairwise products of
lower-degree nonvanishing polynomials, orthogonalized (in evaluation space)
against everything of lower degree, and combined through a generalized
symmetric eigenproblem whose right-hand side is a pluggable normalization
Gram matrix.  Columns split into nonvanishing (F) and vanishing (G) by
comparing sqrt(eigenvalue) -- the evaluation norm of the polynomial --
against the tolerance epsilon.  The numeric work of each degree runs in
the degree-step kernel of ``model``, which replays use too; the fit
supplies the orthogonalization and the eigensolve.  Coefficient
normalization's expansions come from that kernel's symbolic twin, which
the fitted model keeps for ``expand``.  Degree t depends on epsilon only
through the splits below it, so one driver, ``_fit_path``, fits a set of
tolerances down one chain of shared degree-steps and hands over each
group of tolerances whose fits end with the same records once, as their
indices, those records and the ``truncated`` flag; ``fit`` is its
one-tolerance case, and the tolerance search reads its target off each
group's records without building a model.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import ge

import numpy as np

from . import linalg
# coeff_dot is not called here, but stays importable as fit.coeff_dot: the
# name bench/tracer.py wraps for its densepoly.coeff_dot metric
from .densepoly import _gram, _Terms, coeff_dot  # noqa: F401
from .model import BasisModel, DegreeRecord, Preprocessing, _apply_ortho, _as_points, _Expansions, _Forward, _rows_dot

__all__ = [
    "NormalizationKind",
    "FitConfig",
    "fit",
    "normalization_matrix",
    "orthogonalize",
    "classify",
]

IDENTITY = "identity"
COEFFICIENT = "coefficient"
GRADIENT = "gradient"
SUBSAMPLED_GRADIENT = "subsampled_gradient"
_VARIANTS = (IDENTITY, COEFFICIENT, GRADIENT, SUBSAMPLED_GRADIENT)


@dataclass(frozen=True)
class NormalizationKind:
    """Selects the normalization Gram matrix used in the eigenproblem.

    ``identity`` normalizes combination vectors (the classic VCA behavior),
    ``coefficient`` normalizes coefficient vectors, ``gradient`` normalizes
    the stacked gradient evaluations at the input points, and
    ``subsampled_gradient`` restricts the gradient to a variable subset and
    a point subset.
    """

    variant: str
    var_subset: tuple[int, ...] | None = None
    point_subset: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown normalization variant {self.variant!r}")
        if self.variant == SUBSAMPLED_GRADIENT:
            if not self.var_subset or not self.point_subset:
                raise ValueError("subsampled gradient requires non-empty variable and point subsets")
            object.__setattr__(self, "var_subset", tuple(int(i) for i in self.var_subset))
            object.__setattr__(self, "point_subset", tuple(int(i) for i in self.point_subset))
            if any(i < 0 for i in self.var_subset) or any(i < 0 for i in self.point_subset):
                raise ValueError("subset indices must be non-negative")
        elif self.var_subset is not None or self.point_subset is not None:
            raise ValueError(f"{self.variant} normalization takes no subsets")

    @classmethod
    def identity(cls) -> "NormalizationKind":
        return cls(IDENTITY)

    @classmethod
    def coefficient(cls) -> "NormalizationKind":
        return cls(COEFFICIENT)

    @classmethod
    def gradient(cls) -> "NormalizationKind":
        return cls(GRADIENT)

    @classmethod
    def subsampled_gradient(cls, var_subset, point_subset) -> "NormalizationKind":
        return cls(SUBSAMPLED_GRADIENT, tuple(var_subset), tuple(point_subset))

    @property
    def uses_gradients(self) -> bool:
        return self.variant in (GRADIENT, SUBSAMPLED_GRADIENT)


@dataclass(frozen=True)
class FitConfig:
    """Construction parameters.

    ``epsilon`` is the vanishing tolerance on evaluation norms;
    ``max_degree`` (default: number of points) is a hard safety cap;
    ``center``/``unit_mean_norm`` request mean-centering and scaling to
    unit mean point norm before fitting, recorded on the model.  The rank
    cuts of the least-squares solves and the eigensolve are not set here:
    they read ``linalg.RANK_TOL``.
    """

    epsilon: float = 0.0
    normalization: NormalizationKind = field(default_factory=NormalizationKind.gradient)
    max_degree: int | None = None
    center: bool = False
    unit_mean_norm: bool = False

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:  # also rejects NaN
            raise ValueError("epsilon must be >= 0")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")


def classify(eigvals: np.ndarray, epsilon: float) -> tuple[str, ...]:
    """Tag each eigenpair F (sqrt(eigenvalue) > epsilon) or G (<=).

    Expects descending eigenvalues.  Roundoff negatives are clamped to
    zero, and sqrt values below 1e-10 times max(largest sqrt, 1) count as
    numerically vanishing even at epsilon = 0.
    """
    return _classify_all(eigvals, [epsilon])[0]


def _classify_all(eigvals: np.ndarray, epsilons) -> list[tuple[str, ...]]:
    """``classify(eigvals, eps)`` for each ``eps`` of ``epsilons``, the
    tolerance-free work (checks, square roots, floor) done once.

    A cut's G set is the roots ``<=`` it, so the G sets of two cuts are
    nested and two cuts with as many roots at or below them (a NaN cut
    has none) share one partition, which is built once per run."""
    ev = np.asarray(eigvals, dtype=float)
    if ev.size == 0:
        return [()] * len(epsilons)
    scale = max(1.0, float(np.abs(ev).max()))
    if (ev[1:] - ev[:-1] > 1e-9 * scale).any():
        raise ValueError("eigenvalues must be sorted in descending order")
    if float(ev.min()) < -1e-10 * scale:
        raise ValueError("eigenvalue is negative beyond roundoff")
    roots = np.sqrt(np.maximum(ev, 0.0))  # a NaN root stays NaN, never <= a cut
    floor = 1e-10 * max(float(roots.max()), 1.0)
    values = roots.tolist()  # Python floats compare like float64, only faster
    ordered = sorted(r for r in values if r == r)  # NaN roots are never <= a cut
    cuts = map(max, map(float, epsilons), repeat(floor))
    out: list = []
    for below, run in groupby([bisect_right(ordered, cut) if cut == cut else 0 for cut in cuts]):
        top = ordered[below - 1] if below else -1.0  # no root is <= -1
        out += repeat(tuple("G" if r <= top else "F" for r in values), len(list(run)))
    return out


def orthogonalize(c_pre_eval: np.ndarray, f_eval: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project candidate evaluations off the span of the nonvanishing block.

    Returns ``(c_eval, w)`` with ``c_eval = c_pre_eval - f_eval @ w`` and
    ``w`` the tolerance-controlled least-squares weights.  Both blocks are
    2-D, one column per polynomial.
    """
    c_pre_eval = np.asarray(c_pre_eval, dtype=float)
    f_eval = np.asarray(f_eval, dtype=float)
    if c_pre_eval.ndim != 2 or f_eval.ndim != 2:
        raise ValueError("candidate and design blocks must be 2-D")
    if c_pre_eval.shape[0] != f_eval.shape[0]:
        raise ValueError("row counts differ")
    w = linalg._lstsq_weights(f_eval, c_pre_eval)
    return _apply_ortho(c_pre_eval, f_eval, w), w


def normalization_matrix(kind: NormalizationKind, evals: np.ndarray, grads: np.ndarray | None = None,
                         expansions: _Terms | None = None) -> np.ndarray:
    """Normalization Gram matrix for one degree's orthogonalized candidates.

    ``evals`` is their ``(points, candidates)`` evaluation block, ``grads``
    their ``(points, vars, candidates)`` gradients and ``expansions`` the
    symbolic kernel's term arrays of them.  Identity: the identity.
    Coefficient: Gram of coefficient vectors (requires ``expansions``).
    Gradient: Gram of the stacked gradient evaluations (requires
    ``grads``).  Subsampled gradient: the same on the configured
    variable/point subsets.  Always symmetric PSD.
    """
    count = evals.shape[1]
    if kind.variant == IDENTITY:
        return np.eye(count)
    if kind.variant == COEFFICIENT:
        if expansions is None:
            raise ValueError("coefficient normalization requires cached expansions")
        return _gram(expansions)
    if grads is None:
        raise ValueError("gradient normalization requires cached gradients")
    if kind.variant == SUBSAMPLED_GRADIENT:
        grads = _subsample(grads, kind)
    flat = grads.reshape(-1, count)
    gram = flat.T @ flat
    return (gram + gram.T) / 2.0


def _subsample(grads: np.ndarray, kind: NormalizationKind) -> np.ndarray:
    """``grads``, of shape ``(points, vars, ...)``, at the subsampled
    gradient's point and variable subsets."""
    if max(kind.point_subset) >= grads.shape[0]:
        raise ValueError("point subset index out of range")
    if max(kind.var_subset) >= grads.shape[1]:
        raise ValueError("variable subset index out of range")
    return grads[np.ix_(kind.point_subset, kind.var_subset)]


def _constant_value(kind: NormalizationKind, points: np.ndarray) -> float:
    if kind.variant == IDENTITY:
        return 1.0 / np.sqrt(points.shape[0])
    if kind.variant == COEFFICIENT:
        return 1.0
    mean_abs = float(np.abs(points).mean())
    # All-zero input would give a zero constant; any nonzero value spans the
    # same degree-0 space, so fall back to 1.
    return mean_abs if mean_abs > 0.0 else 1.0


@linalg._overflow_trap("fitting: coordinates this large need --center --unit-mean-norm")
def fit(points, config: FitConfig | None = None) -> BasisModel:
    """Construct the vanishing/nonvanishing basis for a point set.

    ``points`` may be a PointSet or a plain ``(num_points, num_vars)``
    array.  Iterates degree by degree until no nonvanishing polynomial
    appears (natural termination) or the degree cap is reached, in which
    case the returned model carries ``truncated=True``.  This is the
    one-tolerance case of the driver the tolerance search runs.
    """
    config = config or FitConfig()
    prep, pts, m = _prepare(points, config)
    sym = _Expansions(pts.shape[1], m) if config.normalization.variant == COEFFICIENT else None
    ((_, degrees, truncated),) = _fit_path(pts, m, config, [config.epsilon], expansions=sym)
    model = BasisModel(
        num_vars=pts.shape[1],
        constant_value=m,
        degrees=degrees,
        epsilon=config.epsilon,
        normalization=config.normalization,
        preprocessing=prep,
        truncated=truncated,
    )
    if sym is not None:  # ``expand`` then forms only the expansions the fit did not
        sym.keep_for(model)
    return model


def _prepare(points, config: FitConfig) -> tuple[Preprocessing, np.ndarray, float]:
    """``config``'s preprocessing of ``points``, the model-space points it
    gives, and the constant polynomial's value on them."""
    pts = _as_points(points)
    center = scale = None
    if config.center:  # each column's mean over its binade, whose sum cannot overflow
        binade = linalg._binade(np.abs(pts).max(axis=0))
        center = (pts / binade).mean(axis=0) * binade
        with np.errstate(over="ignore"):
            pts = pts - center
        if not np.isfinite(pts).all():
            raise ValueError("centred coordinates overflow: the points span more than the float range")
    if config.unit_mean_norm:
        scale = linalg._mean_norm(pts)
        if scale <= 0.0:
            raise ValueError("cannot scale a point set with zero mean norm")
        pts = pts / scale
    return Preprocessing(center=center, scale=scale), pts, _constant_value(config.normalization, pts)


def _fit_path(pts: np.ndarray, m: float, config: FitConfig, epsilons, descend=None, expansions=None):
    """Yield ``(indices, degrees, truncated)`` once for each group of
    tolerances whose fits end with the same records: ``indices`` into
    ``epsilons``, ascending, the shared tuple of ``DegreeRecord``s, and
    whether the fit stopped with F columns left.  For each ``i`` of a
    group, the ``BasisModel`` of those records at ``epsilons[i]``, with
    ``m`` as its constant and ``truncated``, is bit-identical to
    ``fit(points, replace(config, epsilon=epsilons[i]))``, where
    ``_prepare(points, config)`` gave the model-space points ``pts`` and
    ``m``; ``config.epsilon`` is not read.

    ``descend``, when given, is called with the records of every prefix
    that would step a further degree; a prefix it rejects ends there, and
    its tolerances get that prefix of their fit, marked ``truncated``.  The
    tolerance search uses it to step only the degrees its target reads.
    ``expansions`` is the fresh symbolic kernel a coefficient fit steps,
    for the caller to keep; without it, the driver makes its own.

    Degree t depends on the tolerance only through the F/G partitions of
    the degrees below it, so the fits share their prefixes, and the driver
    walks one chain of them.  Each degree runs its tolerance-free part once
    (candidates, orthogonalization, normalization Gram, eigensolve, and the
    checks and square roots of ``classify``), groups the live tolerances by
    partition, yields the groups whose fit ends there, and appends the F
    block of the one group that steps on.  A degree's partitions have
    distinct G counts (a larger tolerance tags a superset G), so a
    ``descend`` that keeps one G count, as the search's does, keeps the
    walk a chain; two groups that would step on raise ``ValueError``.
    """
    if not all(map(ge, epsilons, repeat(0))):  # also rejects NaN
        raise ValueError("epsilon must be >= 0")
    kind = config.normalization
    num_points, num_vars = pts.shape
    max_degree = config.max_degree if config.max_degree is not None else num_points

    # Only gradient normalizations read candidate gradients, and no
    # gradient reaches the model, so other fits carry none.
    fwd = _Forward(pts, m, kind.uses_gradients)
    sym = None
    if kind.variant == COEFFICIENT:
        sym = expansions if expansions is not None else _Expansions(num_vars, m)
    records: tuple = ()
    members = list(range(len(epsilons)))  # the tolerances still stepping
    while members:
        t = len(records) + 1
        c_eval, c_grad, w = fwd.candidates(orthogonalize)
        c_exps = None
        if sym is not None:  # the orthogonalized candidates: combinations at the unit columns
            sym.candidates(w)
            c_exps = sym.combine(list(np.eye(c_eval.shape[1])))

        gram = normalization_matrix(kind, c_eval, c_grad, c_exps)
        outer = c_eval.T @ c_eval
        _, eigvecs = linalg.gen_sym_eig((outer + outer.T) / 2.0, gram)
        # Store the squared evaluation norms of the output columns rather
        # than the solver's eigenvalues: they agree to solver precision, but
        # for exactly vanishing directions the solver value carries
        # eps-level noise whose square root (~1e-8) would pollute the
        # extent-of-vanishing identity ||h(X)|| = sqrt(lambda).
        out_evals = _rows_dot(c_eval, eigvecs)  # by blocks of points, as a replay forms it
        eigvals = np.einsum("ij,ij->j", out_evals, out_evals)

        groups: dict = {}
        partitions = _classify_all(eigvals, [epsilons[i] for i in members])
        for partition, run in groupby(range(len(members)), partitions.__getitem__):
            groups.setdefault(partition, []).extend(map(members.__getitem__, run))
        prefix, members = records, []
        for partition, group in groups.items():
            rec = DegreeRecord(
                ortho_weights=w,
                eigvecs=eigvecs,
                eigvals=eigvals,
                partition=partition,
            )
            path = prefix + (rec,)
            more = "F" in partition
            if not more or t == max_degree or (descend is not None and not descend(path)):
                yield group, path, more
            elif members:
                raise ValueError(f"two partitions step on from degree {t}; pass a descend that keeps one")
            else:
                members, records = group, path
                fwd.append(c_eval, c_grad, rec.eigvecs[:, rec.columns("F")])
                if sym is not None:
                    sym.append(rec)
