"""Degree-by-degree construction of vanishing/nonvanishing polynomial bases.

At each degree, candidate polynomials are formed as pairwise products of
lower-degree nonvanishing polynomials, orthogonalized (in evaluation space)
against everything of lower degree, and combined through a generalized
symmetric eigenproblem whose right-hand side is a pluggable normalization
Gram matrix.  The construction keeps the F evaluation vectors mutually
orthogonal, so the orthogonalization is two projections onto them, with
no least-squares solve; a fit whose F vectors are no longer orthogonal
(the second projection is not roundoff, or there are more of them than
points), or whose degree-1 Gram loses a coordinate, is refused with one
``ValueError`` that names the degree.  Columns split into nonvanishing
(F) and vanishing (G) by comparing sqrt(eigenvalue) -- the evaluation
norm of the polynomial -- against the tolerance epsilon.  The numeric
work of each degree runs in the degree-step kernel of ``model``, which
replays use too; the fit supplies the orthogonalization and the
eigensolve.  Coefficient normalization's expansions come from that
kernel's symbolic twin, which the fitted model keeps for ``expand``.
Degree t depends on epsilon only through the splits below it, so one
driver, ``_fit_path``, fits a set of tolerances down one chain of shared
degree-steps and hands over each group of tolerances whose fits end with
the same records once, as their indices, those records and the
``truncated`` flag; ``fit`` is its one-tolerance case, and the tolerance
search reads its target off each group's records without building a
model.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
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

_ORTHO_TOL = 1e-8  # orthogonalize's bound on |f_j^T r_k| / (|f_j| |c_k|)

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
            for name in ("var_subset", "point_subset"):
                object.__setattr__(self, name, tuple(linalg._integer(f"{name} index", i) for i in getattr(self, name)))
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
    cut of the eigensolve is not set here: it is ``linalg``'s one rule,
    ``linalg._significant``.
    """

    epsilon: float = 0.0
    normalization: NormalizationKind = field(default_factory=NormalizationKind.gradient)
    max_degree: int | None = None
    center: bool = False
    unit_mean_norm: bool = False

    def __post_init__(self) -> None:
        if not self.epsilon >= 0:  # also rejects NaN
            raise ValueError("epsilon must be >= 0")
        if self.max_degree is not None:
            object.__setattr__(self, "max_degree", linalg._integer("max_degree", self.max_degree))
            if self.max_degree < 1:
                raise ValueError("max_degree must be >= 1")


def classify(eigvals: np.ndarray, epsilon: float) -> tuple[str, ...]:
    """Tag each eigenpair F (sqrt(eigenvalue) > epsilon) or G (<=).

    Expects descending eigenvalues.  Roundoff negatives are clamped to
    zero, and sqrt values below 1e-10 times max(largest sqrt, 1) count as
    numerically vanishing even at epsilon = 0.
    """
    (partition,) = _classify_all(eigvals, [epsilon])
    return partition


def _classify_all(eigvals: np.ndarray, epsilons) -> dict[tuple[str, ...], list[int]]:
    """The tolerances of ``epsilons`` grouped by ``classify(eigvals, eps)``,
    as ``{partition: ascending indices}`` in order of first appearance; the
    tolerance-free work (checks, square roots, floor) is done once.

    A cut's G set is the roots ``<=`` it, so the G sets of two cuts are
    nested and two cuts with as many roots at or below them (a NaN cut
    has none) share one partition, which is built once per group."""
    ev = np.asarray(eigvals, dtype=float)
    if ev.size == 0:
        return {(): list(range(len(epsilons)))}
    scale = max(1.0, float(np.abs(ev).max()))
    if (ev[1:] - ev[:-1] > 1e-9 * scale).any():
        raise ValueError("eigenvalues must be sorted in descending order")
    if float(ev.min()) < -1e-10 * scale:
        raise ValueError("eigenvalue is negative beyond roundoff")
    roots = np.sqrt(np.maximum(ev, 0.0))  # a NaN root stays NaN, never <= a cut
    floor = 1e-10 * max(float(roots.max()), 1.0)
    values = roots.tolist()  # Python floats compare like float64, only faster
    ordered = [-1.0] + sorted(r for r in values if r == r)  # no root is <= -1; NaN roots are never <= a cut
    groups: dict = {}  # the largest root at or below the cut -> indices
    for i, cut in enumerate(map(max, map(float, epsilons), repeat(floor))):
        groups.setdefault(ordered[bisect_right(ordered, cut) - 1] if cut == cut else -1.0, []).append(i)
    return {tuple("G" if r <= top else "F" for r in values): at for top, at in groups.items()}


def orthogonalize(c_pre_eval: np.ndarray, f_eval: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project candidate evaluations off the span of a block of mutually
    orthogonal columns, such as the fit's F prefix.

    Returns ``(c_eval, w)`` with ``c_eval = c_pre_eval - f_eval @ w``.  Both
    blocks are 2-D, one column per polynomial.  ``w`` is the projection
    ``f_j^T c / |f_j|^2`` plus the same projection of its residual ``r``, once
    ("twice is enough").  The second pass's ``f_j^T r`` is roundoff when the
    columns are orthogonal; a design whose ``|f_j^T r_k|`` exceeds
    ``_ORTHO_TOL |f_j| |c_k|`` (the norms of the columns and of the
    candidates) is refused with ``ValueError``, as is a zero column.
    """
    c_pre_eval = np.asarray(c_pre_eval, dtype=float)
    f_eval = np.asarray(f_eval, dtype=float)
    if c_pre_eval.ndim != 2 or f_eval.ndim != 2:
        raise ValueError("candidate and design blocks must be 2-D")
    if c_pre_eval.shape[0] != f_eval.shape[0]:
        raise ValueError("row counts differ")
    f, sq, f_scale = _scaled_columns(f_eval)
    c, csq, c_scale = _scaled_columns(c_pre_eval)
    if not (sq > 0.0).all():
        raise ValueError("design columns must be nonzero")
    sq, to_weights = sq[:, None], c_scale / f_scale[:, None]
    w = (f.T @ c) / sq
    again = f.T @ (_apply_ortho(c_pre_eval, f_eval, w * to_weights) / c_scale)
    # multiplied out: a zero candidate has a zero bound and a zero residual
    if (np.abs(again) > _ORTHO_TOL * np.sqrt(sq) * np.sqrt(csq)).any():
        raise ValueError(f"design columns are not orthogonal within {_ORTHO_TOL:g} of their norms")
    w = (w + again / sq) * to_weights
    return _apply_ortho(c_pre_eval, f_eval, w), w


def _scaled_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a / s, the squared column norms of a / s, s)``, where ``s`` is 1
    for every column but those whose squared norm is below 2^-900, whose
    products may underflow: each of those is divided by the power of two
    at or below its largest entry.  That division is exact, so a projection
    formed on ``a / s`` and scaled back has the bits of the same projection
    on ``a`` wherever that one does not underflow."""
    sq = np.square(a).sum(axis=0)
    s = np.ones(a.shape[1])
    small = sq < 2.0**-900
    if small.any():
        s[small] = linalg._binade(np.abs(a[:, small]).max(axis=0, initial=0.0))
        a = a / s
        sq = np.square(a).sum(axis=0)
    return a, sq, s


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
        linalg._require_finite("centred coordinates overflow: the points span more than the float range", pts)
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
    (candidates, orthogonalization, normalization Gram, eigensolve), takes
    the live tolerances grouped by partition from ``_classify_all``, yields
    the groups whose fit ends there, and appends the F block of the one
    group that steps on.  A degree's partitions have
    distinct G counts (a larger tolerance tags a superset G), so a
    ``descend`` that keeps one G count, as the search's does, keeps the
    walk a chain; two groups that would step on raise ``ValueError``.  The
    fit's refusals are raised here, so ``fit``, the tolerance search and
    the consistency report all raise them.
    """
    if not all(map(ge, epsilons, repeat(0))):  # also rejects NaN
        raise ValueError("epsilon must be >= 0")
    kind = config.normalization
    num_points, num_vars = pts.shape
    max_degree = config.max_degree if config.max_degree is not None else num_points
    hint = "" if config.center and config.unit_mean_norm else "; --center --unit-mean-norm may help"

    def lost(t, why):  # the F evaluation vectors of an exact fit are orthogonal, so at most num_points
        return ValueError(f"degree {t}: the nonvanishing polynomials are no longer orthogonal at the points"
                          f" ({why}){hint}")

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
        try:
            c_eval, c_grad, w = fwd.candidates(orthogonalize)
        except ValueError as exc:
            raise lost(t, "the lower-degree ones fail the projection check") from exc
        c_exps = None
        if sym is not None:  # the orthogonalized candidates: combinations at the unit columns
            sym.candidates(w)
            c_exps = sym.combine(list(np.eye(c_eval.shape[1])))

        gram = normalization_matrix(kind, c_eval, c_grad, c_exps)
        outer = c_eval.T @ c_eval
        _, eigvecs = linalg.gen_sym_eig((outer + outer.T) / 2.0, gram)
        if t == 1 and eigvecs.shape[1] < num_vars and kind.variant != SUBSAMPLED_GRADIENT:
            raise ValueError(f"degree 1: the {kind.variant} normalization keeps {eigvecs.shape[1]} of"
                             f" {num_vars} coordinate directions{hint}")
        # Store the squared evaluation norms of the output columns rather
        # than the solver's eigenvalues: they agree to solver precision, but
        # for exactly vanishing directions the solver value carries
        # eps-level noise whose square root (~1e-8) would pollute the
        # extent-of-vanishing identity ||h(X)|| = sqrt(lambda).
        out_evals = _rows_dot(c_eval, eigvecs)  # by blocks of points, as a replay forms it
        eigvals = np.einsum("ij,ij->j", out_evals, out_evals)

        prefix, live, members, width = records, members, [], fwd.width
        for partition, at in _classify_all(eigvals, [epsilons[i] for i in live]).items():
            group = [live[i] for i in at]
            if width + partition.count("F") > num_points:
                raise lost(t, f"{width + partition.count('F')} of them for {num_points} points")
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
