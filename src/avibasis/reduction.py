"""Removal of redundant vanishing polynomials from a fitted basis.

A vanishing polynomial is redundant when lower-degree basis polynomials
generate it.  At every input point the gradient of such a polynomial is a
linear combination of the lower-degree gradients, so redundancy is tested
by per-point least squares on gradients: a candidate is dropped only if
the residual is below threshold at every point.

One pass walks the degrees in ascending order.  When the fit normalization
is not the full gradient mapping, a degree's gradient Gram may be rank
deficient (e.g. duplicate or near-zero polynomials), so rank deflation
removes those first.  The survivors are then tested against their
generator pool, the kept polynomials of lower degree: the stacked
``(points, vars, generators)`` pool gradients get one stacked SVD, which
is recomputed only after the pool has grown, and the residuals of every
candidate of the degree come from one stacked solve against it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .fit import GRADIENT
from .model import BasisModel, PolyHandle, gradient

__all__ = [
    "RemovedPolynomial",
    "DeflationRecord",
    "ReductionReport",
    "reduce_basis",
    "rank_deflate_degree",
    "gradient_dependence_residuals",
]


@dataclass(frozen=True, eq=False)
class RemovedPolynomial:
    handle: PolyHandle
    max_residual: float
    per_point_residuals: np.ndarray


@dataclass(frozen=True, eq=False)
class DeflationRecord:
    degree: int
    removed: tuple[PolyHandle, ...]
    original_count: int
    gram_rank: int


@dataclass(frozen=True, eq=False)
class ReductionReport:
    """Outcome of one reduction run.

    ``kept``, the gradient-dependence victims in ``removed``, and the
    rank-deflation victims partition the original vanishing set.
    """

    kept: tuple[PolyHandle, ...]
    removed: tuple[RemovedPolynomial, ...]
    rank_deflated: tuple[DeflationRecord, ...]
    threshold: float

    def deflation_victims(self) -> tuple[PolyHandle, ...]:
        return tuple(h for rec in self.rank_deflated for h in rec.removed)


def _pool_solver(generator_grads: np.ndarray):
    """Factor a ``(points, vars, generators)`` pool once for many solves.

    One stacked SVD covers every point, and each point keeps the singular
    values that ``linalg._significant`` counts against its largest, the cut
    of ``linalg.lstsq``.  The returned function maps ``(points, vars, c)``
    candidate gradients to the ``(points, c)`` residual norms ``|M w - y|``
    of the per-point minimum-norm solutions, computed in ``linalg.lstsq``'s
    order of operations.
    """
    u, s, vt = np.linalg.svd(generator_grads, full_matrices=False)
    divisor = np.where(linalg._significant(s, s[:, :1]), s, np.inf)[:, :, None]
    ut, v = u.transpose(0, 2, 1), vt.transpose(0, 2, 1)

    def residuals(candidate_grads: np.ndarray) -> np.ndarray:
        w = v @ ((ut @ candidate_grads) / divisor)
        return np.linalg.norm(generator_grads @ w - candidate_grads, axis=1)

    return residuals


def gradient_dependence_residuals(
    generator_grads: np.ndarray, candidate_grad: np.ndarray
) -> np.ndarray:
    """Per-point residuals of fitting one candidate's gradients by
    lower-degree gradients.

    ``generator_grads`` has shape ``(points, vars, generators)`` and
    ``candidate_grad`` shape ``(points, vars)``.  At each point the best
    linear combination of generator gradients is solved independently, by
    minimum-norm least squares with ``linalg.lstsq``'s rank cut; the result
    holds the ``(points,)`` residual norms.  It is ``reduce_basis``'s
    stacked solve (``_pool_solver``) for one candidate.  Non-finite input is
    refused.
    """
    generator_grads = np.asarray(generator_grads, dtype=float)
    candidate_grad = np.asarray(candidate_grad, dtype=float)
    if candidate_grad.ndim != 2:
        raise ValueError("candidate_grad must have shape (points, vars)")
    linalg._require_finite("gradients must be finite", generator_grads, candidate_grad)
    return _pool_solver(generator_grads)(candidate_grad[:, :, None])[:, 0]


def rank_deflate_degree(
    handles: tuple[PolyHandle, ...],
    normalization_gram: np.ndarray,
    extents: np.ndarray,
) -> tuple[tuple[PolyHandle, ...], tuple[PolyHandle, ...], int]:
    """Drop rank-deficiency victims from one degree's vanishing set.

    Computes the numerical rank r of the gradient Gram matrix (its
    eigenvalues that ``linalg._significant`` counts against the largest) and
    removes ``len(handles) - r`` polynomials, trying smallest extent of
    vanishing first; a candidate survives when removing it would leave the
    remaining set below rank r, counted against the same largest.  Returns
    ``(kept, removed, r)``.  A non-finite Gram matrix is refused.
    """
    count = len(handles)
    gram = np.asarray(normalization_gram, dtype=float)
    if gram.shape != (count, count):
        raise ValueError("Gram matrix shape does not match the handle count")
    linalg._require_finite("Gram matrix must be finite", gram)
    extents = np.asarray(extents, dtype=float)
    lam = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    top = lam[-1:]  # empty without handles: then nothing counts
    rank = int(np.count_nonzero(linalg._significant(lam, top)))
    to_remove = count - rank

    current = list(range(count))
    removed: list[int] = []
    for idx in np.argsort(extents, kind="stable"):
        if len(removed) == to_remove:
            break
        trial = [i for i in current if i != idx]
        sub = gram[np.ix_(trial, trial)]
        if np.count_nonzero(linalg._significant(np.linalg.eigvalsh((sub + sub.T) / 2.0), top)) < rank:
            continue  # removing this one would lose span; keep it
        removed.append(int(idx))
        current = trial
    kept = tuple(handles[i] for i in sorted(current))
    dropped = tuple(handles[i] for i in sorted(removed))
    return kept, dropped, rank


@linalg._overflow_trap("reducing: the points are too large for the model's products")
def reduce_basis(
    model: BasisModel,
    points,
    threshold: float = 1e-9,
) -> ReductionReport:
    """Remove redundant vanishing polynomials from a fitted model.

    One pass over the vanishing polynomials in ascending degree.  Fits not
    normalized by the full gradient mapping first rank-deflate each degree.
    While nothing is kept, a degree's survivors are all kept: ``kept`` only
    gains handles of lower degree, so that is the lowest nonempty stratum,
    which nothing could generate.  Above it, a polynomial is removed only
    when, at every point, its gradient lies within ``threshold`` of the
    span of the gradients of the polynomials kept so far.
    """
    if not 0 <= threshold < np.inf:  # also rejects NaN
        raise ValueError("threshold must be finite and >= 0")
    g_handles = model.g_handles()
    if not g_handles:
        return ReductionReport((), (), (), threshold)

    grad_of = dict(zip(g_handles, gradient(model, g_handles, points)))
    kept: list[PolyHandle] = []
    removed: list[RemovedPolynomial] = []
    deflated: list[DeflationRecord] = []
    solve = None  # the factored pool (``kept``, all of lower degree); dropped as it grows
    for degree, group in itertools.groupby(g_handles, key=lambda h: h.degree):
        candidates = tuple(group)
        if model.normalization.variant != GRADIENT:
            flat = np.stack([grad_of[h] for h in candidates], axis=2).reshape(-1, len(candidates))
            extents = np.array([model.extent_of_vanishing(h) for h in candidates])
            candidates, dropped, rank = rank_deflate_degree(candidates, flat.T @ flat, extents)
            if dropped:
                deflated.append(DeflationRecord(degree, dropped, flat.shape[1], rank))
        if not candidates:
            continue  # every handle of this degree was rank-deflated
        if not kept:  # the lowest nonempty stratum: nothing could generate it
            kept.extend(candidates)
            continue
        if solve is None:
            solve = _pool_solver(np.stack([grad_of[h] for h in kept], axis=2))
        block = solve(np.stack([grad_of[h] for h in candidates], axis=2))
        for j, handle in enumerate(candidates):
            residuals = block[:, j].copy()
            max_res = float(residuals.max())
            if max_res <= threshold:
                removed.append(RemovedPolynomial(handle, max_res, residuals))
            else:
                kept.append(handle)
                solve = None
    return ReductionReport(tuple(kept), tuple(removed), tuple(deflated), threshold)
