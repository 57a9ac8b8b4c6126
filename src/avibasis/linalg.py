"""Generalized symmetric eigensolver and tolerance-controlled least squares.

``RANK_TOL`` is the one relative rank tolerance, and ``_significant`` is
the one rule that reads it: a singular value (or a Gram eigenvalue) counts
when it is above ``RANK_TOL`` times the largest, and none counts when the
largest is not positive.  The least-squares solver, the orthonormal bases,
the eigensolve's deflation, the reduction, the consistency report and the
norm ratio all cut by it.  ``_require_finite`` is the package's one
finiteness check, ``_integer`` its one integer check.

Every routine is a pure function of its ndarray inputs and returns freshly
allocated arrays, so concurrent callers never share mutable state.
Eigenvalues are always reported in descending order and eigenvector signs
are canonicalized (largest-magnitude entry positive) for reproducibility.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "RANK_TOL",
    "gen_sym_eig",
    "lstsq",
    "orthonormal_basis",
    "principal_angles",
]

RANK_TOL = 1e-12
_ASYMMETRY_RTOL = 1e-10
_HALF_MAX = float(np.finfo(float).max) / 2.0


def _significant(values, top):
    """The one rank rule: which ``values`` count, those above ``RANK_TOL`` times
    ``top`` (broadcast against them); none counts where ``top`` is not positive."""
    return (values > RANK_TOL * top) & (top > 0.0)


def _require_finite(message: str, *arrays) -> None:
    """The one finiteness check, of anything ``np.asarray`` reads as floats.  A factorization needs it:
    on inf, LAPACK's SVD may never return, and NaN or inf otherwise gives a failure or an empty rank."""
    if not all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays):
        raise ValueError(message)


def _integer(name: str, value) -> int:
    """The one integer check: an int, a NumPy integer or an integral float; never a bool, a string or a fraction."""
    if type(value) is int or isinstance(value, np.integer) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _binade(values):
    """The power of two at or below each absolute value (a number or an array):
    dividing by it and multiplying back are exact steps that bring it to [1, 2)."""
    return np.ldexp(1.0, np.frexp(values)[1] - 1)


@contextmanager
def _overflow_trap(what: str):
    """The library's one overflow rule: the body's first overflow or invalid value raises one
    ``ValueError(f"{exc} while {what}")``, which each trap around it renames to its own ``what``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, ValueError) as exc:
        first = exc.__cause__ if isinstance(exc, ValueError) else exc
        if not isinstance(first, FloatingPointError):
            raise
        raise ValueError(f"{first} while {what}") from first


def _mean_norm(points: np.ndarray) -> float:
    """Mean Euclidean norm of the rows of ``points``, which neither
    overflows nor underflows: the rows are divided by the ``_binade`` of
    the largest absolute coordinate, and the mean is multiplied back.  Both
    steps are exact, and so is every step of the norm and the mean on the
    scaled rows, so this is ``np.linalg.norm(points, axis=1).mean()`` bit
    for bit wherever that neither overflows nor rounds a subnormal square
    that the sum does not absorb."""
    scale = float(_binade(np.abs(points).max()))
    return float(np.linalg.norm(points / scale, axis=1).mean() * scale)


def _check_symmetric(a: np.ndarray, name: str) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.size == 0:
        return
    scale = float(np.abs(a).max())
    if not scale <= _HALF_MAX:  # also NaN; past it, the symmetrization (a + a.T) / 2 overflows
        raise ValueError(f"{name} must be finite and at most {_HALF_MAX:.4g} in magnitude")
    if (a == a.T).all():  # exactly symmetric: within any tolerance
        return
    if float(np.abs(a - a.T).max()) > _ASYMMETRY_RTOL * scale:
        raise ValueError(
            f"{name} is not symmetric within relative tolerance {_ASYMMETRY_RTOL:g}"
        )


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    if v.size == 0:
        return v
    idx = np.abs(v).argmax(axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0.0] = 1.0
    return v * signs


def _canonicalize_degenerate(w: np.ndarray, v: np.ndarray, spread_tol: float) -> np.ndarray:
    """Rotate each numerically degenerate eigenvalue group to echelon form.

    Within a group of (near-)equal eigenvalues any orthogonal rotation of
    the eigenvector block is an equally valid answer, and LAPACK's choice
    varies across builds.  Rotating the block so that its transpose is in
    QR (column-echelon) form picks one representative deterministically:
    column j of the block gets zero entries in rows 0..j-1 whenever the
    group span allows it.  Orthogonality (and B-orthonormality, for the
    whitened generalized problem) is preserved exactly.  A group holds the
    eigenvalues within ``spread_tol`` of its first, so any cross-eigenvalue
    mixing stays below that tolerance.
    """
    if v.shape[1] < 2:
        return v
    w = w.tolist()  # Python floats subtract and compare like float64, only faster
    start = 0
    for i in range(1, len(w) + 1):
        if i < len(w) and abs(w[start] - w[i]) <= spread_tol:
            continue
        if i - start >= 2:
            block = v[:, start:i]
            q, _ = np.linalg.qr(block.T)
            v[:, start:i] = block @ q
        start = i
    return v


@_overflow_trap("eigensolving: the matrices' scales are too far apart")
def gen_sym_eig(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a V = b V diag(lam)`` for symmetric PSD ``a`` and ``b``.

    Returns ``(lam, V)`` like ``np.linalg.eigh``, but in descending order:
    ``V[:, i]`` pairs with ``lam[i]``.  ``b`` may be singular: it is
    eigendecomposed, directions with eigenvalue <= ``RANK_TOL`` times the
    largest are discarded, the problem is whitened on the retained subspace
    and solved as a standard symmetric problem.  So ``V`` has one column per
    retained direction, and its column count is ``b``'s numerical rank.
    The returned vectors satisfy ``V.T @ b @ V = I`` and ``V.T @ a @ V``
    diagonal.  A numerically zero ``b`` yields no columns.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_symmetric(a, "left-hand matrix")
    _check_symmetric(b, "right-hand matrix")
    if a.shape != b.shape:
        raise ValueError(f"matrix shapes differ: {a.shape} vs {b.shape}")
    dim = a.shape[0]
    if dim == 0:
        return np.zeros(0), np.zeros((0, 0))

    sigma, q = np.linalg.eigh((b + b.T) / 2.0)
    keep = _significant(sigma, sigma[-1])
    if not keep[-1]:  # the largest counts whenever any value does
        return np.zeros(0), np.zeros((dim, 0))
    whiten = q[:, keep] / np.sqrt(sigma[keep])

    m = whiten.T @ a @ whiten
    w, u = np.linalg.eigh((m + m.T) / 2.0)
    w = w[::-1].copy()
    u = np.ascontiguousarray(u[:, ::-1])
    # Both inputs are Gram matrices in this codebase, so negative eigenvalues
    # can only be roundoff; snap those to zero.  Snapping leaves max|w|
    # alone, so the same cut bounds the degenerate groups.
    tiny = 1e-10 * max(1.0, float(np.abs(w).max()))
    w[(w < 0.0) & (w > -tiny)] = 0.0
    return w, _fix_signs(_canonicalize_degenerate(w, whiten @ u, tiny))


@_overflow_trap("solving least squares: the design or the right-hand side is too large")
def lstsq(m: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares via a truncated SVD pseudo-inverse.

    Singular values <= ``RANK_TOL`` times the largest are treated as zero.
    Returns the solution and the Frobenius norm of the residual ``m w - y``.
    ``y`` may be a vector or a matrix of stacked right-hand sides.  A design
    without columns gives an empty solution and the residual ``|y|``; a
    design without rows, or an all-zero one, gives zeros.
    """
    m = np.asarray(m, dtype=float)
    y = np.asarray(y, dtype=float)
    if m.ndim != 2 or y.ndim not in (1, 2):
        raise ValueError("design matrix must be 2-D, and the right-hand side a vector or a matrix")
    if m.shape[0] != y.shape[0]:
        raise ValueError(f"row counts differ: {m.shape[0]} vs {y.shape[0]}")
    _require_finite("design matrix and right-hand side must be finite", m, y)
    y2 = y if y.ndim == 2 else y[:, None]
    w = _lstsq_weights(m, y2)
    r = m @ w - y2
    scale = float(_binade(np.abs(r).max(initial=0.0)))  # exact steps, as in _mean_norm: no overflow
    residual = float(np.linalg.norm(r / scale) * scale)
    if y.ndim == 1:
        w = w[:, 0]
    return w, residual


def _lstsq_weights(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The one SVD least-squares solver: ``lstsq``'s solutions, without the
    residual, for a stack of float designs ``m`` ``(..., rows, cols)`` and
    right-hand sides ``y`` ``(..., rows, rhs)``; a 2-D design is a stack of
    one.  Each item keeps the singular values that ``_significant`` counts, a
    prefix of the descending values, and has the bits of its solve alone; an
    item of rank 0 gives zeros."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    rank = _significant(s, s[..., :1]).sum(axis=-1)
    ranks = set(rank.flat)  # not np.unique, which imports numpy.ma (1.6 MiB)
    if len(ranks) == 1 and 0 not in ranks:  # one rank: slices of the whole stack, no copies
        return _truncated_solve(u, s, vt, y, ranks.pop())
    w = np.zeros(m.shape[:-2] + (m.shape[-1], y.shape[-1]))
    for r in ranks - {0}:
        at = rank == r
        w[at] = _truncated_solve(u[at], s[at], vt[at], y[at], r)
    return w


def _truncated_solve(u: np.ndarray, s: np.ndarray, vt: np.ndarray, y: np.ndarray, r: int) -> np.ndarray:
    """``V_r diag(1 / s_r) U_r^T y`` for a stack of SVD factors cut at rank ``r``.
    ``U_r^T`` is copied to row-major order: the BLAS path of that layout pins
    every solve's bits (the dataset sampler's pinned space-curve points
    change without it)."""
    coeff = (np.ascontiguousarray(u[..., :r].swapaxes(-1, -2)) @ y) / s[..., :r, None]
    return vt[..., :r, :].swapaxes(-1, -2) @ coeff


def orthonormal_basis(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span of ``m`` (via SVD), without the
    directions of singular values at most ``RANK_TOL`` times the largest."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    _require_finite("matrix must be finite", m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return np.ascontiguousarray(u[:, _significant(s, s[:1])])


def principal_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Principal angles (radians, ascending) between the spans of two
    orthonormal bases, such as ``orthonormal_basis`` returns.

    The number of angles is the smaller of the two ranks; callers that need
    span equality should additionally compare the ranks.  Small angles are
    computed from the sine of the projection residual, which avoids the
    sqrt(eps) accuracy floor of the plain arccos formula.
    """
    qa, qb = np.asarray(qa, dtype=float), np.asarray(qb, dtype=float)
    if qa.ndim != 2 or qb.ndim != 2:
        raise ValueError("expected 2-D bases")
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.zeros(0)
    cross = qa.T @ qb
    cos = np.linalg.svd(cross, compute_uv=False)  # descending = angles ascending
    theta = np.arccos(np.clip(cos, -1.0, 1.0))
    small = cos**2 >= 0.5
    if small.any():
        resid = qb - qa @ cross
        sin = np.linalg.svd(resid, compute_uv=False)[::-1]  # ascending by angle
        sin = np.clip(sin[: theta.size], 0.0, 1.0)
        theta[small] = np.arcsin(sin[small])
    return theta
