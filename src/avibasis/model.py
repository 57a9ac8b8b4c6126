"""Structural representation of a fitted polynomial basis and its replay.

A fitted basis is stored symbol-free: per degree, the orthogonalization
weights and the eigenvector combinations, whose F counts give the
candidate parentage (``BasisModel.parents``).  That is enough to
re-evaluate any basis polynomial, its gradient (via the product rule over
cached parent values, no differentiation), or its explicit expansion.

There is one numeric path, the degree-step kernel ``_Forward``: fitting
drives it with its eigensolve and the replays with the stored records, so
a replay at the training points reproduces the fit-time evaluation
matrices bit for bit by construction.  Its F columns sit in one row-major
buffer, whose column prefix gives BLAS the same arithmetic as the
concatenation of the lower-degree blocks.

The one symbolic path is its twin ``_Expansions``, over exact dense
polynomials held as term arrays (``densepoly._Terms``), whose order is
the term order: coefficient fits and ``expand`` both run it, one batch
of combinations, pair products or Gram entries per degree at a time.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .densepoly import DensePolynomial, _Fold, _Monomials, _pair_products, _Terms, monomial_count

__all__ = [
    "Preprocessing",
    "PointSet",
    "PolyHandle",
    "DegreeRecord",
    "BasisModel",
    "ExpansionLimitError",
    "evaluate",
    "gradient",
    "expand",
    "gradient_with_op_count",
    "EXPANSION_TERM_CAP",
]

EXPANSION_TERM_CAP = 1_000_000


class ExpansionLimitError(RuntimeError):
    """Raised when a symbolic expansion would exceed the term-count guard."""


@dataclass(frozen=True, eq=False)
class Preprocessing:
    """Record of the affine transform applied before fitting.

    Model-space coordinates are ``(x - center) / scale``; ``None`` fields
    mean the identity for that part.
    """

    center: np.ndarray | None = None
    scale: float | None = None

    def apply(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(points, dtype=float)
        if self.center is not None:
            out = out - self.center
        if self.scale is not None:
            out = out / self.scale
        return out

    def invert(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(points, dtype=float)
        if self.scale is not None:
            out = out * self.scale
        if self.center is not None:
            out = out + self.center
        return out


@dataclass(frozen=True, eq=False)
class PointSet:
    """A finite set of points, one per row, with its preprocessing record."""

    points: np.ndarray
    preprocessing: Preprocessing = field(default_factory=Preprocessing)

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array (one point per row)")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("empty point set")
        if not np.isfinite(pts).all():
            raise ValueError("points contain NaN or Inf")
        object.__setattr__(self, "points", pts)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]

    @property
    def num_vars(self) -> int:
        return self.points.shape[1]

    def raw_points(self) -> np.ndarray:
        """Points with the recorded preprocessing undone."""
        return self.preprocessing.invert(self.points)


def _as_points(points) -> np.ndarray:
    """A PointSet's points, or ``points`` checked by PointSet's rule (a
    finite, non-empty float matrix, one point per row)."""
    return points.points if isinstance(points, PointSet) else PointSet(points).points


@dataclass(frozen=True)
class PolyHandle:
    """Reference to one basis polynomial: (degree, eigenvector column, tag)."""

    degree: int
    column: int
    kind: str  # "F" or "G"

    def __post_init__(self) -> None:
        if self.kind not in ("F", "G"):
            raise ValueError(f"kind must be 'F' or 'G', got {self.kind!r}")
        if self.degree < 0 or self.column < 0:
            raise ValueError("degree and column must be non-negative")

    def label(self) -> str:
        return f"d{self.degree}_{self.kind.lower()}{self.column}"


@dataclass(frozen=True, eq=False)
class DegreeRecord:
    """Everything produced at one degree of the construction.

    ``ortho_weights`` maps the accumulated lower-degree nonvanishing
    evaluations to the subtraction term; ``eigvecs`` columns combine the
    orthogonalized candidates, one row each, into basis polynomials.
    ``partition`` tags each column F (nonvanishing) or G (vanishing).  The
    candidates themselves are the model's ``parents`` of the degree.
    """

    ortho_weights: np.ndarray
    eigvecs: np.ndarray
    eigvals: np.ndarray
    partition: tuple[str, ...]

    @property
    def num_candidates(self) -> int:
        return self.eigvecs.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.eigvecs.shape[1]

    def columns(self, kind: str) -> np.ndarray:
        return np.array([i for i, tag in enumerate(self.partition) if tag == kind], dtype=int)


@dataclass(frozen=True, eq=False)
class BasisModel:
    """Complete structural record of a basis-construction run."""

    num_vars: int
    constant_value: float
    degrees: tuple[DegreeRecord, ...]
    epsilon: float
    normalization: "NormalizationKind"  # noqa: F821 - defined in .fit
    preprocessing: Preprocessing = field(default_factory=Preprocessing)
    truncated: bool = False

    def __post_init__(self) -> None:
        if self.constant_value == 0.0:
            raise ValueError("constant basis polynomial must be nonzero")
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")

    @property
    def max_degree(self) -> int:
        return len(self.degrees)

    def record(self, degree: int) -> DegreeRecord:
        if not 1 <= degree <= len(self.degrees):
            raise IndexError(f"no degree-{degree} record in this model")
        return self.degrees[degree - 1]

    def parents(self, degree: int) -> tuple:
        """Candidate parentage of degree ``degree``, from the F counts: the
        variable indices at degree 1, above it every ``(index into degree-1
        F, index into degree-(t-1) F)`` pair, in degree-1-major order."""
        self.record(degree)
        if degree == 1:
            return tuple(range(self.num_vars))
        first, last = (self.degrees[k].partition.count("F") for k in (0, degree - 2))
        return tuple((i, j) for i in range(first) for j in range(last))

    def handles(self, kind: str | None = None) -> tuple[PolyHandle, ...]:
        """All handles in ascending degree, stored column order.

        Degree 0 (the constant) is included only when ``kind`` is None or
        ``"F"``.
        """
        out = []
        if kind in (None, "F"):
            out.append(PolyHandle(0, 0, "F"))
        for t, rec in enumerate(self.degrees, start=1):
            for col, tag in enumerate(rec.partition):
                if kind is None or tag == kind:
                    out.append(PolyHandle(t, col, tag))
        return tuple(out)

    def g_handles(self) -> tuple[PolyHandle, ...]:
        return self.handles("G")

    def f_handles(self) -> tuple[PolyHandle, ...]:
        return self.handles("F")

    def degree_counts(self) -> tuple[tuple[int, int], ...]:
        """Per-degree ``(|G_t|, |F_t|)`` for degrees 1..max_degree."""
        return tuple((rec.partition.count("G"), rec.partition.count("F")) for rec in self.degrees)

    def extent_of_vanishing(self, handle: PolyHandle) -> float:
        """sqrt(eigenvalue) of the handle, i.e. its training evaluation norm."""
        if handle.degree == 0:
            raise ValueError("the constant has no eigenvalue record")
        rec = self.record(handle.degree)
        return float(np.sqrt(max(rec.eigvals[handle.column], 0.0)))

    def validate(self) -> None:
        """Check internal consistency (shapes, partition vs epsilon, the ``truncated`` flag)."""
        from .fit import classify  # local import to avoid a cycle

        f_counts = [1]
        for t, rec in enumerate(self.degrees, start=1):
            count = len(self.parents(t))
            if rec.ortho_weights.shape != (sum(f_counts), count):
                raise ValueError(f"degree-{t} weight matrix has wrong shape")
            if rec.eigvecs.shape[0] != count:
                raise ValueError(f"degree-{t} eigenvector rows != candidate count")
            if rec.eigvecs.shape[1] != rec.eigvals.shape[0] or rec.eigvecs.shape[1] != len(rec.partition):
                raise ValueError(f"degree-{t} output counts inconsistent")
            if rec.num_outputs > rec.num_candidates:
                raise ValueError(f"degree-{t} has more outputs than candidates")
            if tuple(classify(rec.eigvals, self.epsilon)) != tuple(rec.partition):
                raise ValueError(f"degree-{t} partition inconsistent with stored epsilon")
            f_counts.append(len(rec.columns("F")))
        if self.truncated != (bool(self.degrees) and "F" in self.degrees[-1].partition):
            raise ValueError(f"truncated is {self.truncated}, which disagrees with the last degree's partition")


# -- the degree-step kernel, shared by fitting and replay ---------------------


def _pair_eval(f1_eval: np.ndarray, ftm1_eval: np.ndarray) -> np.ndarray:
    """Entry-wise products of every (degree-1 F, degree-(t-1) F) pair.

    Pair order is degree-1-major: pair (i, j) lands at column i * n_{t-1} + j.
    """
    m = f1_eval.shape[0]
    return (f1_eval[:, :, None] * ftm1_eval[:, None, :]).reshape(m, -1)


def _pair_grad(
    f1_eval: np.ndarray,
    f1_grad: np.ndarray,
    ftm1_eval: np.ndarray,
    ftm1_grad: np.ndarray,
) -> np.ndarray:
    """Product-rule gradients of the pair products, same column order.

    The second term is added in place, one degree-1 column at a time, so
    the only full-size array is the output."""
    m, n, _ = f1_grad.shape
    g = f1_grad[:, :, :, None] * ftm1_eval[:, None, None, :]
    for i in range(f1_eval.shape[1]):
        g[:, :, i] += f1_eval[:, None, i, None] * ftm1_grad
    return g.reshape(m, n, -1)


def _grad_dot(grads: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.tensordot(grads, v, axes=([2], [0]))`` of gradients ``(m, n,
    k)`` and columns ``(k, p)``, without its wrapper: the ``np.dot`` of the
    same 2-D views, so the same bits."""
    m, n, k = grads.shape
    return np.dot(grads.reshape(m * n, k), v).reshape(m, n, v.shape[1])


def _apply_ortho(pre: np.ndarray, f_all: np.ndarray, w: np.ndarray) -> np.ndarray:
    # ``pre`` may be the caller's array, so the product is the only buffer.
    prod = f_all @ w
    return np.subtract(pre, prod, out=prod)


class _Forward:
    """The degree-step kernel that fitting and every numeric replay run.

    At fixed points it keeps the evaluations (and optionally gradients) of
    the F polynomials built so far: the degree-1 and latest blocks, each
    contiguous, for the next degree's pair products; and every F column in
    degree order in one buffer, ``(m, cap)`` and ``(m, n, cap)``, whose
    column prefix each degree is orthogonalized against.  The buffers are
    row-major, so the prefix is a strided view that BLAS and the SVD read
    with the arithmetic of the contiguous concatenation of the blocks the
    buffer replaces.  A full buffer doubles; a replay sizes it up front.
    A degree is ``candidates`` then ``append``, and the kernel only steps
    forward: a fit, like a replay, is one chain of degrees.
    """

    def __init__(self, points: np.ndarray, constant_value: float, need_grads: bool):
        m, n = points.shape
        self.points = points
        self.evals = np.full((m, 1), constant_value)
        self.grads = np.zeros((m, n, 1)) if need_grads else None
        self.width = 1
        self.first = self.first_grad = None  # degree-1 F block
        self.last = self.last_grad = None  # latest degree's F block

    def candidates(self, orthogonalize):
        """Form one degree's candidates and orthogonalize them against the
        F prefix; return ``(c_eval, c_grad, w)``.

        The candidates are the variables at degree 1 and above it all
        (degree-1 F, latest F) pair products.  ``orthogonalize(pre,
        f_eval)`` returns ``(pre - f_eval @ w, w)``; ``c_grad`` is None
        without gradients.
        """
        m, n = self.points.shape
        grads = self.grads is not None
        if self.width == 1:  # only the constant so far: degree 1
            pre = self.points[:, list(range(n))]  # a copy: this operand's layout decides the solve's bits
            if grads:
                pre_grad = np.zeros((m, n, n))
                pre_grad[:, range(n), range(n)] = 1.0
        else:
            pre = _pair_eval(self.first, self.last)
            if grads:
                pre_grad = _pair_grad(self.first, self.first_grad, self.last, self.last_grad)
        width = self.width
        c_eval, w = orthogonalize(pre, self.evals[:, :width])
        c_grad = None
        if grads:  # through the 2-D view of the gradient prefix, not a copy
            c_grad = pre_grad
            c_grad -= (self.grads.reshape(m * n, -1)[:, :width] @ w).reshape(m, n, -1)
        return c_eval, c_grad, w

    def append(self, c_eval, c_grad, v_f) -> None:
        """Append the F block ``c_eval @ v_f`` (and its gradients) as the
        latest degree."""
        f_eval = c_eval @ v_f
        f_grad = _grad_dot(c_grad, v_f) if c_grad is not None else None
        if self.width == 1:
            self.first, self.first_grad = f_eval, f_grad
        self.last, self.last_grad = f_eval, f_grad
        width, end = self.width, self.width + f_eval.shape[1]
        if end > self.evals.shape[1]:
            self._reserve(max(end, 2 * self.evals.shape[1]))
        self.evals[:, width:end] = f_eval
        if f_grad is not None:
            self.grads[:, :, width:end] = f_grad
        self.width = end

    def replay(self, model: BasisModel, up_to_degree: int):
        """Step through ``model``'s records of degrees 1..up_to_degree,
        yielding ``(degree, record, c_eval, c_grad)`` for each."""
        self._reserve(1 + sum(model.record(t).partition.count("F") for t in range(1, up_to_degree + 1)))
        for t in range(1, up_to_degree + 1):
            rec = model.record(t)
            c_eval, c_grad, _ = self.candidates(
                lambda pre, f_eval, w=rec.ortho_weights: (_apply_ortho(pre, f_eval, w), w)
            )
            self.append(c_eval, c_grad, rec.eigvecs[:, rec.columns("F")])
            yield t, rec, c_eval, c_grad

    def _reserve(self, capacity: int) -> None:
        """Reallocate the buffers with room for ``capacity`` columns."""
        evals = np.empty((self.evals.shape[0], capacity))
        evals[:, : self.width] = self.evals[:, : self.width]
        self.evals = evals
        if self.grads is not None:
            grads = np.empty(self.grads.shape[:2] + (capacity,))
            grads[:, :, : self.width] = self.grads[:, :, : self.width]
            self.grads = grads


def _check_handles(model: BasisModel, handles) -> list[PolyHandle]:
    out = list(handles)
    for h in out:
        if h.degree > model.max_degree:
            raise IndexError(f"handle degree {h.degree} exceeds model degree {model.max_degree}")
        if h.degree == 0:
            if h.column != 0 or h.kind != "F":
                raise IndexError("degree 0 has only the constant F handle")
            continue
        rec = model.record(h.degree)
        if h.column >= rec.num_outputs:
            raise IndexError(f"handle column {h.column} out of range at degree {h.degree}")
        if rec.partition[h.column] != h.kind:
            raise ValueError(f"handle {h.label()} kind disagrees with the model partition")
    return out


def _by_degree(handles: list[PolyHandle]) -> dict[int, tuple]:
    """Degree -> (positions in ``handles``, stored columns) of the handles;
    a run of consecutive indices becomes a slice, which copies faster."""
    grouped: dict[int, tuple[list[int], list[int]]] = {}
    for pos, h in enumerate(handles):
        positions, columns = grouped.setdefault(h.degree, ([], []))
        positions.append(pos)
        columns.append(h.column)
    return {t: (_as_slice(p), _as_slice(c)) for t, (p, c) in grouped.items()}


def _as_slice(index: list[int]):
    start, stop = index[0], index[0] + len(index)
    return slice(start, stop) if index == list(range(start, stop)) else index


def _model_space(model: BasisModel, points) -> np.ndarray:
    pts = points.points if isinstance(points, PointSet) else np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != model.num_vars:
        raise ValueError(f"expected points with {model.num_vars} columns")
    if not np.isfinite(pts).all():
        raise ValueError("points contain NaN or Inf")
    return model.preprocessing.apply(pts)


def _replay_handles(model: BasisModel, handles, points, need_grads: bool) -> np.ndarray:
    """Values ``(handles, points)`` (or gradients ``(handles, points,
    vars)``) of ``handles``, handle-major.

    Each degree's block is the C-order product the fit forms; its asked
    columns are then copied into the output through a view with the handle
    axis last, so that every write is contiguous.  The product is not
    formed straight into the output: that would change BLAS's operand
    layout, and so bits."""
    handles = _check_handles(model, handles)
    pts = _model_space(model, points)
    out = np.empty((len(handles),) + (pts.shape if need_grads else pts.shape[:1]))
    view = out.transpose(*range(1, out.ndim), 0)
    wanted = _by_degree(handles)
    if 0 in wanted:
        view[..., wanted.pop(0)[0]] = 0.0 if need_grads else model.constant_value
    top = max(wanted, default=0)
    for t, rec, c_eval, c_grad in _Forward(pts, model.constant_value, need_grads).replay(model, top):
        if t in wanted:
            positions, columns = wanted[t]
            # the whole block, as the fit computed it, then the asked columns
            if need_grads:
                block = _grad_dot(c_grad, rec.eigvecs)
            else:
                block = c_eval @ rec.eigvecs
            view[..., positions] = block[..., columns]
            del block  # so that it is freed before the next degree's temporaries
    return out


def evaluate(model: BasisModel, handles, points) -> np.ndarray:
    """Evaluation matrix of the given handles at the given points.

    Points are given in the coordinates the model was fit from; the model's
    recorded preprocessing is applied before the replay.  Returns shape
    ``(num_points, len(handles))``, column-major: each handle's values are
    contiguous.  A reduction over the result (``einsum``, ``sum(axis=0)``)
    may round differently in the last bit from the same reduction over a
    row-major copy, which ``np.ascontiguousarray`` makes.
    """
    return _replay_handles(model, handles, points, need_grads=False).T


def gradient(model: BasisModel, handles, points) -> list[np.ndarray]:
    """Per-handle gradient matrices, each of shape ``(num_points, num_vars)``
    and C-contiguous (slices of one handle-major buffer).

    Gradients are taken with respect to model-space coordinates (the
    coordinates the basis polynomials live in); they are computed by the
    product-rule recursion over cached parent values, not by symbolic
    differentiation or finite differences.
    """
    return list(_replay_handles(model, handles, points, need_grads=True))


class _Expansions:
    """The symbolic twin of ``_Forward``: the same degree-step over exact
    dense polynomials, which coefficient fits and ``expand`` run.

    Its polynomials are ``densepoly._Terms`` batches over one monomial
    table, which grows only as monomials appear.  It keeps the F blocks
    built so far, one per degree from the constant on, and for the latest
    stepped degree, ``degree``, the fold of its pre-candidates and the F
    blocks below it, with the orthogonalization weights; a replay also
    keeps each degree's expansions of every column.  A degree is
    ``candidates`` then ``append``, forward only, as in ``_Forward``.
    ``combine`` expands a batch of combinations of the latest degree's
    orthogonalized candidates at once.
    """

    def __init__(self, num_vars: int, constant_value: float):
        self.num_vars = num_vars
        self.constant_value = constant_value
        self.table = _Monomials()
        self.blocks: list[_Terms] = []  # the constant's block is formed with degree 1
        self.degree, self.step = 0, None  # the latest degree stepped, and its fold and weights
        self.outputs: dict[int, _Terms] = {}

    def candidates(self, w: np.ndarray) -> None:
        """Form the next degree's pre-candidate expansions, to be combined
        with the orthogonalization weights ``w``: the variables at degree 1,
        above it the pair products in ``_Forward``'s order.  The one term
        guard, checked before anything is built: a degree whose dense size
        bound exceeds ``EXPANSION_TERM_CAP`` raises
        ``ExpansionLimitError``."""
        t, n = self.degree + 1, self.num_vars
        if monomial_count(n, t) > EXPANSION_TERM_CAP:
            raise ExpansionLimitError(
                f"expansion at degree {t} in {n} variables may exceed {EXPANSION_TERM_CAP} terms"
            )
        if t == 1:
            self.blocks = [_Terms.of(self.table, [DensePolynomial.constant(n, self.constant_value)])]
            pre = _Terms.of(self.table, [DensePolynomial.variable(n, k) for k in range(n)])
        else:
            pre = _pair_products(self.blocks[1], self.blocks[-1])
        self.step, self.degree = (_Fold(_Terms.concat([pre, *self.blocks])), w), t

    def combine(self, vectors) -> _Terms:
        """Expansions of the combinations ``vectors`` of the latest degree's
        orthogonalized candidates: ``sum_j u_j pre_j - sum_f (w u)_f F_f``
        over its pre-candidates and the F expansions below it.  Each
        vector's weights are formed on their own, as ``[u, -(w @ u)]``: one
        product ``w @ U`` would round differently.
        Negating ``w u`` is exact, so ``F_f`` scaled by ``-(w u)_f`` and
        added is bit for bit ``F_f`` scaled by ``(w u)_f`` and subtracted."""
        fold, w = self.step
        return fold([np.concatenate([u, -(w @ u)]) for u in vectors])

    def append(self, rec: DegreeRecord) -> None:
        """Append the latest degree's F expansions: the combinations at the
        F columns of its record ``rec``, each read in place from ``eigvecs``
        (at degree 1, ``w @ u`` is a dot product whose rounding depends on
        the stride of ``u``, so a copied column could differ in the last bit)."""
        self.blocks.append(self.combine([rec.eigvecs[:, c] for c in rec.columns("F")]))

    def replay(self, model: BasisModel, degree: int) -> None:
        """Step ``model``'s records of the degrees up to ``degree`` that
        earlier calls have not stepped, keeping the expansions of all
        their columns in ``outputs``; the F block is taken from those."""
        for t in range(self.degree + 1, degree + 1):
            rec = model.record(t)
            self.candidates(rec.ortho_weights)
            out = self.outputs[t] = self.combine([rec.eigvecs[:, c] for c in range(rec.num_outputs)])
            self.blocks.append(out.take(rec.columns("F")))


_EXPANSION_CACHE: "weakref.WeakKeyDictionary[BasisModel, _Expansions]" = weakref.WeakKeyDictionary()
_EXPANSION_LOCK = threading.Lock()


def expand(model: BasisModel, handle: PolyHandle) -> DensePolynomial:
    """Exact symbolic expansion of one basis polynomial (model space).

    Replays the construction through the symbolic kernel, kept per model
    (models are immutable), which steps each degree once, on the first
    request that reaches it, and expands all of its columns in one batch;
    each call returns a fresh polynomial.  Cost is exponential in degree, so the kernel's term guard
    refuses degrees whose dense size bound exceeds ``EXPANSION_TERM_CAP``.
    """
    (handle,) = _check_handles(model, [handle])
    if handle.degree == 0:
        return DensePolynomial.constant(model.num_vars, model.constant_value)
    with _EXPANSION_LOCK:
        kernel = _EXPANSION_CACHE.get(model)
        if kernel is None:
            kernel = _EXPANSION_CACHE[model] = _Expansions(model.num_vars, model.constant_value)
        kernel.replay(model, handle.degree)
        return kernel.outputs[handle.degree].polynomial(handle.column, model.num_vars)


def gradient_with_op_count(model: BasisModel, handle: PolyHandle, point) -> tuple[np.ndarray, int]:
    """Gradient of one handle at one point, counting the propagation cost.

    The final-degree propagation is run as explicit scalar arithmetic and
    every multiply/add is counted.  Parent values and gradients come from
    the lower-degree passes (they are shared across polynomials during a
    fit) and are not charged to this polynomial, matching the per-point,
    per-polynomial cost contract of the recursion.
    """
    (handle,) = _check_handles(model, [handle])
    pts = _model_space(model, point)
    if pts.shape[0] != 1:
        raise ValueError("op-counted propagation takes a single point")
    n = model.num_vars
    if handle.degree == 0:
        return np.zeros(n), 0

    rec = model.record(handle.degree)
    u = rec.eigvecs[:, handle.column]
    wu = rec.ortho_weights @ u  # per-polynomial description, shared across points
    ops = 0
    grad = np.zeros(n)
    if handle.degree == 1:
        # Degree-1 candidates are raw coordinates; their gradients are the
        # standard basis, and lower-degree polynomials (the constant) have
        # zero gradient, so the combination vector is the gradient.
        for j, k in enumerate(model.parents(1)):
            grad[k] += u[j]
            ops += 1
        return grad, ops

    fwd = _Forward(pts, model.constant_value, True)
    for _ in fwd.replay(model, handle.degree - 1):
        pass
    left_vals, left_grads = fwd.first[0], fwd.first_grad[0]
    right_vals, right_grads = fwd.last[0], fwd.last_grad[0]
    pairs = model.parents(handle.degree)
    a = np.zeros(len(pairs))
    b = np.zeros(len(pairs))
    for c, (i, j) in enumerate(pairs):
        a[c] = u[c] * right_vals[j]
        b[c] = u[c] * left_vals[i]
        ops += 2
    flat_f_grads = fwd.grads[0, :, : fwd.width]  # (n, total F columns)
    for k in range(n):
        acc = 0.0
        for c, (i, j) in enumerate(pairs):
            acc += a[c] * left_grads[k, i] + b[c] * right_grads[k, j]
            ops += 4
        for f_idx in range(flat_f_grads.shape[1]):
            acc -= wu[f_idx] * flat_f_grads[k, f_idx]
            ops += 2
        grad[k] = acc
    return grad, ops
