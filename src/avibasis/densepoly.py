"""Exact dense multivariate polynomials as exponent-to-coefficient maps.

This is the explicit, symbol-level polynomial representation: slow and
exponential in degree, but exact.  It backs coefficient normalization, the
on-demand expansion of structurally stored polynomials, and the brute-force
checks in the test suite.  Arithmetic on int or ``fractions.Fraction``
coefficients stays exact; float coefficients behave like ordinary floats.

Variables are indexed 0-based.  An exponent vector is a tuple of
``num_vars`` non-negative ints; zero coefficients are never stored.

The arithmetic is ``+``, ``-`` and ``*`` between two polynomials of
one variable count, ``scale`` by a scalar, and ``diff``/``gradient``.  A
polynomial compares by ``==`` and is not hashable: its terms dict can
change.

Term order is insertion order; it decides the last bits of ``coeff_dot``
and ``evaluate``.  ``+`` and ``-`` add in place by one rule,
``_add_scaled`` (``-`` adds the right operand times -1): a monomial keeps
its place while its coefficient stays nonzero, one that cancels to
exactly 0 is dropped, and one that (re)appears goes to the end.  A
product keeps each monomial at its first appearance and drops zero sums
only at the end.

The symbolic kernel in ``model`` holds its polynomials as term arrays
instead (``_Terms``: monomial numbers and float coefficients, in term
order, over one growing monomial table) and runs its three steps over a
whole batch at once in NumPy: combinations (``_Fold``, the rule of
``_add_scaled``), pair products (``_pair_products``, that of ``*``) and
the coefficient Gram (``_gram``, that of ``coeff_dot``), each with the
bits and the term order of the dict rule, which the tests keep as
oracles.

Evaluation at one point runs through one scalar evaluator, ``_compile``
then ``_evaluate``; the dataset sampler compiles a system once for all
its points.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

__all__ = [
    "DensePolynomial",
    "coeff_dot",
    "monomial_count",
    "finite_diff_gradient",
]


@dataclass(frozen=True, eq=True)
class DensePolynomial:
    """A multivariate polynomial stored as ``{exponents: coefficient}``."""

    num_vars: int
    terms: Mapping[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        cleaned = {}
        for exps, coeff in self.terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.num_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {self.num_vars} variables")
            if coeff != 0:
                cleaned[exps] = coeff
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _from_clean(cls, num_vars: int, terms: dict) -> "DensePolynomial":
        """Internal constructor for arithmetic results.

        Exponent vectors are already valid by construction there; only the
        zero-coefficient pruning is repeated.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, num_vars: int, value) -> "DensePolynomial":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "DensePolynomial":
        if not 0 <= index < num_vars:
            raise IndexError(f"variable index {index} out of range for {num_vars} variables")
        exps = tuple(1 if k == index else 0 for k in range(num_vars))
        return cls(num_vars, {exps: 1})

    # -- queries -----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "DensePolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable counts differ: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "DensePolynomial") -> "DensePolynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "DensePolynomial") -> "DensePolynomial":
        return self._plus(other, -1)

    def _plus(self, other, c):
        """``self + c * other`` by ``_add_scaled`` (``-1 * a`` is ``-a``
        exactly); ``NotImplemented`` unless ``other`` is a polynomial."""
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        _add_scaled(out, other, c)
        return DensePolynomial._from_clean(self.num_vars, out)

    def __mul__(self, other: "DensePolynomial") -> "DensePolynomial":
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[tuple[int, ...], float] = {}
        get, add = out.get, operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(add, e1, e2))
                out[exps] = get(exps, 0) + c1 * c2
        return DensePolynomial._from_clean(self.num_vars, out)

    def scale(self, factor) -> "DensePolynomial":
        return DensePolynomial._from_clean(
            self.num_vars, {e: factor * c for e, c in self.terms.items()}
        )

    def diff(self, index: int) -> "DensePolynomial":
        """Exact partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.num_vars:
            raise IndexError(
                f"variable index {index} out of range for {self.num_vars} variables"
            )
        out: dict[tuple[int, ...], float] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[lowered] = out.get(lowered, 0) + e * coeff
        return DensePolynomial._from_clean(self.num_vars, out)

    def gradient(self) -> tuple["DensePolynomial", ...]:
        return tuple(self.diff(k) for k in range(self.num_vars))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise ValueError(f"expected a point of dimension {self.num_vars}")
        return _evaluate(_compile((self,)), x.tolist())[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Vector of values at the rows of ``points`` (shape ``(m, num_vars)``)."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.num_vars:
            raise ValueError(f"expected points of shape (m, {self.num_vars})")
        values = np.zeros(points.shape[0])
        for exps, coeff in self.terms.items():
            term = np.full(points.shape[0], float(coeff))
            for k, e in enumerate(exps):
                if e:
                    term *= points[:, k] ** e
            values += term
        return values

    def coefficient_norm(self) -> float:
        # left to right in term order: the builtin sum of floats is compensated from Python 3.12 on
        return math.sqrt(functools.reduce(lambda total, c: total + float(c) ** 2, self.terms.values(), 0.0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(
                f"x{k}" if e == 1 else f"x{k}^{e}" for k, e in enumerate(exps) if e
            )
            coeff = self.terms[exps]
            parts.append(f"{coeff}" if not mono else f"{coeff}*{mono}")
        return " + ".join(parts)


def _add_scaled(out: dict, p: DensePolynomial, c) -> None:
    """Add ``c * p`` into the terms ``out`` in place: ``out + p.scale(c)``
    without its copies.  A product ``c * a`` that is 0 is skipped and a sum
    that is exactly 0 deleted, so a monomial that reappears goes last."""
    get = out.get
    for e, a in p.terms.items():
        v = c * a
        if v != 0:
            s = get(e, 0) + v
            if s != 0:
                out[e] = s
            else:
                del out[e]


def _compile(polys) -> list:
    """Each polynomial as its list of ``(float(coeff), ((var, exp), ...))``
    terms in term order, with the zero exponents left out: the form
    ``_evaluate`` reads, built once for many points."""
    return [
        [(float(c), tuple((k, e) for k, e in enumerate(exps) if e)) for exps, c in p.terms.items()]
        for p in polys
    ]


def _evaluate(compiled: list, x: list) -> list:
    """Values of ``_compile``'s polynomials at the point ``x``.

    Each term is ``coeff``, multiplied by ``x[k] ** e`` in variable order,
    and added into a total starting at 0.0 in term order.  ``x`` holds
    Python floats, whose ``**`` calls C ``pow`` as ``np.float64 ** int``
    does, so the bits are those of NumPy scalars.  Where Python raises
    ``OverflowError`` or a value comes out non-finite, the point is
    evaluated again in NumPy scalars, which give inf or nan and warn (or
    raise, under ``np.errstate``) as NumPy arithmetic does.
    """
    try:
        values = _evaluate_as(compiled, x)
        if math.isfinite(sum(values)):
            return values
    except OverflowError:
        pass
    return _evaluate_as(compiled, [np.float64(v) for v in x])


def _evaluate_as(compiled: list, x: list) -> list:
    values = []
    for terms in compiled:
        total = 0.0
        for term, factors in terms:
            for k, e in factors:
                term *= x[k] ** e
            total += term
        values.append(total)
    return values


def coeff_dot(p: DensePolynomial, q: DensePolynomial) -> float:
    """Inner product of the coefficient vectors of two polynomials.

    The products are taken in the coefficients' own arithmetic and added
    one by one from 0, in the term order of the polynomial with fewer
    terms: the rule ``_gram`` keeps.  (``sum`` would compensate float sums
    from Python 3.12 on.)
    """
    if p.num_vars != q.num_vars:
        raise ValueError("variable counts differ")
    small, large = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    get, total = large.get, 0
    for e, c in small.items():
        if (v := get(e)) is not None:
            total += c * v
    return float(total)


# -- term arrays: the symbolic kernel's batched arithmetic --------------------

# Working-array budget of one chunk of a fold or a Gram; chunks are
# independent, so the split never changes a bit.
_CHUNK_BYTES = 1 << 16


def _columns(mono: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct numbers of ``mono`` (a table of ``size``), ascending,
    and the index of each entry among them: ``np.unique`` with
    ``return_inverse``, by counting over the table instead of sorting."""
    seen = np.zeros(size + 1, dtype=np.intp)
    seen[mono + 1] = 1
    return np.flatnonzero(seen[1:]), np.cumsum(seen)[mono]


class _Monomials:
    """A monomial table: each exponent vector met so far, numbered in order
    of first appearance.  It only grows, so a number stays valid."""

    def __init__(self) -> None:
        self.exps: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}

    def ids(self, exps: Iterable[tuple[int, ...]]) -> np.ndarray:
        index, table, out = self._index, self.exps, []
        for e in exps:
            i = index.get(e)
            if i is None:
                i = index[e] = len(table)
                table.append(e)
            out.append(i)
        return np.array(out, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class _Terms:
    """A batch of float polynomials over one monomial table as flat arrays:
    polynomial k's terms, in term order, are the table numbers ``mono[s:e]``
    and the coefficients ``coef[s:e]``, ``s, e = starts[k], starts[k + 1]``."""

    table: _Monomials
    mono: np.ndarray
    coef: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, table: _Monomials, polys) -> "_Terms":
        terms = [p.terms for p in polys]
        return cls(
            table,
            table.ids(e for t in terms for e in t),
            np.array([float(c) for t in terms for c in t.values()], dtype=float),
            np.cumsum([0] + [len(t) for t in terms]),
        )

    @classmethod
    def concat(cls, batches) -> "_Terms":
        ends = np.cumsum([0] + [b.starts[-1] for b in batches])
        return cls(
            batches[0].table,
            np.concatenate([b.mono for b in batches]),
            np.concatenate([b.coef for b in batches]),
            np.concatenate([[0]] + [b.starts[1:] + end for b, end in zip(batches, ends)]),
        )

    def __len__(self) -> int:
        return len(self.starts) - 1

    def owner(self) -> np.ndarray:
        """The polynomial each term belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.starts))

    def take(self, index) -> "_Terms":
        """The polynomials at ``index``, in that order."""
        index = np.asarray(index, dtype=np.intp)
        counts = np.diff(self.starts)[index]
        starts = np.concatenate([[0], np.cumsum(counts)])
        pos = np.arange(starts[-1]) + np.repeat(self.starts[index] - starts[:-1], counts)
        return _Terms(self.table, self.mono[pos], self.coef[pos], starts)

    def polynomial(self, k: int, num_vars: int) -> DensePolynomial:
        """Polynomial ``k`` as a fresh ``DensePolynomial``, in term order."""
        s, e = self.starts[k], self.starts[k + 1]
        exps = self.table.exps
        return DensePolynomial._from_clean(
            num_vars, dict(zip([exps[i] for i in self.mono[s:e].tolist()], self.coef[s:e].tolist())))


class _Fold:
    """Linear combinations of one batch of polynomials, each with the bits
    and the term order of ``_add_scaled`` run over the polynomials in batch
    order, a zero weight skipped.

    Per monomial, that fold is a running sum over the terms that carry the
    monomial, in fold order: a zero product leaves it as it is, and the
    monomial is present while the sum is nonzero.  So it is present at the
    end when its last running sum is nonzero, and its place in the term
    order is that of the term one step after the last running sum that was
    exactly 0 (its last insertion; the first term if the sum never was 0).
    The layout, built once per batch, lines each monomial's terms up in fold
    order as one column of a ``(depth, monomials)`` grid of term positions,
    padded at the bottom by a term of weight 0; a call runs the sums down
    the columns with ``np.add.accumulate``, which adds one step at a time.
    """

    def __init__(self, terms: _Terms):
        self.terms = terms
        self.cols, local = _columns(terms.mono, len(terms.table.exps))
        owner, size = terms.owner(), len(local)
        held = np.zeros((len(terms), len(self.cols)), dtype=np.intp)
        held[owner, local] = 1
        depth = np.cumsum(held, axis=0)[owner, local] - 1  # earlier polynomials with the monomial
        self.slot = np.full((int(depth.max(initial=-1)) + 1, len(self.cols)), size)
        self.slot[depth, local] = np.arange(size)
        # the weight column (``len(terms)``: the pad's zero) and coefficient of each slot
        self.owner = np.append(owner, len(terms))[self.slot]
        self.coef = np.append(terms.coef, 0.0)[self.slot][:, :, None]
        # 0 * inf is nan where the fold skips the polynomial outright
        self.mask_zero_weights = not np.isfinite(terms.coef).all()

    def __call__(self, weights: np.ndarray) -> _Terms:
        """The combinations at the rows of ``weights``, one weight per
        polynomial of the batch."""
        weights = np.asarray(weights, dtype=float).reshape(-1, len(self.terms))
        step = max(1, _CHUNK_BYTES // (8 * max(self.slot.size, 1)))
        parts = [self._chunk(weights[s : s + step]) for s in range(0, max(len(weights), 1), step)]
        counts, mono, coef = (np.concatenate(arrays) for arrays in zip(*parts))
        return _Terms(self.terms.table, mono, coef, np.concatenate([[0], np.cumsum(counts)]))

    def _chunk(self, weights: np.ndarray):
        count = len(weights)
        depth, width = self.slot.shape
        if depth == 0:
            return np.zeros(count, np.intp), np.zeros(0, np.intp), np.zeros(0)
        w = np.concatenate([weights, np.zeros((count, 1))], axis=1).T
        gathered = w[self.owner]  # (depth, monomials, combinations)
        products = gathered * self.coef
        if self.mask_zero_weights:
            products[gathered == 0.0] = 0.0
        sums = np.add.accumulate(products, axis=0)
        final = sums[-1].T  # (combinations, monomials)
        present = final != 0
        back = (sums[::-1] == 0).argmax(axis=0)  # steps from the bottom to the last 0
        inserted = np.where(back == 0, 0, depth - back)
        place = self.slot[inserted, np.arange(width)[:, None]].T
        # each combination's monomials laid out at their places, read in
        # order; both reads go row by row, so ``rows`` still fits
        rows, cols = np.nonzero(present)
        by_place = np.full((count, len(self.terms.mono)), -1)
        by_place[rows, place[rows, cols]] = cols
        cols = by_place[by_place >= 0]
        return np.bincount(rows, minlength=count), self.cols[cols], final[rows, cols]


def _pair_products(left: _Terms, right: _Terms) -> _Terms:
    """``p * q`` for each ``p`` of ``left`` and ``q`` of ``right``,
    ``left``-major, with the bits and the term order of ``__mul__``: each
    product adds its term pairs in row-major order into sums that start at
    0 (``np.add.at`` adds in index order), keeps each monomial at its first
    appearance and drops the sums that are 0 at the end.  The term pairs
    are laid out product by product, and the sums of a run of products
    kept per (product, monomial) under the byte budget."""
    table = left.table
    lcols, lloc = _columns(left.mono, len(table.exps))
    rcols, rloc = _columns(right.mono, len(table.exps))
    exps, add = table.exps, operator.add
    table_ids = table.ids(
        tuple(map(add, exps[a], exps[b])) for a in lcols.tolist() for b in rcols.tolist())
    cols, local = _columns(table_ids, len(table.exps))
    width = max(len(cols), 1)
    lo, ro = left.owner(), right.owner()
    lsize, rsize = np.diff(left.starts), np.diff(right.starts)
    sizes = np.outer(lsize, rsize).ravel()
    ends = np.cumsum(sizes)
    at = ((ends - sizes).reshape(len(left), len(right))[lo[:, None], ro]
          + (np.arange(len(lo)) - left.starts[lo])[:, None] * rsize[ro]
          + np.arange(len(ro)) - right.starts[ro]).ravel()
    mono = np.empty(len(at), dtype=np.intp)
    mono[at] = local.reshape(len(lcols), len(rcols))[lloc[:, None], rloc].ravel()
    coef = np.empty(len(at))
    coef[at] = (left.coef[:, None] * right.coef).ravel()
    step = max(1, _CHUNK_BYTES // (8 * width))
    parts = []
    for a in range(0, max(len(sizes), 1), step):
        run, start = sizes[a : a + step], ends[a - 1] if a else 0
        count = int(run.sum())
        cell = np.repeat(np.arange(len(run)) * width, run) + mono[start : start + count]
        sums = np.zeros(len(run) * width)
        np.add.at(sums, cell, coef[start : start + count])
        first = np.full(len(sums), count)
        np.minimum.at(first, cell, np.arange(count))
        by_first = np.full(count, -1)
        by_first[first[first < count]] = np.flatnonzero(first < count)
        found = by_first[by_first >= 0]
        found = found[sums[found] != 0]
        parts.append((np.bincount(found // width, minlength=len(run)), cols[found % width], sums[found]))
    counts, mono, coef = (np.concatenate(arrays) for arrays in zip(*parts))
    return _Terms(table, mono, coef, np.concatenate([[0], np.cumsum(counts)]))


def _gram(terms: _Terms) -> np.ndarray:
    """Gram matrix of the coefficient vectors of a batch, with the bits of
    ``coeff_dot`` on each pair: the products over the terms of the
    polynomial with fewer terms (the first on a tie), in its term order,
    those of monomials absent from the other skipped, added one by one
    from +0.0 by ``np.add.accumulate`` (``np.dot`` and ``np.sum`` would
    reorder the sum)."""
    count = len(terms)
    cols, local = _columns(terms.mono, len(terms.table.exps))
    owner, width = terms.owner(), len(cols)
    coef = np.zeros((count, width + 1))  # a last column for the padding
    coef[owner, local] = terms.coef
    held = np.zeros((count, width + 1), dtype=bool)
    held[owner, local] = True
    per = np.diff(terms.starts)
    seq = np.full((count, int(per.max(initial=0))), width)  # columns in term order
    seq[owner, np.arange(len(local)) - terms.starts[owner]] = local
    first, second = np.triu_indices(count)
    small = np.where(per[first] <= per[second], first, second)
    large = first + second - small
    gram = np.empty((count, count))
    step = max(1, _CHUNK_BYTES // (8 * (seq.shape[1] + 1)))
    for s in range(0, len(first), step):
        sm, lg = small[s : s + step, None], large[s : s + step, None]
        at = seq[sm[:, 0]]
        products = np.zeros((at.shape[1] + 1, len(at)))
        products[1:] = np.where(held[lg, at], coef[sm, at] * coef[lg, at], 0.0).T
        gram[first[s : s + step], second[s : s + step]] = np.add.accumulate(products, axis=0)[-1]
    return np.where(np.tri(count, dtype=bool), gram.T, gram)


def monomial_count(num_vars: int, max_degree: int) -> int:
    """Number of monomials of total degree <= ``max_degree``."""
    return math.comb(num_vars + max_degree, num_vars)


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], x: Iterable[float], h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient ``(f(x + h e_k) - f(x - h e_k)) / 2h``."""
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.shape)
    for k in range(x.size):
        step = np.zeros(x.shape)
        step[k] = h
        grad[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad
