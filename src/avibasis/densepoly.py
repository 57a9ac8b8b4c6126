"""Exact dense multivariate polynomials as exponent-to-coefficient maps.

This is the explicit, symbol-level polynomial representation: slow and
exponential in degree, but exact.  It backs coefficient normalization, the
on-demand expansion of structurally stored polynomials, and the brute-force
checks in the test suite.  Arithmetic on int or ``fractions.Fraction``
coefficients stays exact; float coefficients behave like ordinary floats.

Variables are indexed 0-based.  An exponent vector is a tuple of
``num_vars`` non-negative ints; zero coefficients are never stored.

Term order is insertion order; it decides the last bits of ``coeff_dot``
and ``evaluate``.  ``+`` and the symbolic kernel's combinations add in
place by one rule, ``_add_scaled``: a monomial keeps its place while its
coefficient stays nonzero, one that cancels to exactly 0 is dropped, and
one that (re)appears goes to the end.  A product keeps each monomial at
its first appearance and drops zero sums only at the end.

Evaluation at one point runs through one scalar evaluator, ``_compile``
then ``_evaluate``; the dataset sampler compiles a system once for all
its points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "DensePolynomial",
    "coeff_dot",
    "coefficient_vector",
    "graded_monomials",
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
    def zero(cls, num_vars: int) -> "DensePolynomial":
        return cls(num_vars, {})

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

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def __hash__(self) -> int:
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "DensePolynomial") -> None:
        if self.num_vars != other.num_vars:
            raise ValueError(
                f"variable counts differ: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: "DensePolynomial") -> "DensePolynomial":
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        self._check_compatible(other)
        out = dict(self.terms)
        _add_scaled(out, other, 1)
        return DensePolynomial._from_clean(self.num_vars, out)

    def __sub__(self, other: "DensePolynomial") -> "DensePolynomial":
        if not isinstance(other, DensePolynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DensePolynomial":
        return DensePolynomial._from_clean(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, DensePolynomial):
            self._check_compatible(other)
            out: dict[tuple[int, ...], float] = {}
            get, add = out.get, operator.add
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = tuple(map(add, e1, e2))
                    out[exps] = get(exps, 0) + c1 * c2
            return DensePolynomial._from_clean(self.num_vars, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

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
        return math.sqrt(float(sum(float(c) ** 2 for c in self.terms.values())))

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

    The products and their ``sum`` are taken in the coefficients' own
    arithmetic, in the term order of the polynomial with fewer terms.
    """
    if p.num_vars != q.num_vars:
        raise ValueError("variable counts differ")
    small, large = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    get = large.get
    return float(sum(c * v for e, c in small.items() if (v := get(e)) is not None))


def graded_monomials(num_vars: int, max_degree: int) -> Iterator[tuple[int, ...]]:
    """All exponent vectors of total degree <= ``max_degree``, graded order.

    Within each total degree the order is lexicographic-descending on the
    exponent tuple.  The order is an internal fixture: only inner products
    of coefficient vectors are ever consumed, never the order itself.
    """

    def of_degree(n: int, d: int) -> Iterator[tuple[int, ...]]:
        if n == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in of_degree(n - 1, d - first):
                yield (first,) + rest

    for d in range(max_degree + 1):
        yield from of_degree(num_vars, d)


def monomial_count(num_vars: int, max_degree: int) -> int:
    """Number of monomials of total degree <= ``max_degree``."""
    return math.comb(num_vars + max_degree, num_vars)


def coefficient_vector(p: DensePolynomial, degree_bound: int) -> np.ndarray:
    """Coefficients of ``p`` laid out on the graded monomial indexing.

    Length is ``monomial_count(p.num_vars, degree_bound)``.  Raises if the
    polynomial's degree exceeds the bound.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    if not p.is_zero and p.degree() > degree_bound:
        raise ValueError(
            f"polynomial degree {p.degree()} exceeds bound {degree_bound}"
        )
    index = {exps: i for i, exps in enumerate(graded_monomials(p.num_vars, degree_bound))}
    vec = np.zeros(len(index))
    for exps, coeff in p.terms.items():
        vec[index[exps]] = float(coeff)
    return vec


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
