"""In-memory span tracing of avibasis from outside the package.

While a ``Tracer.patched()`` block is active, the module attributes that
callers look up at call time (``linalg.lstsq``, ``fit.orthogonalize``, the
names ``cli`` imported, the ``DensePolynomial`` arithmetic methods, ...) are
replaced by wrappers that record one span per call: name, start, end and
the index of the enclosing span.  Nothing under ``src/`` changes; leaving
the block restores the original attributes.

Private helpers (``model._pair_eval``, ``model._pair_grad``, ...) are not
wrapped, so their cost is part of their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a span name
# when they are the same function imported into several modules.
TARGETS = (
    ("avibasis.linalg", "lstsq", "linalg.lstsq"),
    ("avibasis.linalg", "gen_sym_eig", "linalg.gen_sym_eig"),
    ("avibasis.linalg", "principal_angles", "linalg.principal_angles"),
    ("avibasis.fit", "fit", "fit.fit"),
    ("avibasis.fit", "orthogonalize", "fit.orthogonalize"),
    ("avibasis.fit", "normalization_matrix", "fit.normalization_matrix"),
    ("avibasis.fit", "classify", "fit.classify"),
    ("avibasis.fit", "coeff_dot", "densepoly.coeff_dot"),
    ("avibasis.model", "evaluate", "model.evaluate"),
    ("avibasis.model", "gradient", "model.gradient"),
    ("avibasis.model", "expand", "model.expand"),
    ("avibasis.reduction", "gradient", "model.gradient"),
    ("avibasis.reduction", "reduce_basis", "reduction.reduce_basis"),
    ("avibasis.reduction", "gradient_dependence_residuals",
     "reduction.gradient_dependence_residuals"),
    ("avibasis.reduction", "rank_deflate_degree", "reduction.rank_deflate_degree"),
    ("avibasis.analysis", "fit", "fit.fit"),
    ("avibasis.analysis", "evaluate", "model.evaluate"),
    ("avibasis.analysis", "gradient", "model.gradient"),
    ("avibasis.analysis", "expand", "model.expand"),
    ("avibasis.analysis", "generate_dataset", "analysis.generate_dataset"),
    ("avibasis.analysis", "epsilon_search", "analysis.epsilon_search"),
    ("avibasis.analysis", "invariance_report", "analysis.invariance_report"),
    ("avibasis.model_io", "save_model", "model_io.save_model"),
    ("avibasis.model_io", "load_model", "model_io.load_model"),
    ("avibasis.cli", "main", "cli.main"),
    ("avibasis.cli", "read_points_csv", "cli.read_points_csv"),
    ("avibasis.cli", "write_csv", "cli.write_csv"),
    ("avibasis.cli", "fit", "fit.fit"),
    ("avibasis.cli", "evaluate", "model.evaluate"),
    ("avibasis.cli", "reduce_basis", "reduction.reduce_basis"),
    ("avibasis.cli", "save_model", "model_io.save_model"),
    ("avibasis.cli", "load_model", "model_io.load_model"),
    ("avibasis.cli", "epsilon_search", "analysis.epsilon_search"),
    ("avibasis.cli", "invariance_report", "analysis.invariance_report"),
    ("avibasis.cli", "generate_dataset", "analysis.generate_dataset"),
    ("avibasis.cli", "extract_features", "analysis.extract_features"),
    ("avibasis.densepoly:DensePolynomial", "__mul__", "densepoly.mul"),
    ("avibasis.densepoly:DensePolynomial", "__add__", "densepoly.add"),
    ("avibasis.densepoly:DensePolynomial", "__sub__", "densepoly.add"),
    ("avibasis.densepoly:DensePolynomial", "scale", "densepoly.add"),
)


def _count_fit(tracer, args, kwargs, model) -> None:
    tracer.counters["fit.degrees"] += len(model.degrees)
    tracer.counters["fit.candidates"] += sum(rec.num_candidates for rec in model.degrees)


def _count_reduction(tracer, args, kwargs, report) -> None:
    removed = len(report.removed) + len(report.deflation_victims())
    tracer.counters["reduction.removed"] += removed
    tracer.counters["reduction.tested"] += removed + len(report.kept)


def _count_search(tracer, args, kwargs, result) -> None:
    signatures = {point.g_counts for point in result.trace}
    tracer.counters["analysis.epsilon_search.distinct_signatures"] += len(signatures)


def _count_saved_bytes(tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs["path"]
    tracer.counters["model_io.model_bytes"] += os.path.getsize(path)


# Work counts read off a wrapped call's arguments and result.
HOOKS = {
    "fit.fit": _count_fit,
    "reduction.reduce_basis": _count_reduction,
    "analysis.epsilon_search": _count_search,
    "model_io.save_model": _count_saved_bytes,
}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans ``[name, start, end, parent_index]`` and work counters.

    A call whose innermost open span already carries the same name (for
    example ``DensePolynomial.__sub__`` delegating to ``__add__``) is folded
    into that span instead of opening a nested one.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for target, attr, name in TARGETS:
                owner = _resolve(target)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, HOOKS.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def span_stats(spans, lo: int = 0, hi: int | None = None):
    """Per-name call counts and self times of ``spans[lo:hi]``.

    Self time is a span's duration minus the part of it covered by its
    child spans.  Returns ``(calls, self_s, child_calls)`` where
    ``child_calls[(parent_name, child_name)]`` counts direct children.
    """
    hi = len(spans) if hi is None else hi
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    child_calls: Counter = Counter()
    for index in range(lo, hi):
        name, start, end, parent = spans[index]
        if parent >= 0:
            children[parent].append((start, end))
            child_calls[(spans[parent][0], name)] += 1
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for index in range(lo, hi):
        name, start, end, _ = spans[index]
        calls[name] += 1
        self_s[name] += (end - start) - _covered(start, end, children.get(index, []))
    return calls, dict(self_s), child_calls
