"""The benchmark's workloads: seeded inputs, one repetition's operations,
and the checks applied to each operation's output.

A workload run uses ``fit_draws`` input sets.  Draw 0 is generated with
the run's seed itself; draw i > 0 with ``seed + 1000 * i``.  The cost of a
fit depends on its noise draw (for ``ellipse300``, 22 to 28 degrees across
seeds), so averaging over several draws keeps a run's figures steady from
one seed to the next.  The first ``draws`` draws run every operation; the
rest run only the fit, which is cheap next to the other operations and the
one whose cost varies most from draw to draw.  Pinned outputs apply to
draw 0 of the default seed.
"""

from __future__ import annotations

import io
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks

DEFAULT_SEED = 7

ELLIPSE_RADII = ((1.41, 0.71), (2.0, 1.0))
ELLIPSE_MIXTURES = (0.0, 0.5, 1.0)


@dataclass
class Draw:
    """One input set of a workload run."""

    data: object  # avibasis PointSet
    work: str | None = None  # directory for files the operations write
    csv: str | None = None
    queries: np.ndarray | None = None
    grad_points: np.ndarray | None = None
    pinned: dict = field(default_factory=dict)
    full: bool = True  # False: the repetition runs only the fit

    @property
    def points(self) -> np.ndarray:
        return self.data.points


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[str, ...]
    # The operation whose time, divided by its number of fits, is fit_s.
    fit_op: tuple[str, int]
    draws: int  # draws that run every operation
    setup: Callable  # (api, seed, work_dir, smoke, count) -> list[Draw]
    repetition: Callable  # (runner, api, draw) -> None
    fit_draws: int = 0  # draws in all, the extra ones fit only; 0: ``draws``
    kernel: str = "interpreter"  # the reference.py kernel its timings are scaled by

    def draw_count(self, smoke: bool, trace: bool) -> int:
        """Draws a run sets up.  A traced run uses only the full draws, so
        that its per-draw layer figures cover every operation alike."""
        return 1 if smoke else self.draws if trace else max(self.draws, self.fit_draws)


def draw_seed(seed: int, index: int) -> int:
    return seed + 1000 * index


def _draw_dir(work: str, index: int) -> str:
    path = os.path.join(work, f"draw{index}")
    os.makedirs(path, exist_ok=True)
    return path


def _write_csv(path: str, points: np.ndarray) -> None:
    np.savetxt(path, points, fmt="%.17g", delimiter=",")


def _ellipse_spec(api, samples: int, seed: int):
    a = api.analysis
    return a.DatasetSpec(
        variety=a.ConcentricEllipses(ELLIPSE_RADII),
        samples=samples,
        extra_linear_vars=ELLIPSE_MIXTURES,
        noise_std_fraction=0.02,
        seed=seed,
    )


# -- ellipse300 ----------------------------------------------------------------

E300_EPSILON = 0.05
E300_THRESHOLD = 1e-9
E300_PINNED_COUNTS = (
    (3, 2), (0, 3), (0, 4), (1, 4), (3, 4), (4, 4), (4, 4), (4, 4), (6, 2), (2, 2), (1, 3),
    (3, 3), (4, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (2, 2), (3, 1), (2, 0),
)
E300_PINNED_KEPT = 7


def _setup_ellipse300(api, seed: int, work: str, smoke: bool, count: int) -> list:
    draws = []
    for i in range(count):
        data = api.analysis.generate_dataset(_ellipse_spec(api, 300, draw_seed(seed, i)))
        d = Draw(data, full=i < ELLIPSE300.draws)
        if d.full:
            d.work = _draw_dir(work, i)
            d.csv = os.path.join(d.work, "points.csv")
            _write_csv(d.csv, data.points)
        if seed == DEFAULT_SEED and i == 0:
            d.pinned = {"counts": E300_PINNED_COUNTS, "kept": E300_PINNED_KEPT}
        draws.append(d)
    return draws


def _cli_pipeline(api, d: Draw) -> tuple[int, ...]:
    model = os.path.join(d.work, "model.json")
    values = os.path.join(d.work, "values.csv")
    commands = (
        ["fit", d.csv, "-o", model, "--epsilon", repr(E300_EPSILON), "--normalization", "grad"],
        ["reduce", model, d.csv, "--threshold", repr(E300_THRESHOLD)],
        ["eval", model, d.csv, "-o", values, "--kept-only"],
    )
    with redirect_stdout(io.StringIO()):
        return tuple(api.cli.main(argv) for argv in commands)


def _check_cli(api, d: Draw, codes, counts) -> None:
    checks.require(codes == (0, 0, 0), f"CLI exit codes {codes}")
    model_path = os.path.join(d.work, "model.json")
    checks.check_saved_roundtrip(api, model_path, os.path.join(d.work, "roundtrip.json"))
    model, report = api.model_io.load_model(model_path)
    checks.require(model.degree_counts() == counts, "CLI fit differs from the API fit")
    checks.require(report is not None, "CLI reduce left no report in the model file")
    checks.check_reduction(model, report, d.pinned.get("kept"))
    keep = set(report.kept)
    handles = [h for h in model.handles("G") if h in keep]
    points = np.loadtxt(d.csv, delimiter=",", ndmin=2)
    want = api.model.evaluate(model, handles, points)
    got = np.loadtxt(os.path.join(d.work, "values.csv"), delimiter=",", skiprows=1, ndmin=2)
    checks.require(np.array_equal(got, want), "CLI eval output differs from evaluate")


def _rep_ellipse300(r, api, d: Draw) -> None:
    config = api.fit.FitConfig(epsilon=E300_EPSILON, normalization=api.fit.NormalizationKind.gradient())
    model = r.op("fit", lambda: api.fit.fit(d.data, config),
                 lambda m: checks.check_fit(api, m, d.points, E300_EPSILON, d.pinned.get("counts")))
    if model is None or not d.full:
        return
    r.op("reduce", lambda: api.reduction.reduce_basis(model, d.data, threshold=E300_THRESHOLD),
         lambda rep: checks.check_reduction(model, rep, d.pinned.get("kept")))
    r.op("cli_pipeline", lambda: _cli_pipeline(api, d),
         lambda codes: _check_cli(api, d, codes, model.degree_counts()))


# -- ellipse5000 ---------------------------------------------------------------

E5000_EPSILON = 0.05
E5000_QUERIES = 100_000
E5000_GRAD_POINTS = 5_000
E5000_PINNED_COUNTS = (
    (3, 2), (0, 3), (0, 4), (1, 4), (3, 4), (4, 4), (4, 4), (4, 4), (6, 2), (2, 2), (0, 4),
    (5, 3), (4, 2)) + ((2, 2),) * 16 + ((4, 0),)


def _setup_ellipse5000(api, seed: int, work: str, smoke: bool, count: int) -> list:
    samples, queries = (1000, 5000) if smoke else (5000, E5000_QUERIES)
    draws = []
    for i in range(count):
        s = draw_seed(seed, i)
        d = Draw(api.analysis.generate_dataset(_ellipse_spec(api, samples, s)))
        d.queries = api.analysis.generate_dataset(_ellipse_spec(api, queries, s + 1)).points
        d.grad_points = d.queries[:E5000_GRAD_POINTS]
        if seed == DEFAULT_SEED and i == 0 and not smoke:
            d.pinned = {"counts": E5000_PINNED_COUNTS}
        draws.append(d)
    return draws


def _sample_rows(count: int) -> np.ndarray:
    return np.array([0, count // 2, count - 1])


def _rep_ellipse5000(r, api, d: Draw) -> None:
    config = api.fit.FitConfig(epsilon=E5000_EPSILON, normalization=api.fit.NormalizationKind.gradient())
    model = r.op("fit", lambda: api.fit.fit(d.data, config),
                 lambda m: checks.check_fit(api, m, d.points, E5000_EPSILON, d.pinned.get("counts")))
    if model is None:
        return
    handles = model.handles()
    rows = _sample_rows(d.queries.shape[0])
    r.op("eval", lambda: api.model.evaluate(model, handles, d.queries),
         lambda values: checks.check_rows(api, model, handles, d.queries, values, rows))
    g = model.g_handles()
    r.op("grad", lambda: api.model.gradient(model, g, d.grad_points),
         lambda grads: checks.check_gradients(
             api, model, g, d.grad_points, grads, _sample_rows(d.grad_points.shape[0])))


# -- epsscan75 -----------------------------------------------------------------

EPS_ALPHA = 2.0
EPS_GRID_FITS = 60  # the default tolerance grid
EPS_PINNED_COUNTS = ((5, 2), (3, 0))


def _epsscan_spec(api, seed: int):
    a = api.analysis
    r2 = math.sqrt(2.0)
    return a.DatasetSpec(
        variety=a.ConcentricEllipses(
            radii=tuple((k * r2, k / r2) for k in (1.0, 2.0, 3.0)),
            rotation=3.0 * math.pi / 4.0,
        ),
        samples=75,
        extra_linear_vars=(0.0, 0.2, 0.5, 0.8, 1.0),
        noise_std_fraction=0.05,
        seed=seed,
    )


def _setup_epsscan75(api, seed: int, work: str, smoke: bool, count: int) -> list:
    draws = []
    for i in range(count):
        d = Draw(api.analysis.generate_dataset(_epsscan_spec(api, draw_seed(seed, i))))
        if seed == DEFAULT_SEED and i == 0:
            d.pinned = {"counts": EPS_PINNED_COUNTS}
        draws.append(d)
    return draws


def _check_search(api, result, d: Draw, target) -> None:
    """The search found a tolerance, scanned the whole grid, and the fit at
    that tolerance passes the fit checks and has the target's shape."""
    checks.require(result.found, "epsilon search found no tolerance")
    checks.require(len(result.trace) == EPS_GRID_FITS, f"{len(result.trace)} grid fits")
    model = api.fit.fit(d.data, api.fit.FitConfig(epsilon=result.epsilon))
    checks.check_fit(api, model, d.points, result.epsilon, d.pinned.get("counts"))
    checks.check_search(result, model, target)


def _rep_epsscan75(r, api, d: Draw) -> None:
    target = api.analysis.EpsilonTarget(num_linear=5, d_min=2, num_at_dmin=2)
    result = r.op("search", lambda: api.analysis.epsilon_search(d.data, target),
                  lambda res: _check_search(api, res, d, target))
    if result is None:
        return
    shift = np.ones(d.points.shape[1])
    r.op("diagnose",
         lambda: api.analysis.invariance_report(d.data, shift, EPS_ALPHA, result.epsilon),
         checks.check_invariance)


# -- coefcurve200 --------------------------------------------------------------

COEF_EPSILON = 0.01
COEF_THRESHOLD = 1e-2
COEF_PINNED_COUNTS = ((0, 3), (0, 6), (0, 10), (8, 7), (15, 6), (15, 3), (9, 0))
COEF_PINNED_KEPT = 8


def _curve_system(api):
    """x^2 + y^2 + z^2 - 1 = 0 and xy - z = 0 in three variables."""
    P = api.densepoly.DensePolynomial
    return api.analysis.PolynomialSystem((
        P(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0}),
        P(3, {(1, 1, 0): 1.0, (0, 0, 1): -1.0}),
    ))


def _setup_coefcurve200(api, seed: int, work: str, smoke: bool, count: int) -> list:
    system = _curve_system(api)
    draws = []
    for i in range(count):
        spec = api.analysis.DatasetSpec(
            variety=system, samples=200, noise_std_fraction=0.01, seed=draw_seed(seed, i))
        d = Draw(api.analysis.generate_dataset(spec))
        if seed == DEFAULT_SEED and i == 0:
            d.pinned = {"counts": COEF_PINNED_COUNTS, "kept": COEF_PINNED_KEPT}
        draws.append(d)
    return draws


def _rep_coefcurve200(r, api, d: Draw) -> None:
    config = api.fit.FitConfig(
        epsilon=COEF_EPSILON, normalization=api.fit.NormalizationKind.coefficient())
    model = r.op("fit", lambda: api.fit.fit(d.data, config),
                 lambda m: checks.check_fit(api, m, d.points, COEF_EPSILON, d.pinned.get("counts")))
    if model is None:
        return
    # The model was fitted in this repetition, so expand() starts from an
    # empty per-model expansion cache.
    g = model.g_handles()
    r.op("expand", lambda: [api.model.expand(model, h) for h in g],
         lambda polys: checks.check_expansions(api, model, g, polys, d.points))
    r.op("reduce", lambda: api.reduction.reduce_basis(model, d.data, threshold=COEF_THRESHOLD),
         lambda rep: checks.check_reduction(model, rep, d.pinned.get("kept")))


ELLIPSE300 = Workload(
    "ellipse300", ("fit", "reduce", "cli_pipeline"), ("fit", 1), 3, _setup_ellipse300, _rep_ellipse300,
    fit_draws=12)
ELLIPSE5000 = Workload(
    "ellipse5000", ("fit", "eval", "grad"), ("fit", 1), 1, _setup_ellipse5000, _rep_ellipse5000,
    kernel="array")
EPSSCAN75 = Workload(
    "epsscan75", ("search", "diagnose"), ("search", EPS_GRID_FITS), 2, _setup_epsscan75, _rep_epsscan75)
COEFCURVE200 = Workload(
    "coefcurve200", ("fit", "expand", "reduce"), ("fit", 1), 4, _setup_coefcurve200, _rep_coefcurve200)

WORKLOADS = {w.name: w for w in (ELLIPSE300, ELLIPSE5000, EPSSCAN75, COEFCURVE200)}
