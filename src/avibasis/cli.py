"""Command-line interface: fit, reduce, eval, features, diagnose, generate,
epsilon-search.

CSV files hold one point per row in plain decimal floats; a header row is
auto-detected (first row non-numeric).  Models persist as JSON (see
model_io).  Every subcommand is deterministic given its flags, input files
and seeds; errors go to stderr and yield a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .analysis import (
    ConcentricEllipses,
    CustomPoints,
    DatasetSpec,
    EpsilonTarget,
    PolynomialSystem,
    default_epsilon_grid,
    epsilon_search,
    extract_features,
    generate_dataset,
    invariance_report,
)
from .densepoly import DensePolynomial
from .fit import FitConfig, NormalizationKind, fit
from .model import BasisModel, evaluate
from .model_io import FLOAT_FORMAT, load_model, save_model
from .reduction import reduce_basis

__all__ = ["main"]

_NORMALIZATION_FLAGS = {
    "vca": NormalizationKind.identity,
    "coef": NormalizationKind.coefficient,
    "grad": NormalizationKind.gradient,
}


class CliError(Exception):
    """User-facing error; exit code 2 for usage problems, 1 otherwise."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def read_points_csv(path: str) -> np.ndarray:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            raw_rows = list(csv.reader(fh))
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    rows = [(i + 1, [cell.strip() for cell in row]) for i, row in enumerate(raw_rows)]
    rows = [(line, row) for line, row in rows if any(cell for cell in row)]
    if not rows:
        raise CliError(f"{path}: empty point set")

    def parse(line: int, row: list[str]) -> list[float]:
        try:
            return [float(cell) for cell in row]
        except ValueError as exc:
            raise CliError(f"{path}: line {line}: malformed row: {exc}") from exc

    start = 0
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        start = 1  # header row
    if start >= len(rows):
        raise CliError(f"{path}: empty point set")
    width = len(rows[start][1])
    data = []
    for line, row in rows[start:]:
        if len(row) != width:
            raise CliError(
                f"{path}: line {line}: expected {width} columns, found {len(row)}"
            )
        data.append(parse(line, row))
    return np.array(data, dtype=float)


def write_csv(path: str, header: list[str] | None, rows) -> None:
    """Write ``rows`` (equal-length float rows) as ``csv.writer`` would, one
    ``%``-format of a per-width template per row."""
    values = np.asarray(rows, dtype=float)
    line = ",".join([FLOAT_FORMAT] * values.shape[-1]) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        fh.writelines(line % tuple(row) for row in values.tolist())


def _write_json(path: str, payload) -> None:
    """Write a report as sorted, indented JSON and say where."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report written to {path}")


def _parse_index_list(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise CliError(f"{flag} expects a comma-separated integer list", code=2) from exc


def _parse_float_list(raw: str, flag: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise CliError(f"{flag} expects a comma-separated float list", code=2) from exc


def _normalization_from_args(args) -> NormalizationKind:
    if args.normalization == "subgrad":
        if not args.subsample_vars or not args.subsample_points:
            raise CliError(
                "--normalization subgrad requires --subsample-vars and --subsample-points",
                code=2,
            )
        return NormalizationKind.subsampled_gradient(
            _parse_index_list(args.subsample_vars, "--subsample-vars"),
            _parse_index_list(args.subsample_points, "--subsample-points"),
        )
    if args.subsample_vars or args.subsample_points:
        raise CliError("subsample flags are only valid with --normalization subgrad", code=2)
    return _NORMALIZATION_FLAGS[args.normalization]()


def _print_fit_summary(model: BasisModel) -> None:
    print("degree  |G_t|  |F_t|  min sqrt(lam)  max sqrt(lam)")
    for t, rec in enumerate(model.degrees, start=1):
        g = len(rec.columns("G"))
        f = len(rec.columns("F"))
        roots = np.sqrt(np.clip(rec.eigvals, 0.0, None))
        lo = f"{roots.min():.3e}" if roots.size else "-"
        hi = f"{roots.max():.3e}" if roots.size else "-"
        print(f"{t:>6}  {g:>5}  {f:>5}  {lo:>13}  {hi:>13}")
    total_g = len(model.g_handles())
    total_f = len(model.f_handles())
    print(f"total vanishing: {total_g}, nonvanishing (incl. constant): {total_f}")
    if model.truncated:
        print("warning: degree cap reached before natural termination")


def _cmd_fit(args) -> int:
    points = read_points_csv(args.input)
    config = FitConfig(
        epsilon=args.epsilon,
        normalization=_normalization_from_args(args),
        max_degree=args.max_degree,
        center=args.center,
        unit_mean_norm=args.unit_mean_norm,
    )
    model = fit(points, config)
    save_model(args.output, model)
    _print_fit_summary(model)
    print(f"model written to {args.output}")
    return 0


def _cmd_reduce(args) -> int:
    model, _ = load_model(args.model)
    points = read_points_csv(args.points)
    threshold = args.threshold
    if threshold is None:
        if model.epsilon > 0:
            raise CliError(
                "the model was fit with epsilon > 0 (noisy mode); "
                "pass an explicit --threshold",
                code=2,
            )
        threshold = 1e-9
    if not 0 <= threshold < np.inf:  # also rejects NaN
        raise CliError("--threshold must be finite and >= 0", code=2)
    report = reduce_basis(model, points, threshold=threshold)
    out = args.output or args.model
    save_model(out, model, report)
    victims = report.deflation_victims()
    print(
        f"kept {len(report.kept)} of {len(model.g_handles())} vanishing polynomials "
        f"({len(report.removed)} gradient-dependent, {len(victims)} rank-deflated)"
    )
    print(f"model+report written to {out}")
    return 0


def _grid_points(points: np.ndarray, n: int, bounds) -> np.ndarray:
    if bounds is not None:
        lo, hi = bounds
    else:
        span = points.max(axis=0) - points.min(axis=0)
        lo = float((points.min(axis=0) - 0.25 * span).min())
        hi = float((points.max(axis=0) + 0.25 * span).max())
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _cmd_eval(args) -> int:
    if args.grid_range is not None and args.grid is None:
        raise CliError("--grid-range needs --grid", code=2)
    model, report = load_model(args.model)
    points = read_points_csv(args.points)
    if args.handles == "all":
        handles = list(model.handles())
    else:
        handles = list(model.handles(args.handles))
    if args.kept_only:
        if report is None:
            raise CliError("--kept-only needs a model with an embedded reduction report", code=2)
        keep = set(report.kept)
        handles = [h for h in handles if h.kind != "G" or h in keep]
    if args.grid is not None:
        if model.num_vars != 2:
            raise CliError("--grid export requires a 2-variable model", code=2)
        if args.grid < 2:
            raise CliError("--grid needs at least 2 samples per axis", code=2)
        if args.grid_range is not None:
            lo, hi = args.grid_range
            if not -math.inf < lo < hi < math.inf:  # also rejects NaN
                raise CliError(f"--grid-range needs finite LO < HI, got {lo!r} {hi!r}", code=2)
        grid = _grid_points(points, args.grid, args.grid_range)
        values = evaluate(model, handles, grid)
        header = ["x0", "x1"] + [h.label() for h in handles]
        write_csv(args.output, header, np.column_stack([grid, values]))
    else:
        values = evaluate(model, handles, points)
        write_csv(args.output, [h.label() for h in handles], values)
    print(f"values written to {args.output}")
    return 0


def _cmd_features(args) -> int:
    models = []
    for path in args.models:
        model, _ = load_model(path)
        models.append(model)
    points = read_points_csv(args.points)
    rows = extract_features(models, points)
    header = []
    for i, model in enumerate(models):
        header.extend(f"c{i}_{h.label()}" for h in model.g_handles())
    write_csv(args.output, header, rows)
    print(f"features written to {args.output} ({len(header)} columns)")
    return 0


def _cmd_diagnose(args) -> int:
    if args.probes < 1:
        raise CliError(f"--probes must be >= 1, got {args.probes}", code=2)
    if not math.isfinite(args.scale) or args.scale == 0:
        raise CliError(f"--scale must be finite and nonzero, got {args.scale!r}", code=2)
    points = read_points_csv(args.points)
    b = (
        _parse_float_list(args.translate, "--translate")
        if args.translate
        else np.zeros(points.shape[1])
    )
    if b.shape != (points.shape[1],):
        raise CliError("--translate length must match the point dimension", code=2)
    report = invariance_report(
        points,
        b,
        alpha=args.scale,
        epsilon=args.epsilon,
        probe_count=args.probes,
        seed=args.seed,
    )
    print(f"counts match: {report.counts_match}")
    ratios = [r for degree in report.eigenvalue_ratios for r in degree]
    if ratios:
        print(f"scaled eigenvalue ratio range: [{min(ratios):.6g}, {max(ratios):.6g}]"
              f" (expected {report.alpha ** 2:.6g})")
    print(f"max evaluation discrepancy: {report.max_eval_discrepancy:.3e}")
    # a comparison with no block on one side has a NaN gap: null in JSON
    gaps = [{k: None if v != v else v for k, v in gap.items()} for gap in report.subspace_gaps]
    _write_json(args.output, asdict(report) | {
        "counts_match": report.counts_match,
        "translation": report.translation.tolist(),
        "subspace_gaps": gaps,
    })
    return 0


_REQUIRED = object()


def _spec_field(spec: str, data: dict, key: str, convert, default=_REQUIRED, where: str = ""):
    """``convert(data[key])``, or ``default`` when the key is absent.

    A missing required field or a value ``convert`` rejects is a usage
    error naming the field (``where`` prefixes nested ones).
    """
    if key not in data:
        if default is _REQUIRED:
            raise CliError(f"{spec}: missing field '{where}{key}'", code=2)
        return default
    try:
        return convert(data[key])
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(f"{spec}: {where}{key}: invalid value: {exc}", code=2) from None


def _spec_integer(value) -> int:
    """``value`` as an int; a bool or a fractional number is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _spec_float(value) -> float:
    """``value`` as a float; NaN and the infinities are rejected."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _spec_object(spec: str, where: str, value) -> dict:
    if not isinstance(value, dict):
        raise CliError(f"{spec}: {where}expected an object, got {type(value).__name__}", code=2)
    return value


def _polynomials_from_json(num_vars: int, polynomials) -> tuple:
    polys = []
    for terms in polynomials:
        parsed = {}
        for key, coeff in terms.items():
            exps = tuple(int(tok) for tok in key.split(","))
            parsed[exps] = _spec_float(coeff)
        polys.append(DensePolynomial(num_vars, parsed))
    return tuple(polys)


def _mixture_weights(entries) -> tuple:
    """Scalars stay scalars and vectors become float tuples."""
    return tuple(
        _spec_float(w) if np.ndim(w) == 0 else tuple(_spec_float(x) for x in w) for w in entries
    )


def _variety_from_json(spec: str, data):
    data = _spec_object(spec, "variety: ", data)
    field = functools.partial(_spec_field, spec, data, where="variety.")
    kind = data.get("kind")
    if kind == "concentric_ellipses":
        return ConcentricEllipses(
            radii=field("radii", lambda v: tuple((_spec_float(a), _spec_float(b)) for a, b in v)),
            rotation=field("rotation", _spec_float, 0.0),
        )
    if kind == "polynomial_system":
        num_vars = field("num_vars", _spec_integer)
        return PolynomialSystem(
            field("polynomials", lambda v: _polynomials_from_json(num_vars, v))
        )
    if kind == "custom":
        return CustomPoints(field("points", lambda v: np.array(v, dtype=float)))
    raise CliError(f"{spec}: unknown variety kind {kind!r}", code=2)


def _cmd_generate(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.spec}: invalid JSON: {exc}") from exc
    field = functools.partial(_spec_field, args.spec, _spec_object(args.spec, "", data))
    spec = DatasetSpec(
        variety=field("variety", lambda v: _variety_from_json(args.spec, v)),
        samples=field("samples", _spec_integer),
        extra_linear_vars=field("extra_linear_vars", _mixture_weights, ()),
        noise_std_fraction=field("noise_std_fraction", _spec_float, 0.0),
        seed=field("seed", _spec_integer, 0),
    )
    dataset = generate_dataset(spec)
    write_csv(args.output, None, dataset.points)
    print(f"{dataset.num_points} points ({dataset.num_vars} variables) written to {args.output}")
    return 0


def _cmd_epsilon_search(args) -> int:
    if args.grid_count < 1:
        raise CliError(f"--grid-count must be >= 1, got {args.grid_count}", code=2)
    points = read_points_csv(args.points)
    target = EpsilonTarget(
        num_linear=args.num_linear, d_min=args.dmin, num_at_dmin=args.num_at_dmin
    )
    if args.grid_lo is not None or args.grid_hi is not None:
        if args.grid_lo is None or args.grid_hi is None:
            raise CliError("--grid-lo and --grid-hi must be given together", code=2)
        if not 0 < args.grid_lo < args.grid_hi:  # also rejects NaN
            raise CliError("grid bounds must satisfy 0 < lo < hi", code=2)
        grid = np.geomspace(args.grid_lo, args.grid_hi, args.grid_count)
    else:
        grid = default_epsilon_grid(points, args.grid_count)
    result = epsilon_search(points, target, normalization=_normalization_from_args(args), grid=grid)
    if args.output:
        _write_json(args.output, asdict(result))
    if not result.found:
        print("no tolerance on the grid satisfies the target; see the scan trace")
        return 1
    print(f"epsilon = {result.epsilon:.6g}  (range [{result.lower:.6g}, {result.upper:.6g}])")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avibasis",
        description="Approximate vanishing ideal basis construction and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_norm_flags(p) -> None:
        p.add_argument(
            "--normalization",
            choices=["vca", "coef", "grad", "subgrad"],
            default="grad",
            help="normalization used in the eigenproblem (default: grad)",
        )
        p.add_argument("--subsample-vars", help="comma list of variable indices (subgrad)")
        p.add_argument("--subsample-points", help="comma list of point indices (subgrad)")

    p = sub.add_parser("fit", help="fit a basis model from a CSV point set")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="model.json")
    p.add_argument("--epsilon", type=float, default=0.0)
    add_norm_flags(p)
    p.add_argument("--max-degree", type=int, default=None,
                   help="degree cap (default: number of points)")
    p.add_argument("--center", action="store_true", help="mean-center before fitting")
    p.add_argument("--unit-mean-norm", action="store_true",
                   help="scale so the mean point norm is 1 before fitting")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("reduce", help="remove redundant vanishing polynomials")
    p.add_argument("model")
    p.add_argument("points")
    p.add_argument("--threshold", type=float, default=None,
                   help="per-point residual threshold (default 1e-9 for epsilon=0 models)")
    p.add_argument("-o", "--output", default=None, help="output path (default: in place)")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("eval", help="evaluate basis polynomials at CSV points")
    p.add_argument("model")
    p.add_argument("points")
    p.add_argument("-o", "--output", default="values.csv")
    p.add_argument("--handles", choices=["G", "F", "all"], default="G")
    p.add_argument("--kept-only", action="store_true",
                   help="restrict G handles to the embedded reduction's kept set")
    p.add_argument("--grid", type=int, default=None,
                   help="emit an NxN grid sampling instead (2-variable models)")
    p.add_argument("--grid-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"), help="grid bounds (default: data box + margin)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("features", help="per-class |g(x)| feature vectors")
    p.add_argument("models", nargs="+", help="one fitted model per class")
    p.add_argument("points")
    p.add_argument("-o", "--output", default="features.csv")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("diagnose", help="translation/scaling consistency report")
    p.add_argument("points")
    p.add_argument("--translate", default=None, help="comma list, e.g. '1.5,-2'")
    p.add_argument("--scale", type=float, default=2.0)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--probes", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="diagnose.json")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("generate", help="sample a dataset from a JSON recipe")
    p.add_argument("spec")
    p.add_argument("-o", "--output", default="points.csv")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("epsilon-search", help="linear search for a workable tolerance")
    p.add_argument("points")
    p.add_argument("--num-linear", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--num-at-dmin", type=int, required=True)
    add_norm_flags(p)
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    p.add_argument("--grid-count", type=int, default=60,
                   help="number of grid tolerances, with or without bounds (default 60)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_epsilon_search)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, IndexError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
