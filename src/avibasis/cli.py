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
from .model_io import FLOAT_FORMAT, integer, items, load_model, matrix, number, obj, save_model, text, vector
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
            rows = [(line, [cell.strip() for cell in row]) for line, row in enumerate(csv.reader(fh), start=1)]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from exc
    rows = [(line, row) for line, row in rows if any(row)]
    data = []
    for i, (line, row) in enumerate(rows):
        if data and len(row) != len(data[0]):
            raise CliError(f"{path}: line {line}: expected {len(data[0])} columns, found {len(row)}")
        try:
            data.append([float(cell) for cell in row])
        except ValueError as exc:
            if i > 0:  # the first row may be a header
                raise CliError(f"{path}: line {line}: malformed row: {exc}") from exc
    if not data:
        raise CliError(f"{path}: empty point set")
    points = np.array(data, dtype=float)
    if not np.isfinite(points).all():  # one vectorised check; the first bad row is sought only on failure
        first = int(np.isfinite(points).all(axis=1).argmin()) + len(rows) - len(data)  # past a header row
        raise CliError(f"{path}: line {rows[first][0]}: points contain NaN or Inf")
    return points


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


def _warn_non_finite(values: np.ndarray) -> None:
    """One stderr line counting the inf and NaN ``values``, if any."""
    if bad := int(np.count_nonzero(~np.isfinite(values))):
        print(f"warning: {bad} of {values.size} values are inf or NaN: the points are too large for the "
              "model's products", file=sys.stderr)


def _parse_list(raw: str, flag: str, kind: type) -> list:
    try:
        return [kind(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError as exc:
        name = "integer" if kind is int else "float"
        raise CliError(f"{flag} expects a comma-separated {name} list", code=2) from exc


def _normalization_from_args(args) -> NormalizationKind:
    if args.normalization == "subgrad":
        if not args.subsample_vars or not args.subsample_points:
            raise CliError(
                "--normalization subgrad requires --subsample-vars and --subsample-points",
                code=2,
            )
        return NormalizationKind.subsampled_gradient(
            _parse_list(args.subsample_vars, "--subsample-vars", int),
            _parse_list(args.subsample_points, "--subsample-points", int),
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
        points = _grid_points(points, args.grid, args.grid_range)
    with np.errstate(all="ignore"):  # one count below, not a warning per product
        values = evaluate(model, handles, points)
    _warn_non_finite(values)
    header = [h.label() for h in handles]
    if args.grid is not None:
        header, values = ["x0", "x1"] + header, np.column_stack([points, values])
    write_csv(args.output, header, values)
    print(f"values written to {args.output}")
    return 0


def _cmd_features(args) -> int:
    models = []
    for path in args.models:
        model, _ = load_model(path)
        models.append(model)
    points = read_points_csv(args.points)
    with np.errstate(all="ignore"):  # one count below, not a warning per product
        rows = extract_features(models, points)
    _warn_non_finite(rows)
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
    b = np.zeros(points.shape[1])
    if args.translate:
        b = np.array(_parse_list(args.translate, "--translate", float))
    if b.shape != (points.shape[1],):
        raise CliError("--translate length must match the point dimension", code=2)
    if not np.isfinite(b).all():
        raise CliError(f"--translate must be finite, got {args.translate!r}", code=2)
    report = invariance_report(points, b, args.scale, args.epsilon, probe_count=args.probes, seed=args.seed)
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


_VARIETY_FIELDS = {
    "concentric_ellipses": ("radii", "rotation"),
    "polynomial_system": ("num_vars", "polynomials"),
    "custom": ("points",),
}


def _polynomial(num_vars: int):
    """The reader of one polynomial: its coefficients keyed by comma-separated exponents."""
    def read(value, path: str) -> DensePolynomial:
        get = obj()(value, path)
        terms = {}
        for key in value:
            exps = key.split(",")
            if len(exps) != num_vars or not all(e.strip().isdecimal() for e in exps):
                raise ValueError(f"{path}: expected keys of {num_vars} comma-separated exponents, got {key!r}")
            terms[tuple(map(int, exps))] = get(key, number)
        return DensePolynomial(num_vars, terms)
    return read


def _mixture(value, path: str):
    """A mixture variable's weights: a scalar, or a vector over the base variables."""
    return tuple(vector(value, path).tolist()) if type(value) is list else number(value, path)


def _variety(value, path: str):
    kind = obj()(value, path)("kind", text)
    if kind not in _VARIETY_FIELDS:
        raise ValueError(f"{path}.kind: expected one of {', '.join(_VARIETY_FIELDS)}, got {kind!r}")
    get = obj(("kind", *_VARIETY_FIELDS[kind]))(value, path)
    if kind == "custom":
        return CustomPoints(get("points", matrix))
    if kind == "polynomial_system":
        return PolynomialSystem(get("polynomials", items(_polynomial(get("num_vars", integer)))))
    return ConcentricEllipses(get("radii", items(items(number, 2))), get("rotation", number, 0.0))


def _dataset_spec(value) -> DatasetSpec:
    get = obj(("variety", "samples", "extra_linear_vars", "noise_std_fraction", "seed"))(value, "")
    return DatasetSpec(
        variety=get("variety", _variety),
        samples=get("samples", integer),
        extra_linear_vars=get("extra_linear_vars", items(_mixture), ()),
        noise_std_fraction=get("noise_std_fraction", number, 0.0),
        seed=get("seed", integer, 0),
    )


def _cmd_generate(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.spec}: invalid JSON: {exc}", code=2) from exc
    try:
        spec = _dataset_spec(data)
    except ValueError as exc:  # the readers' and the dataclasses' messages name the field
        raise CliError(f"{args.spec}: {exc}", code=2) from None
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
        for flag, bound in (("--grid-lo", args.grid_lo), ("--grid-hi", args.grid_hi)):
            if not math.isfinite(bound):
                raise CliError(f"{flag} must be finite, with 0 < lo < hi; got {bound!r}", code=2)
        if not 0 < args.grid_lo < args.grid_hi:
            raise CliError("grid bounds must satisfy 0 < lo < hi", code=2)
        grid = np.geomspace(args.grid_lo, args.grid_hi, args.grid_count)
    else:
        grid = default_epsilon_grid(points, args.grid_count)
    result = epsilon_search(points, target, normalization=_normalization_from_args(args), grid=grid)
    if args.output:
        _write_json(args.output, asdict(result))
    if not result.found:
        trace = f"see the scan trace in {args.output}" if args.output else "-o writes the scan trace"
        print(f"no tolerance on the grid satisfies the target; {trace}")
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
