"""JSON persistence for fitted models and reduction reports.

Floats are stored as 17-significant-digit decimal strings so doubles
round-trip exactly: serialize -> deserialize -> serialize is byte-identical
and a reloaded model evaluates bit-for-bit like the in-memory one.  The
bytes a fit writes are stable for a fixed numpy and BLAS build at a fixed
BLAS thread count: a fit large enough for BLAS to split its products
across threads may round differently at another thread count or on
another build, and no field of the file records either.

The file is the text ``json.dumps(document, indent=2, sort_keys=True)``
would write, rendered straight from the record arrays: each float array is
one ``%``-format of its ``tolist()`` against a template that holds the
indentation, commas and quotes as literal text.  (CPython's C JSON encoder
is not used when ``indent`` is set, and the pure-Python one formats every
number one at a time.)  Golden files under ``tests/data`` pin the bytes.

Each degree's ``parents`` are written from the F counts
(``BasisModel.parents``), and the reader refuses any others.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import reprlib

import numpy as np

from .fit import NormalizationKind
from .model import BasisModel, DegreeRecord, PolyHandle, Preprocessing
from .reduction import DeflationRecord, ReductionReport, RemovedPolynomial

__all__ = [
    "FLOAT_FORMAT",
    "FORMAT_VERSION",
    "model_from_dict",
    "save_model",
    "load_model",
]

FORMAT_VERSION = 1

FLOAT_FORMAT = "%.17g"
"""The one float format of model files and value CSVs: 17 significant
digits, so every double reads back bit for bit."""


def _template(shape: tuple[int, ...], pad: str) -> str:
    """The text of a float array of ``shape`` indented by ``pad``, with one
    quoted ``FLOAT_FORMAT`` slot per entry in row-major order."""
    if not shape:
        return '"' + FLOAT_FORMAT + '"'
    if shape[0] == 0:
        return "[]"
    inner = pad + "  "
    item = inner + _template(shape[1:], inner)
    return "[\n" + item + (",\n" + item) * (shape[0] - 1) + "\n" + pad + "]"


def _render(node, pad: str = "") -> str:
    """``node`` as ``json.dumps(node, indent=2, sort_keys=True)`` writes it
    at indentation ``pad``, except that a NumPy array (0-d for a scalar) is
    written as nested lists of 17-digit strings."""
    if isinstance(node, np.ndarray):
        return _template(node.shape, pad) % tuple(node.ravel().tolist())
    if not isinstance(node, (dict, list)) or not node:
        return json.dumps(node)
    inner = pad + "  "
    if isinstance(node, dict):
        items = ",\n".join(f'{inner}"{key}": {_render(node[key], inner)}' for key in sorted(node))
        return "{\n" + items + "\n" + pad + "}"
    items = ",\n".join(inner + _render(item, inner) for item in node)
    return "[\n" + items + "\n" + pad + "]"


def _floats(x) -> np.ndarray:
    """A float scalar or array as a document leaf, which renders as 17-digit strings."""
    return np.asarray(x, dtype=float)


def _handle_to_dict(h: PolyHandle) -> dict:
    return {"degree": h.degree, "column": h.column, "kind": h.kind}


def _document(model: BasisModel, report: ReductionReport | None) -> dict:
    """The model file's content: JSON values, with float data as NumPy arrays."""
    degrees = [
        {
            "degree": t,
            "parents": [list(k) if t > 1 else k for k in model.parents(t)],
            "ortho_weights": _floats(rec.ortho_weights),
            "eigvecs": _floats(rec.eigvecs),
            "eigvals": _floats(rec.eigvals),
            "partition": list(rec.partition),
        }
        for t, rec in enumerate(model.degrees, start=1)
    ]
    prep = model.preprocessing
    out = {
        "format_version": FORMAT_VERSION,
        "num_vars": model.num_vars,
        "constant_value": _floats(model.constant_value),
        "epsilon": _floats(model.epsilon),
        "normalization": {
            "variant": model.normalization.variant,
            "var_subset": list(model.normalization.var_subset)
            if model.normalization.var_subset is not None
            else None,
            "point_subset": list(model.normalization.point_subset)
            if model.normalization.point_subset is not None
            else None,
        },
        "preprocessing": {
            "center": _floats(prep.center) if prep.center is not None else None,
            "scale": _floats(prep.scale) if prep.scale is not None else None,
        },
        "truncated": model.truncated,
        "degrees": degrees,
    }
    if report is not None:
        out["reduction"] = {
            "threshold": _floats(report.threshold),
            "kept": [_handle_to_dict(h) for h in report.kept],
            "removed": [
                {
                    "handle": _handle_to_dict(r.handle),
                    "max_residual": _floats(r.max_residual),
                    "per_point_residuals": _floats(r.per_point_residuals),
                }
                for r in report.removed
            ],
            "rank_deflated": [
                {
                    "degree": rec.degree,
                    "removed": [_handle_to_dict(h) for h in rec.removed],
                    "original_count": rec.original_count,
                    "gram_rank": rec.gram_rank,
                }
                for rec in report.rank_deflated
            ],
        }
    return out


def _model_text(model: BasisModel, report: ReductionReport | None) -> str:
    return _render(_document(model, report)) + "\n"


# -- typed field readers ------------------------------------------------------
#
# Every external JSON input is decoded by these: model files here, dataset
# specs in ``cli``.  A reader is called as ``read(value, path)`` with a JSON
# value and the path of the field that holds it ("" for the whole document),
# and returns the decoded value or raises one ValueError naming the path.

_NO_DEFAULT = object()
_NUMBERS = {int, float, str}  # a JSON number, or the decimal string a model file stores


def _refuse(path: str, expected: str, value):
    raise ValueError(f"{path + ': ' if path else ''}expected {expected}, got {reprlib.repr(value)}")


def integer(value, path: str) -> int:
    """A JSON integer (an integral float counts); never a bool, a string or a fraction."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    _refuse(path, "an integer", value)


def number(value, path: str, finite: bool = True) -> float:
    """A JSON number or a decimal string, never a bool; finite unless ``finite`` is false."""
    with contextlib.suppress(ValueError, OverflowError):
        if type(value) in _NUMBERS and (math.isfinite(out := float(value)) or not finite):
            return out
    _refuse(path, "a finite number" if finite else "a number", value)


def _exact(kind: type, expected: str):
    """The reader of a JSON value of type ``kind``: nothing is read by its truth value."""
    def read(value, path: str):
        if type(value) is not kind:
            _refuse(path, expected, value)
        return value
    return read


flag = _exact(bool, "true or false")
text = _exact(str, "a string")
listing = _exact(list, "a list")
_object = _exact(dict, "an object")


def items(read, length: int | None = None):
    """The reader of a list (of ``length`` entries, when given) whose
    entries ``read`` reads, as a tuple."""
    def read_items(value, path: str) -> tuple:
        if type(value) is not list or length not in (None, len(value)):
            _refuse(path, "a list" if length is None else f"{length} entries", value)
        return tuple(read(x, f"{path}[{i}]") for i, x in enumerate(value))
    return read_items


def vector(value, path: str) -> np.ndarray:
    """A list of finite numbers as a float array, in one NumPy conversion
    (which reads a string as ``float`` does) when every entry is one."""
    entries = listing(value, path)
    if set(map(type, entries)) <= _NUMBERS:
        with contextlib.suppress(ValueError, OverflowError):
            out = np.array(entries, dtype=float)
            if np.isfinite(out).all():
                return out
    return np.array([number(x, f"{path}[{i}]") for i, x in enumerate(entries)], dtype=float)


def matrix(value, path: str, cols: int = 0) -> np.ndarray:
    """A list of equal-length lists of finite numbers as a 2-D float array;
    ``[]`` has ``cols`` columns."""
    rows = listing(value, path)
    if not rows:
        return np.zeros((0, cols))
    width = len(listing(rows[0], f"{path}[0]"))
    for i, row in enumerate(rows):
        if len(listing(row, f"{path}[{i}]")) != width:
            _refuse(f"{path}[{i}]", f"{width} entries", row)
    try:
        out = vector([x for row in rows for x in row], path)
    except ValueError:  # name the entry by its row
        out = np.array([vector(row, f"{path}[{i}]") for i, row in enumerate(rows)])
    return out.reshape(len(rows), width)


def field(data: dict, key: str, read, default=_NO_DEFAULT, path: str = ""):
    """``read`` of ``data[key]``, where ``data`` sits at ``path``; ``default``
    when the key is absent, or when it holds null and the default is None."""
    where = f"{path}.{key}" if path else key
    value = data.get(key)
    if value is None and (key not in data or default is None):
        if default is _NO_DEFAULT:
            raise ValueError(f"missing field '{where}'")
        return default
    return read(value, where)


def obj(keys=None):
    """The reader of a JSON object whose keys are all in ``keys`` (any key
    when None).  It returns the object's lookup ``get(key, read,
    default)``, which is ``field`` at the object's path."""
    def read_obj(value, path: str):
        _object(value, path)
        unknown = [key for key in value if key not in keys] if keys is not None else []
        if unknown:
            raise ValueError(f"unknown field '{f'{path}.' if path else ''}{unknown[0]}'")
        return functools.partial(field, value, path=path)
    return read_obj


# -- model files ---------------------------------------------------------------


def _handle(value, path: str) -> PolyHandle:
    get = obj(("degree", "column", "kind"))(value, path)
    return PolyHandle(get("degree", integer), get("column", integer), get("kind", text))


def _degree(value, path: str, t: int) -> tuple[DegreeRecord, tuple]:
    """The record of degree ``t``, which the entry must say it holds, and its stored parents."""
    get = obj(("degree", "parents", "ortho_weights", "eigvecs", "eigvals", "partition"))(value, path)
    if get("degree", integer) != t:
        _refuse(f"{path}.degree", str(t), value["degree"])
    parents = get("parents", items(integer if t == 1 else items(integer, 2)))
    eigvals = get("eigvals", vector)
    return DegreeRecord(
        ortho_weights=get("ortho_weights", lambda v, p: matrix(v, p, len(parents))),
        eigvecs=get("eigvecs", lambda v, p: matrix(v, p, eigvals.size)),
        eigvals=eigvals,
        partition=get("partition", items(text)),
    ), parents


def _removed(value, path: str) -> RemovedPolynomial:
    get = obj(("handle", "max_residual", "per_point_residuals"))(value, path)
    return RemovedPolynomial(get("handle", _handle), get("max_residual", number), get("per_point_residuals", vector))


def _deflated(value, path: str) -> DeflationRecord:
    get = obj(("degree", "removed", "original_count", "gram_rank"))(value, path)
    return DeflationRecord(
        get("degree", integer), get("removed", items(_handle)), get("original_count", integer), get("gram_rank", integer)
    )


def _report(value, path: str, model: BasisModel) -> ReductionReport:
    """The reduction report of ``model``: its kept, removed and rank-deflated
    handles name each G handle of the model once, and each rank-deflation
    record is one that ``rank_deflate_degree`` could have written."""
    get = obj(("threshold", "kept", "removed", "rank_deflated"))(value, path)
    threshold = get("threshold", number)
    if threshold < 0:
        raise ValueError(f"reduction.threshold must be >= 0, got {threshold!r}")
    report = ReductionReport(get("kept", items(_handle)), get("removed", items(_removed)),
                             get("rank_deflated", items(_deflated)), threshold)
    named = ([(f"{path}.kept[{i}]", h) for i, h in enumerate(report.kept)]
             + [(f"{path}.removed[{i}].handle", r.handle) for i, r in enumerate(report.removed)]
             + [(f"{path}.rank_deflated[{i}].removed[{j}]", h)
                for i, rec in enumerate(report.rank_deflated) for j, h in enumerate(rec.removed)])
    unseen = dict.fromkeys(model.g_handles())
    for where, h in named:
        if h not in unseen:
            problem = "named twice" if h in model.g_handles() else "not a G polynomial of the model"
            raise ValueError(f"{where}: {h.label()} is {problem}")
        del unseen[h]
    if unseen:
        raise ValueError(f"{path}: {next(iter(unseen)).label()} is neither kept, removed nor rank-deflated")
    for i, rec in enumerate(report.rank_deflated):
        where = f"{path}.rank_deflated[{i}]"
        if not rec.removed:
            _refuse(f"{where}.removed", "at least one handle", [])
        if any(h.degree != rec.degree for h in rec.removed):
            _refuse(f"{where}.degree", f"{rec.removed[0].degree}, the degree of each removed handle", rec.degree)
        count = model.record(rec.degree).partition.count("G")
        if rec.original_count != count:
            _refuse(f"{where}.original_count", f"{count}, the model's G count at degree {rec.degree}",
                    rec.original_count)
        if not 0 <= rec.gram_rank <= count - len(rec.removed):
            _refuse(f"{where}.gram_rank", f"an integer in 0..{count - len(rec.removed)}", rec.gram_rank)
    return report


def _model(data) -> tuple[BasisModel, ReductionReport | None]:
    if isinstance(data, dict) and data.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {data.get('format_version')!r}")
    get = obj(("format_version", "num_vars", "constant_value", "epsilon", "normalization", "preprocessing",
               "truncated", "degrees", "reduction"))(data, "")
    get("format_version", integer)  # which refuses true, though true == 1
    decoded = [_degree(entry, f"degrees[{i}]", i + 1) for i, entry in enumerate(get("degrees", listing))]
    norm = get("normalization", obj(("variant", "var_subset", "point_subset")))
    num_vars = get("num_vars", integer)
    prep = get("preprocessing", obj(("center", "scale")), None) or obj()({}, "preprocessing")  # absent: no fields
    center = prep("center", vector, None)
    if center is not None and center.shape != (num_vars,):
        raise ValueError(f"preprocessing.center must hold {num_vars} numbers")
    scale = prep("scale", number, None)
    if scale is not None and scale <= 0:
        raise ValueError(f"preprocessing.scale must be > 0, got {scale!r}")
    epsilon = get("epsilon", functools.partial(number, finite=False))
    if not epsilon >= 0:  # also refuses NaN; +inf (everything vanishes) loads
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    model = BasisModel(
        num_vars=num_vars,
        constant_value=get("constant_value", number),
        degrees=tuple(record for record, _ in decoded),
        epsilon=epsilon,
        normalization=NormalizationKind(
            norm("variant", text), norm("var_subset", items(integer), None), norm("point_subset", items(integer), None)
        ),
        preprocessing=Preprocessing(center=center, scale=scale),
        truncated=get("truncated", flag, False),
    )
    model.validate()
    for t, (_, parents) in enumerate(decoded, start=1):
        if parents != model.parents(t):
            want = "the variables 0..n-1 in order" if t == 1 else "the degree-1-major grid of F pairs"
            raise ValueError(f"degree-{t} parents are not {want}")
    return model, get("reduction", functools.partial(_report, model=model), None)


def model_from_dict(data: dict) -> tuple[BasisModel, ReductionReport | None]:
    """Rebuild a model (and its reduction report, if stored).

    Raises ``ValueError`` for an unsupported version or malformed data.
    """
    try:
        return _model(data)
    except (KeyError, AttributeError, TypeError, ValueError) as exc:  # one line; the readers name the field
        raise ValueError(f"model JSON: {exc}") from None


def save_model(path, model: BasisModel, report: ReductionReport | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_model_text(model, report))


def load_model(path) -> tuple[BasisModel, ReductionReport | None]:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
