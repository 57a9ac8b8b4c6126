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

import json

import numpy as np

from .fit import NormalizationKind
from .model import BasisModel, DegreeRecord, PolyHandle, Preprocessing
from .reduction import DeflationRecord, ReductionReport, RemovedPolynomial

__all__ = [
    "FLOAT_FORMAT",
    "FORMAT_VERSION",
    "model_to_dict",
    "model_from_dict",
    "report_from_dict",
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


def _dec_vector(data) -> np.ndarray:
    return np.array([float(x) for x in data], dtype=float)


def _dec_matrix(data, cols_hint: int | None = None) -> np.ndarray:
    rows = [[float(x) for x in row] for row in data]
    if not rows:
        return np.zeros((0, cols_hint or 0))
    width = len(rows[0])
    return np.array(rows, dtype=float).reshape(len(rows), width)


def _handle_to_dict(h: PolyHandle) -> dict:
    return {"degree": h.degree, "column": h.column, "kind": h.kind}


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a string or a fractional number is
    rejected, not converted."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _pair(value) -> tuple[int, int]:
    """A parent entry above degree 1: an ``[i, j]`` list of integers."""
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"parents: expected an [i, j] pair, got {value!r}")
    return _integer("parents", value[0]), _integer("parents", value[1])


def _handle_from_dict(d: dict) -> PolyHandle:
    return PolyHandle(_integer("degree", d["degree"]), _integer("column", d["column"]), str(d["kind"]))


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


def model_to_dict(model: BasisModel, report: ReductionReport | None = None) -> dict:
    """The JSON object ``save_model`` writes, floats as 17-digit strings."""
    return json.loads(_model_text(model, report))


def _expect(where: str, value, kind: type):
    """``value`` itself, or a ValueError naming ``where`` when it is not a ``kind``."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "a list"
        raise ValueError(f"model JSON {where}: expected {expected}, got {type(value).__name__}")
    return value


def _decode(where: str, decode, *args):
    """Run ``decode(*args)``, reporting malformed JSON data as ValueError.

    A missing key or a value of the wrong type becomes a one-line
    ``ValueError`` naming the field and ``where`` it sits ("" for the top
    level of the document).
    """
    label = f"model JSON {where}" if where else "model JSON"
    try:
        return decode(*args)
    except KeyError as exc:
        raise ValueError(f"{label}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{label}: invalid value: {exc}") from None


def _finite(name: str, values):
    """``values`` itself, or a ValueError naming ``name`` when one is NaN or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{name} holds a non-finite value")
    return values


def _degree_from_dict(entry: dict, t: int) -> tuple[DegreeRecord, tuple]:
    """The record of degree ``t``, which ``entry`` must say it holds, and its stored parents."""
    if isinstance(entry["degree"], bool) or entry["degree"] != t:
        raise ValueError(f"degree {entry['degree']!r}, expected {t}")
    if t == 1:
        parents: tuple = tuple(_integer("parents", k) for k in entry["parents"])
    else:
        parents = tuple(_pair(pair) for pair in entry["parents"])
    eigvals = _dec_vector(entry["eigvals"])
    eigvecs = _dec_matrix(entry["eigvecs"], cols_hint=eigvals.size)
    weights = _dec_matrix(entry["ortho_weights"], cols_hint=len(parents))
    return DegreeRecord(
        ortho_weights=_finite("ortho_weights", weights),
        eigvecs=_finite("eigvecs", eigvecs),
        eigvals=_finite("eigvals", eigvals),
        partition=tuple(str(tag) for tag in entry["partition"]),
    ), parents


def _model_from_dict(data: dict, records: tuple[DegreeRecord, ...]) -> BasisModel:
    norm = data["normalization"]
    subsets = [
        tuple(_integer(name, i) for i in norm[name]) if norm.get(name) is not None else None
        for name in ("var_subset", "point_subset")
    ]
    kind = NormalizationKind(norm["variant"], *subsets)
    num_vars = _integer("num_vars", data["num_vars"])
    prep_data = data.get("preprocessing") or {}
    center = scale = None
    if prep_data.get("center") is not None:
        center = _finite("preprocessing.center", _dec_vector(prep_data["center"]))
        if center.shape != (num_vars,):
            raise ValueError(f"preprocessing.center must hold {num_vars} numbers")
    if prep_data.get("scale") is not None:
        scale = float(prep_data["scale"])
        if not 0.0 < scale < np.inf:
            raise ValueError(f"preprocessing.scale must be finite and > 0, got {scale!r}")
    epsilon = float(data["epsilon"])
    if not epsilon >= 0:  # also rejects NaN; +inf (everything vanishes) loads
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    return BasisModel(
        num_vars=num_vars,
        constant_value=_finite("constant_value", float(data["constant_value"])),
        degrees=records,
        epsilon=epsilon,
        normalization=kind,
        preprocessing=Preprocessing(center=center, scale=scale),
        truncated=bool(data.get("truncated", False)),
    )


def model_from_dict(data: dict) -> tuple[BasisModel, ReductionReport | None]:
    """Rebuild a model (and its reduction report, if stored).

    Raises ``ValueError`` for an unsupported version or malformed data.
    """
    if not isinstance(data, dict):
        raise ValueError("model JSON must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    entries = _expect("degrees", _decode("", data.__getitem__, "degrees"), list)
    decoded = [
        _decode(f"degrees[{i}]", _degree_from_dict, _expect(f"degrees[{i}]", e, dict), i + 1)
        for i, e in enumerate(entries)
    ]
    records = tuple(record for record, _ in decoded)
    if "normalization" in data:
        _expect("normalization", data["normalization"], dict)
    if data.get("preprocessing") is not None:
        _expect("preprocessing", data["preprocessing"], dict)
    model = _decode("", _model_from_dict, data, records)
    model.validate()
    for t, (_, parents) in enumerate(decoded, start=1):
        if parents != model.parents(t):
            want = "the variables 0..n-1 in order" if t == 1 else "the degree-1-major grid of F pairs"
            raise ValueError(f"degree-{t} parents are not {want}")
    report = None
    if "reduction" in data:
        report = report_from_dict(_expect("reduction", data["reduction"], dict))
    return model, report


def _report_from_dict(data: dict) -> ReductionReport:
    threshold = _finite("threshold", float(data["threshold"]))
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold!r}")
    return ReductionReport(
        kept=tuple(_handle_from_dict(h) for h in data["kept"]),
        removed=tuple(
            RemovedPolynomial(
                _handle_from_dict(r["handle"]),
                _finite("max_residual", float(r["max_residual"])),
                _finite("per_point_residuals", _dec_vector(r["per_point_residuals"])),
            )
            for r in data["removed"]
        ),
        rank_deflated=tuple(
            DeflationRecord(
                _integer("degree", rec["degree"]),
                tuple(_handle_from_dict(h) for h in rec["removed"]),
                _integer("original_count", rec["original_count"]),
                _integer("gram_rank", rec["gram_rank"]),
            )
            for rec in data["rank_deflated"]
        ),
        threshold=threshold,
    )


def report_from_dict(data: dict) -> ReductionReport:
    """Rebuild a reduction report; raises ``ValueError`` for malformed data."""
    return _decode("reduction", _report_from_dict, data)


def save_model(path, model: BasisModel, report: ReductionReport | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_model_text(model, report))


def load_model(path) -> tuple[BasisModel, ReductionReport | None]:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
