"""Model JSON.

The writer's bytes equal ``json.dumps(indent=2, sort_keys=True)`` of the
document built the way the writer built it before it rendered the text
itself, and golden files written by that writer reload and save byte for
byte.

Under corruption, a saved model with one field deleted or replaced must
load into a model that validates and replays to finite values, or be
refused with a ValueError.  A bool anywhere but ``truncated``, an integer
field holding a string or a fractional number, parents other than the ones
the F counts give, a ``truncated`` flag that is not a JSON bool or that
disagrees with the last degree, an emptied matrix, a non-finite eigenvalue
or residual, a non-finite or negative reduction threshold, a negative or
NaN epsilon and reduction handles that do not name each G polynomial of
the model once are always refused."""

import dataclasses
import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avibasis import FitConfig, NormalizationKind, evaluate, fit, load_model, reduce_basis, save_model
from avibasis.model_io import model_from_dict
from conftest import FOUR_POINTS, model_dict, random_cloud

DATA = Path(__file__).parent / "data"


def _saved(points, config, **reduce_args):
    model = fit(points, config)
    return json.dumps(model_dict(model, reduce_basis(model, points, **reduce_args))), points


def _ellipse_points():
    t = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 7)
    return np.c_[1.3 * np.cos(t) + 2.0, 0.7 * np.sin(t) - 1.0]


SAVED = {
    # gradient normalization, preprocessing, and polynomials removed by reduction
    "grad": _saved(_ellipse_points(), FitConfig(epsilon=1e-6, center=True, unit_mean_norm=True),
                   threshold=1e-6),
    # identity normalization with a rank-deflated degree
    "vca": _saved(FOUR_POINTS + np.array([3.0, -1.0]),
                  FitConfig(normalization=NormalizationKind.identity(), center=True, unit_mean_norm=True)),
}
DELETE = "<delete the field>"
VALUES = [DELETE, None, 0, -1, 0.9, 1.5, "x", "3", [], {}, [[1]], True, 10**6, "nan", "-inf"]


def _field_paths(node, path=()):
    """Paths of every dict key in ``node``, reaching dicts inside lists too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


# Entries of the integer parent lists, of the eigenvalue vectors and of the
# per-point residuals, which _field_paths does not reach.
LIST_ENTRIES = [("grad", ("degrees", 0, "parents", 1)), ("grad", ("degrees", 1, "parents", 0, 1)),
                ("vca", ("degrees", 2, "parents", 1, 0)), ("grad", ("degrees", 1, "parents", 2)),
                ("grad", ("degrees", 1, "eigvals", 0)),
                ("vca", ("degrees", 0, "eigvals", 1)),
                ("grad", ("reduction", "removed", 0, "per_point_residuals", 2)),
                ("vca", ("reduction", "removed", 1, "per_point_residuals", 0))]
FIELDS = [(name, path) for name, (text, _) in SAVED.items()
          for path in _field_paths(json.loads(text))] + LIST_ENTRIES
INTEGER_KEYS = ("num_vars", "degree", "column", "original_count", "gram_rank", "parents")
MATRIX_KEYS = ("eigvecs", "ortho_weights")


FINITE_ENTRY_KEYS = ("eigvals", "per_point_residuals")
FINITE_KEYS = ("threshold", "max_residual")
# the report's handle lists and each handle's fields
HANDLE_KEYS = ("kept", "removed", "handle", "degree", "column", "kind")
GRAD_KEPT = json.loads(SAVED["grad"][0])["reduction"]["kept"]
VCA_DEFLATED = json.loads(SAVED["vca"][0])["reduction"]["rank_deflated"]


def _must_refuse(name, path, value) -> bool:
    """Whether the mutation of saved model ``name`` puts true anywhere,
    leaves an integer field a bool, a string or a fraction, changes any parents, makes the
    ``truncated`` flag anything but absent or false (both fits end
    naturally),
    empties a degree's matrix, makes an eigenvalue, a residual or the
    reduction threshold non-finite, makes the threshold negative, makes
    epsilon negative or NaN, changes any reduction handle, or changes a
    rank-deflation record's degree or count or puts its rank out of range."""
    key = next(k for k in reversed(path) if isinstance(k, str))
    if value is True:  # no field reads a bool by its truth value, and true ends neither fit
        return True
    if path == ("epsilon",):
        return value in ("nan", "-inf", -1)
    if path == ("truncated",):
        return value is not DELETE and value is not False
    if key == "parents" and _mutated(name, path, value) != json.loads(SAVED[name][0]):
        return True
    if path[1:2] == ("rank_deflated",) and len(path) == 4 and key != "removed":
        # a record's own field: its handles' degree, the degree's G count, and a rank in
        # 0..original_count - len(removed)
        rec = json.loads(SAVED[name][0])["reduction"]["rank_deflated"][path[2]]
        if type(value) is not int:
            return not (isinstance(value, float) and value.is_integer() and value == rec[key])
        if key == "gram_rank":
            return not 0 <= value <= rec["original_count"] - len(rec["removed"])
        return value != rec[key]
    # the handles name each G polynomial once, so any other handle is foreign or a repeat
    if path[0] == "reduction" and key in HANDLE_KEYS:
        return _mutated(name, path, value) != json.loads(SAVED[name][0])
    if key in INTEGER_KEYS:
        return isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer())
    if key in FINITE_ENTRY_KEYS and path[-1] != key:
        return value in ("nan", "-inf")
    if key in FINITE_KEYS and path[-1] == key:
        return value in ("nan", "-inf") or (key == "threshold" and value == -1)
    return key in MATRIX_KEYS and path[-1] == key and value == []


def _mutated(name, path, value):
    """The saved model ``name`` with the field at ``path`` replaced by ``value`` or deleted."""
    data = json.loads(SAVED[name][0])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def test_fixtures_cover_the_report_sections():
    assert not any(json.loads(text)["truncated"] for text, _ in SAVED.values())
    reports = [json.loads(text)["reduction"] for text, _ in SAVED.values()]
    assert any(r["removed"] for r in reports) and any(r["rank_deflated"] for r in reports)
    assert {name for name, path in FIELDS if path[-1] in FINITE_KEYS} == {"grad", "vca"}


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
@example(field=("vca", ("degrees", 2, "degree")), value=0)
@example(field=("grad", ("constant_value",)), value="nan")
@example(field=("grad", ("preprocessing", "scale")), value="nan")
@example(field=("grad", ("preprocessing", "scale")), value=0)
@example(field=("grad", ("degrees", 1, "eigvecs")), value=[])
@example(field=("grad", ("degrees", 0, "parents", 1)), value=0.9)
@example(field=("grad", ("degrees", 0, "parents", 1)), value=0)
@example(field=("vca", ("truncated",)), value=True)
@example(field=("grad", ("truncated",)), value=DELETE)
@example(field=("grad", ("degrees", 1, "parents", 0, 1)), value=True)
@example(field=("vca", ("reduction", "rank_deflated", 0, "gram_rank")), value=1.5)
@example(field=("vca", ("reduction", "kept", 0, "column")), value=True)
@example(field=("grad", ("num_vars",)), value=1.5)
@example(field=("grad", ("degrees", 1, "eigvals", 0)), value="nan")
@example(field=("vca", ("degrees", 0, "eigvals", 1)), value="-inf")
@example(field=("grad", ("reduction", "threshold")), value="nan")
@example(field=("vca", ("reduction", "threshold")), value=-1)
@example(field=("grad", ("reduction", "removed", 0, "max_residual")), value="-inf")
@example(field=("grad", ("reduction", "removed", 0, "per_point_residuals", 2)), value="nan")
@example(field=("grad", ("epsilon",)), value=-1)
@example(field=("vca", ("epsilon",)), value="-inf")
@example(field=("vca", ("epsilon",)), value="nan")
@example(field=("grad", ("reduction", "kept", 0, "column")), value=10**6)
@example(field=("grad", ("reduction", "removed", 0, "handle", "column")), value=3)
@example(field=("vca", ("reduction", "rank_deflated", 0, "removed")), value=[])
@example(field=("vca", ("reduction", "rank_deflated", 0, "degree")), value=10**6)
@example(field=("vca", ("reduction", "rank_deflated", 0, "degree")), value=0)
@example(field=("vca", ("reduction", "rank_deflated", 0, "gram_rank")), value=10**6)
@example(field=("vca", ("reduction", "rank_deflated", 0, "gram_rank")), value=-1)
@example(field=("vca", ("reduction", "rank_deflated", 0, "gram_rank")), value=0)
@example(field=("vca", ("reduction", "rank_deflated", 0, "original_count")), value=-5)
def test_mutated_model_loads_sound_or_raises_value_error(field, value):
    name, path = field
    data = _mutated(name, path, value)
    try:
        model, _ = model_from_dict(data)
    except ValueError:
        return
    assert not _must_refuse(name, path, value), "the mutated model loaded"
    model.validate()
    assert np.isfinite(evaluate(model, model.handles(), SAVED[name][1])).all()


@pytest.mark.parametrize("field,value,message", [
    (("grad", ("degrees", 1, "eigvecs")), [], "degree-2 eigenvector rows != candidate count"),
    (("grad", ("degrees", 0, "parents")), [0.9, 1.2], "degrees[0].parents[0]: expected an integer, got 0.9"),
    (("grad", ("degrees", 1, "parents", 0, 1)), True, "degrees[1].parents[0][1]: expected an integer, got True"),
    (("grad", ("num_vars",)), 2.5, "num_vars: expected an integer, got 2.5"),
    (("grad", ("num_vars",)), "2", "num_vars: expected an integer, got '2'"),
    (("grad", ("degrees", 0, "parents", 1)), "1", "degrees[0].parents[1]: expected an integer, got '1'"),
    (("grad", ("degrees", 1, "parents", 0)), [0, 0, 0], "degrees[1].parents[0]: expected 2 entries, got [0, 0, 0]"),
    (("grad", ("degrees", 1, "parents", 0)), 0, "degrees[1].parents[0]: expected 2 entries, got 0"),
    (("grad", ("degrees", 1, "parents", 0)), "00", "degrees[1].parents[0]: expected 2 entries, got '00'"),
    (("grad", ("degrees", 0, "degree")), True, "degrees[0].degree: expected an integer, got True"),
    (("grad", ("reduction", "kept", 0, "column")), 2.5, "column: expected an integer, got 2.5"),
    (("grad", ("reduction", "kept", 0, "column")), "0", "column: expected an integer, got '0'"),
    (("vca", ("reduction", "rank_deflated", 0, "degree")), True, "degree: expected an integer, got True"),
    (("vca", ("reduction", "rank_deflated", 0, "original_count")), 3.5,
     "original_count: expected an integer, got 3.5"),
    (("grad", ("reduction", "threshold")), "nan", "reduction.threshold: expected a finite number, got 'nan'"),
    (("grad", ("reduction", "threshold")), "-1", "threshold must be >= 0, got -1.0"),
    (("grad", ("reduction", "removed", 0, "max_residual")), "inf",
     "reduction.removed[0].max_residual: expected a finite number, got 'inf'"),
    (("grad", ("reduction", "removed", 0, "per_point_residuals", 1)), "nan",
     "reduction.removed[0].per_point_residuals[1]: expected a finite number, got 'nan'"),
    (("grad", ("epsilon",)), "-1", "epsilon must be >= 0, got -1.0"),
    (("vca", ("epsilon",)), "-inf", "epsilon must be >= 0, got -inf"),
    (("grad", ("epsilon",)), "nan", "epsilon must be >= 0, got nan"),
    (("grad", ("truncated",)), "false", "truncated: expected true or false, got 'false'"),
    (("vca", ("truncated",)), 0, "truncated: expected true or false, got 0"),
    (("grad", ("truncated",)), None, "truncated: expected true or false, got None"),
    (("grad", ("preprocessing", "scale")), True, "preprocessing.scale: expected a finite number, got True"),
    (("grad", ("constant_value",)), True, "constant_value: expected a finite number, got True"),
    (("grad", ("degrees", 1, "eigvals", 0)), True, "degrees[1].eigvals[0]: expected a finite number, got True"),
    (("grad", ("format_version",)), True, "format_version: expected an integer, got True"),
    (("grad", ("bogus",)), 1, "unknown field 'bogus'"),
    (("vca", ("reduction", "kept", 0, "bogus")), 1, "unknown field 'reduction.kept[0].bogus'"),
    (("grad", ("reduction", "kept", 0, "column")), 10**6,
     "reduction.kept[0]: d2_g1000000 is not a G polynomial of the model"),
    (("grad", ("reduction", "kept")), GRAD_KEPT + [{"degree": 9, "column": 0, "kind": "G"}],
     "reduction.kept[5]: d9_g0 is not a G polynomial of the model"),
    (("grad", ("reduction", "kept")), GRAD_KEPT + GRAD_KEPT[:1], "reduction.kept[5]: d2_g2 is named twice"),
    (("vca", ("reduction", "rank_deflated", 0, "removed")), [],
     "reduction: d2_g2 is neither kept, removed nor rank-deflated"),
    (("vca", ("reduction", "rank_deflated", 0, "degree")), 10**6,
     "reduction.rank_deflated[0].degree: expected 2, the degree of each removed handle, got 1000000"),
    (("vca", ("reduction", "rank_deflated", 0, "degree")), 0,
     "reduction.rank_deflated[0].degree: expected 2, the degree of each removed handle, got 0"),
    (("vca", ("reduction", "rank_deflated", 0, "gram_rank")), 10**6,
     "reduction.rank_deflated[0].gram_rank: expected an integer in 0..2, got 1000000"),
    (("vca", ("reduction", "rank_deflated", 0, "gram_rank")), -1,
     "reduction.rank_deflated[0].gram_rank: expected an integer in 0..2, got -1"),
    (("vca", ("reduction", "rank_deflated", 0, "original_count")), -5,
     "reduction.rank_deflated[0].original_count: expected 3, the model's G count at degree 2, got -5"),
    (("vca", ("reduction", "rank_deflated")),
     VCA_DEFLATED + [{"degree": 2, "removed": [], "original_count": 3, "gram_rank": 0}],
     "reduction.rank_deflated[1].removed: expected at least one handle, got []"),
], ids=["empty eigvecs", "fractional parents", "bool pair parent", "fractional num_vars", "string num_vars",
        "string parent", "triple parent", "int parent pair", "string parent pair", "bool degree",
        "fractional column", "string column", "bool deflated degree", "fractional original_count", "nan threshold",
        "negative threshold", "inf max_residual", "nan residual", "negative epsilon",
        "-inf epsilon", "nan epsilon", "string truncated", "integer truncated", "null truncated",
        "bool scale", "bool constant", "bool eigval", "bool format_version", "unknown key", "unknown handle key",
        "foreign kept column", "foreign kept degree", "repeated kept handle", "dropped deflated handle",
        "huge deflated degree", "zero deflated degree", "huge gram_rank", "negative gram_rank",
        "negative original_count", "empty deflation record"])
def test_refused_with_a_one_line_field_error(field, value, message):
    data = _mutated(*field, value)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        model_from_dict(data)
    assert "\n" not in str(info.value)


# -- the writer against its oracle ---------------------------------------------


def _enc(x) -> str:
    return f"{float(x):.17g}"


def _enc_array(a):
    return [_enc(x) for x in a] if a.ndim == 1 else [_enc_array(row) for row in a]


def _handle(h) -> dict:
    return {"degree": h.degree, "column": h.column, "kind": h.kind}


def _oracle_text(model, report=None) -> str:
    """The file as the writer wrote it through ``json.dumps`` of nested
    dicts and lists of 17-digit strings."""
    norm, prep = model.normalization, model.preprocessing
    data = {
        "format_version": 1,
        "num_vars": model.num_vars,
        "constant_value": _enc(model.constant_value),
        "epsilon": _enc(model.epsilon),
        "normalization": {
            "variant": norm.variant,
            "var_subset": None if norm.var_subset is None else list(norm.var_subset),
            "point_subset": None if norm.point_subset is None else list(norm.point_subset),
        },
        "preprocessing": {
            "center": None if prep.center is None else _enc_array(prep.center),
            "scale": None if prep.scale is None else _enc(prep.scale),
        },
        "truncated": model.truncated,
        "degrees": [
            {
                "degree": t,
                "parents": [int(k) for k in model.parents(t)] if t == 1
                else [[int(i), int(j)] for i, j in model.parents(t)],
                "ortho_weights": _enc_array(rec.ortho_weights),
                "eigvecs": _enc_array(rec.eigvecs),
                "eigvals": _enc_array(rec.eigvals),
                "partition": list(rec.partition),
            }
            for t, rec in enumerate(model.degrees, start=1)
        ],
    }
    if report is not None:
        data["reduction"] = {
            "threshold": _enc(report.threshold),
            "kept": [_handle(h) for h in report.kept],
            "removed": [
                {"handle": _handle(r.handle), "max_residual": _enc(r.max_residual),
                 "per_point_residuals": _enc_array(r.per_point_residuals)}
                for r in report.removed
            ],
            "rank_deflated": [
                {"degree": rec.degree, "removed": [_handle(h) for h in rec.removed],
                 "original_count": rec.original_count, "gram_rank": rec.gram_rank}
                for rec in report.rank_deflated
            ],
        }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _saved_bytes(model, report=None) -> bytes:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "model.json")
        save_model(path, model, report)
        return Path(path).read_bytes()


# Written by the json.dumps-based writer (see the module docstring) from
# fits of fixed point sets; they pin the bytes across versions, so a change
# that needs them rewritten changes the format.
GOLDEN = sorted(DATA.glob("*.json"))


def test_golden_files_cover_the_format():
    texts = [path.read_text() for path in GOLDEN]
    docs = [json.loads(text) for text in texts]
    assert {d["normalization"]["variant"] for d in docs} >= {"gradient", "identity", "subsampled_gradient"}
    assert any(d["preprocessing"]["center"] is not None and d["preprocessing"]["scale"] is not None
               for d in docs)
    assert any(d["reduction"]["removed"] for d in docs) and any(d["reduction"]["rank_deflated"] for d in docs)
    assert any(deg["eigvecs"] and all(row == [] for row in deg["eigvecs"])
               for d in docs for deg in d["degrees"])
    assert any('"-0"' in text for text in texts)


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_golden_file_reloads_and_saves_byte_for_byte(path):
    model, report = load_model(path)
    saved = _saved_bytes(model, report)
    assert saved == path.read_bytes()
    assert saved.decode() == _oracle_text(model, report)
    assert model_dict(model, report) == json.loads(saved)


SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, np.inf, -np.inf, np.nan]


@st.composite
def _written_model(draw):
    """A fit of a random cloud or ellipse, with or without preprocessing and a
    reduction report, with special floats planted into its arrays and
    scalars and, at times, a degree emptied to zero-size matrices.  The
    writer takes whatever it is given, so the result need not validate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # an ellipse, whose reductions remove and deflate
        num_vars, num_points = 2, draw(st.integers(5, 9))
        t = rng.uniform(0.0, 2.0 * np.pi, num_points)
        points = np.c_[np.cos(t), 0.5 * np.sin(t)]
    else:
        num_vars, num_points = draw(st.integers(1, 3)), draw(st.integers(2, 8))
        points = random_cloud(rng, num_points, num_vars)
    variant = draw(st.sampled_from(["identity", "coefficient", "gradient", "subsampled_gradient"]))
    if variant == "subsampled_gradient":
        kind = NormalizationKind.subsampled_gradient(
            sorted(draw(st.sets(st.integers(0, num_vars - 1), min_size=1))),
            sorted(draw(st.sets(st.integers(0, num_points - 1), min_size=1))))
    else:
        kind = NormalizationKind(variant)
    config = FitConfig(epsilon=draw(st.sampled_from([0.0, 1e-3, 0.1, np.inf])), normalization=kind,
                       max_degree=4, center=draw(st.booleans()), unit_mean_norm=draw(st.booleans()))
    model = fit(points, config)
    report = None
    if draw(st.booleans()):
        report = reduce_basis(model, points, threshold=draw(st.sampled_from([1e-3, 0.0, 1e-9, 0.5])))
    if not draw(st.booleans()):
        return model, report

    def plant(a):
        a = np.array(a, dtype=float)
        flat = a.reshape(-1)
        for i in np.flatnonzero(rng.random(flat.size) < 0.3):
            flat[i] = draw(st.sampled_from(SPECIAL))
        return a if a.ndim else float(a)

    degrees = [dataclasses.replace(rec, ortho_weights=plant(rec.ortho_weights), eigvecs=plant(rec.eigvecs),
                                   eigvals=plant(rec.eigvals)) for rec in model.degrees]
    if draw(st.booleans()):
        t = draw(st.integers(0, len(degrees) - 1))
        rec = degrees[t]
        degrees[t] = dataclasses.replace(rec, ortho_weights=np.zeros((0, rec.ortho_weights.shape[1])),
                                         eigvecs=np.zeros((rec.eigvecs.shape[0], 0)), eigvals=np.zeros(0),
                                         partition=())
    prep = model.preprocessing
    model = dataclasses.replace(
        model, degrees=tuple(degrees), epsilon=plant(model.epsilon),
        constant_value=draw(st.sampled_from([x for x in SPECIAL if x != 0] + [model.constant_value])),
        preprocessing=dataclasses.replace(
            prep, center=None if prep.center is None else plant(prep.center),
            scale=None if prep.scale is None else plant(prep.scale)))
    if report is not None:
        report = dataclasses.replace(
            report, threshold=plant(report.threshold),
            removed=tuple(dataclasses.replace(r, max_residual=plant(r.max_residual),
                                              per_point_residuals=plant(r.per_point_residuals))
                          for r in report.removed))
    return model, report


@settings(max_examples=150, deadline=None)
@given(_written_model())
def test_written_bytes_are_the_json_dumps_oracle(case):
    model, report = case
    saved = _saved_bytes(model, report)
    assert saved.decode() == _oracle_text(model, report)
    assert model_dict(model, report) == json.loads(saved)


@pytest.mark.parametrize("name", sorted(SAVED))
def test_fixture_bytes_are_the_json_dumps_oracle(name):
    """The corruption fixtures: removals, deflations and preprocessing."""
    text, points = SAVED[name]
    model, report = model_from_dict(json.loads(text))
    assert _saved_bytes(model, report).decode() == _oracle_text(model, report)


# Written from fits of the space curve x^2 + y^2 + z^2 = 1, xy = z (60
# samples, noise 0.01) in coefficient normalization at epsilon 0.01,
# reduced at threshold 1e-2, by the dict-based symbolic kernel that the
# array kernel replaced: each case holds the model JSON with its
# reduction and the expansion of every handle, "exponents float.hex" per
# term in term order.
COEFFICIENT_GOLDEN = json.loads((DATA / "coefficient" / "curve_reduced.json").read_text())


@pytest.mark.parametrize("case", sorted(COEFFICIENT_GOLDEN))
def test_coefficient_fit_and_expansions_match_the_golden_file(case, tmp_path):
    from avibasis import DensePolynomial, expand
    from avibasis.analysis import DatasetSpec, PolynomialSystem, generate_dataset

    golden = COEFFICIENT_GOLDEN[case]
    curve = PolynomialSystem((
        DensePolynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0}),
        DensePolynomial(3, {(1, 1, 0): 1.0, (0, 0, 1): -1.0}),
    ))
    seed = int(case.removeprefix("seed="))
    points = generate_dataset(DatasetSpec(variety=curve, samples=60, noise_std_fraction=0.01, seed=seed)).points
    model = fit(points, FitConfig(epsilon=0.01, normalization=NormalizationKind.coefficient()))
    report = reduce_basis(model, points, threshold=1e-2)
    save_model(tmp_path / "m.json", model, report)
    assert (tmp_path / "m.json").read_text() == golden["model"]
    loaded, _ = load_model(tmp_path / "m.json")

    def terms(m, h):
        return [",".join(map(str, e)) + " " + float(c).hex() for e, c in expand(m, h).terms.items()]

    assert {h.label(): terms(model, h) for h in model.handles()} == golden["expansions"]
    assert {h.label(): terms(loaded, h) for h in loaded.handles()} == golden["expansions"]
