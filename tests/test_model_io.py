"""Model JSON under corruption: a saved model with one field deleted or
replaced must load into a model that validates and replays to finite
values, or be refused with a ValueError.  An integer field holding a bool
or a fractional number, an emptied matrix and a non-finite eigenvalue are
always refused."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avibasis import FitConfig, NormalizationKind, evaluate, fit, reduce_basis
from avibasis.model_io import model_from_dict, model_to_dict
from conftest import FOUR_POINTS


def _saved(points, config, **reduce_args):
    model = fit(points, config)
    return json.dumps(model_to_dict(model, reduce_basis(model, points, **reduce_args))), points


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
VALUES = [DELETE, None, 0, -1, 0.9, 1.5, "x", [], {}, [[1]], True, 10**6, "nan", "-inf"]


def _field_paths(node, path=()):
    """Paths of every dict key in ``node``, reaching dicts inside lists too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


# Entries of the integer parent lists and of the eigenvalue vectors, which
# _field_paths does not reach.
LIST_ENTRIES = [("grad", ("degrees", 0, "parents", 1)), ("grad", ("degrees", 1, "parents", 0, 1)),
                ("vca", ("degrees", 2, "parents", 1, 0)), ("grad", ("degrees", 1, "eigvals", 0)),
                ("vca", ("degrees", 0, "eigvals", 1))]
FIELDS = [(name, path) for name, (text, _) in SAVED.items()
          for path in _field_paths(json.loads(text))] + LIST_ENTRIES
INTEGER_KEYS = ("num_vars", "degree", "column", "original_count", "gram_rank", "parents")
MATRIX_KEYS = ("eigvecs", "ortho_weights")


def _must_refuse(path, value) -> bool:
    """Whether the mutation leaves an integer field a bool or a fraction,
    empties a degree's matrix, or makes an eigenvalue non-finite."""
    key = next(k for k in reversed(path) if isinstance(k, str))
    if key in INTEGER_KEYS:
        return isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
    if key == "eigvals" and path[-1] != key:
        return value in ("nan", "-inf")
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
    reports = [json.loads(text)["reduction"] for text, _ in SAVED.values()]
    assert any(r["removed"] for r in reports) and any(r["rank_deflated"] for r in reports)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
@example(field=("vca", ("degrees", 2, "degree")), value=0)
@example(field=("grad", ("constant_value",)), value="nan")
@example(field=("grad", ("preprocessing", "scale")), value="nan")
@example(field=("grad", ("preprocessing", "scale")), value=0)
@example(field=("grad", ("degrees", 1, "eigvecs")), value=[])
@example(field=("grad", ("degrees", 0, "parents", 1)), value=0.9)
@example(field=("grad", ("degrees", 1, "parents", 0, 1)), value=True)
@example(field=("vca", ("reduction", "rank_deflated", 0, "gram_rank")), value=1.5)
@example(field=("vca", ("reduction", "kept", 0, "column")), value=True)
@example(field=("grad", ("num_vars",)), value=1.5)
@example(field=("grad", ("degrees", 1, "eigvals", 0)), value="nan")
@example(field=("vca", ("degrees", 0, "eigvals", 1)), value="-inf")
def test_mutated_model_loads_sound_or_raises_value_error(field, value):
    name, path = field
    data = _mutated(name, path, value)
    try:
        model, _ = model_from_dict(data)
    except ValueError:
        return
    assert not _must_refuse(path, value), "the mutated model loaded"
    model.validate()
    assert np.isfinite(evaluate(model, model.handles(), SAVED[name][1])).all()


@pytest.mark.parametrize("field,value,message", [
    (("grad", ("degrees", 1, "eigvecs")), [], "degree-2 eigenvector rows != candidate count"),
    (("grad", ("degrees", 0, "parents")), [0.9, 1.2], "parents: expected an integer, got 0.9"),
    (("grad", ("degrees", 1, "parents", 0, 1)), True, "parents: expected an integer, got True"),
    (("grad", ("num_vars",)), 2.5, "num_vars: expected an integer, got 2.5"),
    (("grad", ("degrees", 0, "degree")), True, "degree True, expected 1"),
    (("grad", ("reduction", "kept", 0, "column")), 2.5, "column: expected an integer, got 2.5"),
    (("vca", ("reduction", "rank_deflated", 0, "degree")), True, "degree: expected an integer, got True"),
    (("vca", ("reduction", "rank_deflated", 0, "original_count")), 3.5,
     "original_count: expected an integer, got 3.5"),
], ids=["empty eigvecs", "fractional parents", "bool pair parent", "fractional num_vars", "bool degree",
        "fractional column", "bool deflated degree", "fractional original_count"])
def test_refused_with_a_one_line_field_error(field, value, message):
    data = _mutated(*field, value)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        model_from_dict(data)
    assert "\n" not in str(info.value)
