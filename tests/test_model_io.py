"""Model JSON under corruption: a saved model with one field deleted or
replaced must load into a model that validates and replays to finite
values, or be refused with a ValueError."""

import json

import numpy as np
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
VALUES = [DELETE, None, 0, -1, 1.5, "x", [], {}, [[1]], True, 10**6, "nan"]


def _field_paths(node, path=()):
    """Paths of every dict key in ``node``, reaching dicts inside lists too."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(node, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


FIELDS = [(name, path) for name, (text, _) in SAVED.items() for path in _field_paths(json.loads(text))]


def test_fixtures_cover_the_report_sections():
    reports = [json.loads(text)["reduction"] for text, _ in SAVED.values()]
    assert any(r["removed"] for r in reports) and any(r["rank_deflated"] for r in reports)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=st.sampled_from(VALUES))
@example(field=("vca", ("degrees", 2, "degree")), value=0)
@example(field=("grad", ("constant_value",)), value="nan")
@example(field=("grad", ("preprocessing", "scale")), value="nan")
@example(field=("grad", ("preprocessing", "scale")), value=0)
def test_mutated_model_loads_sound_or_raises_value_error(field, value):
    name, path = field
    text, points = SAVED[name]
    data = json.loads(text)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        model, _ = model_from_dict(data)
    except ValueError:
        return
    model.validate()
    assert np.isfinite(evaluate(model, model.handles(), points)).all()
