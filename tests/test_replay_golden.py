"""Replay outputs against golden files, byte for byte, and their layout.

``tests/data/replay`` holds, per model, ``float.hex`` of ``evaluate`` (all
handles) and ``gradient`` (the G handles) at the training points and at
off-training points, the gradient ``n_ratio`` and the ``reduce_basis``
report.  The files were written by this module's writer before replays
returned handle-major arrays, so they pin that change of memory order to
the same bytes, signed zeros included: arrays are compared as the bytes
of a row-major copy, not with ``array_equal``.  The fits stay small (40
training points or fewer, 40 queries) so that BLAS runs them on one thread
at any thread count: the bytes then depend only on the numpy and BLAS
build.

Write the files with ``PYTHONPATH=src python tests/test_replay_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from avibasis import (
    DensePolynomial,
    FitConfig,
    NormalizationKind,
    evaluate,
    fit,
    gradient,
    reduce_basis,
    save_model,
)
from avibasis.analysis import (
    ConcentricEllipses,
    DatasetSpec,
    PolynomialSystem,
    extract_features,
    generate_dataset,
    n_ratio,
)
from avibasis.cli import main

REPLAY = Path(__file__).parent / "data" / "replay"
QUERIES = 40


def _ellipse(seed):
    return DatasetSpec(variety=ConcentricEllipses(((1.41, 0.71), (2.0, 1.0))), samples=40,
                       extra_linear_vars=(0.5,), noise_std_fraction=0.02, seed=seed)


def _curve(seed):
    """The space curve x^2 + y^2 + z^2 = 1, xy = z."""
    system = PolynomialSystem((
        DensePolynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0}),
        DensePolynomial(3, {(1, 1, 0): 1.0, (0, 0, 1): -1.0}),
    ))
    return DatasetSpec(variety=system, samples=30, noise_std_fraction=0.01, seed=seed)


# name -> (dataset spec of a seed, fit config, reduction threshold)
CASES = {
    "ellipse_gradient": (_ellipse, FitConfig(epsilon=0.05, normalization=NormalizationKind.gradient()), 1e-9),
    "curve_coefficient": (_curve, FitConfig(epsilon=0.01, normalization=NormalizationKind.coefficient()), 1e-2),
}
SEED = 7


def _inputs(name):
    """The case's model, its training points and its off-training points
    (the same variety sampled from another seed)."""
    spec, config, _ = CASES[name]
    train = generate_dataset(spec(SEED)).points
    queries = generate_dataset(dataclasses.replace(spec(SEED + 1), samples=QUERIES)).points
    return fit(train, config), train, queries


def _hex_rows(a) -> list[str]:
    return [" ".join(float(x).hex() for x in row) for row in np.asarray(a).tolist()]


def _from_rows(rows) -> np.ndarray:
    return np.array([[float.fromhex(x) for x in row.split()] for row in rows])


def _record(name) -> dict:
    """What the golden file of case ``name`` holds."""
    model, train, queries = _inputs(name)
    g = model.g_handles()
    report = reduce_basis(model, train, threshold=CASES[name][2])
    return {
        "evaluate": {where: _hex_rows(evaluate(model, model.handles(), pts))
                     for where, pts in (("train", train), ("query", queries))},
        "gradient": {where: {h.label(): _hex_rows(d) for h, d in zip(g, gradient(model, g, pts))}
                     for where, pts in (("train", train), ("query", queries))},
        "n_ratio": n_ratio(model, NormalizationKind.gradient(), train).hex(),
        "reduction": {
            "kept": [h.label() for h in report.kept],
            "removed": {r.handle.label(): _hex_rows([r.per_point_residuals])[0] for r in report.removed},
        },
    }


def _golden(name) -> dict:
    return json.loads((REPLAY / f"{name}.json").read_text())


def _same_bytes(got, want: np.ndarray) -> bool:
    got = np.ascontiguousarray(got)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
class TestReplayGolden:
    def test_evaluate_and_gradient_bytes(self, name):
        golden = _golden(name)
        model, train, queries = _inputs(name)
        g = model.g_handles()
        for where, pts in (("train", train), ("query", queries)):
            assert _same_bytes(evaluate(model, model.handles(), pts), _from_rows(golden["evaluate"][where]))
            want = golden["gradient"][where]
            assert list(want) == [h.label() for h in g]
            for h, got in zip(g, gradient(model, g, pts)):
                assert _same_bytes(got, _from_rows(want[h.label()])), h.label()

    def test_consumers_are_unchanged(self, name, tmp_path):
        """``n_ratio``, ``reduce_basis``, ``extract_features`` and the
        ``eval`` command's CSV read the replays to the golden bytes."""
        golden = _golden(name)
        model, train, _ = _inputs(name)
        assert n_ratio(model, NormalizationKind.gradient(), train).hex() == golden["n_ratio"]
        report = reduce_basis(model, train, threshold=CASES[name][2])
        assert [h.label() for h in report.kept] == golden["reduction"]["kept"]
        removed = golden["reduction"]["removed"]
        assert [r.handle.label() for r in report.removed] == list(removed)
        for r in report.removed:
            assert _same_bytes(r.per_point_residuals, _from_rows([removed[r.handle.label()]])[0])

        values = _from_rows(golden["evaluate"]["train"])
        g_cols = [c for c, h in enumerate(model.handles()) if h.kind == "G"]
        assert _same_bytes(extract_features([model], train), np.abs(values[:, g_cols]))

        save_model(tmp_path / "model.json", model)
        np.savetxt(tmp_path / "points.csv", train, fmt="%.17g", delimiter=",")
        out = tmp_path / "values.csv"
        assert main(["eval", str(tmp_path / "model.json"), str(tmp_path / "points.csv"), "-o", str(out),
                     "--handles", "all"]) == 0
        lines = [",".join(h.label() for h in model.handles())]
        lines += [",".join("%.17g" % x for x in row) for row in values.tolist()]
        assert out.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()

    def test_layout(self, name):
        """``evaluate`` is column-major and each gradient row-major: every
        handle's output is one contiguous block."""
        model, train, queries = _inputs(name)
        g = model.g_handles()
        for pts in (train, queries, train[:1]):
            assert evaluate(model, model.handles(), pts).flags.f_contiguous
            assert evaluate(model, g[2:7], pts).flags.f_contiguous
            assert all(d.flags.c_contiguous for d in gradient(model, g, pts))


def test_goldens_cover_removals():
    assert all(_golden(name)["reduction"]["removed"] for name in CASES)


if __name__ == "__main__":
    REPLAY.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        (REPLAY / f"{case}.json").write_text(json.dumps(_record(case), indent=1) + "\n")
