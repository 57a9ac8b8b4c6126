#!/usr/bin/env python3
"""One sha256 over the benchmark workloads' outputs on held-out seeds.

Two checkouts that print the same digest give the same output bits on
these inputs, so a change meant to keep every output bit can be checked by
running this at its parent and at the change:

- ``ellipse300``, ``epsscan75`` and ``coefcurve200`` at draw seeds 11 and
  1011, ``ellipse5000`` at draw seed 21, with the inputs, tolerances and
  thresholds of ``bench/workloads.py`` (imported, not copied);
- hashed: each model's JSON with its reduction report, where the workload
  reduces; ``evaluate`` and ``gradient`` of the model's handles; the G
  expansions (``coefcurve200``); the tolerance search's result and the
  consistency report (``epsscan75``).

Model bits depend on the BLAS thread count, so this runs at one BLAS
thread, set before numpy loads.  It prints one digest per workload, then
the digest of them all.  Run from the repository root:

    PYTHONPATH=src python3 scripts/parity_hash.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import asdict  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench"))

import workloads as W  # noqa: E402

MODULES = ("linalg", "densepoly", "model", "fit", "reduction", "analysis", "model_io", "cli")
api = SimpleNamespace(**{m: importlib.import_module(f"avibasis.{m}") for m in MODULES})
FitConfig, NormalizationKind = api.fit.FitConfig, api.fit.NormalizationKind


def _model_bytes(work: str, model, report=None) -> bytes:
    path = os.path.join(work, "model.json")
    api.model_io.save_model(path, model, report)
    with open(path, "rb") as fh:
        return fh.read()


def _replays(model, points) -> list:
    """``evaluate`` and ``gradient`` of every handle at ``points``."""
    handles = model.handles()
    return [api.model.evaluate(model, handles, points), *api.model.gradient(model, handles, points)]


def _ellipse300(draw, work):
    model = api.fit.fit(draw.data, FitConfig(epsilon=W.E300_EPSILON, normalization=NormalizationKind.gradient()))
    report = api.reduction.reduce_basis(model, draw.data, threshold=W.E300_THRESHOLD)
    return [_model_bytes(work, model, report), *_replays(model, draw.points)]


def _ellipse5000(draw, work):
    model = api.fit.fit(draw.data, FitConfig(epsilon=W.E5000_EPSILON, normalization=NormalizationKind.gradient()))
    g = model.g_handles()
    return [_model_bytes(work, model), api.model.evaluate(model, model.handles(), draw.queries),
            *api.model.gradient(model, g, draw.grad_points)]


def _epsscan75(draw, work):
    target = api.analysis.EpsilonTarget(num_linear=5, d_min=2, num_at_dmin=2)
    result = api.analysis.epsilon_search(draw.data, target)  # found at both seeds
    shift = np.ones(draw.points.shape[1])
    report = api.analysis.invariance_report(draw.data, shift, W.EPS_ALPHA, result.epsilon)
    model = api.fit.fit(draw.data, FitConfig(epsilon=result.epsilon))
    return [repr(result), repr(asdict(report)), _model_bytes(work, model), *_replays(model, draw.points)]


def _coefcurve200(draw, work):
    model = api.fit.fit(draw.data, FitConfig(epsilon=W.COEF_EPSILON, normalization=NormalizationKind.coefficient()))
    expansions = [sorted(api.model.expand(model, h).terms.items()) for h in model.g_handles()]
    report = api.reduction.reduce_basis(model, draw.data, threshold=W.COEF_THRESHOLD)
    return [repr(expansions), _model_bytes(work, model, report), *_replays(model, draw.points)]


RUNS = (  # workload, base seed, draws (draw i has seed base + 1000 i), outputs
    (W.ELLIPSE300, 11, 2, _ellipse300),
    (W.EPSSCAN75, 11, 2, _epsscan75),
    (W.COEFCURVE200, 11, 2, _coefcurve200),
    (W.ELLIPSE5000, 21, 1, _ellipse5000),
)


def _update(digest, output) -> None:
    if isinstance(output, str):
        output = output.encode()
    elif not isinstance(output, bytes):  # an array: its shape, then its bits in C order
        digest.update(repr(output.shape).encode())
        output = output.tobytes()
    digest.update(len(output).to_bytes(8, "little"))
    digest.update(output)


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for workload, seed, count, outputs in RUNS:
            digest = hashlib.sha256()
            for draw in workload.setup(api, seed, work, False, count):
                for output in outputs(draw, work):
                    _update(digest, output)
            print(f"{workload.name:13s} seed {seed}: {digest.hexdigest()}")
            total.update(digest.digest())
    print(f"all: {total.hexdigest()}")


if __name__ == "__main__":
    main()
