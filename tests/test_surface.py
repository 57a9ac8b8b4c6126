"""The public surface: the package root's names, and the module attributes
the benchmark's tracer wraps by name."""

import ast
import importlib
from pathlib import Path

import avibasis

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

ROOT_API = [
    "BasisModel",
    "ConcentricEllipses",
    "CustomPoints",
    "DatasetSpec",
    "DegreeRecord",
    "DensePolynomial",
    "EpsilonSearchResult",
    "EpsilonTarget",
    "ExpansionLimitError",
    "FitConfig",
    "InvarianceReport",
    "NormalizationKind",
    "PointSet",
    "PolyHandle",
    "PolynomialSystem",
    "Preprocessing",
    "ReductionReport",
    "epsilon_search",
    "evaluate",
    "expand",
    "extract_features",
    "finite_diff_gradient",
    "fit",
    "generate_dataset",
    "gradient",
    "gradient_with_op_count",
    "invariance_report",
    "load_model",
    "lstsq",
    "n_ratio",
    "reduce_basis",
    "save_model",
]


def tracer_targets():
    """``TARGETS`` of the tracer, read as a literal without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_root_api_is_pinned():
    assert sorted(avibasis.__all__) == ROOT_API
    for name in avibasis.__all__:
        assert hasattr(avibasis, name), name


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    for owner, attr, _ in targets:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"
