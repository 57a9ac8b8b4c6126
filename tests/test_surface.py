"""The public surface: the package root's names and their parameters, the
degree step's stages and their parameters, and the module attributes the
benchmark's tracer wraps by name."""

import ast
import dataclasses
import importlib
import inspect
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

# The parameter names of every root callable but the exception classes, in
# order and space-separated, so that a new option has to edit this pin.
ROOT_SIGNATURES = {
    "BasisModel": "num_vars constant_value degrees epsilon normalization preprocessing truncated",
    "ConcentricEllipses": "radii rotation",
    "CustomPoints": "points",
    "DatasetSpec": "variety samples extra_linear_vars noise_std_fraction seed",
    "DegreeRecord": "ortho_weights eigvecs eigvals partition",
    "DensePolynomial": "num_vars terms",
    "EpsilonSearchResult": "found epsilon lower upper trace",
    "EpsilonTarget": "num_linear d_min num_at_dmin",
    "FitConfig": "epsilon normalization max_degree center unit_mean_norm",
    "InvarianceReport": (
        "alpha translation epsilon base_counts translated_counts scaled_counts eigenvalue_ratios "
        "translation_eigenvalue_ratios subspace_gaps max_eval_discrepancy"
    ),
    "NormalizationKind": "variant var_subset point_subset",
    "PointSet": "points preprocessing",
    "PolyHandle": "degree column kind",
    "PolynomialSystem": "polynomials",
    "Preprocessing": "center scale",
    "ReductionReport": "kept removed rank_deflated threshold",
    "epsilon_search": "points target normalization grid",
    "evaluate": "model handles points",
    "expand": "model handle",
    "extract_features": "class_models x",
    "finite_diff_gradient": "f x h",
    "fit": "points config",
    "generate_dataset": "spec",
    "gradient": "model handles points",
    "gradient_with_op_count": "model handle point",
    "invariance_report": "points b alpha epsilon probe_count seed",
    "load_model": "path",
    "lstsq": "m y",
    "n_ratio": "model kind points",
    "reduce_basis": "model points threshold",
    "save_model": "path model report",
}


# The stages of one degree step pass plain arrays; a bundle type in their
# parameters has to edit this pin.
DEGREE_STEP_SIGNATURES = {
    ("avibasis.fit", "orthogonalize"): "c_pre_eval f_eval",
    ("avibasis.fit", "normalization_matrix"): "kind evals grads expansions",
    ("avibasis.fit", "classify"): "eigvals epsilon",
    ("avibasis.linalg", "gen_sym_eig"): "a b",
}


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


def test_root_signatures_are_pinned():
    callables = {name for name in avibasis.__all__
                 if not (isinstance(getattr(avibasis, name), type)
                         and issubclass(getattr(avibasis, name), BaseException))}
    assert set(ROOT_SIGNATURES) == callables
    for name, params in ROOT_SIGNATURES.items():
        assert " ".join(inspect.signature(getattr(avibasis, name)).parameters) == params, name


def test_degree_step_signatures_are_pinned():
    for (module, name), params in DEGREE_STEP_SIGNATURES.items():
        fn = getattr(importlib.import_module(module), name)
        assert " ".join(inspect.signature(fn).parameters) == params, f"{module}.{name}"


def test_fit_config_fields_are_pinned():
    names = [f.name for f in dataclasses.fields(avibasis.FitConfig)]
    assert names == ["epsilon", "normalization", "max_degree", "center", "unit_mean_norm"]


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    for owner, attr, _ in targets:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert callable(getattr(obj, attr, None)), f"{owner}.{attr}"
