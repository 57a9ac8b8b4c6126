"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 3.0, 9.0, 0],  # overlaps b: the union [1, 9] covers 8 s of a
        ["c", 9.5, 10.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    calls, self_s, child_calls = tracing.span_stats(spans)
    assert calls == {"a": 2, "b": 1, "c": 2, "d": 1}
    assert self_s["a"] == pytest.approx(10 - 8.5 + 1)
    assert self_s["b"] == pytest.approx(2.0)
    assert self_s["c"] == pytest.approx(1.5)
    assert self_s["d"] == pytest.approx(6.0)
    assert child_calls[("a", "c")] == 1 and child_calls[("b", "c")] == 1
    calls, self_s, _ = tracing.span_stats(spans, 1, 3)
    assert calls == {"b": 1, "c": 1} and self_s["b"] == pytest.approx(2.0)


def test_wrappers_nest_spans_and_fold_same_name_reentry():
    t = tracing.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = t.wrap("inner", inner)

    def outer(x):
        return wrapped_inner(x) * 2

    def reenter(x):
        return again(x - 1) if x else 0

    again = t.wrap("re", reenter)
    assert t.wrap("outer", outer)(1) == 4
    assert again(3) == 0
    assert [(s[0], s[3]) for s in t.spans] == [("outer", -1), ("inner", 0), ("re", -1)]


def test_median_over_cycles_per_draw_and_fit_only_draws():
    cycles = [
        {"ops": {"fit": [3.0, 5.0, 7.0], "reduce": [10.0]}},
        {"ops": {"fit": [1.0, 6.0, 9.0], "reduce": [12.0]}},
        {"ops": {"fit": [2.0, 4.0, 8.0], "reduce": [20.0]}},
    ]
    assert worker.draw_median(cycles, "fit", 3) == pytest.approx((2 + 5 + 8) / 3)
    assert worker.draw_median(cycles, "reduce", 3) == 12.0  # ran on draw 0 only
    assert worker.draw_median(cycles, "expand", 3) is None


def test_timings_are_scaled_by_the_reference_kernel():
    for kind, (_, reference_s) in reference.KERNELS.items():
        assert reference.scaled(1.0, reference_s, reference_s, kind) == pytest.approx(1.0)
        # On a host running the kernel at half speed, a 2 s operation scales to 1 s.
        assert reference.scaled(2.0, reference_s, 3 * reference_s, kind) == pytest.approx(1.0)
        assert 0 < reference.kernel_seconds(kind) < 1
    runner = worker.Runner("array")
    runner.op("fit", lambda: None)
    (name, raw, scaled), = runner.times
    assert name == "fit" and raw > 0 and scaled > 0


def test_traced_runs_set_up_only_full_draws():
    w = WORKLOADS["ellipse300"]
    assert w.draw_count(smoke=False, trace=False) == w.fit_draws > w.draws
    assert w.draw_count(smoke=False, trace=True) == w.draws
    assert w.draw_count(smoke=True, trace=False) == 1


def test_patching_is_undone_after_the_block():
    api = worker.load_api()
    original = api.linalg.lstsq, api.densepoly.DensePolynomial.__add__
    t = tracing.Tracer()
    with t.patched():
        assert api.linalg.lstsq is not original[0]
        api.linalg.lstsq(np.eye(2), np.ones(2))
    assert (api.linalg.lstsq, api.densepoly.DensePolynomial.__add__) == original
    assert [s[0] for s in t.spans] == ["linalg.lstsq"]


EPS = 1e-6


def _four_point_model(api):
    points = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    return points, api.fit.fit(points, api.fit.FitConfig(epsilon=EPS))


def test_corrupted_models_count_as_failed_operations():
    api = worker.load_api()
    points, model = _four_point_model(api)
    checks.check_fit(api, model, points, EPS)
    t = next(t for t, rec in enumerate(model.degrees) if "G" in rec.partition)
    rec = model.degrees[t]
    col = rec.partition.index("G")
    flipped = rec.partition[:col] + ("F",) + rec.partition[col + 1:]
    perturbed = rec.eigvals.copy()
    perturbed[0] = perturbed[0] * (1 + 1e-9) + 1e-12

    def corrupt(**fields):
        degrees = list(model.degrees)
        degrees[t] = replace(rec, **fields)
        return replace(model, degrees=tuple(degrees))

    runner = worker.Runner()
    for bad in (corrupt(partition=flipped), corrupt(eigvals=perturbed)):
        out = runner.op("fit", lambda: bad, lambda m: checks.check_fit(api, m, points, EPS))
        assert out is None
    assert runner.attempted == 2 and runner.failed == 2
    assert runner.op("fit", lambda: model, lambda m: checks.check_fit(api, m, points, EPS))
    assert runner.failed == 2


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def _run(cwd, *args, timeout=120):
    # The CLI would reject this value; the benchmark must not pass it on.
    env = dict(os.environ, AVIBASIS_RANK_TOL="not-a-number")
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_size_of_every_workload(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "ellipse300", "--seed", "7", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
