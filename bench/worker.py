"""Run one benchmark workload in this process and print its result.

Started by ``run.py`` with a prepared environment (pinned BLAS threads,
``src`` on the path, ``AVIBASIS_RANK_TOL`` removed).  The last line of
standard output is the JSON result; the lines before it are a readable
report.  The full result, with run metadata, and the recorded spans of a
traced run are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import reference
import tracer as tracing
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
IMPORT_PROBES = 5
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import avibasis; "
    "print(time.perf_counter() - start); print(avibasis.__file__)"
)
MIN_CYCLES = 3
MODULES = ("linalg", "densepoly", "model", "fit", "reduction", "analysis", "model_io", "cli")

# Per-layer metrics of a traced run: self time of every wrapped name, call
# counts where the count is the work measure, and derived counts/ratios.
SELF_TIME_NAMES = (
    "linalg.lstsq", "linalg.gen_sym_eig", "linalg.principal_angles",
    "fit.fit", "fit.orthogonalize", "fit.normalization_matrix", "fit.classify",
    "model.evaluate", "model.gradient", "model.expand",
    "reduction.reduce_basis", "reduction.gradient_dependence_residuals",
    "reduction.rank_deflate_degree", "analysis.invariance_report",
    "densepoly.mul", "densepoly.add", "densepoly.coeff_dot",
    "model_io.save_model", "model_io.load_model",
    "cli.main", "cli.read_points_csv", "cli.write_csv",
)
CALL_COUNT_NAMES = (
    "linalg.lstsq", "linalg.gen_sym_eig", "reduction.gradient_dependence_residuals",
    "model.evaluate", "fit.fit", "densepoly.mul", "densepoly.add", "densepoly.coeff_dot",
)


class Runner:
    """Times operations, applies their checks and counts failures."""

    def __init__(self, kernel: str = "interpreter") -> None:
        self.kernel = kernel  # the reference.py kernel that scales its timings
        self.attempted = 0
        self.failures: list[str] = []
        self.tracebacks: list[str] = []
        self.tracer: tracing.Tracer | None = None
        # (op, seconds, scaled seconds) of the current draw; see reference.py
        self.times: list[tuple[str, float, float]] = []

    def op(self, name: str, fn, check=None):
        """Run ``fn`` timed (and traced when a tracer is set), then ``check``
        its result untimed.  Returns the result, or None when the operation
        raised or failed its check."""
        self.attempted += 1
        gc.collect()  # so that no operation pays for garbage left by the last one
        before = reference.kernel_seconds(self.kernel)
        error = None
        with self.tracer.patched() if self.tracer else nullcontext():
            start = perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a failing operation is counted, not fatal
                error = exc
            elapsed = perf_counter() - start
        after = reference.kernel_seconds(self.kernel)
        self.times.append((name, elapsed, reference.scaled(elapsed, before, after, self.kernel)))
        if error is not None:
            self._fail(name, error)
            return None
        if check is not None:
            try:
                check(result)
            except Exception as exc:  # so is a failed or crashing check
                self._fail(name, exc)
                return None
        return result

    def _fail(self, name: str, exc: Exception) -> None:
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
        self.tracebacks.append(traceback.format_exc())

    @property
    def failed(self) -> int:
        return len(self.failures)


def load_api():
    return SimpleNamespace(**{m: importlib.import_module(f"avibasis.{m}") for m in MODULES})


def run_cycles(workload, api, draws, runner: Runner, seconds: float, tracer=None):
    """One discarded warm-up repetition on draw 0, then full cycles over all
    draws until ``seconds`` would be exceeded (at least ``MIN_CYCLES``).
    With a ``tracer``, odd cycles run under it.

    Returns one record per cycle: ``{"traced", "ops": {op: [scaled s per
    draw]}, "raw_ops": {op: [s per draw]}, "draw_s": [s per draw], "spans":
    (lo, hi), "counters": Counter}``.
    """
    runner.tracer = None
    workload.repetition(runner, api, draws[0])
    runner.times.clear()
    cycles = []
    start = perf_counter()
    last = 0.0
    while len(cycles) < MIN_CYCLES or perf_counter() - start + last <= seconds:
        traced_cycle = tracer is not None and len(cycles) % 2 == 1
        runner.tracer = tracer if traced_cycle else None
        lo = len(tracer.spans) if traced_cycle else 0
        before = Counter(tracer.counters) if traced_cycle else Counter()
        cycle_start = perf_counter()
        ops: dict[str, list[float]] = defaultdict(list)
        raw_ops: dict[str, list[float]] = defaultdict(list)
        draw_s = []
        for d in draws:
            workload.repetition(runner, api, d)
            for name, dt, scaled in runner.times:
                ops[name].append(scaled)
                raw_ops[name].append(dt)
            draw_s.append(sum(dt for _, dt, _ in runner.times))
            runner.times.clear()
        last = perf_counter() - cycle_start
        cycles.append({
            "traced": traced_cycle,
            "ops": dict(ops),
            "raw_ops": dict(raw_ops),
            "draw_s": draw_s,
            "spans": (lo, len(tracer.spans)) if traced_cycle else None,
            "counters": tracer.counters - before if traced_cycle else None,
        })
    runner.tracer = None
    return cycles


def draw_median(cycles, op: str, draws: int, key: str = "ops") -> float | None:
    """Mean over draws of the median over cycles of ``op``'s time on that
    draw.  A draw that ``op`` does not run on (a fit-only draw) is left out."""
    per_draw = [[c[key][op][i] for c in cycles if len(c[key].get(op, ())) > i]
                for i in range(draws)]
    medians = [statistics.median(v) for v in per_draw if v]
    return sum(medians) / len(medians) if medians else None


def timing_summary(samples: list[float]) -> dict:
    """Median and the highest of p90/p99 with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples), "max": max(samples)}
    for q in (99, 90):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = float(np.percentile(samples, q))
            break
    return out


def end_to_end(workload, cycles, draws, setup_s: float) -> tuple[dict, dict]:
    """Gated metrics and the table of per-operation timings."""
    k = len(draws)
    fit_op, fits = workload.fit_op
    fit_s = draw_median(cycles, fit_op, k) / fits
    workload_s = sum(draw_median(cycles, op, k) for op in workload.ops)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "fit_s": {"value": fit_s, "unit": "s/fit"},
        "workload_s": {"value": workload_s, "unit": "s/draw"},
        "peak_rss_mb": {"value": peak, "unit": "MiB"},
    }
    table = {}
    op_metric = {
        "fit": ("fit_s", "s/fit"), "reduce": ("reduce_s", "s/call"),
        "cli_pipeline": ("cli_pipeline_s", "s"), "search": ("search_s", "s/search"),
        "diagnose": ("diagnose_s", "s/report"), "expand": ("expand_s", "s (all G)"),
        "eval": ("eval_s", "s"), "grad": ("grad_s", "s"),
    }
    for op in workload.ops:
        samples = [dt for c in cycles for dt in c["ops"].get(op, [])]
        if not samples:
            continue
        name, unit = op_metric[op]
        table[name] = dict(timing_summary(samples), unit=unit,
                           value=draw_median(cycles, op, k),
                           raw=draw_median(cycles, op, k, "raw_ops"))
    if "eval_s" in table:
        d = draws[0]
        table["eval_pts_per_s"] = {"value": d.queries.shape[0] / table["eval_s"]["value"],
                                   "unit": "points/s", "n": table["eval_s"]["n"]}
        table["grad_pts_per_s"] = {"value": d.grad_points.shape[0] / table["grad_s"]["value"],
                                   "unit": "points/s", "n": table["grad_s"]["n"]}
    return metrics, table


def _cycle_time(cycles) -> float:
    """Median over cycles of the summed operation time of a cycle."""
    return statistics.median(sum(c["draw_s"]) for c in cycles)


def per_layer(workload_draws: int, cycles, tracer, setup_spans) -> dict:
    """Per-draw layer metrics: median over traced cycles of cycle totals / draws."""
    traced = [c for c in cycles if c["traced"]]
    untraced = [c for c in cycles if not c["traced"]]
    rows = []
    for c in traced:
        calls, self_s, child_calls = tracing.span_stats(tracer.spans, *c["spans"])
        counters = c["counters"]
        row = {}
        for name in SELF_TIME_NAMES:
            row[f"{name}.self_s"] = self_s.get(name, 0.0)
        for name in CALL_COUNT_NAMES:
            row[f"{name}.calls"] = calls.get(name, 0)
        row["fit.degrees"] = counters["fit.degrees"]
        row["fit.candidates"] = counters["fit.candidates"]
        tested = counters["reduction.tested"]
        row["reduction.removed_ratio"] = counters["reduction.removed"] / tested if tested else 0.0
        fits = child_calls[("analysis.epsilon_search", "fit.fit")]
        distinct = counters["analysis.epsilon_search.distinct_signatures"]
        row["analysis.epsilon_search.fits"] = fits
        row["analysis.epsilon_search.distinct_signatures"] = distinct
        row["analysis.epsilon_search.useful_fit_ratio"] = distinct / fits if fits else 0.0
        row["model_io.model_bytes"] = counters["model_io.model_bytes"]
        rows.append({k: v / workload_draws if not k.endswith("_ratio") else v
                     for k, v in row.items()})
    units = {}
    metrics = {}
    for key in rows[0]:
        metrics[key] = statistics.median(r[key] for r in rows)
        units[key] = ("s" if key.endswith("_s") else "ratio" if key.endswith("_ratio")
                      else "bytes" if key.endswith("_bytes") else "count")
    _, setup_self, _ = tracing.span_stats(tracer.spans, *setup_spans)
    metrics["analysis.generate_dataset.self_s"] = (
        setup_self.get("analysis.generate_dataset", 0.0) / workload_draws)
    units["analysis.generate_dataset.self_s"] = "s"
    metrics["trace.overhead_ratio"] = _cycle_time(traced) / _cycle_time(untraced)
    units["trace.overhead_ratio"] = "ratio"
    return {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}


# -- run metadata ---------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_info() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    info["threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
    info["threads_in_effect"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Ask the loaded OpenBLAS library for its thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(package_dir: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def metadata(args, api, draws: int, cycles: int) -> dict:
    root = os.getcwd()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "draws": draws,
        "cycles": cycles,
        "warmup_repetitions": 1,
        "setup_repeats": SETUP_REPEATS if not args.trace else 1,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "avibasis_rank_tol_env": os.environ.get("AVIBASIS_RANK_TOL"),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(os.path.dirname(api.fit.__file__)),
    }


# -- main -------------------------------------------------------------------------


def pin_to_current_cpu() -> int | None:
    """Keep this process, and the interpreters it starts, on the CPU it runs
    on now, so that each reference kernel timing and the operation it scales
    run on the same CPU.  Returns that CPU, or None where it is unknown."""
    try:
        with open("/proc/self/stat", encoding="utf-8") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, AttributeError, ValueError, IndexError):
        return None
    return cpu


def probe_import(src: str) -> tuple[float, float]:
    """Seconds to ``import avibasis`` (numpy included) in a fresh
    interpreter, raw and scaled (see reference.py)."""
    before = reference.kernel_seconds()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         timeout=60, check=True).stdout.split("\n")
    after = reference.kernel_seconds()
    if os.path.commonpath([os.path.abspath(out[1]), src]) != src:
        raise RuntimeError(f"avibasis was imported from {out[1]}, not from {src}")
    elapsed = float(out[0])
    return elapsed, reference.scaled(elapsed, before, after)


def _setup(workload, api, seed: int, work: str, smoke: bool, trace: bool):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    return workload.setup(api, seed, work, smoke, workload.draw_count(smoke, trace))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    api = load_api()
    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(api.fit.__file__), src]) != src:
        print(f"error: avibasis was imported from {api.fit.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cpu = pin_to_current_cpu()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    tracer = tracing.Tracer()
    runner = Runner(workload.kernel)
    try:
        imports, setups = [], []  # (raw, scaled) seconds
        if args.trace:
            with tracer.patched():
                draws = _setup(workload, api, args.seed, work, args.smoke, bool(args.trace))
            setup_spans = (0, len(tracer.spans))
        else:
            imports = [probe_import(src) for _ in range(IMPORT_PROBES)]
            for _ in range(SETUP_REPEATS):
                gc.collect()
                before = reference.kernel_seconds()
                start = perf_counter()
                draws = _setup(workload, api, args.seed, work, args.smoke, bool(args.trace))
                elapsed = perf_counter() - start
                after = reference.kernel_seconds()
                setups.append((elapsed, reference.scaled(elapsed, before, after)))
        cycles = run_cycles(workload, api, draws, runner, args.seconds,
                            tracer if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = per_layer(len(draws), cycles, tracer, setup_spans)
        table = {}
        spans_path = os.path.join(OUT_DIR, f"spans-{tag}.json.gz")
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    else:
        def median(pairs, i):
            return statistics.median(p[i] for p in pairs)

        setup_s = median(imports, 1) + median(setups, 1)
        metrics, table = end_to_end(workload, cycles, draws, setup_s)
        table["setup_s"] = {"value": setup_s, "unit": "s",
                            "raw": median(imports, 0) + median(setups, 0),
                            "import_s": imports, "data_s": setups}
        table["peak_rss_mb"] = metrics["peak_rss_mb"]
    table["error_rate"] = {"value": runner.failed / runner.attempted,
                           "unit": "failed/attempted", "attempted": runner.attempted}

    meta = metadata(args, api, len(draws), len(cycles))
    meta["pinned_cpu"] = cpu
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, meta=meta, operations=table, failures=runner.tracebacks,
                       cycles=[{k: c[k] for k in ("traced", "ops", "raw_ops", "draw_s")} for c in cycles]),
                  fh, indent=1)

    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    for name, row in table.items():
        extra = "  ".join(f"{k}={v:.6g}" for k, v in row.items()
                          if k in ("median", "p90", "p99", "max", "raw") and isinstance(v, float))
        n = f"  n={row['n']}" if "n" in row else ""
        print(f"# {name:<16} {row['value']:.6g} {row['unit']}{n}  {extra}".rstrip())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
