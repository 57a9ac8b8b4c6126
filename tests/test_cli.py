import contextlib
import copy
import csv
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avibasis import (
    ConcentricEllipses,
    DatasetSpec,
    FitConfig,
    NormalizationKind,
    evaluate,
    extract_features,
    fit,
    generate_dataset,
    load_model,
    reduce_basis,
    save_model,
)
from avibasis.analysis import default_epsilon_grid
from avibasis.cli import _grid_points, main, read_points_csv, write_csv
from conftest import FOUR_POINTS, model_dict
from test_model_io import DELETE, VALUES, _field_paths


def write_four_points(path):
    path.write_text("x,y\n1,0\n0,1\n-1,0\n0,-1\n")
    return str(path)


@pytest.fixture
def four_csv(tmp_path):
    return write_four_points(tmp_path / "points.csv")


class TestCsvIO:
    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("alpha,beta\n1.0,2.0\n3.0,4.0\n")
        pts = read_points_csv(str(p))
        assert pts.shape == (2, 2)

    def test_no_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        assert read_points_csv(str(p)).shape == (2, 2)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0,oops\n")
        from avibasis.cli import CliError

        with pytest.raises(CliError, match="line 2"):
            read_points_csv(str(p))

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,2.0\n3.0\n")
        from avibasis.cli import CliError

        with pytest.raises(CliError, match="line 2"):
            read_points_csv(str(p))


def _oracle_csv(path, header, rows) -> bytes:
    """The value CSV as ``csv.writer`` writes it, one 17-digit cell at a time."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(x):.17g}" for x in row])
    return path.read_bytes()


CELL = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, 1.7976931348623157e308, 0.1, np.nan, np.inf, -np.inf])


class TestCsvWriter:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 2, 7])), with_header=st.booleans(),
           data=st.data())
    def test_bytes_are_the_csv_writer_oracle(self, tmp_path_factory, shape, with_header, data):
        rows = np.array(data.draw(st.lists(CELL, min_size=shape[0] * shape[1],
                                           max_size=shape[0] * shape[1]))).reshape(shape)
        header = None
        if with_header:
            header = data.draw(st.lists(st.text('ab ,"x', max_size=3), min_size=shape[1], max_size=shape[1]))
        work = tmp_path_factory.mktemp("csv")
        write_csv(str(work / "new.csv"), header, rows)
        assert (work / "new.csv").read_bytes() == _oracle_csv(work / "old.csv", header, rows)

    def test_list_of_rows(self, tmp_path):
        rows = [np.array([1.0, -0.0]), np.array([np.nan, 1e300])]
        write_csv(str(tmp_path / "new.csv"), ["a", "b"], rows)
        assert (tmp_path / "new.csv").read_bytes() == _oracle_csv(tmp_path / "old.csv", ["a", "b"], rows)

    def test_grid_eval_features_and_generate(self, four_csv, tmp_path):
        """The CLI's four CSV writers, each against the oracle of the values it wrote."""
        model_path, shifted = tmp_path / "m.json", tmp_path / "shifted.csv"
        shifted.write_text("3,0\n2,1\n1,0\n2,-1\n")
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        main(["fit", str(shifted), "-o", str(tmp_path / "b.json"), "--epsilon", "0"])
        model, _ = load_model(model_path)
        other, _ = load_model(tmp_path / "b.json")
        points = read_points_csv(four_csv)
        labels = [h.label() for h in model.g_handles()]

        assert main(["eval", str(model_path), four_csv, "-o", str(tmp_path / "grid.csv"), "--grid", "7"]) == 0
        grid = _grid_points(points, 7, None)
        want = np.column_stack([grid, evaluate(model, model.g_handles(), grid)])
        assert (tmp_path / "grid.csv").read_bytes() == _oracle_csv(tmp_path / "o.csv", ["x0", "x1"] + labels, want)

        assert main(["eval", str(model_path), four_csv, "-o", str(tmp_path / "values.csv")]) == 0
        want = evaluate(model, model.g_handles(), points)
        assert (tmp_path / "values.csv").read_bytes() == _oracle_csv(tmp_path / "o.csv", labels, want)

        assert main(["features", str(model_path), str(tmp_path / "b.json"), four_csv,
                     "-o", str(tmp_path / "features.csv")]) == 0
        header = [f"c{i}_{h.label()}" for i, m in enumerate((model, other)) for h in m.g_handles()]
        want = extract_features([model, other], points)
        assert (tmp_path / "features.csv").read_bytes() == _oracle_csv(tmp_path / "o.csv", header, want)

        spec = {"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]]}, "samples": 9, "seed": 3,
                "extra_linear_vars": [0.5], "noise_std_fraction": 0.1}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert main(["generate", str(tmp_path / "spec.json"), "-o", str(tmp_path / "points.csv")]) == 0
        want = generate_dataset(DatasetSpec(ConcentricEllipses(((1.0, 0.5),)), 9, (0.5,), 0.1, 3)).points
        assert (tmp_path / "points.csv").read_bytes() == _oracle_csv(tmp_path / "o.csv", None, want)


class TestFitCommand:
    def test_gradient_counts(self, four_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", four_csv, "-o", str(out), "--epsilon", "0", "--normalization", "grad"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "total vanishing: 4" in stdout
        model, _ = load_model(out)
        assert len(model.g_handles()) == 4

    def test_vca_counts(self, four_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main(["fit", four_csv, "-o", str(out), "--epsilon", "0", "--normalization", "vca"])
        assert code == 0
        assert "total vanishing: 5" in capsys.readouterr().out

    def test_empty_csv(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("")
        code = main(["fit", str(p), "-o", str(tmp_path / "m.json")])
        assert code != 0
        assert "empty point set" in capsys.readouterr().err

    def test_header_only_csv_is_an_empty_point_set(self, tmp_path, capsys):
        p = tmp_path / "header.csv"
        p.write_text("x,y\n")
        code = main(["fit", str(p), "-o", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {p}: empty point set\n"

    @pytest.mark.parametrize("flags,flag", [
        (["--subsample-vars", "a", "--subsample-points", "0"], "--subsample-vars"),
        ([], "--subsample-vars"),
        (["--subsample-vars", "0"], "--subsample-points"),
    ], ids=["non-integer vars", "no subsets", "no points"])
    def test_bad_subgrad_flags_are_usage_errors(self, four_csv, tmp_path, capsys, flags, flag):
        out = tmp_path / "m.json"
        code = main(["fit", four_csv, "-o", str(out), "--normalization", "subgrad", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and flag in err
        assert not out.exists()

    def test_degree_cap_warning(self, four_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["fit", four_csv, "-o", str(out), "--max-degree", "1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "warning: degree cap reached before natural termination\n" in captured.out
        assert load_model(out)[0].truncated

    def test_nan_epsilon_is_an_error(self, four_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        code = main(["fit", four_csv, "-o", str(out), "--epsilon", "nan"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: epsilon must be >= 0\n"
        assert not out.exists()

    def test_subsample_flags_conflict(self, four_csv, tmp_path, capsys):
        code = main(
            ["fit", four_csv, "-o", str(tmp_path / "m.json"),
             "--normalization", "grad", "--subsample-vars", "0"]
        )
        assert code == 2

    def test_subgrad_fit(self, four_csv, tmp_path):
        out = tmp_path / "m.json"
        code = main(
            ["fit", four_csv, "-o", str(out), "--normalization", "subgrad",
             "--subsample-vars", "0,1", "--subsample-points", "0,1,2"]
        )
        assert code == 0
        model, _ = load_model(out)
        assert model.normalization.variant == "subsampled_gradient"


class TestRankTolerance:
    """The rank cut is ``linalg.RANK_TOL``: no flag or environment variable sets it."""

    def test_commands_without_a_rank_tolerance_ignore_the_environment(
            self, four_csv, tmp_path, capsys, monkeypatch):
        model_path = tmp_path / "model.json"
        assert main(["fit", four_csv, "-o", str(model_path)]) == 0
        before = model_path.read_bytes()
        monkeypatch.setenv("AVIBASIS_RANK_TOL", "abc")
        spec = tmp_path / "spec.json"
        spec.write_text('{"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]]}, '
                        '"samples": 6, "seed": 3}')
        assert main(["generate", str(spec), "-o", str(tmp_path / "generated.csv")]) == 0
        assert main(["eval", str(model_path), four_csv, "-o", str(tmp_path / "values.csv")]) == 0
        assert main(["fit", four_csv, "-o", str(tmp_path / "again.json")]) == 0
        assert (tmp_path / "again.json").read_bytes() == before
        assert main(["reduce", str(model_path), four_csv]) == 0
        assert main(["epsilon-search", four_csv, "--num-linear", "0", "--dmin", "2",
                     "--num-at-dmin", "1"]) == 0
        assert "AVIBASIS_RANK_TOL" not in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0

    def test_nan_fit_tolerance_is_an_error(self, four_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", four_csv, "-o", str(out), "--rank-tol", "nan"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rank_tol", ["nan", "0", "-1e-12"])
    def test_bad_reduce_tolerance_is_an_error(self, four_csv, tmp_path, capsys, rank_tol):
        model_path = tmp_path / "model.json"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        before = model_path.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["reduce", str(model_path), four_csv, f"--rank-tol={rank_tol}"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err
        assert model_path.read_bytes() == before


class TestReduceCommand:
    def test_reduce_four_points(self, four_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        code = main(["reduce", str(model_path), four_csv])
        assert code == 0
        assert "kept 2 of 4" in capsys.readouterr().out
        model, report = load_model(model_path)
        assert report is not None and len(report.kept) == 2

    def test_reduce_idempotent_bytes(self, four_csv, tmp_path):
        model_path = tmp_path / "model.json"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        main(["reduce", str(model_path), four_csv])
        first = model_path.read_bytes()
        main(["reduce", str(model_path), four_csv])
        assert model_path.read_bytes() == first

    def test_negative_threshold_usage_error(self, four_csv, tmp_path):
        model_path = tmp_path / "model.json"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        assert main(["reduce", str(model_path), four_csv, "--threshold", "-1"]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_usage_error(self, four_csv, tmp_path, capsys, threshold):
        model_path = tmp_path / "model.json"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        before = model_path.read_bytes()
        assert main(["reduce", str(model_path), four_csv, "--threshold", threshold]) == 2
        assert capsys.readouterr().err == "error: --threshold must be finite and >= 0\n"
        assert model_path.read_bytes() == before

    def test_noisy_model_requires_threshold(self, four_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0.05"])
        assert main(["reduce", str(model_path), four_csv]) == 2
        assert "threshold" in capsys.readouterr().err
        assert main(["reduce", str(model_path), four_csv, "--threshold", "1e-6"]) == 0


def _run_quietly(argv, out=None) -> tuple[int, str]:
    """Exit code and stderr of ``main(argv)``, whose stdout goes to ``out``
    if given; a warning fails the test, since it would print lines of its own."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO() if out is None else out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


class TestExtremeCoordinates:
    """Coordinates whose products overflow, without preprocessing: one stderr
    line each.  The points are ``tests/data/reports/ellipse.csv``."""

    @pytest.fixture
    def ellipse(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]]}, "samples": 12, "seed": 3}')
        assert main(["generate", str(spec), "-o", str(tmp_path / "points.csv")]) == 0
        return read_points_csv(str(tmp_path / "points.csv"))

    def test_fit_points_to_the_preprocessing_flags(self, ellipse, tmp_path):
        np.savetxt(tmp_path / "huge.csv", 1e200 * ellipse, delimiter=",", fmt="%.17g")
        code, err = _run_quietly(["fit", str(tmp_path / "huge.csv"), "-o", str(tmp_path / "model.json")])
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: ")
        assert "--center --unit-mean-norm" in err
        assert not (tmp_path / "model.json").exists()
        # with them the fit prints the per-degree |G_t| and |F_t| of the points themselves
        counts = []
        for points in ("points.csv", "huge.csv"):
            out = io.StringIO()
            assert _run_quietly(["fit", str(tmp_path / points), "-o", str(tmp_path / "model.json"),
                                 "--center", "--unit-mean-norm"], out) == (0, "")
            counts.append([line.split()[:3] for line in out.getvalue().splitlines() if line.lstrip()[:1].isdigit()])
        assert counts[0] and counts[0] == counts[1]
        # centred coordinates past the largest double are refused
        (tmp_path / "overflow.csv").write_text("-1.7e308,0\n1.7e308,1\n1.7e308,2\n")
        code, err = _run_quietly(["fit", str(tmp_path / "overflow.csv"), "-o", str(tmp_path / "model.json"),
                                  "--center", "--unit-mean-norm"])
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: centred coordinates overflow"), err

    def test_eval_counts_the_non_finite_values(self, ellipse, tmp_path):
        model_path, out = str(tmp_path / "model.json"), str(tmp_path / "values.csv")
        assert main(["fit", str(tmp_path / "points.csv"), "-o", model_path, "--epsilon", "0.01"]) == 0
        np.savetxt(tmp_path / "top.csv", 1e307 * ellipse, delimiter=",", fmt="%.17g")
        code, err = _run_quietly(["eval", model_path, str(tmp_path / "top.csv"), "-o", out])
        model, _ = load_model(model_path)
        with np.errstate(all="ignore"):
            want = evaluate(model, model.g_handles(), 1e307 * ellipse)
        bad = int(np.count_nonzero(~np.isfinite(want)))
        assert code == 0 and bad
        assert err == f"warning: {bad} of {want.size} values are inf or NaN: the points are too large for " \
                      "the model's products\n"
        np.testing.assert_array_equal(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2), want)
        code, err = _run_quietly(["eval", model_path, str(tmp_path / "points.csv"), "-o", out])
        assert code == 0 and err == ""

    def test_features_counts_the_non_finite_values(self, ellipse, tmp_path):
        model_path, out = str(tmp_path / "model.json"), str(tmp_path / "features.csv")
        assert main(["fit", str(tmp_path / "points.csv"), "-o", model_path, "--epsilon", "0.01"]) == 0
        np.savetxt(tmp_path / "top.csv", 1e307 * ellipse, delimiter=",", fmt="%.17g")
        code, err = _run_quietly(["features", model_path, str(tmp_path / "top.csv"), "-o", out])
        model, _ = load_model(model_path)
        with np.errstate(all="ignore"):
            want = np.abs(evaluate(model, model.g_handles(), 1e307 * ellipse))
        bad = int(np.count_nonzero(~np.isfinite(want)))
        assert code == 0 and bad
        assert err == f"warning: {bad} of {want.size} values are inf or NaN: the points are too large for " \
                      "the model's products\n"
        np.testing.assert_array_equal(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2), want)

    @pytest.mark.parametrize("command,scale,what", [
        (["reduce", "{model}", "{points}", "--threshold", "1e-6", "-o", "{out}"], 1e307, "while reducing"),
        (["diagnose", "{points}", "-o", "{out}"], 1e200, "while diagnosing"),
        (["epsilon-search", "{points}", "--num-linear", "0", "--dmin", "2", "--num-at-dmin", "1", "-o", "{out}"],
         1e200, "while searching"),
        # the report's own fits overflow here: the report still names the operation
        (["diagnose", "{points}", "-o", "{out}"], 1e80, "while diagnosing"),
    ], ids=["reduce", "diagnose", "epsilon-search", "diagnose x1e80"])
    def test_overflow_is_one_error_line(self, ellipse, tmp_path, command, scale, what):
        model_path, out = str(tmp_path / "model.json"), str(tmp_path / "out")
        assert main(["fit", str(tmp_path / "points.csv"), "-o", model_path, "--epsilon", "0.01"]) == 0
        np.savetxt(tmp_path / "big.csv", scale * ellipse, delimiter=",", fmt="%.17g")
        argv = [arg.format(model=model_path, points=str(tmp_path / "big.csv"), out=out) for arg in command]
        code, err = _run_quietly(argv)
        assert code == 1 and err.count("\n") == 1 and err.startswith("error: overflow encountered in "), err
        assert what in err
        assert not Path(out).exists()
        code, err = _run_quietly([arg.replace("big.csv", "points.csv") for arg in argv])
        assert code == 0 and err == ""


class TestEvalCommand:
    def test_reduced_model_values_vanish(self, four_csv, tmp_path):
        model_path = tmp_path / "model.json"
        values_path = tmp_path / "values.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        main(["reduce", str(model_path), four_csv])
        code = main(
            ["eval", str(model_path), four_csv, "-o", str(values_path), "--kept-only"]
        )
        assert code == 0
        with open(values_path) as fh:
            header = fh.readline().strip().split(",")
            rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
        assert len(header) == 2
        assert np.abs(np.array(rows)).max() <= 1e-10

    def test_header_labels(self, four_csv, tmp_path):
        model_path = tmp_path / "model.json"
        values_path = tmp_path / "values.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        main(["eval", str(model_path), four_csv, "-o", str(values_path), "--handles", "all"])
        header = values_path.read_text().splitlines()[0].split(",")
        assert header[0] == "d0_f0"
        assert any(h.startswith("d2_g") for h in header)

    def test_grid_export(self, four_csv, tmp_path):
        model_path = tmp_path / "model.json"
        grid_path = tmp_path / "grid.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        code = main(
            ["eval", str(model_path), four_csv, "-o", str(grid_path),
             "--grid", "11", "--grid-range", "-2", "2"]
        )
        assert code == 0
        lines = grid_path.read_text().splitlines()
        assert lines[0].startswith("x0,x1,")
        assert len(lines) == 1 + 11 * 11

    @pytest.mark.parametrize("bounds", [("nan", "1"), ("0", "inf"), ("2", "1"), ("1", "1")])
    def test_bad_grid_range_is_a_usage_error(self, four_csv, tmp_path, capsys, bounds):
        model_path = tmp_path / "model.json"
        grid_path = tmp_path / "grid.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        capsys.readouterr()
        code = main(["eval", str(model_path), four_csv, "-o", str(grid_path),
                     "--grid", "11", "--grid-range", *bounds])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--grid-range" in err
        assert not grid_path.exists()

    @pytest.mark.parametrize("points,flags,flag", [
        ("1,0\n0,1\n-1,0\n0,-1\n", ["--kept-only"], "--kept-only"),
        ("1,0\n0,1\n-1,0\n0,-1\n", ["--grid", "1"], "--grid"),
        ("1,0,0\n0,1,0\n0,0,1\n1,1,1\n", ["--grid", "4"], "--grid"),
    ], ids=["kept-only without a report", "one grid sample", "grid of a 3-variable model"])
    def test_eval_flag_usage_errors(self, tmp_path, capsys, points, flags, flag):
        points_path, model_path, values_path = tmp_path / "p.csv", tmp_path / "m.json", tmp_path / "v.csv"
        points_path.write_text(points)
        main(["fit", str(points_path), "-o", str(model_path), "--epsilon", "0"])
        capsys.readouterr()
        code = main(["eval", str(model_path), str(points_path), "-o", str(values_path), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and flag in err
        assert not values_path.exists()

    def test_non_finite_points_are_an_error(self, four_csv, tmp_path, capsys):
        model_path, nan_path, values_path = tmp_path / "m.json", tmp_path / "nan.csv", tmp_path / "v.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        nan_path.write_text("x,y\n1,0\nnan,0\n")
        capsys.readouterr()
        code = main(["eval", str(model_path), str(nan_path), "-o", str(values_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {nan_path}: line 3: points contain NaN or Inf\n"
        assert not values_path.exists()

    def test_grid_range_without_grid_is_a_usage_error(self, four_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        values_path = tmp_path / "values.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        capsys.readouterr()
        code = main(["eval", str(model_path), four_csv, "-o", str(values_path), "--grid-range", "2", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--grid-range" in err
        assert not values_path.exists()


class TestFeaturesCommand:
    def test_two_class_features(self, four_csv, tmp_path):
        model_a = tmp_path / "a.json"
        model_b = tmp_path / "b.json"
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("3,0\n2,1\n1,0\n2,-1\n")
        features = tmp_path / "features.csv"
        main(["fit", four_csv, "-o", str(model_a), "--epsilon", "0"])
        main(["fit", str(shifted), "-o", str(model_b), "--epsilon", "0"])
        code = main(["features", str(model_a), str(model_b), four_csv, "-o", str(features)])
        assert code == 0
        lines = features.read_text().splitlines()
        model, _ = load_model(model_a)
        other, _ = load_model(model_b)
        expected_cols = len(model.g_handles()) + len(other.g_handles())
        assert len(lines[0].split(",")) == expected_cols
        first_block = np.array(
            [float(x) for x in lines[1].split(",")[: len(model.g_handles())]]
        )
        assert np.abs(first_block).max() <= 1e-8

    def test_matches_per_row_extraction(self, tmp_path):
        """One batched extraction; within the stated bound of per-row calls."""
        points = tmp_path / "points.csv"
        data = generate_dataset(DatasetSpec(ConcentricEllipses(((1.41, 0.71), (2.0, 1.0))), 60,
                                            (0.5,), 0.02, 7))
        points.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in data.points))
        paths = [str(tmp_path / f"{name}.json") for name in ("a", "b")]
        for path, epsilon in zip(paths, ("0.05", "0.1")):
            assert main(["fit", str(points), "-o", path, "--epsilon", epsilon, "--normalization", "grad"]) == 0
        out = tmp_path / "features.csv"
        assert main(["features", *paths, str(points), "-o", str(out)]) == 0
        models = [load_model(path)[0] for path in paths]
        rows = np.array([extract_features(models, x) for x in read_points_csv(str(points))])
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert got.shape == rows.shape
        scale = np.abs(rows).max(axis=0)
        assert np.all(np.abs(got - rows) <= 1e-11 * scale)


class TestDiagnoseCommand:
    def test_scaling_report(self, four_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["diagnose", four_csv, "--scale", "2", "--epsilon", "0", "-o", str(report_path)]
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["counts_match"] is True
        ratios = [r for degree in data["eigenvalue_ratios"] for r in degree]
        assert all(abs(r - 4.0) <= 1e-6 * 4.0 for r in ratios)

    @pytest.mark.parametrize("flags,flag", [(["--probes", "0"], "--probes"), (["--probes", "-1"], "--probes"),
                                            (["--scale", "nan"], "--scale"), (["--scale", "inf"], "--scale"),
                                            (["--scale=-inf"], "--scale"), (["--scale", "0"], "--scale")])
    def test_bad_probes_or_scale_is_a_usage_error(self, flags, flag, four_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["diagnose", four_csv, *flags, "--epsilon", "0.1", "-o", str(report_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {flag} must be")
        assert not report_path.exists()


    @pytest.mark.parametrize("translate,message", [
        pytest.param(translate, message, id=translate) for translate, message in [
            ("1", "--translate length must match the point dimension"),
            ("1,2,3", "--translate length must match the point dimension"),
            ("nan,0", "--translate must be finite, got 'nan,0'"),
            ("inf,0", "--translate must be finite, got 'inf,0'"),
        ]])
    def test_translate_of_the_wrong_length_is_a_usage_error(self, translate, message, four_csv, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["diagnose", four_csv, "--translate", translate, "-o", str(report_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"
        assert not report_path.exists()


REPORTS = Path(__file__).parent / "data" / "reports"


class TestReportGoldens:
    """The report commands rewrite golden files byte for byte.  The inputs
    are the 12-point ellipse in ``tests/data/reports``; the diagnose
    tolerance is the square root of one of its base eigenvalues, so
    roundoff moves that polynomial across it in the transformed fits and
    some gaps compare a block with nothing (null in JSON)."""

    @pytest.mark.parametrize(
        "golden,args",
        [
            ("diagnose.json",
             ["diagnose", "--translate", "0.5,-1", "--scale", "2",
              "--epsilon", "0.14545784650939508"]),
            ("search_found.json",
             ["epsilon-search", "--num-linear", "0", "--dmin", "2", "--num-at-dmin", "1"]),
            ("search_missed.json",
             ["epsilon-search", "--num-linear", "0", "--dmin", "3", "--num-at-dmin", "5"]),
        ],
    )
    def test_matches_golden(self, golden, args, tmp_path):
        out = tmp_path / golden
        command, flags = args[0], args[1:]
        main([command, str(REPORTS / "ellipse.csv"), *flags, "-o", str(out)])
        assert out.read_bytes() == (REPORTS / golden).read_bytes()

    def test_goldens_cover_null_gaps_and_both_outcomes(self):
        diagnose = json.loads((REPORTS / "diagnose.json").read_text())
        gaps = [v for entry in diagnose["subspace_gaps"] for v in entry.values()]
        assert None in gaps
        assert json.loads((REPORTS / "search_found.json").read_text())["found"] is True
        assert json.loads((REPORTS / "search_missed.json").read_text())["found"] is False


# the space curve x^2 + y^2 + z^2 = 1, xy = z, sampled by Gauss-Newton projection
CURVE_SPEC = {"variety": {"kind": "polynomial_system", "num_vars": 3,
                          "polynomials": [{"2,0,0": 1.0, "0,2,0": 1.0, "0,0,2": 1.0, "0,0,0": -1.0},
                                          {"1,1,0": 1.0, "0,0,1": -1.0}]},
              "samples": 50, "noise_std_fraction": 0.01, "seed": 7}


class TestGenerateCommand:
    def test_deterministic_output(self, tmp_path):
        """A circle, the space curve, and the cubic x^3 - 2x + 2, which
        redraws many starts: each spec writes the same bytes twice."""
        circle = {"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 1.0]], "rotation": 0.0},
                  "samples": 8, "seed": 7}
        cubic = {"variety": {"kind": "polynomial_system", "num_vars": 1,
                             "polynomials": [{"3": 1.0, "1": -2.0, "0": 2.0}]},
                 "samples": 300, "noise_std_fraction": 0.01, "seed": 7}
        spec_path, out1, out2 = tmp_path / "spec.json", tmp_path / "a.csv", tmp_path / "b.csv"
        for spec in (circle, CURVE_SPEC, cubic):
            spec_path.write_text(json.dumps(spec))
            assert main(["generate", str(spec_path), "-o", str(out1)]) == 0
            assert main(["generate", str(spec_path), "-o", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_polynomial_system_spec(self, tmp_path):
        spec = {
            "variety": {
                "kind": "polynomial_system",
                "num_vars": 3,
                "polynomials": [
                    {"1,0,1": 1.0, "0,2,0": -1.0},
                    {"3,0,0": 1.0, "0,1,1": -1.0},
                ],
            },
            "samples": 5,
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "pts.csv"
        assert main(["generate", str(spec_path), "-o", str(out)]) == 0
        assert read_points_csv(str(out)).shape == (5, 3)

    @pytest.mark.parametrize("terms", [{"2": 1e308, "0": -1e308}, {"3": 1e308, "2": -1e308, "0": -1}],
                             ids=["quadratic", "cubic"])
    def test_overflowing_system_is_one_error_line(self, terms, tmp_path):
        """Starts whose residuals or Jacobians overflow are failed starts, not
        warnings or a failed SVD."""
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"variety": {"kind": "polynomial_system", "num_vars": 1,
                                                     "polynomials": [terms]},
                                         "samples": 3, "seed": 0}))
        code, err = _run_quietly(["generate", str(spec_path), "-o", str(tmp_path / "x.csv")])
        assert (code, err) == (1, "error: projection onto the variety failed to converge\n")

    def test_invalid_json_is_a_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"samples": 3,')
        assert main(["generate", str(spec_path), "-o", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec_path}: invalid JSON: ") and err.count("\n") == 1

    def test_unknown_variety(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"variety": {"kind": "nope"}, "samples": 3}))
        assert main(["generate", str(spec_path), "-o", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize(
        "change,field",
        [
            ({"variety": [1]}, "variety: expected an object, got [1]"),
            ([1, 2], "spec.json: expected an object, got [1, 2]"),
            ({"extra_linear_vars": 3}, "extra_linear_vars: expected a list, got 3"),
            ({"extra_linear_vars": [[1, [2]]]}, "extra_linear_vars[0][1]: expected a finite number, got [2]"),
            ({"samples": [5]}, "samples: expected an integer, got [5]"),
            ({"seed": None}, "seed: expected an integer, got None"),
            ({"noise_std_fraction": "lots"}, "noise_std_fraction: expected a finite number, got 'lots'"),
            ({"variety": {"kind": "concentric_ellipses", "radii": 1}}, "variety.radii: expected a list, got 1"),
            ({"variety": {"kind": "concentric_ellipses"}}, "missing field 'variety.radii'"),
            ({"variety": {"kind": "polynomial_system", "num_vars": 2, "polynomials": [[1]]}},
             "variety.polynomials[0]: expected an object, got [1]"),
            ({"variety": {"kind": "custom", "points": [[1, 2], [3]]}}, "variety.points[1]: expected 2 entries, got [3]"),
            ({"samples": 4.9}, "samples: expected an integer, got 4.9"),
            ({"samples": True}, "samples: expected an integer, got True"),
            ({"seed": True}, "seed: expected an integer, got True"),
            ({"seed": 1.5}, "seed: expected an integer, got 1.5"),
            ({"variety": {"kind": "polynomial_system", "num_vars": 2.7, "polynomials": [{"2,0": 1.0}]}},
             "variety.num_vars: expected an integer, got 2.7"),
            ({"noise_std_fraction": float("nan")}, "noise_std_fraction: expected a finite number, got nan"),
            ({"noise_std_fraction": float("inf")}, "noise_std_fraction: expected a finite number, got inf"),
            ({"variety": {"kind": "concentric_ellipses", "radii": [[float("nan"), 0.5]]}},
             "variety.radii[0][0]: expected a finite number, got nan"),
            ({"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]], "rotation": float("inf")}},
             "variety.rotation: expected a finite number, got inf"),
            ({"extra_linear_vars": [float("-inf")]}, "extra_linear_vars[0]: expected a finite number, got -inf"),
            ({"extra_linear_vars": [[1.0, float("nan")]]}, "extra_linear_vars[0][1]: expected a finite number, got nan"),
            ({"variety": {"kind": "polynomial_system", "num_vars": 1,
                          "polynomials": [{"3": float("nan"), "1": -2.0, "0": 2.0}]}},
             "variety.polynomials[0].3: expected a finite number, got nan"),
            ({"noise_std_fraction": True}, "noise_std_fraction: expected a finite number, got True"),
            ({"variety": {"kind": "concentric_ellipses", "radii": [[True, 0.5]]}},
             "variety.radii[0][0]: expected a finite number, got True"),
            ({"samples": "5"}, "samples: expected an integer, got '5'"),
            ({"variety": {"kind": "polynomial_system", "num_vars": "1", "polynomials": [{"2": 1.0, "0": -1.0}]}},
             "variety.num_vars: expected an integer, got '1'"),
            ({"samples": -3}, "samples must be >= 1"),
            ({"noise_std_fraction": -1}, "noise_std_fraction must be finite and >= 0"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"variety": {"kind": "custom", "points": [[1.0, 2.0], [float("nan"), 1.0]]}, "samples": 2},
             "variety.points[1][0]: expected a finite number, got nan"),
            ({"variety": {"kind": "custom", "points": [[1.0, 2.0], [3.0, 1.0]]}, "samples": 3},
             "samples must equal the row count of the custom points"),
            ({"extra_linear_vars": [[1.0, 2.0, 3.0]]},
             "extra_linear_vars: a weight vector's length must match the base dimension"),
            ({"seeds": 3}, "unknown field 'seeds'"),
            ({"variety": {"kind": "custom", "points": [[1.0]], "radii": 1}, "samples": 1},
             "unknown field 'variety.radii'"),
        ],
        ids=["variety list", "top-level list", "mixtures number", "mixture nested",
             "samples list", "seed null", "noise string", "radii number", "no radii",
             "polynomial list", "ragged points", "samples fraction", "samples bool",
             "seed bool", "seed fraction", "num_vars fraction", "noise nan", "noise inf",
             "radius nan", "rotation inf", "mixture -inf", "mixture vector nan", "coefficient nan",
             "noise bool", "radius bool", "samples string", "num_vars string", "samples negative",
             "noise negative", "seed negative", "custom points nan", "custom row count",
             "mixture vector length", "unknown key", "unknown variety key"],
    )
    def test_malformed_spec_names_the_field(self, change, field, tmp_path, capsys):
        spec = {
            "variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]]},
            "samples": 5,
        }
        spec = {**spec, **change} if isinstance(change, dict) else change
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        capsys.readouterr()
        code = main(["generate", str(spec_path), "-o", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {spec_path}: ") and err.count("\n") == 1
        assert field in err


class TestEpsilonSearchCommand:
    def test_search_on_noiseless_circle(self, tmp_path, capsys):
        spec = {
            "variety": {"kind": "concentric_ellipses", "radii": [[1.5, 0.75]], "rotation": 0.3},
            "samples": 25,
            "extra_linear_vars": [0.5],
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        points_path = tmp_path / "pts.csv"
        main(["generate", str(spec_path), "-o", str(points_path)])
        report_path = tmp_path / "eps.json"
        code = main(
            ["epsilon-search", str(points_path), "--num-linear", "1",
             "--dmin", "2", "--num-at-dmin", "1", "-o", str(report_path)]
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert data["found"] is True
        assert data["lower"] < data["epsilon"] < data["upper"]

    def test_nan_grid_bound_is_a_usage_error(self, four_csv, capsys):
        code = main(
            ["epsilon-search", four_csv, "--num-linear", "1", "--dmin", "2",
             "--num-at-dmin", "1", "--grid-lo", "nan", "--grid-hi", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: --grid-lo must be finite, with 0 < lo < hi; got nan\n"

    @pytest.mark.parametrize("bounds,flag", [(["--grid-lo=-inf", "--grid-hi", "1"], "--grid-lo"),
                                            (["--grid-lo", "0.01", "--grid-hi", "inf"], "--grid-hi")])
    def test_infinite_grid_bound_is_a_usage_error(self, four_csv, capsys, bounds, flag):
        code = main(["epsilon-search", four_csv, "--num-linear", "0", "--dmin", "2",
                     "--num-at-dmin", "1", *bounds])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"error: {flag} must be finite")

    @pytest.mark.parametrize("bounds,flag", [(["--grid-lo", "0.01"], "--grid-lo"), (["--grid-hi", "1"], "--grid-hi")])
    def test_one_grid_bound_is_a_usage_error(self, four_csv, tmp_path, capsys, bounds, flag):
        report_path = tmp_path / "eps.json"
        code = main(["epsilon-search", four_csv, "--num-linear", "0", "--dmin", "2",
                     "--num-at-dmin", "1", *bounds, "-o", str(report_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: --grid-lo and --grid-hi must be given together\n"
        assert flag in err and not report_path.exists()

    def test_grid_bounds_set_the_grid(self, four_csv, tmp_path):
        report_path = tmp_path / "eps.json"
        code = main(["epsilon-search", four_csv, "--num-linear", "0", "--dmin", "2", "--num-at-dmin", "1",
                     "--grid-lo", "0.01", "--grid-hi", "1", "--grid-count", "5", "-o", str(report_path)])
        assert code == 0
        data = json.loads(report_path.read_text())
        assert [point["epsilon"] for point in data["trace"]] == np.geomspace(0.01, 1.0, 5).tolist()
        assert [point["satisfied"] for point in data["trace"]] == [True] * 4 + [False]

    def test_grid_count_sizes_the_default_grid(self, four_csv, tmp_path):
        report_path = tmp_path / "eps.json"
        main(["epsilon-search", four_csv, "--num-linear", "0", "--dmin", "2",
              "--num-at-dmin", "1", "--grid-count", "5", "-o", str(report_path)])
        trace = json.loads(report_path.read_text())["trace"]
        want = default_epsilon_grid(read_points_csv(four_csv), 5)
        assert [point["epsilon"] for point in trace] == want.tolist()

    @pytest.mark.parametrize("bounds", [[], ["--grid-lo", "0.01", "--grid-hi", "1"]])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_grid_count_below_one_is_a_usage_error(self, four_csv, capsys, bounds, count):
        code = main(["epsilon-search", four_csv, "--num-linear", "0", "--dmin", "2",
                     "--num-at-dmin", "1", "--grid-count", count, *bounds])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--grid-count" in err

    def test_nan_points_error(self, tmp_path, capsys):
        p = tmp_path / "nan.csv"
        p.write_text("x,y\n1,0\n0,1\nnan,0\n0,-1\n")
        code = main(
            ["epsilon-search", str(p), "--num-linear", "1", "--dmin", "2", "--num-at-dmin", "1"]
        )
        assert code == 1
        assert "points contain NaN or Inf" in capsys.readouterr().err

    def test_coefficient_normalization_rewrites_the_same_bytes(self, tmp_path):
        """The space curve through fit, reduce and eval with the coefficient
        normalization, whose search steps the symbolic kernel through degree
        2; searching again writes the same report."""
        (tmp_path / "curve.json").write_text(json.dumps(CURVE_SPEC))
        points, model = str(tmp_path / "curve.csv"), str(tmp_path / "model.json")
        reports = [tmp_path / "search.json", tmp_path / "again.json"]
        for argv in (["generate", str(tmp_path / "curve.json"), "-o", points],
                     ["fit", points, "-o", model, "--normalization", "coef", "--epsilon", "0.01"],
                     ["reduce", model, points, "--threshold", "1e-2"],
                     ["eval", model, points, "-o", str(tmp_path / "kept.csv"), "--kept-only"],
                     *(["epsilon-search", points, "--num-linear", "0", "--dmin", "3", "--num-at-dmin", "1",
                        "--normalization", "coef", "-o", str(report)] for report in reports)):
            assert _run_quietly(argv) == (0, ""), argv
        assert reports[0].read_bytes() == reports[1].read_bytes()

    @pytest.mark.parametrize("with_output", [False, True], ids=["stdout only", "-o"])
    def test_miss_names_the_scan_trace(self, with_output, four_csv, tmp_path):
        report_path = tmp_path / "eps.json"
        out = io.StringIO()
        code, err = _run_quietly(["epsilon-search", four_csv, "--num-linear", "7", "--dmin", "2",
                                  "--num-at-dmin", "0", *(["-o", str(report_path)] if with_output else [])], out)
        trace = f"see the scan trace in {report_path}" if with_output else "-o writes the scan trace"
        assert (code, err) == (1, "")
        assert out.getvalue().splitlines()[-1] == f"no tolerance on the grid satisfies the target; {trace}"
        assert report_path.exists() == with_output

    def test_not_found_exit_code(self, four_csv, tmp_path):
        code = main(
            ["epsilon-search", four_csv, "--num-linear", "7", "--dmin", "2",
             "--num-at-dmin", "0"]
        )
        assert code == 1


def _fitted_model(tmp_path):
    main(["fit", write_four_points(tmp_path / "fit.csv"), "-o", str(tmp_path / "m.json"),
          "--epsilon", "0"])
    return json.loads((tmp_path / "m.json").read_text())


def _reduced_model(tmp_path):
    """The four-point model with its reduction report, which removes two polynomials."""
    main(["fit", write_four_points(tmp_path / "fit.csv"), "-o", str(tmp_path / "m.json"), "--epsilon", "0"])
    main(["reduce", str(tmp_path / "m.json"), str(tmp_path / "fit.csv")])
    data = json.loads((tmp_path / "m.json").read_text())
    assert data["reduction"]["removed"]
    return data


def _report_edited(edit):
    """A reduced model's JSON with ``edit`` applied to its report in place."""
    def make(tmp_path):
        data = _reduced_model(tmp_path)
        edit(data["reduction"])
        return data
    return make


def _model_without_parents(tmp_path):
    data = _fitted_model(tmp_path)
    del data["degrees"][1]["parents"]
    return data


def _model_with(**fields):
    return lambda tmp_path: {**_fitted_model(tmp_path), **fields}


def _model_edited(edit):
    """A fitted model's JSON with ``edit`` applied in place."""
    def make(tmp_path):
        data = _fitted_model(tmp_path)
        edit(data)
        return data
    return make


def _capped_model(tmp_path):
    """A degree-1 fit of the four points, which stops with F columns left."""
    main(["fit", write_four_points(tmp_path / "fit.csv"), "-o", str(tmp_path / "m.json"), "--max-degree", "1"])
    return json.loads((tmp_path / "m.json").read_text())


def _set_entry(name, value, degree=0, row=0):
    """Set one stored float of ``degrees[degree][name]`` to ``value``."""
    def edit(data):
        data["degrees"][degree][name][row][0] = value
    return edit


class TestOutOfMemory:
    """An allocation too large for the machine ends in one stderr line, not
    a traceback; the allocation itself is stood in for, never made."""

    MESSAGE = "Unable to allocate 74.5 GiB for an array with shape (10000000000,) and data type float64"

    def _raise(self, *args, **kwargs):
        raise MemoryError(self.MESSAGE)

    def test_eval_grid(self, four_csv, tmp_path, capsys, monkeypatch):
        model_path, grid_path = tmp_path / "m.json", tmp_path / "grid.csv"
        main(["fit", four_csv, "-o", str(model_path), "--epsilon", "0"])
        capsys.readouterr()
        monkeypatch.setattr("avibasis.cli._grid_points", self._raise)
        code = main(["eval", str(model_path), four_csv, "-o", str(grid_path), "--grid", "100000"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"
        assert not grid_path.exists()

    def test_generate(self, tmp_path, capsys, monkeypatch):
        spec, out = tmp_path / "spec.json", tmp_path / "points.csv"
        spec.write_text(json.dumps({"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]]},
                                    "samples": 20000000000}))
        monkeypatch.setattr("avibasis.cli.generate_dataset", self._raise)
        code = main(["generate", str(spec), "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"
        assert not out.exists()


class TestMalformedModel:
    @pytest.mark.parametrize(
        "make_data,field",
        [
            (lambda tmp_path: {"format_version": 1, "num_vars": 2}, "'degrees'"),
            (_model_without_parents, "missing field 'degrees[1].parents'"),
            (_model_with(normalization=[1]), "normalization: expected an object, got [1]"),
            (_model_with(preprocessing="x"), "preprocessing: expected an object, got 'x'"),
            (_model_with(degrees={"1": {}}), "degrees: expected a list, got {'1': {}}"),
            (_model_with(degrees=[3]), "degrees[0]: expected an object, got 3"),
            (_model_with(reduction=[]), "reduction: expected an object, got []"),
            (_model_edited(lambda d: d["degrees"][2].update(degree=0)),
             "degrees[2].degree: expected 3, got 0"),
            (_model_edited(lambda d: d["degrees"][2].update(degree=2)),
             "degrees[2].degree: expected 3, got 2"),
            (_model_edited(lambda d: d["degrees"][0].update(degree=1.5)),
             "degrees[0].degree: expected an integer, got 1.5"),
            (_model_edited(_set_entry("eigvecs", "nan", degree=1)),
             "degrees[1].eigvecs[0][0]: expected a finite number, got 'nan'"),
            (_model_edited(_set_entry("ortho_weights", "inf")),
             "degrees[0].ortho_weights[0][0]: expected a finite number, got 'inf'"),
            (_model_edited(lambda d: d["degrees"][1]["eigvals"].__setitem__(0, "nan")),
             "degrees[1].eigvals[0]: expected a finite number, got 'nan'"),
            (_model_with(constant_value="nan"), "constant_value: expected a finite number, got 'nan'"),
            (_model_with(preprocessing={"center": ["nan", "0"], "scale": None}),
             "preprocessing.center[0]: expected a finite number, got 'nan'"),
            (_model_with(preprocessing={"center": ["0"], "scale": None}),
             "preprocessing.center must hold 2 numbers"),
            (_model_with(preprocessing={"center": None, "scale": "0"}), "preprocessing.scale must be > 0, got 0.0"),
            (_model_with(preprocessing={"center": None, "scale": "nan"}),
             "preprocessing.scale: expected a finite number, got 'nan'"),
            (_model_with(preprocessing={"center": None, "scale": "inf"}),
             "preprocessing.scale: expected a finite number, got 'inf'"),
            (_model_with(preprocessing={"center": None, "scale": True}),
             "preprocessing.scale: expected a finite number, got True"),
            (_model_edited(lambda d: d["degrees"][1].update(eigvecs=[])),
             "degree-2 eigenvector rows != candidate count"),
            (_model_edited(lambda d: d["degrees"][0].update(parents=[0.9, 1.2])),
             "degrees[0].parents[0]: expected an integer, got 0.9"),
            (_model_edited(lambda d: d["degrees"][1]["parents"].reverse()),
             "degree-2 parents are not the degree-1-major grid"),
            (_model_with(num_vars=True), "model JSON: num_vars: expected an integer, got True"),
            (_model_with(num_vars="2"), "model JSON: num_vars: expected an integer, got '2'"),
            (_model_edited(lambda d: d["degrees"][1]["parents"].__setitem__(0, [0, 0, 0])),
             "degrees[1].parents[0]: expected 2 entries, got [0, 0, 0]"),
            (_model_edited(lambda d: d["degrees"][1]["parents"].__setitem__(0, 0)),
             "degrees[1].parents[0]: expected 2 entries, got 0"),
            (_report_edited(lambda r: r.update(threshold="nan")),
             "reduction.threshold: expected a finite number, got 'nan'"),
            (_report_edited(lambda r: r.update(threshold="-1")),
             "reduction.threshold must be >= 0, got -1.0"),
            (_report_edited(lambda r: r["removed"][0].update(max_residual="inf")),
             "reduction.removed[0].max_residual: expected a finite number, got 'inf'"),
            (_report_edited(lambda r: r["removed"][1]["per_point_residuals"].__setitem__(2, "nan")),
             "reduction.removed[1].per_point_residuals[2]: expected a finite number, got 'nan'"),
            (_model_with(epsilon="-1"), "model JSON: epsilon must be >= 0, got -1.0"),
            (_model_with(epsilon="-inf"), "model JSON: epsilon must be >= 0, got -inf"),
            (_model_with(epsilon="nan"), "model JSON: epsilon must be >= 0, got nan"),
            (_model_edited(lambda d: d["degrees"][0].update(parents=[0, 0])),
             "degree-1 parents are not the variables 0..n-1 in order"),
            (_model_edited(lambda d: d["degrees"][0]["parents"].reverse()),
             "degree-1 parents are not the variables 0..n-1 in order"),
            (_model_with(truncated=True), "truncated is True, which disagrees with the last degree's partition"),
            (lambda tmp_path: {**_capped_model(tmp_path), "truncated": False},
             "truncated is False, which disagrees with the last degree's partition"),
            (_model_with(truncated="false"), "model JSON: truncated: expected true or false, got 'false'"),
            (lambda tmp_path: {**_capped_model(tmp_path), "truncated": "no"},
             "model JSON: truncated: expected true or false, got 'no'"),
            (_report_edited(lambda r: (r["kept"][0].update(column=10**6),
                                       r["kept"].append({"degree": 9, "column": 0, "kind": "G"}))),
             "model JSON: reduction.kept[0]: d2_g1000000 is not a G polynomial of the model"),
            (_report_edited(lambda r: r["kept"].append(r["removed"][0]["handle"])),
             "model JSON: reduction.removed[0].handle: d3_g0 is named twice"),
            (_report_edited(lambda r: r["kept"].pop()),
             "model JSON: reduction: d2_g2 is neither kept, removed nor rank-deflated"),
        ],
        ids=["no degrees", "degree without parents", "normalization list",
             "preprocessing string", "degrees object", "degree number", "reduction list",
             "degree zero", "degree repeated", "degree fraction", "nan eigvec", "inf weight", "nan eigval",
             "nan constant", "nan center", "short center", "zero scale", "nan scale", "inf scale", "bool scale",
             "empty eigvecs", "fractional parents", "reversed parents", "bool num_vars", "string num_vars",
             "triple parent", "int parent pair", "nan threshold", "negative threshold",
             "inf max_residual", "nan residual", "negative epsilon", "-inf epsilon", "nan epsilon",
             "repeated degree-1 parent", "reversed degree-1 parents", "truncated natural fit", "untruncated capped fit",
             "string truncated natural fit", "string truncated capped fit", "foreign kept handles",
             "handle kept and removed", "handle dropped"],
    )
    def test_eval_reports_one_line_error(self, make_data, field, four_csv, tmp_path, capsys):
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps(make_data(tmp_path)))
        capsys.readouterr()
        code = main(["eval", str(model_path), four_csv, "-o", str(tmp_path / "v.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err
        assert "Traceback" not in err


def _fuzz_model() -> dict:
    """A reduced model file with preprocessing, a removed and a kept G polynomial."""
    config = FitConfig(epsilon=0.0, center=True, unit_mean_norm=True)
    model = fit(FOUR_POINTS + np.array([3.0, -1.0]), config)
    return model_dict(model, reduce_basis(model, FOUR_POINTS + np.array([3.0, -1.0])))


FUZZ_INPUTS = {
    "ellipse spec": {"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5], [2.0, 1.0]], "rotation": 0.3},
                     "samples": 8, "extra_linear_vars": [0.5, [1.0, -1.0]], "noise_std_fraction": 0.01, "seed": 3},
    "polynomial spec": {"variety": {"kind": "polynomial_system", "num_vars": 2,
                                    "polynomials": [{"2,0": 1.0, "0,2": 1.0, "0,0": -1.0}]}, "samples": 4},
    "custom spec": {"variety": {"kind": "custom", "points": [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]}, "samples": 3},
    "model": _fuzz_model(),
}
# list entries, which _field_paths does not reach
FUZZ_FIELDS = [(name, path) for name, doc in FUZZ_INPUTS.items() for path in _field_paths(doc)] + [
    ("ellipse spec", ("variety", "radii", 0, 1)), ("ellipse spec", ("extra_linear_vars", 0)),
    ("ellipse spec", ("extra_linear_vars", 1, 0)), ("custom spec", ("variety", "points", 1, 0)),
    ("model", ("degrees", 0, "parents", 1)), ("model", ("degrees", 1, "parents", 0, 1)),
    ("model", ("degrees", 1, "eigvals", 0)), ("model", ("preprocessing", "center", 0)),
]


class TestFuzzedInputs:
    """Every subcommand that reads a spec or a model file, on one with a field
    deleted or replaced: it exits 0, 1 or 2, and a nonzero exit writes one
    stderr line.  The commands run in this process, so an exception that
    would print a traceback fails the test, and so does a warning on a
    nonzero exit, which would print lines of its own."""

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(FUZZ_FIELDS), value=st.sampled_from(VALUES + [False]))
    def test_one_exit_code_and_at_most_one_line(self, field, value):
        name, path = field
        assume(path != ("samples",) or value != 10**6)  # valid, but seconds of sampling and writing
        data = copy.deepcopy(FUZZ_INPUTS[name])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            (work / "input.json").write_text(json.dumps(data))
            file, points, out = str(work / "input.json"), write_four_points(work / "points.csv"), str(work / "out")
            if name == "model":
                commands = [["eval", file, points, "-o", out], ["eval", file, points, "-o", out, "--kept-only"],
                            ["reduce", file, points, "-o", out], ["features", file, points, "-o", out]]
            else:
                commands = [["generate", file, "-o", out]]
            for argv in commands:
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
                assert code in (0, 1, 2), argv
                if code:
                    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
                    assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("content,message", [
        (b"1,1\n2,0,5\n0,3\n", "line 2: expected 2 columns, found 3"),
        (b"1,1\n2,x\n0,3\n", "line 2: malformed row"),
        (b"1,1\n2,1e999\n0,3\n", "line 2: points contain NaN or Inf"),
        (b"", "empty point set"),
        (b"x0,x1\n", "empty point set"),
        (b"1,1\n2,\0\n0,3\n", "line 2: malformed row"),
        (b"1,1\n2,\xff\n0,3\n", "can't decode byte 0xff"),
    ], ids=["ragged row", "non-numeric cell", "overflowing cell", "empty file", "header only", "NUL cell",
            "non-UTF-8 bytes"])
    def test_malformed_points_csv(self, tmp_path, content, message):
        """Every subcommand that reads a points CSV exits 1 with one stderr
        line on a malformed one, naming the file where it reads it."""
        (tmp_path / "bad.csv").write_bytes(content)
        model = str(tmp_path / "model.json")
        assert main(["fit", write_four_points(tmp_path / "good.csv"), "-o", model]) == 0
        bad, out = str(tmp_path / "bad.csv"), str(tmp_path / "out")
        for argv in (["fit", bad, "-o", out], ["eval", model, bad, "-o", out], ["reduce", model, bad, "-o", out],
                     ["features", model, bad, "-o", out], ["diagnose", bad, "-o", out],
                     ["epsilon-search", bad, "--num-linear", "0", "--dmin", "2", "--num-at-dmin", "1"]):
            code, err = _run_quietly(argv)
            assert code == 1 and err.count("\n") == 1 and message in err, (argv, err)
            assert err.startswith(f"error: {bad}: "), (argv, err)


class TestPersistence:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        report = reduce_basis(model, FOUR_POINTS)
        path = tmp_path / "m.json"
        save_model(path, model, report)
        first = path.read_bytes()
        loaded, loaded_report = load_model(path)
        save_model(path, loaded, loaded_report)
        assert path.read_bytes() == first

    def test_reloaded_model_evaluates_identically(self, tmp_path):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-2, 2, size=(9, 3))
        model = fit(pts, FitConfig(epsilon=0.0, normalization=NormalizationKind.identity()))
        path = tmp_path / "m.json"
        save_model(path, model)
        loaded, _ = load_model(path)
        probes = rng.uniform(-2, 2, size=(100, 3))
        a = evaluate(model, model.handles(), probes)
        b = evaluate(loaded, loaded.handles(), probes)
        assert np.abs(a - b).max() <= 1e-12

    def test_bad_version_rejected(self, tmp_path):
        model = fit(FOUR_POINTS, FitConfig(epsilon=0.0))
        data = model_dict(model)
        data["format_version"] = 99
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_model(path)

    def test_truncated_model_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        pts = rng.uniform(-2, 2, size=(10, 2))
        model = fit(pts, FitConfig(epsilon=0.0, max_degree=2))
        assert model.truncated
        path = tmp_path / "m.json"
        save_model(path, model)
        loaded, _ = load_model(path)
        assert loaded.truncated
        probes = rng.uniform(-2, 2, size=(20, 2))
        assert np.array_equal(
            evaluate(model, model.handles(), probes),
            evaluate(loaded, loaded.handles(), probes),
        )

    def test_preprocessing_roundtrip(self, tmp_path):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2, 2, size=(7, 2)) + 5.0
        model = fit(pts, FitConfig(epsilon=0.0, center=True, unit_mean_norm=True))
        path = tmp_path / "m.json"
        save_model(path, model)
        loaded, _ = load_model(path)
        a = evaluate(model, model.g_handles(), pts)
        b = evaluate(loaded, loaded.g_handles(), pts)
        assert np.array_equal(a, b)
