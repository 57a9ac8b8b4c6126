"""README's examples, run as written: the library quickstart block verbatim,
and each line of the "Command line" block with its file names bound to
files made from the CI cloud (``concentric_ellipses`` with radii
``[[1.0, 0.5]]``, 12 samples, seed 3); every line must exit 0 with
nothing on stderr."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from avibasis import expand
from test_cli import _run_quietly

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")

# a kept generator's coefficients, divided by its largest, may differ from
# the stated ones by this much (they differ by about 1e-16)
COEFFICIENT_TOL = 1e-12

CI_SPEC = {"variety": {"kind": "concentric_ellipses", "radii": [[1.0, 0.5]]}, "samples": 12, "seed": 3}


def _block(heading: str, language: str = "") -> str:
    """The first fenced block, of ``language``, after the ``## heading`` line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1)


def _normalized(terms: dict) -> dict:
    """The terms divided by the coefficient of largest magnitude."""
    top = max(terms.values(), key=abs)
    return {exps: c / top for exps, c in terms.items()}


def _matches(terms: dict, want: dict) -> bool:
    got, want = _normalized(terms), _normalized(want)
    return all(abs(got.get(e, 0.0) - want.get(e, 0.0)) <= COEFFICIENT_TOL for e in got.keys() | want.keys())


def test_quickstart_prints_four_and_keeps_the_two_generators():
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_block("Library quickstart", "python"), namespace)
    assert out.getvalue().splitlines()[0] == "4"
    model, kept = namespace["model"], namespace["report"].kept
    stated = [{(2, 0): 0.25, (0, 2): 0.25, (0, 0): -0.25}, {(1, 1): 0.5}]  # 0.25*(x0^2 + x1^2 - 1), 0.5*x0*x1
    generators = [expand(model, h).terms for h in kept]
    assert len(generators) == 2
    assert all(sum(_matches(g, want) for g in generators) == 1 for want in stated)


def test_each_command_line_runs(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(CI_SPEC))
    path = {name: str(tmp_path / name) for name in ("spec.json", "points.csv", "classA.json", "classB.json")}
    assert _run_quietly(["generate", path["spec.json"], "-o", path["points.csv"]]) == (0, "")
    for name, epsilon in (("classA.json", "0.01"), ("classB.json", "0.1")):
        assert _run_quietly(["fit", path["points.csv"], "-o", path[name], "--epsilon", epsilon]) == (0, "")

    lines = [line for line in _block("Command line").splitlines() if line.startswith("avibasis ")]
    commands = set()
    for line in lines:
        # an optional flag is shown in brackets; run it
        argv = [tok.strip("[]") for tok in shlex.split(line, comments=True)[1:]]
        argv = [str(tmp_path / tok) if tok.endswith((".csv", ".json")) else tok for tok in argv]
        assert _run_quietly(argv) == (0, ""), line
        commands.add(argv[0])
    assert commands == {"fit", "reduce", "eval", "features", "diagnose", "generate", "epsilon-search"}
