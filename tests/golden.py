"""The CLI transcript: one JSON file per invocation in tests/golden/, holding
its argv, environment, exit code, stdout and stderr. `test_golden.py` replays
every file in process through `cli.main`.

Input files live in tests/golden/inputs/ and are named relative to
tests/golden/, the working directory of every invocation. The seeded ones
were written once by `serialize` from `random_instances`:
seed27.hg and seed24.hg are `random_hypergraph(Random(s), 6, 8)`, seed16.cw is
`random_cw(Random(16), 4, 2)` and seed9.cw is `random_cw_level(Random(9), 5, 4)`.

Regenerate with `PYTHONPATH=src python tests/golden.py`. A file whose recorded
output would change is left alone and named; `--force` overwrites it, after
which the change shows as a diff to review.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from hyperlap.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BUDGET = {"HYPERLAP_BUDGET": "40"}

_FIG1_VERTEX = ["--fixture", "fig1", "--kind", "vertex", "--from", "1", "--to", "3"]


def _walks(kind, src, a, b, k, *extra):
    return [*src, *extra, "--kind", kind, "--from", str(a), "--to", str(b), "--length", str(k)]


def _fig(name):
    return ["--fixture", name]


def _file(name):
    return ["--input", f"inputs/{name}"]


# name -> argv of every command that succeeds; each is also recorded with --machine
_SUCCEEDS = {
    "validate-fig1": ["validate", *_fig("fig1")],
    "validate-fig2": ["validate", *_fig("fig2")],
    "validate-seed27": ["validate", *_file("seed27.hg")],
    "validate-seed16-warning": ["validate", *_file("seed16.cw")],
    "validate-seed9": ["validate", *_file("seed9.cw")],
    "validate-comments-crlf": ["validate", *_file("comments-crlf.hg")],
    "validate-skel-before-its-cells": ["validate", *_file("skel-before-its-cells.cw")],
    "laplacian-fig1-even": ["laplacian", *_fig("fig1"), "--which", "even"],
    "laplacian-fig1-odd": ["laplacian", *_fig("fig1"), "--which", "odd"],
    "laplacian-fig2-d0-even": ["laplacian", *_fig("fig2"), "--which", "even", "--dim", "0"],
    "laplacian-fig2-d1-odd": ["laplacian", *_fig("fig2"), "--which", "odd", "--dim", "1"],
    "laplacian-seed24-odd": ["laplacian", *_file("seed24.hg"), "--which", "odd"],
    "laplacian-seed16-d1-even": ["laplacian", *_file("seed16.cw"), "--which", "even", "--dim", "1"],
    "laplacian-edgeless-odd": ["laplacian", *_file("edgeless.hg"), "--which", "odd"],
    "count-fig1-vertex": ["count", *_walks("vertex", _fig("fig1"), 1, 3, 4)],
    "count-fig1-edge": ["count", *_walks("edge", _fig("fig1"), 7, 9, 3)],
    "count-fig1-length-zero": ["count", *_walks("vertex", _fig("fig1"), 2, 2, 0)],
    "count-seed27-vertex": ["count", *_walks("vertex", _file("seed27.hg"), 2, 5, 6)],
    "count-seed27-edge-long": ["count", *_walks("edge", _file("seed27.hg"), 1, 4, 300)],
    "signed-count-fig2-lower": ["signed-count", *_walks("lower", _fig("fig2"), 1, 6, 4, "--dim", "1")],
    "signed-count-fig2-upper": ["signed-count", *_walks("upper", _fig("fig2"), 1, 3, 1, "--dim", "1")],
    "signed-count-fig2-upper-2": ["signed-count", *_walks("upper", _fig("fig2"), 1, 3, 2, "--dim", "1")],
    "signed-count-fig2-d0-lower": ["signed-count", *_walks("lower", _fig("fig2"), 1, 3, 3, "--dim", "0")],
    "signed-count-seed16-d1-upper": ["signed-count", *_walks("upper", _file("seed16.cw"), 1, 3, 5, "--dim", "1")],
    "signed-count-seed9-lower": ["signed-count", *_walks("lower", _file("seed9.cw"), 1, 4, 7, "--dim", "0")],
    "enumerate-fig1-vertex": ["enumerate", *_walks("vertex", _fig("fig1"), 1, 3, 1)],
    "enumerate-fig1-edge": ["enumerate", *_walks("edge", _fig("fig1"), 7, 9, 2)],
    "enumerate-fig2-upper": ["enumerate", *_walks("upper", _fig("fig2"), 1, 3, 1, "--dim", "1")],
    "enumerate-fig2-lower": ["enumerate", *_walks("lower", _fig("fig2"), 1, 6, 2, "--dim", "1")],
    "enumerate-seed27-vertex": ["enumerate", *_walks("vertex", _file("seed27.hg"), 4, 6, 2)],
    "enumerate-seed9-upper": ["enumerate", *_walks("upper", _file("seed9.cw"), 2, 3, 2, "--dim", "0")],
    "enumerate-no-walks": ["enumerate", *_walks("vertex", _file("edgeless.hg"), 1, 2, 1)],
    "check-fig1": ["check", *_fig("fig1"), "--max-length", "2"],
    "check-fig2": ["check", *_fig("fig2"), "--max-length", "3"],
    "check-seed27": ["check", *_file("seed27.hg"), "--max-length", "2"],
    "check-seed16": ["check", *_file("seed16.cw"), "--max-length", "3"],
    "evolve-fig1": ["evolve", *_fig("fig1"), "--theta", "0.7"],
    "evolve-fig1-trace": ["evolve", *_fig("fig1"), "--theta", "1.3", "--trace"],
    "evolve-fig1-theta-zero": ["evolve", *_fig("fig1"), "--theta", "0"],
    "evolve-seed24": ["evolve", *_file("seed24.hg"), "--theta", "2.5"],
    "evolve-seed27-trace": ["evolve", *_file("seed27.hg"), "--theta", "-0.4", "--trace"],
    "evolve-edgeless": ["evolve", *_file("edgeless.hg"), "--theta", "0.5"],
    "fixture-fig1": ["fixture", "--name", "fig1"],
    "fixture-fig2": ["fixture", "--name", "fig2"],
    "fixture-fig1-emit": ["fixture", "--name", "fig1", "--emit"],
    "fixture-fig2-emit": ["fixture", "--name", "fig2", "--emit"],
}

# name -> (argv, environment) of the budget and user-error paths
_FAILS = {
    "budget-enumerate": (["enumerate", *_FIG1_VERTEX, "--length", "3"], BUDGET),
    "budget-enumerate-fits": (["enumerate", *_FIG1_VERTEX, "--length", "1"], BUDGET),
    "budget-check-fig1": (["check", *_fig("fig1"), "--max-length", "3"], BUDGET),
    "budget-check-fig2": (["check", *_fig("fig2"), "--max-length", "3", "--machine"], BUDGET),
    "budget-malformed": (["enumerate", *_FIG1_VERTEX, "--length", "1"], {"HYPERLAP_BUDGET": "abc"}),
    "source-missing": (["validate"], {}),
    "source-both": (["validate", *_fig("fig1"), *_file("seed27.hg")], {}),
    "source-no-file": (["validate", *_file("missing.hg")], {}),
    "source-not-utf8": (["count", *_walks("vertex", _file("not-utf8.hg"), 1, 2, 1)], {}),
    "argparse-unknown-flag": (["count", *_fig("fig1"), "--bogus"], {}),
    "argparse-missing-argument": (["count", *_fig("fig1")], {}),
    "argparse-no-command": ([], {}),
    "laplacian-cw-without-dim": (["laplacian", *_fig("fig2"), "--which", "odd"], {}),
    "laplacian-hg-with-dim": (["laplacian", *_fig("fig1"), "--which", "odd", "--dim", "0"], {}),
    "laplacian-level-out-of-range": (["laplacian", *_fig("fig2"), "--which", "even", "--dim", "2"], {}),
    "count-on-cw": (["count", *_walks("vertex", _fig("fig2"), 1, 2, 2)], {}),
    "count-from-out-of-range": (["count", *_walks("vertex", _fig("fig1"), 5, 1, 1)], {}),
    "count-to-out-of-range": (["count", *_walks("edge", _fig("fig1"), 1, 10, 1)], {}),
    "count-negative-length": (["count", *_FIG1_VERTEX, "--length", "-1"], {}),
    "count-several-bad": (["count", *_walks("vertex", _fig("fig1"), 0, 9, -2)], {}),
    "signed-count-on-hg": (["signed-count", *_walks("lower", _fig("fig1"), 1, 3, 4, "--dim", "0")], {}),
    "signed-count-level-out-of-range": (["signed-count", *_walks("lower", _fig("fig2"), 1, 1, 1, "--dim", "2")], {}),
    "signed-count-negative-level": (["signed-count", *_walks("upper", _fig("fig2"), 1, 1, 1, "--dim", "-1")], {}),
    "signed-count-from-out-of-range": (["signed-count", *_walks("upper", _fig("fig2"), 4, 1, 1, "--dim", "1")], {}),
    "signed-count-negative-length": (["signed-count", *_walks("lower", _fig("fig2"), 1, 1, -1, "--dim", "1")], {}),
    "signed-count-several-bad": (["signed-count", *_walks("lower", _fig("fig2"), 9, 9, -1, "--dim", "3")], {}),
    "enumerate-vertex-on-cw": (["enumerate", *_walks("vertex", _fig("fig2"), 1, 2, 2)], {}),
    "enumerate-lower-on-hg": (["enumerate", *_walks("lower", _fig("fig1"), 1, 2, 2, "--dim", "0")], {}),
    "enumerate-without-dim": (["enumerate", *_walks("upper", _fig("fig2"), 1, 2, 2)], {}),
    "enumerate-level-out-of-range": (["enumerate", *_walks("upper", _fig("fig2"), 1, 2, 2, "--dim", "2")], {}),
    "enumerate-from-out-of-range": (["enumerate", *_walks("edge", _fig("fig1"), 10, 2, 2)], {}),
    "enumerate-to-out-of-range": (["enumerate", *_walks("lower", _fig("fig2"), 1, 7, 2, "--dim", "1")], {}),
    "enumerate-negative-length": (["enumerate", *_FIG1_VERTEX, "--length", "-1"], {}),
    "enumerate-bad-from-and-length": (["enumerate", *_walks("vertex", _fig("fig1"), 9, 1, -1)], {}),
    "enumerate-bad-level-and-length": (["enumerate", *_walks("lower", _fig("fig2"), 1, 1, -1, "--dim", "5")], {}),
    "check-max-length-zero": (["check", *_fig("fig1"), "--max-length", "0"], {}),
    "check-max-length-negative": (["check", *_fig("fig2"), "--max-length", "-1", "--machine"], {}),
    "evolve-on-cw": (["evolve", *_fig("fig2"), "--theta", "1"], {}),
    "evolve-theta-nan": (["evolve", *_fig("fig1"), "--theta", "nan", "--trace"], {}),
    "evolve-theta-overflow": (["evolve", *_fig("fig1"), "--theta", "1e300", "--trace"], {}),
    "evolve-theta-unresolved": (["evolve", *_fig("fig1"), "--theta", "1e16"], {}),
    "count-on-bad-file": (["count", *_walks("vertex", _file("bad-edge-out-of-range.hg"), 1, 2, 1)], {}),
    "check-on-bad-file": (["check", *_file("bad-inc-duplicate.cw"), "--max-length", "2"], {}),
    "evolve-on-bad-file": (["evolve", *_file("bad-vertices-zero.hg"), "--theta", "1"], {}),
}

_BAD_INPUTS = sorted(p.name for p in (GOLDEN_DIR / "inputs").glob("bad-*"))

CASES: dict[str, tuple[list[str], dict[str, str]]] = {}
for _name, _argv in _SUCCEEDS.items():
    CASES[_name] = (_argv, {})
    CASES[f"{_name}-machine"] = (_argv + ["--machine"], {})
CASES.update(_FAILS)
for _input in _BAD_INPUTS:
    CASES[f"parse-{_input.replace('.', '-')}"] = (["validate", *_file(_input)], {})


def _lines(text: str) -> list[str]:
    assert text == "" or text.endswith("\n"), text
    return text[:-1].split("\n") if text else []


@contextlib.contextmanager
def _environment(env: dict[str, str]):
    """tests/golden/ as the working directory, COLUMNS=80 for argparse's
    usage lines and HYPERLAP_BUDGET only as the case sets it."""
    keys = {"HYPERLAP_BUDGET", "COLUMNS", *env}
    saved = {key: os.environ.get(key) for key in keys}
    cwd = os.getcwd()
    os.environ.pop("HYPERLAP_BUDGET", None)
    os.environ.update(env, COLUMNS="80")
    os.chdir(GOLDEN_DIR)
    try:
        yield
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def invoke(argv: list[str], env: dict[str, str]) -> dict:
    """Run `cli.main(argv)` in process and record what it did."""
    out, err = io.StringIO(), io.StringIO()
    with _environment(env), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "env": env, "exit": code, "stdout": _lines(out.getvalue()), "stderr": _lines(err.getvalue())}


def regenerate(directory: Path, force: bool) -> list[str]:
    """Write one file per case into directory. Returns the names of the files
    whose recorded output changed; unless force is set, those are not written."""
    changed = []
    for name, (argv, env) in CASES.items():
        path = directory / f"{name}.json"
        text = json.dumps(invoke(argv, env), indent=1, ensure_ascii=False) + "\n"
        if path.exists() and path.read_text(encoding="utf-8") != text:
            changed.append(name)
            if not force:
                continue
        path.write_text(text, encoding="utf-8")
    return changed


if __name__ == "__main__":
    force = sys.argv[1:] == ["--force"]
    if sys.argv[1:] not in ([], ["--force"]):
        sys.exit("usage: python tests/golden.py [--force]")
    changed = regenerate(GOLDEN_DIR, force)
    stale = sorted({p.stem for p in GOLDEN_DIR.glob("*.json")} - set(CASES))
    for name in changed:
        print(f"{'overwrote' if force else 'changed, not written'}: {name}")
    for name in stale:
        print(f"not a case any more: {name}.json")
    sys.exit(1 if changed and not force else 0)
