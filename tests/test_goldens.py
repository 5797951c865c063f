"""CLI outputs against checked-in goldens.

Each case under ``tests/goldens/`` holds an argv with the exit code,
stdout and stderr it produced when it was recorded.  Exit code and
stderr must match exactly.  Stdout is compared by ``summarize`` of
``tools/compare_outputs.py``: no line may differ in its text (meta keys,
columns, row counts and empty cells included), and its numbers, the
CSV cells, JSON numbers and the numbers of ``#`` meta lines, must match
to a relative 1e-11, so a change that reorders floating-point sums
still passes while one that changes a result does not.  The ``--help``
texts and the argparse usage error are compared byte for byte; every
case runs with ``COLUMNS=80``, because argparse wraps its text to the
terminal width.

Record the goldens with the package on the path, all of them or only
the named cases:

    PYTHONPATH=src python tests/test_goldens.py [case ...]
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from tsense import cli
from tsense.cli import COMMANDS, main

GOLDENS = Path(__file__).resolve().parent / "goldens"
REL_TOL = 1e-11

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

CASES = {
    "readme-fisher-scan": [
        "fisher-scan", "--interaction", "I", "--state", "2,1,1", "--scheme", "s0",
        "--theta-max", "1", "--steps", "21",
    ],
    "readme-optimize": ["optimize", "--interaction", "I", "--total", "6"],
    "readme-scaling-json": [
        "scaling", "--interaction", "II", "--n-max", "20", "--format", "json",
    ],
    "readme-dynamic-range": [
        "dynamic-range", "--interaction", "I", "--state", "4,0,0", "--scheme", "binary",
        "--theta-max", "2.5", "--steps", "41",
    ],
    "readme-noise-scan": [
        "noise-scan", "--interaction", "I", "--state", "2,2,2", "--eps", "0.05",
        "--scheme", "s0", "--steps", "11",
    ],
    "readme-coherent-compare": [
        "coherent-compare", "--interaction", "I", "--state", "2,2,2",
        "--theta-max", "0.5", "--steps", "11",
    ],
    # equal amplitudes: many product states tie in weight
    "coherent-compare-ties": [
        "coherent-compare", "--interaction", "I", "--state", "2,2,2",
        "--alpha=1.4142135623730951,1.4142135623730951,1.4142135623730951",
        "--scheme", "binary", "--steps", "21",
    ],
    "bench-coherent-sectors": [
        "coherent-compare", "--interaction", "I", "--state", "2,2,2",
        "--alpha=0.9+1.1i,-1.3+0.4i,0.2-1.4i", "--scheme", "s0",
        "--theta-max", "0.5", "--steps", "11",
    ],
    # d = 401: the grid spans several evaluation blocks
    "bench-fock-ladders-I": [
        "fisher-scan", "--interaction", "I", "--state", "180,220,220", "--scheme", "pnr",
        "--theta-max", "0.01", "--steps", "31",
    ],
    "bench-fock-ladders-II": [
        "fisher-scan", "--interaction", "II", "--state", "130,340", "--scheme", "s0",
        "--theta-max", "0.01", "--steps", "21",
    ],
    "bench-range-sweep": [
        "dynamic-range", "--interaction", "I", "--state", "5,7,8", "--scheme", "binary",
        "--theta-max", "2.5", "--steps", "41",
    ],
    "bench-range-sweep-no-minimum": [
        "dynamic-range", "--interaction", "I", "--state", "1,1,18", "--scheme", "binary",
        "--theta-max", "2.5", "--steps", "41",
    ],
    "bench-optimize-scaling": ["scaling", "--interaction", "I", "--n-max", "30"],
    # the largest n_max scaling allows
    "scaling-n-max-200": ["scaling", "--interaction", "I", "--n-max", "200"],
    "noise-scan-json": [
        "noise-scan", "--interaction", "II", "--state", "1,3", "--eps", "0.02,0.05",
        "--scheme", "binary", "--theta-max", "1.5", "--steps", "11", "--format", "json",
    ],
    "missing-state": ["fisher-scan", "--interaction", "I"],
}

SUBCOMMANDS = (
    "fisher-scan", "optimize", "scaling", "dynamic-range", "noise-scan",
    "coherent-compare",
)
HELP_CASES = {
    "help": ["--help"],
    **{f"help-{sub}": [sub, "--help"] for sub in SUBCOMMANDS},
    "usage-unknown-flag": ["fisher-scan", "--bogus"],
}
COLUMNS = "80"


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stderr": err.getvalue(), "stdout": out.getvalue()}


def mismatch(want: str, got: str) -> list[str]:
    """Where stdout ``got`` departs from the golden ``want``: each line whose
    text differs, and the numbers if one is off by more than REL_TOL."""
    cells, largest, lines = compare_outputs.summarize(want, got)
    problems = [f"line {i}: {x!r} != {y!r}" for i, x, y in lines]
    if largest > REL_TOL:
        problems.append(f"{cells} numbers differ, by up to {largest:.3g} relative")
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == CASES[name]
    got = run_case(CASES[name])
    assert got["exit"] == golden["exit"]
    assert got["stderr"] == golden["stderr"]
    problems = mismatch(golden["stdout"], got["stdout"])
    assert not problems, "\n".join(problems[:10])


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden_bytes(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == HELP_CASES[name]
    assert run_case(HELP_CASES[name]) == golden


def test_a_reused_parser_keeps_no_state_between_calls():
    # build and use the parser at another width; later calls must not notice
    goldens = {
        name: json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
        for name in ("help", "help-fisher-scan", "usage-unknown-flag", "readme-dynamic-range")
    }
    cli._build_parser.cache_clear()
    with mock.patch.dict(os.environ, COLUMNS="200"), \
            contextlib.redirect_stdout(io.StringIO()) as wide:
        assert main(["fisher-scan", "--help"]) == 0
    assert wide.getvalue() != goldens["help-fisher-scan"]["stdout"]
    for name in ("help", "help-fisher-scan", "usage-unknown-flag"):
        assert run_case(goldens[name]["argv"]) == goldens[name], name
    golden = goldens["readme-dynamic-range"]
    got = run_case(golden["argv"])
    assert (got["exit"], got["stderr"]) == (golden["exit"], golden["stderr"])
    assert not mismatch(golden["stdout"], got["stdout"])


def test_help_cases_cover_every_subcommand():
    assert list(SUBCOMMANDS) == list(COMMANDS)


def test_golden_comparison_is_not_vacuous():
    def doc(label="fock(2,1,1)", first="1.0", second=""):
        return f"# f_zero: 44.0\n# probe: {label}\ncoupling,fisher\n0.0,{first}\n0.5,{second}\n"

    assert mismatch(doc(), doc()) == []
    assert mismatch(doc(), doc(first="1.000000000001")) == []
    assert mismatch(doc(), doc(first="1.0000000001"))
    assert mismatch(doc(), doc(second="0.0"))
    assert mismatch(doc(), doc(label="fock(2,1,2)"))
    assert mismatch(json.dumps({"a": [1.0, None]}), json.dumps({"a": [1.0, 0.0]}))


def record(cases: dict | None = None) -> None:
    GOLDENS.mkdir(exist_ok=True)
    for name, argv in (cases or {**CASES, **HELP_CASES}).items():
        doc = run_case(argv)
        (GOLDENS / f"{name}.json").write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    every = {**CASES, **HELP_CASES}
    record({name: every[name] for name in sys.argv[1:]} or None)
