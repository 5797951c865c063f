"""CLI outputs against checked-in goldens.

Each case under ``tests/goldens/`` holds an argv with the exit code,
stdout and stderr it produced when it was recorded.  Exit code, stderr,
meta keys, columns, row counts and empty cells must match exactly;
numeric cells (and numeric meta values) must match to a relative 1e-11,
so a change that reorders floating-point sums still passes while one
that changes a result does not.  The ``--help`` texts and the argparse
usage error are compared byte for byte; every case runs with
``COLUMNS=80``, because argparse wraps its text to the terminal width.

Record the goldens with the package on the path:

    PYTHONPATH=src python tests/test_goldens.py
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from tsense.cli import COMMANDS, main

GOLDENS = Path(__file__).resolve().parent / "goldens"
REL_TOL = 1e-11

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


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _parse_csv(text: str) -> dict:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return {"meta": meta, "columns": rows[0], "rows": rows[1:]}


def _parse(text: str):
    if not text:
        return None
    if text.startswith("{"):
        return json.loads(text)
    return _parse_csv(text)


def _diff(want, got, path: str) -> list[str]:
    """Where ``got`` departs from ``want``: structure exactly, numbers to REL_TOL."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(want) != list(got):
            return [f"{path}: keys {list(want) if isinstance(want, dict) else want}"
                    f" != {list(got) if isinstance(got, dict) else got}"]
        return [m for k in want for m in _diff(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got) if isinstance(got, list) else got}"]
        return [m for i, (a, b) in enumerate(zip(want, got)) for m in _diff(a, b, f"{path}[{i}]")]
    a = want if isinstance(want, (int, float)) and not isinstance(want, bool) else None
    b = got if isinstance(got, (int, float)) and not isinstance(got, bool) else None
    if isinstance(want, str) and isinstance(got, str) and want and got:
        a, b = _number(want), _number(got)
    if a is not None and b is not None:
        if a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
            return []
        return [f"{path}: {want!r} != {got!r}"]
    return [] if want == got and type(want) is type(got) else [f"{path}: {want!r} != {got!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == CASES[name]
    got = run_case(CASES[name])
    assert got["exit"] == golden["exit"]
    assert got["stderr"] == golden["stderr"]
    problems = _diff(_parse(golden["stdout"]), _parse(got["stdout"]), name)
    assert not problems, "\n".join(problems[:10])


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden_bytes(name):
    golden = json.loads((GOLDENS / f"{name}.json").read_text(encoding="utf-8"))
    assert golden["argv"] == HELP_CASES[name]
    assert run_case(HELP_CASES[name]) == golden


def test_help_cases_cover_every_subcommand():
    assert list(SUBCOMMANDS) == list(COMMANDS)


def test_golden_comparison_is_not_vacuous():
    def doc(label="fock(2,1,1)", first="1.0", second=""):
        return _parse_csv(
            f"# f_zero: 44.0\n# probe: {label}\ncoupling,fisher\n0.0,{first}\n0.5,{second}\n"
        )

    assert _diff(doc(), doc(), "x") == []
    assert _diff(doc(), doc(first="1.000000000001"), "x") == []
    assert _diff(doc(), doc(first="1.0000000001"), "x")
    assert _diff(doc(), doc(second="0.0"), "x")
    assert _diff(doc(), doc(label="fock(2,1,2)"), "x")
    assert _diff({"a": [1.0, None]}, {"a": [1.0, 0.0]}, "x")


def record(cases: dict | None = None) -> None:
    GOLDENS.mkdir(exist_ok=True)
    for name, argv in (cases or {**CASES, **HELP_CASES}).items():
        doc = run_case(argv)
        (GOLDENS / f"{name}.json").write_text(
            json.dumps(doc, indent=1) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    record()
