"""Compare the CLI outputs of a base revision with those of this tree.

    python tools/compare_outputs.py BASE

BASE is any git revision.  Its ``src/`` is exported with ``git archive``
into a temporary directory, so nothing is fetched and the working tree
is left alone.  The argvs of ``tools/corpus.txt`` (one per line in shell
quoting; blank lines and ``#`` lines are skipped) run under each tree in
one fresh interpreter, which calls ``tsense.cli.main`` on each in turn
with ``COLUMNS=80`` and ``OPENBLAS_NUM_THREADS=1``, in a temporary
directory that holds a copy of each config file of ``tools/configs/``.
Exit code, stdout and stderr must agree byte for byte.  Each argv that
differs is printed with, per stream, how many numeric cells differ (CSV
cells, JSON numbers and the numbers of ``#`` meta lines) and their largest
relative difference, and every other line that differs.  Each argv that
raises an uncaught exception in either tree is printed with the exception,
even where both trees raise the same one.  The exit status is 0 when no
argv differs or raises, 1 when some do, and 2 when the tool itself cannot
run (a bad revision, a failed ``git archive`` or runner).
"""
from __future__ import annotations

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tools" / "corpus.txt"
# config files the corpus reads, copied into the directory it runs in
CONFIGS = ROOT / "tools" / "configs"
# a decimal number; split on it, a line alternates text and numbers
NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")

# runs in the fresh interpreter on the argvs of the JSON file argv[1]
RUNNER = """
import contextlib, io, json, sys
from tsense import cli
results = []
for argv in json.load(open(sys.argv[1], encoding="utf-8")):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = f"uncaught {type(exc).__name__}: {exc}"
    results.append([code, out.getvalue(), err.getvalue()])
json.dump({"module": cli.__file__, "results": results}, sys.stdout)
"""


def read_corpus() -> list[list[str]]:
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def fail(message: str) -> NoReturn:
    """Exit 2: the tool could not compare, as opposed to outputs that differ."""
    print(f"compare_outputs: {message}", file=sys.stderr)
    sys.exit(2)


def export_src(base: str, dest: Path) -> Path:
    """``src/`` of revision ``base``, unpacked under ``dest``."""
    try:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", base, "src"],
            check=True, stdout=subprocess.PIPE,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        fail(f"cannot export src/ of {base!r}: {exc}")
    return dest / "src"


def run_corpus(srcs: list[Path], corpus: list[list[str]], tmp: Path) -> list[list]:
    """[exit code, stdout, stderr] of each argv under each ``src``, in one
    fresh interpreter per tree, the interpreters running at once."""
    argvs = tmp / "corpus.json"
    argvs.write_text(json.dumps(corpus), encoding="utf-8")
    for config in CONFIGS.glob("*.json"):
        shutil.copy(config, tmp)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", RUNNER, str(argvs)], cwd=tmp, stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src), COLUMNS="80", OPENBLAS_NUM_THREADS="1"),
        )
        for src in srcs
    ]
    outs = [proc.communicate()[0] for proc in procs]
    runs = []
    for src, proc, out in zip(srcs, procs, outs):
        if proc.returncode != 0:
            fail(f"the runner under {src} exited {proc.returncode}")
        doc = json.loads(out)
        # an installed tsense must not stand in for the tree's own
        if not Path(doc["module"]).resolve().is_relative_to(src.resolve()):
            fail(f"the runner under {src} imported {doc['module']}")
        runs.append(doc["results"])
    return runs


def summarize(a: str, b: str) -> tuple[int, float, list[tuple[int, str, str]]]:
    """How ``b`` differs from ``a``: the number of numeric cells that
    differ, their largest relative difference, and each other differing
    line as (line number, line of a, line of b).  Where two lines differ
    only in their numbers, each number that differs is a numeric cell;
    any other differing line, or one that only one side has ("<end>" on
    the other), is listed."""
    la, lb = a.splitlines(), b.splitlines()
    cells, largest, lines = 0, 0.0, []
    for i in range(max(len(la), len(lb))):
        x = la[i] if i < len(la) else "<end>"
        y = lb[i] if i < len(lb) else "<end>"
        if x == y:
            continue
        parts_x, parts_y = NUMBER.split(x), NUMBER.split(y)
        # text at even positions, numbers at odd ones
        if parts_x[0::2] != parts_y[0::2]:
            lines.append((i + 1, x, y))
            continue
        for u, v in zip(parts_x[1::2], parts_y[1::2]):
            if u != v:
                # text that differs, such as -0.0 and 0.0, may hold equal values
                cells += 1
                p, q = float(u), float(v)
                largest = max(largest, abs(p - q) / max(abs(p), abs(q)) if p != q else 0.0)
    return cells, largest, lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        fail("usage: python tools/compare_outputs.py BASE")
    corpus = read_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        base_src = export_src(argv[0], Path(tmp))
        base, here = run_corpus([base_src, ROOT / "src"], corpus, Path(tmp))
    differing = raising = 0
    for args, (code_a, *streams_a), (code_b, *streams_b) in zip(corpus, base, here):
        # the runner puts an uncaught exception's text in place of the exit code
        uncaught = [(tree, code) for tree, code in (("base", code_a), ("tree", code_b))
                    if isinstance(code, str)]
        if uncaught:
            raising += 1
            print(f"raises: {shlex.join(args)}")
            for tree, code in uncaught:
                print(f"  {tree}: {code}")
        if [code_a, *streams_a] == [code_b, *streams_b]:
            continue
        differing += 1
        print(f"differs: {shlex.join(args)}")
        if code_a != code_b:
            print(f"  exit: {code_a!r} (base) != {code_b!r} (tree)")
        for name, a, b in zip(("stdout", "stderr"), streams_a, streams_b):
            if a == b:
                continue
            cells, largest, lines = summarize(a, b)
            print(f"  {name}: {cells} numeric cells differ, "
                  f"largest relative difference {largest:.3g}")
            for line, x, y in lines:
                print(f"  {name} line {line}: {x!r} (base) != {y!r} (tree)")
    print(f"{differing} of {len(corpus)} argvs differ from {argv[0]}")
    if raising:
        print(f"{raising} of {len(corpus)} argvs raise an uncaught exception")
    return 1 if differing or raising else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
