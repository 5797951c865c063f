"""Compare the CLI outputs of a base revision with those of this tree.

    python tools/compare_outputs.py BASE

BASE is any git revision.  Its ``src/`` is exported with ``git archive``
into a temporary directory, so nothing is fetched and the working tree
is left alone.  The argvs of ``tools/corpus.txt`` (one per line in shell
quoting; blank lines and ``#`` lines are skipped) run under each tree in
one fresh interpreter, which calls ``tsense.cli.main`` on each in turn
with ``COLUMNS=80`` and ``OPENBLAS_NUM_THREADS=1``.  Exit code, stdout
and stderr must agree byte for byte.  Each argv that differs is printed
with the first differing line of each stream; the exit status is 1 if
any differs, else 0.
"""
from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "tools" / "corpus.txt"

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


def export_src(base: str, dest: Path) -> Path:
    """``src/`` of revision ``base``, unpacked under ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", base, "src"],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def run_corpus(srcs: list[Path], corpus: list[list[str]], tmp: Path) -> list[list]:
    """[exit code, stdout, stderr] of each argv under each ``src``, in one
    fresh interpreter per tree, the interpreters running at once."""
    argvs = tmp / "corpus.json"
    argvs.write_text(json.dumps(corpus), encoding="utf-8")
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
            sys.exit(f"the runner under {src} exited {proc.returncode}")
        doc = json.loads(out)
        # an installed tsense must not stand in for the tree's own
        if not Path(doc["module"]).resolve().is_relative_to(src.resolve()):
            sys.exit(f"the runner under {src} imported {doc['module']}")
        runs.append(doc["results"])
    return runs


def first_difference(a: str, b: str) -> tuple[int, str, str]:
    """Line number and the two lines where ``a`` and ``b`` first differ."""
    la, lb = a.splitlines(keepends=True), b.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    return i + 1, la[i] if i < len(la) else "<end>", lb[i] if i < len(lb) else "<end>"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.exit("usage: python tools/compare_outputs.py BASE")
    corpus = read_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        base_src = export_src(argv[0], Path(tmp))
        base, here = run_corpus([base_src, ROOT / "src"], corpus, Path(tmp))
    differing = 0
    for args, (code_a, *streams_a), (code_b, *streams_b) in zip(corpus, base, here):
        if [code_a, *streams_a] == [code_b, *streams_b]:
            continue
        differing += 1
        print(f"differs: {shlex.join(args)}")
        if code_a != code_b:
            print(f"  exit: {code_a!r} (base) != {code_b!r} (tree)")
        for name, a, b in zip(("stdout", "stderr"), streams_a, streams_b):
            if a != b:
                line, x, y = first_difference(a, b)
                print(f"  {name} line {line}: {x!r} (base) != {y!r} (tree)")
    print(f"{differing} of {len(corpus)} argvs differ from {argv[0]}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
