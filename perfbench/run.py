"""tsense benchmark: end-to-end timings of CLI jobs and a per-layer trace.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the repository root; the package is imported from ``src/``.
Every timed job calls ``tsense.cli.main(argv)`` in this process with
stdout captured in memory.  Each workload gets the ``run_seconds`` of
BENCHMARK.json; a run repeats passes over the workload's job list while
that time lasts and checks every output after its pass, outside the
timed region.  ``--seconds`` is accepted because callers pass the run
length, and must equal ``run_seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
the median pass time (``pass_s``) and the median set-up time of a fresh
interpreter (``setup_s``, interpreters spread over the run), both in
reference-speed seconds (see ``Gauge``), and the peak RSS of a fresh
interpreter that runs one pass of the workload.  The same medians as
measured and per-job latency percentiles are printed beside them.
``--trace 1`` runs every job twice in a row, untraced and traced in
alternating order, and reports the per-layer metrics of the traced runs
plus the tracing overhead from those pairs; the spans of the last traced
pass are written to ``.perfbench_out/spans-<workload>.json.gz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--workload all`` every
workload runs in this one process and ``metrics`` maps each workload to
its metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, write_spans
from workloads import SETUP_ARGV, WORKLOADS, Job, check_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One process drives the load; BLAS gets one thread so the two cores of
# the reference machine do not contend within a job.  TSENSE_THREADS is
# removed so scans run serially, the package default.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 12
# share of the timed work that the reference kernel runs alongside it
REF_SHARE = 0.15
CHILD_TIMEOUT_S = 60

SETUP_CODE = """
import io, json, sys, time
from contextlib import redirect_stdout
t0 = time.perf_counter()
import tsense.cli
buf = io.StringIO()
with redirect_stdout(buf):
    rc = tsense.cli.main(sys.argv[1:])
t1 = time.perf_counter()
print(json.dumps({"setup_s": t1 - t0, "rc": rc, "out": buf.getvalue()}))
"""

# one pass of a workload in a fresh interpreter; its outputs are checked
# by the parent, so the child's peak RSS holds the workload and no checks.
# The peak is VmHWM: Linux carries the spawning process's peak into the
# child's ru_maxrss across exec, VmHWM starts afresh.
RSS_CODE = """
import json, random, sys
from run import import_cli, run_pass
from workloads import WORKLOADS
jobs = WORKLOADS[sys.argv[1]](random.Random(int(sys.argv[2])))
outputs = run_pass(import_cli(), jobs)[2]
with open("/proc/self/status", encoding="ascii") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"peak_rss_mb": kb / 1024.0, "outputs": outputs}))
"""


class Tally:
    """Jobs attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {'; '.join(problems[:3])}")


def run_checked(check, text: str) -> list[str]:
    try:
        return check(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output ({type(exc).__name__}: {exc})"]


def run_child(code: str, args: list[str], label: str, tally: Tally) -> dict | None:
    """Run ``code`` in a fresh interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        tally.record(label, [f"interpreter exit {proc.returncode}: {proc.stderr[-200:]}"])
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(tally: Tally) -> float | None:
    """Seconds to import tsense and finish the trivial job in a fresh
    interpreter, or None when the interpreter failed."""
    doc = run_child(SETUP_CODE, list(SETUP_ARGV), "setup", tally)
    if doc is None:
        return None
    tally.record("setup", [f"exit code {doc['rc']}"] if doc["rc"]
                 else run_checked(check_setup, doc["out"]))
    return doc["setup_s"]


def run_job(cli, job: Job) -> tuple[float, tuple[int, str, str]]:
    """Seconds one job takes, and its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(job.argv))
    return time.perf_counter() - t0, (rc, out.getvalue(), err.getvalue())


class Gauge:
    """The reference kernel, run between timed steps for about
    ``REF_SHARE`` of their time, so that it samples the host's speed over
    the same stretch of the run."""

    def __init__(self) -> None:
        import reference

        self.reference = reference
        self.times: list[float] = []
        self.owed = 0.0

    def after(self, seconds: float) -> None:
        self.owed += REF_SHARE * seconds
        while self.owed > 0:
            self.times.append(self.reference.kernel())
            self.owed -= self.times[-1]

    def scale(self) -> float:
        """Factor that turns this run's seconds into reference-speed seconds."""
        return self.reference.NOMINAL_S / statistics.median(self.times)


def run_pass(cli, jobs, gauge: Gauge | None = None):
    """One pass over the job list: the summed job time, job latencies and
    outputs.  With a gauge, the reference kernel runs after each job."""
    latencies, outputs = [], []
    for job in jobs:
        latency, output = run_job(cli, job)
        latencies.append(latency)
        outputs.append(output)
        if gauge is not None:
            gauge.after(latency)
    return sum(latencies), latencies, outputs


def run_paired_pass(cli, jobs, tracer: Tracer, flip: int):
    """Every job untraced and traced back to back, the order alternating
    from job to job: the (untraced, traced) seconds of each pair, and the
    untraced and the traced outputs."""
    pairs, outputs = [], {False: [], True: []}
    for i, job in enumerate(jobs):
        seconds = {}
        for traced in (False, True) if (i + flip) % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                seconds[traced], output = run_job(cli, job)
            finally:
                if traced:
                    tracer.uninstall()
            outputs[traced].append(output)
        pairs.append((seconds[False], seconds[True]))
    return pairs, outputs[False], outputs[True]


def check_pass(jobs, outputs, reference: list[str], tally: Tally) -> None:
    for i, (job, (rc, out, err)) in enumerate(zip(jobs, outputs)):
        if rc != 0:
            problems = [f"exit code {rc}: {err.strip()[-200:]}"]
        elif i < len(reference) and out != reference[i]:
            problems = ["output differs from the first pass"]
        else:
            problems = run_checked(job.check, out)
        if i >= len(reference):
            reference.append(out)
        tally.record(" ".join(job.argv[:5]), problems)


def measure_untraced(cli, name: str, seed: int, jobs, start: float, deadline: float,
                     tally: Tally, reference: list[str]) -> dict:
    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    extras: dict[str, tuple[float, str, str]] = {}  # printed, not in the JSON
    child = run_child(RSS_CODE, [name, str(seed)], "peak_rss", tally)
    if child is not None:
        metrics["peak_rss_mb"] = child["peak_rss_mb"]
        notes["peak_rss_mb"] = "fresh interpreter running one pass"
        check_pass(jobs, child["outputs"], reference, tally)

    # passes, with the set-up interpreters spread evenly between them and
    # the reference kernel after every job and interpreter
    gauge = Gauge()
    walls, latencies, setups = [], [], []
    while True:
        due = 1 + int(SETUP_REPEATS * (time.perf_counter() - start) / (deadline - start))
        while len(setups) < min(due, SETUP_REPEATS):
            setup = measure_setup(tally)
            if setup is not None:
                setups.append(setup)
                gauge.after(setup)
        wall, lats, outputs = run_pass(cli, jobs, gauge)
        walls.append(wall)
        latencies.extend(lats)
        check_pass(jobs, outputs, reference, tally)
        if time.perf_counter() + (1 + REF_SHARE) * max(walls) > deadline:
            break
    scale = gauge.scale()
    ref_note = f"x {scale:.4f}, the reference kernel's speed (median of {len(gauge.times)})"
    metrics["pass_s"] = statistics.median(walls) * scale
    notes["pass_s"] = f"median of {len(walls)} passes of {len(jobs)} jobs {ref_note}"
    extras["wall_s"] = (statistics.median(walls), "s", "the same, as measured")
    if setups:
        metrics["setup_s"] = statistics.median(setups) * scale
        notes["setup_s"] = f"median of {len(setups)} fresh interpreters {ref_note}"
        extras["setup_wall_s"] = (statistics.median(setups), "s", "the same, as measured")
    # per-job percentiles only where at least 10 samples lie beyond p95
    if len(latencies) - int(0.95 * len(latencies)) >= 10:
        cuts = statistics.quantiles([1e3 * v for v in latencies], n=100, method="inclusive")
        for q in (50, 95):
            extras[f"job_ms.p{q}"] = (cuts[q - 1], "ms", f"n={len(latencies)} jobs")
    return {"metrics": metrics, "notes": notes, "extras": extras}


def measure_traced(cli, name: str, jobs, deadline: float, tally: Tally,
                   reference: list[str]) -> dict:
    tracer = Tracer()
    layers, passes = [], []
    while True:
        pairs, plain, wrapped = run_paired_pass(cli, jobs, tracer, len(passes))
        layer, spans = tracer.take_pass()
        layers.append(layer)
        passes.append(pairs)
        check_pass(jobs, plain, reference, tally)
        check_pass(jobs, wrapped, reference, tally)  # must equal the untraced output
        if time.perf_counter() + max(sum(map(sum, p)) for p in passes) > deadline:
            break
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in layers[0]}
    metrics["trace.wall_s"] = statistics.median(sum(t for _, t in p) for p in passes)
    metrics["trace.untraced_wall_s"] = statistics.median(sum(u for u, _ in p) for p in passes)
    # each job's median over its pairs, so one disturbed pair does not count
    by_job = list(zip(*passes))
    overhead = sum(statistics.median(t - u for u, t in pairs) for pairs in by_job)
    untraced = sum(statistics.median(u for u, _ in pairs) for pairs in by_job)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced
    metrics["trace.pairs"] = len(passes) * len(jobs)
    note = f"per-job medians over {len(passes)} pairs each, summed over {len(jobs)} jobs"
    if overhead < 0:
        note += "; UNRESOLVED: negative, below the timing noise"
    notes = {"trace.overhead_s": note, "trace.overhead_frac": note}
    for layer_name in tracer.absent:
        notes[layer_name] = "absent: the wrapped function no longer exists"
    OUT_DIR.mkdir(exist_ok=True)
    write_spans(OUT_DIR / f"spans-{name}.json.gz", spans)
    return {"metrics": metrics, "notes": notes, "extras": {}}


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool,
                 tally: Tally) -> dict:
    """Measure one workload for ``seconds``; every metric it computed, by name."""
    start = time.perf_counter()
    deadline = start + seconds
    jobs = WORKLOADS[name](random.Random(seed))
    # first-call set-up in this process happens before timing
    warmup = [Job(SETUP_ARGV, check_setup)]
    check_pass(warmup, run_pass(cli, warmup)[2], [], tally)
    reference: list[str] = []
    if trace:
        return measure_traced(cli, name, jobs, deadline, tally, reference)
    return measure_untraced(cli, name, seed, jobs, start, deadline, tally, reference)


def select(spec: list[dict], measured: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json names, in its order, with their units.

    A layer metric whose layer made no calls (the layer is unused by the
    workload, or the function is gone) reads 0.
    """
    out = {}
    for item in spec:
        name = item["name"]
        if name in measured:
            value = measured[name]
        elif measured.get(name.rsplit(".", 1)[0] + ".calls") == 0:
            value = 0.0
        else:
            raise KeyError(f"benchmark computed no value for {name}")
        out[name] = {"value": value, "unit": item["unit"]}
    return out


def report(name: str, seed: int, selected: dict[str, dict], measured: dict,
           tally: Tally) -> None:
    print(f"== {name} (seed {seed})")
    notes = measured["notes"]
    rows = [(m, e["value"], e["unit"], notes.get(m) or notes.get(m.rsplit(".", 1)[0], ""))
            for m, e in selected.items()]
    rows += [(m, *extra) for m, extra in measured["extras"].items()]
    for metric, value, unit, note in rows:
        print(f"  {metric:44s} {value:>16.6g} {unit:6s} {note}")
    print(f"  {'failed_frac':44s} {tally.failed:>7d}/{tally.attempted:<8d} jobs")
    for message in tally.messages:
        print(f"  FAILED {message}")


def import_cli():
    """tsense.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import tsense.cli as cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"tsense imported from {cli.__file__}, expected {SRC}")
    return cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tsense" / "__init__.py").is_file():
        print(f"error: no tsense package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds not in (None, spec["run_seconds"]):
        parser.error(f"--seconds {args.seconds} differs from run_seconds {spec['run_seconds']}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # before numpy loads; the child interpreters inherit it
    os.environ.pop("TSENSE_THREADS", None)
    os.environ.update(BLAS_ENV)
    cli = import_cli()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = Tally()
    results = {}
    for name in names:
        tally = Tally()
        measured = run_workload(cli, name, args.seed, spec["run_seconds"], bool(args.trace), tally)
        results[name] = select(wanted, measured["metrics"])
        report(name, args.seed, results[name], measured, tally)
        total.attempted += tally.attempted
        total.failed += tally.failed
    for message in total.messages:
        print(f"  FAILED {message}")
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": results[names[0]] if len(names) == 1 else results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
