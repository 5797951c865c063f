"""Workload job lists and the output checks for each job.

A job is a CLI argv plus a check.  The argv is all the program sees; the
seed only shapes the argv (amplitude phases, occupations, job order).
Each check parses the captured output and returns a list of problems,
empty when the output is correct.  Checks recompute the paper's closed
forms here, independently of the package, so a change that breaks both
the package and its own closed forms still fails.
"""
from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

REL_TOL = 1e-9


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[str], list[str]]


# --- closed forms (t = 1) ---------------------------------------------------

def score(kind: str, occs: tuple[int, ...]) -> int:
    """Zero-coupling Fisher limit of a pure Fock probe, divided by 4."""
    if kind == "I":
        na, nb, nc = occs
        return na * (nb + 1) * (nc + 1) + (na + 1) * nb * nc
    na, nb = occs
    return nb * (nb - 1) * (na + 1) + (nb + 1) * (nb + 2) * na


def qfi_coherent_I(mus: tuple[float, float, float]) -> float:
    na, nb, nc = mus
    return 4.0 * (na * nb + na * nc + nb * nc + na)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- output parsing ---------------------------------------------------------

def parse_csv(text: str) -> tuple[dict, list[str], list[list[str]]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


def _floats(rows: list[list[str]], col: int) -> list[float]:
    return [float(r[col]) for r in rows]


def _check_grid(couplings: list[float], theta_max: float, steps: int) -> list[str]:
    if len(couplings) != steps:
        return [f"grid has {len(couplings)} points, expected {steps}"]
    bad = [
        i for i, th in enumerate(couplings)
        if abs(th - theta_max * i / (steps - 1)) > 1e-12 * theta_max
    ]
    return [f"grid point {bad[0]} off the uniform grid"] if bad else []


def _check_fisher(name: str, values: list[float], qfi: float) -> list[str]:
    if not all(math.isfinite(v) for v in values):
        return [f"{name}: non-finite Fisher value"]
    worst = max(values)
    if worst > qfi * (1.0 + REL_TOL):
        return [f"{name}: F={worst!r} exceeds QFI {qfi!r}"]
    return []


# --- coherent-sectors -------------------------------------------------------

# short jobs, so each is repeated often within a run (see run.py)
COHERENT_STEPS = 41
COHERENT_JOBS = 2
COHERENT_THETA_MAX = 0.5
COHERENT_MEAN_N = 2.0


def _fmt_complex(a: complex) -> str:
    sign = "+" if math.copysign(1.0, a.imag) > 0 else ""
    return f"{a.real!r}{sign}{a.imag!r}i"


def _coherent_job(alphas: list[complex]) -> Job:
    text = ",".join(_fmt_complex(a) for a in alphas)
    argv = (
        "coherent-compare", "--interaction", "I", "--state", "2,2,2",
        # "=" keeps a leading minus sign from reading as an option
        f"--alpha={text}", "--scheme", "s0",
        "--theta-max", repr(COHERENT_THETA_MAX), "--steps", str(COHERENT_STEPS),
    )
    # the CLI parses the amplitudes back from text, so take |alpha|^2 from that
    mus = tuple(abs(complex(p.replace("i", "j"))) ** 2 for p in text.split(","))
    qfi = qfi_coherent_I(mus)
    f_fock = 4.0 * score("I", (2, 2, 2))

    def check(text: str) -> list[str]:
        _, header, rows = parse_csv(text)
        if header != ["coupling", "fisher_fock", "fisher_coherent", "qfi_coherent"]:
            return [f"unexpected columns {header}"]
        problems = _check_grid(_floats(rows, 0), COHERENT_THETA_MAX, COHERENT_STEPS)
        fock, coh = _floats(rows, 1), _floats(rows, 2)
        problems += _check_fisher("fock", fock, f_fock)
        problems += _check_fisher("coherent", coh, qfi)
        if fock and not close(fock[0], f_fock):
            problems.append(f"fock F(0)={fock[0]!r}, closed form {f_fock!r}")
        if any(not close(q, qfi) for q in _floats(rows, 3)):
            problems.append(f"qfi column differs from closed form {qfi!r}")
        return problems

    return Job(argv, check)


def coherent_sectors(rng: random.Random) -> list[Job]:
    return [
        _coherent_job([
            cmath.rect(math.sqrt(COHERENT_MEAN_N), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(3)
        ])
        for _ in range(COHERENT_JOBS)
    ]


# --- fock-ladders -----------------------------------------------------------

FOCK_STEPS = 101
FOCK_THETA_MAX = 0.01
FOCK_JOBS_PER_KIND = 2


def _fock_scan_job(kind: str, occs: tuple[int, ...], scheme: str) -> Job:
    argv = (
        "fisher-scan", "--interaction", kind,
        "--state", ",".join(map(str, occs)), "--scheme", scheme,
        "--theta-max", repr(FOCK_THETA_MAX), "--steps", str(FOCK_STEPS),
    )
    f0 = 4.0 * score(kind, occs)

    def check(text: str) -> list[str]:
        meta, header, rows = parse_csv(text)
        if header != ["coupling", "fisher"]:
            return [f"unexpected columns {header}"]
        problems = _check_grid(_floats(rows, 0), FOCK_THETA_MAX, FOCK_STEPS)
        values = _floats(rows, 1)
        # a pure Fock probe's QFI is conserved along the evolution
        problems += _check_fisher("fock", values, f0)
        if values and not close(values[0], f0):
            problems.append(f"F(0)={values[0]!r}, closed form {f0!r}")
        if not close(float(meta.get("qfi_zero", "nan")), f0):
            problems.append(f"qfi_zero={meta.get('qfi_zero')}, closed form {f0!r}")
        return problems

    return Job(argv, check)


def fock_ladders(rng: random.Random) -> list[Job]:
    jobs = []
    for _ in range(FOCK_JOBS_PER_KIND):
        na = rng.randint(150, 250)  # Q_b = Q_c = 400, d = 401
        jobs.append(_fock_scan_job("I", (na, 400 - na, 400 - na), "pnr"))
        na2 = rng.randint(100, 200)  # 2 n_a' + n_b' = 600, d = 301
        jobs.append(_fock_scan_job("II", (na2, 600 - 2 * na2), "s0"))
    return jobs


# --- range-sweep ------------------------------------------------------------

RANGE_TOTAL = 20
RANGE_THETA_MAX = 2.5
RANGE_STEPS = 41
# states whose Fisher information has no interior minimum on the grid, so
# dynamic-range leaves theta_min_empirical empty; every other state has one
RANGE_NO_MINIMUM = frozenset({
    (0, 0, 20), (0, 20, 0),  # inert probes
    (0, 1, 19), (0, 19, 1), (1, 0, 19), (1, 19, 0), (1, 1, 18), (1, 18, 1),
})


def _formula(occs: tuple[int, int, int]) -> float | None:
    f0 = 4.0 * score("I", occs)
    if f0 <= 0.0:
        return None
    prefactor = 16.0 if sum(n > 0 for n in occs) < 3 else 24.0
    return math.sqrt(prefactor / f0)


def _range_job(occs: tuple[int, int, int]) -> Job:
    label = ",".join(map(str, occs))
    argv = (
        "dynamic-range", "--interaction", "I", "--state", label,
        "--scheme", "binary",
        "--theta-max", repr(RANGE_THETA_MAX), "--steps", str(RANGE_STEPS),
    )
    expected = _formula(occs)

    def check(text: str) -> list[str]:
        _, header, rows = parse_csv(text)
        if header != ["state", "theta_min_empirical", "theta_min_formula"]:
            return [f"unexpected columns {header}"]
        if len(rows) != 1 or rows[0][0] != label:
            return [f"expected one row for state {label}"]
        _, empirical, formula = rows[0]
        problems = []
        if expected is None:
            if formula != "":
                problems.append(f"formula {formula} for an inert probe")
        elif not formula or not close(float(formula), expected):
            problems.append(f"formula {formula!r}, closed form {expected!r}")
        if occs in RANGE_NO_MINIMUM:
            if empirical:
                problems.append(f"theta_min {empirical} where no minimum is expected")
        elif not empirical:
            problems.append("no theta_min where a minimum is expected")
        else:
            th = float(empirical)
            if not (math.isfinite(th) and 0.0 < th < RANGE_THETA_MAX):
                problems.append(f"theta_min {empirical} outside (0, {RANGE_THETA_MAX})")
        return problems

    return Job(argv, check)


def range_sweep(rng: random.Random) -> list[Job]:
    states = [
        (na, nb, RANGE_TOTAL - na - nb)
        for na in range(RANGE_TOTAL + 1)
        for nb in range(RANGE_TOTAL - na + 1)
    ]
    rng.shuffle(states)
    return [_range_job(s) for s in states]


# --- optimize-scaling -------------------------------------------------------

SCALING_N_MAX = 100
OPTIMIZE_TOTAL = 200


def _compositions(kind: str, total: int):
    if kind == "I":
        return [(a, b, total - a - b) for a in range(total + 1) for b in range(total - a + 1)]
    return [(a, total - a) for a in range(total + 1)]


def _scaling_job(kind: str) -> Job:
    argv = ("scaling", "--interaction", kind, "--n-max", str(SCALING_N_MAX))
    coeff = 8.0 if kind == "I" else 32.0

    def check(text: str) -> list[str]:
        _, header, rows = parse_csv(text)
        schemes = ["f0_one", "f0_two", "f0_three"][: 3 if kind == "I" else 2]
        if header != ["n", *schemes, "asymptote"]:
            return [f"unexpected columns {header}"]
        if [int(r[0]) for r in rows] != list(range(1, SCALING_N_MAX + 1)):
            return ["rows do not cover n = 1..n_max"]
        problems = []
        for r in rows:
            n = int(r[0])
            cells = [float(c) for c in r[1:] if c != ""]
            if not all(math.isfinite(c) for c in cells):
                problems.append(f"n={n}: non-finite value")
            if not close(float(r[-1]), coeff * n**3 / 27.0):
                problems.append(f"n={n}: asymptote {r[-1]}")
            if kind == "I" and n % 3 == 0:
                k = n // 3
                if not r[3] or not close(float(r[3]), 4.0 * k * (k + 1) * (2 * k + 1)):
                    problems.append(f"n={n}: f0_three {r[3]!r}, closed form 4k(k+1)(2k+1)")
            if kind == "II":
                # kind II enumeration is linear in n: redo it here exactly
                for m, cell in enumerate(r[1:3], start=1):
                    scores = [
                        score("II", c) for c in _compositions("II", n)
                        if sum(x > 0 for x in c) == m
                    ]
                    want = repr(4.0 * max(scores)) if scores else ""
                    if cell != want:
                        problems.append(f"n={n}: modes={m} gives {cell!r}, expected {want!r}")
        return problems[:5]

    return Job(argv, check)


def _optimize_job(kind: str) -> Job:
    argv = ("optimize", "--interaction", kind, "--total", str(OPTIMIZE_TOTAL))
    scored = [(score(kind, c), c) for c in _compositions(kind, OPTIMIZE_TOTAL)]
    best = max(s for s, _ in scored)
    argmax = sorted(list(c) for s, c in scored if s == best)

    def check(text: str) -> list[str]:
        doc = json.loads(text)
        f0 = doc["f0"]
        problems = []
        for m in doc["maximizers"]:
            if sum(m) != OPTIMIZE_TOTAL or not close(4.0 * score(kind, tuple(m)), f0):
                problems.append(f"maximizer {m} has closed form != f0 {f0!r}")
        if doc["maximizers"] != argmax or not close(f0, 4.0 * best):
            problems.append(f"argmax {doc['maximizers']} / {f0!r}, expected {argmax} / {4.0 * best!r}")
        return problems

    return Job(argv, check)


def optimize_scaling(rng: random.Random) -> list[Job]:
    jobs = [_scaling_job("I"), _scaling_job("II"), _optimize_job("I"), _optimize_job("II")]
    rng.shuffle(jobs)
    return jobs


WORKLOADS: dict[str, Callable[[random.Random], list[Job]]] = {
    "coherent-sectors": coherent_sectors,
    "fock-ladders": fock_ladders,
    "range-sweep": range_sweep,
    "optimize-scaling": optimize_scaling,
}

# the trivial job timed in a fresh interpreter for setup_s
SETUP_ARGV = ("fisher-scan", "--state", "1,0,0", "--steps", "2")


def check_setup(text: str) -> list[str]:
    _, header, rows = parse_csv(text)
    f0 = 4.0 * score("I", (1, 0, 0))
    if header != ["coupling", "fisher"] or len(rows) != 2 or not close(float(rows[0][1]), f0):
        return [f"trivial job output wrong: {text[-80:]!r}"]
    return []
