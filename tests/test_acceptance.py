"""Acceptance gate: every stated criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines for
passing criteria too; failing criteria always show theirs.
"""
import math

import numpy as np
import pytest

from tsense import (
    BinaryFock,
    CoherentProduct,
    FullPNR,
    InteractionKind,
    NoisyFock,
    PreparedProbe,
    PureFock,
    SequentialS0,
    decompose,
    diagonalize,
    dynamic_range,
    dynamic_range_formula,
    evolve_vector,
    fisher_limit_closed_form,
    lagrange_relaxation,
    optimize_config,
    qfi_coherent,
    qfi_variance,
    scan,
    spectral_weights,
)

from oracles import evolved_amplitudes_taylor, tridiagonal

I, II = InteractionKind.I, InteractionKind.II


def report(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status}: {desc}")
    for item in failures[:8]:
        print(f"    - {item}")
    assert not failures, f"criterion {num}: {len(failures)} failing sub-checks"


def limit_fisher(occs, kind, scheme):
    (f,) = PreparedProbe(PureFock(occs), kind).fisher(scheme, np.array([0.0]), 1.0)
    return f


def fock_stack(kind, occs):
    """The stack of one that holds the ladder of a Fock state."""
    (stack,) = decompose(PureFock(occs), kind).components
    return stack


def spectrum_of(kind, occs):
    """A Fock state's stack of one and the spectrum of its ladder."""
    stack = fock_stack(kind, occs)
    return stack, diagonalize(stack.offdiag[0])


def evolve_root(stack, spec, coupling):
    """Amplitudes c, c', c'' at one coupling from the ladder's root rung, t = 1."""
    weights = spectral_weights(spec, stack.amplitudes[0])
    return evolve_vector(spec, weights, np.array([coupling]), 1.0)[:, 0]


def test_criterion_1_closed_form_limits():
    failures = []

    def check(occs, kind, expected):
        n_ref = occs[0]
        for scheme in (BinaryFock(n_ref), SequentialS0(n_ref)):
            got = limit_fisher(occs, kind, scheme)
            if abs(got - expected) > 1e-8:
                failures.append((occs, kind.value, scheme, got, expected))

    for na in range(1, 11):
        check((na, 0, 0), I, 4.0 * na)
    for nb in range(2, 11):
        check((0, nb), II, 4.0 * nb * (nb - 1))
    for total in range(2, 11):
        for na in range(1, total):
            nb = total - na
            check((na, nb, 0), I, 4.0 * (na * nb + na))
            check((na, 0, nb), I, 4.0 * (na * nb + na))
            check((0, na, nb), I, 4.0 * na * nb)
    for total in range(0, 9):
        for na in range(total + 1):
            for nb in range(total - na + 1):
                occs = (na, nb, total - na - nb)
                check(occs, I, fisher_limit_closed_form(PureFock(occs), I))
            occs2 = (na, total - na)
            check(occs2, II, fisher_limit_closed_form(PureFock(occs2), II))
    report(1, "simulated F(theta->0) equals the closed forms (tol 1e-8)", failures)


def test_criterion_2_qfi_consistency():
    failures = []
    for na in range(11):
        for nb in range(11):
            for nc in range(11):
                cfg = PureFock((na, nb, nc))
                plug = 4.0 * (na * (nb + 1) * (nc + 1) + (na + 1) * nb * nc)
                got = qfi_variance(cfg, I)
                if abs(got - plug) > 1e-10:
                    failures.append((cfg.occupations, got, plug))
            cfg = PureFock((na, nb))
            plug = 4.0 * (nb * (nb - 1) * (na + 1) + (nb + 1) * (nb + 2) * na)
            got = qfi_variance(cfg, II)
            if abs(got - plug) > 1e-10:
                failures.append((cfg.occupations, got, plug))
    for alphas, kind, plug in (
        ((1.3, 0.7 + 0.2j, 2.0), I, None),
        ((0.9, 1.8j), II, None),
    ):
        n = [abs(a) ** 2 for a in alphas]
        if kind is I:
            plug = 4.0 * (n[0] * n[1] + n[0] * n[2] + n[1] * n[2] + n[0])
        else:
            plug = 4.0 * (n[1] ** 2 + 3 * n[0] * n[1] + 2 * n[0])
        got = qfi_coherent(alphas, kind)
        if abs(got - plug) > 1e-12:
            failures.append((alphas, got, plug))
    report(2, "variance-based QFI equals the plug-in closed forms", failures)


def _pattern_three_mode(n):
    k, r = divmod(n, 3)
    if r == 0:
        return {(k, k, k)}
    if r == 1:
        return {(k + 1, k, k)}
    return {(k + 1, k + 1, k), (k + 1, k, k + 1)}


def _pattern_two_mode_ii(n):
    k, r = divmod(n, 3)
    if r == 0:
        return {(k, 2 * k)}
    if r == 1:
        return {((n - 1) // 3, 2 * ((n - 1) // 3) + 1)}
    return {((n - 2) // 3 + 1, 2 * ((n - 2) // 3) + 1)}


def _pattern_two_mode_i(n):
    na = (n + 1) // 2
    nb = n - na
    return {(na, nb, 0), (na, 0, nb)}


def test_criterion_3_optimal_configurations():
    failures = []
    named = [
        (I, 4, {(2, 1, 1)}),
        (I, 5, {(2, 2, 1), (2, 1, 2)}),
        (I, 6, {(2, 2, 2)}),
        (II, 4, {(1, 3)}),
        (II, 5, {(2, 3)}),
    ]
    for kind, n, expected in named:
        got = {m.occupations for m in optimize_config(kind, n).maximizers}
        if got != expected:
            failures.append(("named", kind.value, n, got, expected))
    for n in range(3, 61):
        got = {m.occupations for m in optimize_config(I, n, modes=3).maximizers}
        if got != _pattern_three_mode(n):
            failures.append(("three-mode I", n, got))
        got_u = {m.occupations for m in optimize_config(I, n).maximizers}
        if got_u != _pattern_three_mode(n):
            failures.append(("unconstrained I", n, got_u))
    for n in range(2, 61):
        got = {m.occupations for m in optimize_config(II, n, modes=2).maximizers}
        if got != _pattern_two_mode_ii(n):
            failures.append(("two-mode II", n, got))
    for n in range(2, 61):
        res = optimize_config(I, n, modes=2)
        got = {m.occupations for m in res.maximizers}
        pattern = _pattern_two_mode_i(n)
        if not pattern <= got:
            failures.append(("two-mode I pattern not maximal", n, got, pattern))
        if n % 2 == 1 and got != pattern:
            failures.append(("two-mode I odd tie set", n, got, pattern))
    report(3, "enumerated optima reproduce the stated optima and patterns", failures)


def _loglog_slope(pairs):
    """Leading exponent p of F0 ~ N^p, fitted as log F0 on [log N, 1, 1/N].

    For a polynomial F0, log F0 = p log N + c + a/N + O(N^-2); a straight
    line through log-log points would absorb a/N into the slope and read
    p low by about a/mean(N) on a finite window.
    """
    ns = np.array([n for n, f in pairs if f], dtype=float)
    fs = np.array([f for _, f in pairs if f], dtype=float)
    design = np.column_stack([np.log(ns), np.ones_like(ns), 1.0 / ns])
    return float(np.linalg.lstsq(design, np.log(fs), rcond=None)[0][0])


def _three_mode_optimum_i(n):
    k, r = divmod(n, 3)
    if r == 0:
        return 4 * k * (k + 1) * (2 * k + 1)
    if r == 1:
        return 4 * ((k + 1) ** 3 + k * k * (k + 2))
    return 4 * (k + 1) * (k + 2) * (2 * k + 1)


def test_criterion_4_cubic_scaling():
    failures = []
    ns = range(30, 121)

    def curve(kind, modes):
        return [(n, optimize_config(kind, n, modes=modes).f0) for n in ns]

    bands = [
        ("kind-I three-mode", curve(I, 3), 3.00, 0.05),
        ("kind-II two-mode", curve(II, 2), 3.00, 0.05),
        ("kind-I two-mode", curve(I, 2), 2.00, 0.05),
        ("kind-II one-mode", curve(II, 1), 2.00, 0.05),
        ("kind-I one-mode", curve(I, 1), 1.00, 0.01),
    ]
    slopes = []
    for name, pairs, center, width in bands:
        slope = _loglog_slope(pairs)
        slopes.append(f"{name} {slope:.4f}")
        if abs(slope - center) > width:
            failures.append(f"{name}: slope {slope:.4f} outside {center}+-{width}")
    for n, f0 in bands[0][1]:
        want = _three_mode_optimum_i(n)
        if f0 != want:
            failures.append(f"kind-I three-mode N={n}: F0 {f0} != closed form {want}")
    for kind, modes, asym in (
        (I, 3, lambda n: 8 * n**3 / 27.0),
        (II, 2, lambda n: 32 * n**3 / 27.0),
    ):
        ratio = optimize_config(kind, 60, modes=modes).f0 / asym(60)
        if not ratio < 1.12:
            failures.append(f"kind {kind.value} ratio at N=60 is {ratio:.4f}")
    report(
        4,
        "log-log slopes of the optimal F0 match the stated bands ("
        + ", ".join(slopes) + ")",
        failures,
    )


def test_criterion_5_lagrange_relaxation():
    failures = []
    na, nb, nc = lagrange_relaxation(I, 4)
    for got, want in ((na, 1.52), (nb, 1.24), (nc, 1.24)):
        if abs(got - want) > 0.01:
            failures.append((got, want))
    report(5, "continuous relaxation at N=4 gives (1.52, 1.24, 1.24)", failures)


def test_criterion_6_dynamic_range():
    failures = []
    for kind, occs_list in ((I, [(n, 0, 0) for n in (2, 4, 8)]),
                            (II, [(0, n) for n in (2, 4, 8)])):
        empiricals = []
        for occs in occs_list:
            profile = scan(
                PureFock(occs), kind, BinaryFock(occs[0]),
                theta_max=3.0, steps=1201,
            )
            emp = dynamic_range(profile)
            formula = dynamic_range_formula(PureFock(occs), kind)
            empiricals.append(math.inf if emp is None else emp)
            if fock_stack(kind, occs).d == 2:
                # every readout resolves both rungs, so F is constant: no minimum
                if not np.allclose(profile.fisher, profile.f_zero, rtol=1e-10, atol=0.0):
                    failures.append(f"{kind.value}{occs}: two-level F not constant")
                if emp is not None:
                    failures.append(f"{kind.value}{occs}: two-level minimum at {emp:.4f}")
            elif emp is None:
                failures.append(f"{kind.value}{occs}: no local minimum (formula {formula:.3f})")
            elif abs(emp - formula) / formula > 0.25:
                failures.append(
                    f"{kind.value}{occs}: empirical {emp:.4f} vs formula {formula:.4f} "
                    f"({abs(emp - formula) / formula:.0%} off)"
                )
        if not all(a >= b for a, b in zip(empiricals, empiricals[1:])):
            failures.append(f"{kind.value}: theta_min not monotone: {empiricals}")
    report(6, "first Fisher minima match the rough formulas within 25%", failures)


def test_criterion_7_property_suites():
    failures = []
    rng = np.random.default_rng(20250810)

    # unitarity over 1000 random (config, theta*t) draws
    for _ in range(1000):
        kind = I if rng.random() < 0.5 else II
        occs = tuple(int(x) for x in rng.integers(0, 8, size=kind.n_modes))
        stack, spec = spectrum_of(kind, occs)
        th = float(rng.uniform(-2.0, 2.0))
        c, _, _ = evolve_root(stack, spec, th)
        if abs(np.vdot(c, c).real - 1.0) > 1e-10:
            failures.append(("unitarity", occs, th))
            break

    # evenness of populations in the coupling
    for _ in range(60):
        kind = I if rng.random() < 0.5 else II
        occs = tuple(int(x) for x in rng.integers(0, 6, size=kind.n_modes))
        stack, spec = spectrum_of(kind, occs)
        th = float(rng.uniform(0.05, 1.5))
        p_plus = np.abs(evolve_root(stack, spec, th)[0]) ** 2
        p_minus = np.abs(evolve_root(stack, spec, -th)[0]) ** 2
        if np.max(np.abs(p_plus - p_minus)) > 1e-12:
            failures.append(("evenness", occs, th))
            break

    # analytic derivatives vs 5-point central differences at step 1e-5;
    # atol sits at each stencil's rounding floor
    h = 1e-5
    for _ in range(200):
        kind = I if rng.random() < 0.5 else II
        occs = tuple(int(x) for x in rng.integers(0, 8, size=kind.n_modes))
        stack, spec = spectrum_of(kind, occs)
        th = float(rng.uniform(0.02, 1.5))

        def pops(x):
            return np.abs(evolve_root(stack, spec, x)[0]) ** 2

        f2u, f1u, f0, f1d, f2d = (
            pops(th + 2 * h), pops(th + h), pops(th), pops(th - h), pops(th - 2 * h)
        )
        fd1 = (-f2u + 8 * f1u - 8 * f1d + f2d) / (12 * h)
        fd2 = (-f2u + 16 * f1u - 30 * f0 + 16 * f1d - f2d) / (12 * h * h)
        c, dc, d2c = evolve_root(stack, spec, th)
        dp = 2 * np.real(np.conj(c) * dc)
        d2p = 2 * np.real(np.conj(c) * d2c) + 2 * np.abs(dc) ** 2
        if np.any(np.abs(dp - fd1) > 1e-5 * np.abs(dp) + 1e-8):
            failures.append(("p' vs fd", occs, th))
            break
        if np.any(np.abs(d2p - fd2) > 1e-5 * np.abs(d2p) + 2e-4):
            failures.append(("p'' vs fd", occs, th))
            break

    # scheme refinement ordering, pointwise
    for probe, kind, n_ref in (
        (PureFock((2, 1, 1)), I, 2),
        (PureFock((1, 3)), II, 1),
        (NoisyFock((2, 2, 2), (0.05,) * 3), I, 2),
    ):
        prep = PreparedProbe(probe, kind)
        grid = np.linspace(0.0, 1.5, 31)
        for th, f_bin, f_s0, f_pnr in zip(
            grid,
            prep.fisher(BinaryFock(n_ref), grid, 1.0),
            prep.fisher(SequentialS0(n_ref), grid, 1.0),
            prep.fisher(FullPNR(), grid, 1.0),
            strict=True,
        ):
            if not (f_bin <= f_s0 + 1e-9 and f_s0 <= f_pnr + 1e-9):
                failures.append(("ordering", probe, th, f_bin, f_s0, f_pnr))

    # classical limit never exceeds the QFI at theta -> 0
    for total in range(0, 7):
        for na in range(total + 1):
            for nb in range(total - na + 1):
                occs = (na, nb, total - na - nb)
                f0 = limit_fisher(occs, I, FullPNR())
                if f0 > fisher_limit_closed_form(PureFock(occs), I) + 1e-6:
                    failures.append(("FI>QFI", occs, f0))

    # b <-> c symmetry of the Fisher information
    for occs in ((2, 1, 3), (1, 0, 4), (3, 2, 2)):
        swapped = (occs[0], occs[2], occs[1])
        pa = PreparedProbe(PureFock(occs), I)
        pb = PreparedProbe(PureFock(swapped), I)
        grid = np.array([0.0, 0.3, 0.9])
        f_a, f_b = pa.fisher(FullPNR(), grid, 1.0), pb.fisher(FullPNR(), grid, 1.0)
        for th, fa, fb in zip(grid, f_a, f_b, strict=True):
            if abs(fa - fb) > 1e-9:
                failures.append(("swap", occs, th))

    # dense-exponential oracle equivalence for every ladder with d <= 6
    for kind in (I, II):
        seen = set()
        top = 7
        occ_ranges = (
            [(a, b, c) for a in range(top) for b in range(top) for c in range(top)]
            if kind is I
            else [(a, b) for a in range(top) for b in range(top)]
        )
        for occs in occ_ranges:
            stack = fock_stack(kind, occs)
            (root,) = np.flatnonzero(stack.amplitudes[0])
            key = (tuple(stack.roots[0].tolist()), root)
            if stack.d > 6 or key in seen:
                continue
            seen.add(key)
            spec = diagonalize(stack.offdiag[0])
            for theta_t in (0.1, 0.5, 1.0):
                got = evolve_root(stack, spec, theta_t)[0]
                want = evolved_amplitudes_taylor(tridiagonal(stack.offdiag[0]), root, theta_t)
                if np.max(np.abs(got - want)) > 1e-10:
                    failures.append(("oracle", kind.value, occs, theta_t))

    report(7, "unitarity, evenness, derivatives, ordering, and oracle equivalence", failures)


# frozen regression values from this implementation (drift guards)
NOISE_FIXTURES = {
    ("I", (2, 2, 2), "binary", 0.05, 0.05): 42.31845465702203,
    ("I", (2, 2, 2), "binary", 0.1, 0.15): 57.91420783145172,
    ("I", (2, 2, 2), "s0", 0.005, 0.0): 0.4999999999999903,
    ("I", (2, 2, 2), "s0", 0.05, 0.15): 88.8157887430108,
    ("II", (2, 3), "binary", 0.005, 0.05): 210.85686881217964,
    ("II", (2, 3), "binary", 0.1, 0.05): 63.35271425341841,
    ("II", (2, 3), "s0", 0.05, 0.05): 122.01041745531512,
    ("II", (2, 3), "s0", 0.1, 0.0): 17.999999999999986,
}


def test_criterion_8_noise_behavior():
    failures = []
    cases = ((I, (2, 2, 2)), (II, (2, 3)))
    for kind, nominal in cases:
        window = dynamic_range_formula(PureFock(nominal), kind)
        grid = np.linspace(0.0, window, 601)
        for scheme_name in ("binary", "s0"):
            scheme = (
                BinaryFock(nominal[0]) if scheme_name == "binary"
                else SequentialS0(nominal[0])
            )
            pure = PreparedProbe(PureFock(nominal), kind)
            f_pure = pure.fisher(scheme, grid, 1.0)
            for eps in (0.005, 0.05, 0.1):
                noisy = PreparedProbe(NoisyFock(nominal, (eps,) * kind.n_modes), kind)
                f_noisy = noisy.fisher(scheme, grid, 1.0)
                if not f_noisy[0] < f_pure[0]:
                    failures.append((kind.value, scheme_name, eps, "no trough"))
                jumps = np.max(np.abs(np.diff(f_noisy)))
                if jumps > 0.05 * (f_noisy.max() - f_noisy.min()):
                    failures.append((kind.value, scheme_name, eps, "discontinuous"))
                interior = slice(1, None)
                ratio = f_noisy[interior] / np.maximum(f_pure[interior], 1e-30)
                if not np.any(ratio > 0.5):
                    failures.append((kind.value, scheme_name, eps, "no recovery"))
    for (kv, nominal, scheme_name, eps, th), want in NOISE_FIXTURES.items():
        kind = I if kv == "I" else II
        scheme = (
            BinaryFock(nominal[0]) if scheme_name == "binary"
            else SequentialS0(nominal[0])
        )
        prep = PreparedProbe(NoisyFock(nominal, (eps,) * kind.n_modes), kind)
        (got,) = prep.fisher(scheme, np.array([th]), 1.0)
        if abs(got - want) > 1e-6 * max(1.0, abs(want)):
            failures.append(("fixture drift", kv, nominal, scheme_name, eps, th, got))
    report(8, "noise troughs at zero coupling with recovery inside the range", failures)


def test_criterion_9_coherent_benchmark():
    failures = []
    s2, s3 = math.sqrt(2.0), math.sqrt(3.0)
    cases = (
        (I, (2, 2, 2), (s2, s2, s2), 120.0, 56.0),
        (II, (2, 3), (s2, s3), 232.0, 124.0),
    )
    for kind, occs, alphas, f_fock_expected, qfi_expected in cases:
        f_fock = limit_fisher(occs, kind, FullPNR())
        qfi_co = qfi_coherent(alphas, kind)
        (f_co,) = PreparedProbe(CoherentProduct(alphas), kind).fisher(
            FullPNR(), np.array([0.0]), 1.0
        )
        if abs(f_fock - f_fock_expected) > 1e-8:
            failures.append(("fock limit", kind.value, f_fock))
        if abs(qfi_co - qfi_expected) > 1e-10:
            failures.append(("coherent qfi", kind.value, qfi_co))
        if not f_co < qfi_co:
            failures.append(("coherent FI above its QFI", kind.value, f_co, qfi_co))
        if not qfi_co < f_fock:
            failures.append(("coherent QFI above Fock FI", kind.value))
    report(9, "coherent probes sit below their QFI, below the Fock probe", failures)
