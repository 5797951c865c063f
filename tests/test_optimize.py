import math
import random

import numpy as np
import pytest

from oracles import (
    grad_hess,
    optimal_configs_loop,
    relaxation_newton,
    weighted_configs_loop,
)
from tsense import (
    ConfigurationError,
    FullPNR,
    InteractionKind,
    PureFock,
    ResourceError,
    asymptotic_prediction,
    fisher_limit_closed_form,
    lagrange_relaxation,
    optimize_config,
    optimize_config_weighted,
    scaling_table,
    scan,
)
from tsense.optimize import MAX_COMPOSITIONS, _score

I, II = InteractionKind.I, InteractionKind.II


def occupations(configs):
    return tuple(m.occupations for m in configs)


def maximizer_set(kind, n, modes=None):
    return {m.occupations for m in optimize_config(kind, n, modes=modes).maximizers}


def test_paper_benchmark_optima():
    assert maximizer_set(I, 4) == {(2, 1, 1)}
    assert maximizer_set(I, 5) == {(2, 2, 1), (2, 1, 2)}
    assert maximizer_set(I, 6) == {(2, 2, 2)}
    assert maximizer_set(II, 4) == {(1, 3)}
    assert maximizer_set(II, 5) == {(2, 3)}
    assert optimize_config(I, 4).f0 == 44.0
    assert optimize_config(I, 5).f0 == 72.0
    assert optimize_config(II, 5).f0 == 232.0


def test_degenerate_small_totals():
    assert maximizer_set(I, 0) == {(0, 0, 0)}
    assert optimize_config(I, 0).f0 == 0.0
    assert maximizer_set(I, 1) == {(1, 0, 0)}
    # at N=2 a single excited measured mode ties with the split configs
    assert maximizer_set(I, 2) == {(2, 0, 0), (1, 1, 0), (1, 0, 1)}
    # interaction II cannot run on one quantum in b'; the optimum is a'
    assert maximizer_set(II, 1) == {(1, 0)}
    assert optimize_config(II, 1).f0 == 8.0


def test_maximizers_sorted_and_swap_closed():
    res = optimize_config(I, 5)
    occs = [m.occupations for m in res.maximizers]
    assert occs == sorted(occs)
    assert {(o[0], o[2], o[1]) for o in occs} == set(occs)


def test_priority_rule_extra_quantum_in_measured_mode():
    for n in range(1, 59, 3):  # N mod 3 == 1
        k = (n - 1) // 3
        assert maximizer_set(I, n) == {(k + 1, k, k)}


def test_mode_count_constraint():
    assert maximizer_set(I, 6, modes=1) == {(6, 0, 0)}
    assert maximizer_set(I, 6, modes=2) == {(3, 3, 0), (3, 0, 3), (4, 2, 0), (4, 0, 2)}
    assert maximizer_set(I, 7, modes=2) == {(4, 3, 0), (4, 0, 3)}
    assert maximizer_set(II, 6, modes=1) == {(0, 6)}
    assert maximizer_set(II, 2, modes=1) == {(2, 0)}
    with pytest.raises(ConfigurationError):
        optimize_config(I, 2, modes=3)
    with pytest.raises(ConfigurationError):
        optimize_config(II, 3, modes=3)


def test_three_mode_patterns_up_to_60():
    for n in range(3, 61):
        k, r = divmod(n, 3)
        if r == 0:
            expected = {(k, k, k)}
        elif r == 1:
            expected = {(k + 1, k, k)}
        else:
            expected = {(k + 1, k + 1, k), (k + 1, k, k + 1)}
        assert maximizer_set(I, n, modes=3) == expected
        assert maximizer_set(I, n) == expected  # unconstrained agrees for N >= 3


def test_two_mode_degenerate_patterns_up_to_60():
    for n in range(2, 61):
        k, r = divmod(n, 3)
        if r == 0:
            expected = {(k, 2 * k)}
        elif r == 1:
            expected = {((n - 1) // 3, 2 * ((n - 1) // 3) + 1)}
        else:
            expected = {((n - 2) // 3 + 1, 2 * ((n - 2) // 3) + 1)}
        assert maximizer_set(II, n, modes=2) == expected
        if n >= 3:
            assert maximizer_set(II, n) == expected


def test_lagrange_relaxation_matches_analytic_roots():
    # kind I with n_b = n_c = m reduces stationarity to a quadratic in m
    na, nb, nc = lagrange_relaxation(I, 4)
    m = (5.0 + math.sqrt(97.0)) / 12.0
    assert nb == pytest.approx(m, abs=1e-9)
    assert nc == pytest.approx(m, abs=1e-9)
    assert na == pytest.approx(4.0 - 2.0 * m, abs=1e-9)
    # the paper-scale rounding: (1.52, 1.24, 1.24)
    assert na == pytest.approx(1.52, abs=0.01)
    assert nb == pytest.approx(1.24, abs=0.01)

    na, nb, nc = lagrange_relaxation(I, 6)
    m = (9.0 + math.sqrt(201.0)) / 12.0
    assert nb == pytest.approx(m, abs=1e-9)
    assert na == pytest.approx(6.0 - 2.0 * m, abs=1e-9)

    na, nb = lagrange_relaxation(II, 3)
    root = (10.0 + math.sqrt(172.0)) / 12.0
    assert nb == pytest.approx(root, abs=1e-9)
    assert na == pytest.approx(3.0 - root, abs=1e-9)
    assert abs(na - 1.0) < 0.2 and abs(nb - 2.0) < 0.2

    with pytest.raises(ConfigurationError):
        lagrange_relaxation(I, 0)


@pytest.mark.parametrize("kind", [I, II])
def test_lagrange_relaxation_matches_the_newton_oracle(kind):
    first = 1 if kind is I else 2
    for total in [*range(first, 701), 2.7, 7.3, 100.5]:
        want = relaxation_newton(kind, total)
        got = lagrange_relaxation(kind, total)
        assert got is not None, (kind, total)
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-11 * total, (kind, total)


def test_lagrange_relaxation_is_none_without_a_real_root():
    assert lagrange_relaxation(II, 1) is None
    assert lagrange_relaxation(II, 0.95) is None
    assert optimize_config(II, 1).relaxation is None


@pytest.mark.parametrize(
    "kind, totals",
    [
        (I, [0.95, *range(1, 2047), 10**6]),
        (II, [1.3, *range(2, 20001), 2**21 - 1]),
    ],
)
def test_lagrange_relaxation_is_stationary(kind, totals):
    # the Newton oracle stops converging from 1085 (I) and 770 (II), and
    # near the double roots at 0.95 (I) and 1.3 (II) it stops about 3e-11
    # short of the root
    for total in totals:
        relax = lagrange_relaxation(kind, total)
        assert relax is not None, (kind, total)
        assert total < 1 or min(relax) >= 0.0
        assert sum(relax) == pytest.approx(total, rel=1e-15)
        grad, _ = grad_hess(kind, np.array(relax))
        assert np.ptp(grad) <= 1e-12 * np.max(np.abs(grad)), (kind, total)


def test_relaxation_rounding_contains_integer_optimum():
    for kind in (I, II):
        for n in range(3, 61):
            relax = lagrange_relaxation(kind, n)
            candidates = set()

            def expand(prefix, rest):
                if not rest:
                    candidates.add(prefix)
                    return
                head, *tail = rest
                for v in {math.floor(head), math.ceil(head)}:
                    expand(prefix + (v,), tuple(tail))

            expand((), relax)
            best = maximizer_set(kind, n)
            assert best & candidates, (kind, n, relax, best)


def test_asymptotic_prediction_values():
    assert asymptotic_prediction(I, 27) == pytest.approx(8 * 27**3 / 27)
    assert asymptotic_prediction(II, 3) == pytest.approx(32.0)
    assert asymptotic_prediction(I, 0) == 0.0
    assert asymptotic_prediction(II, 3, t=2.0) == pytest.approx(128.0)


def test_asymptote_ratio_decreases_from_above():
    ratios = []
    for n in range(6, 61, 3):
        f0 = optimize_config(I, n, modes=3).f0
        ratios.append(f0 / asymptotic_prediction(I, n))
    assert all(r > 1.0 for r in ratios)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert optimize_config(I, 15, modes=3).f0 / asymptotic_prediction(I, 15) < 1.35
    assert optimize_config(I, 60, modes=3).f0 / asymptotic_prediction(I, 60) < 1.12


def test_scaling_tables():
    one = dict(scaling_table(I, 30, modes=1))
    assert all(one[n] == 4.0 * n for n in range(1, 31))
    two = dict(scaling_table(I, 30, modes=2))
    for n in range(2, 31, 2):
        assert two[n] == pytest.approx(4.0 * (n * n / 4.0 + n / 2.0))
    assert two[1] is None  # two excited modes need at least two quanta
    three = dict(scaling_table(I, 10, modes=3))
    assert three[1] is None and three[2] is None
    assert three[6] == pytest.approx(120.0)

    one_ii = dict(scaling_table(II, 12, modes=1))
    assert one_ii[1] == 8.0
    assert one_ii[2] == 16.0
    for n in range(3, 13):
        assert one_ii[n] == pytest.approx(4.0 * n * (n - 1))

    with pytest.raises(ConfigurationError):
        scaling_table(I, 500, modes=1)


def test_weighted_budget_constraint():
    # unit weights with budget N contain the quanta-count optimum
    maxis, f0 = optimize_config_weighted(I, (1.0, 1.0, 1.0), 4.0)
    assert {m.occupations for m in maxis} == {(2, 1, 1)}
    assert f0 == 44.0
    # a costly measured mode shifts the optimum into the cheap modes
    maxis, f0 = optimize_config_weighted(I, (2.0, 1.0, 1.0), 6.0)
    brute_best, brute_arg = -1, set()
    for na in range(4):
        for nb in range(7):
            for nc in range(7):
                if 2 * na + nb + nc > 6:
                    continue
                s = na * (nb + 1) * (nc + 1) + (na + 1) * nb * nc
                if s > brute_best:
                    brute_best, brute_arg = s, {(na, nb, nc)}
                elif s == brute_best:
                    brute_arg.add((na, nb, nc))
    assert {m.occupations for m in maxis} == brute_arg
    assert f0 == 4.0 * brute_best
    with pytest.raises(ConfigurationError):
        optimize_config_weighted(I, (1.0, 1.0), 4.0)
    with pytest.raises(ConfigurationError):
        optimize_config_weighted(II, (0.0, 1.0), 4.0)


@pytest.mark.parametrize(
    "weights, budget",
    [
        ((1.0, 1.0, 1.0), math.inf),
        ((1.0, 1.0, 1.0), math.nan),
        ((1.0, math.nan, 1.0), 4.0),
        ((1.0, math.inf, 1.0), 4.0),
    ],
)
def test_weighted_search_refuses_non_finite_input(weights, budget):
    with pytest.raises(ConfigurationError):
        optimize_config_weighted(I, weights, budget)


def test_optimize_result_fields():
    res = optimize_config(II, 4)
    assert res.n == 4
    assert res.kind is II
    assert res.f0 == 128.0
    assert res.relaxation is not None and len(res.relaxation) == 2
    assert res.asymptote == pytest.approx(32 * 64 / 27)
    res0 = optimize_config(I, 0)
    assert res0.relaxation is None


@pytest.mark.parametrize("kind", [I, II])
def test_array_search_matches_the_loop_oracle(kind):
    for modes in (None, *range(1, kind.n_modes + 1)):
        table = dict(scaling_table(kind, 60, modes)) if modes else {}
        for n in range(61):
            best, arg = optimal_configs_loop(kind, n, modes)
            if best is None:
                with pytest.raises(ConfigurationError):
                    optimize_config(kind, n, modes=modes)
            else:
                res = optimize_config(kind, n, modes=modes)
                assert occupations(res.maximizers) == arg, (kind, n, modes)
                assert res.f0 == 4.0 * best
            if modes is not None and n >= 1:
                assert table[n] == (None if best is None else 4.0 * best)


@pytest.mark.parametrize("kind", [I, II])
def test_maximizers_scan_as_they_are(kind):
    # the search's maximizers are probes: each goes straight into scan,
    # whose zero-coupling limits are the searched optimum
    for total in range(1, 41):
        res = optimize_config(kind, total)
        for m in res.maximizers:
            profile = scan(m, kind, FullPNR(), steps=2)
            assert profile.qfi_zero == res.f0, (kind, m)
            assert profile.f_zero == pytest.approx(res.f0, rel=1e-9, abs=0), (kind, m)


@pytest.mark.parametrize(
    "kind, weights, budget",
    [(I, (2.0, 1.0, 1.0), 6.0), (I, (1.0, 1.5, 0.5), 9.0), (II, (1.0, 3.0), 12.0)],
)
def test_weighted_maximizers_are_probes(kind, weights, budget):
    maxis, f0 = optimize_config_weighted(kind, weights, budget)
    assert maxis
    for m in maxis:
        assert isinstance(m, PureFock)
        assert fisher_limit_closed_form(m, kind) == f0


def test_weighted_search_matches_the_loop_oracle():
    rng = random.Random(2404)
    ties = 0
    for _ in range(240):
        kind = rng.choice([I, II])
        # a scale of 0.1 makes the budget test sensitive to float rounding
        scale = rng.choice([0.1, 0.5, 1.0])
        weights = tuple(
            scale * rng.choice([1, 2, 3, rng.uniform(0.8, 3.0)]) for _ in range(kind.n_modes)
        )
        budget = scale * rng.choice([rng.randint(0, 9), rng.uniform(0.0, 9.0)])
        maxis, f0 = optimize_config_weighted(kind, weights, budget)
        best, arg = weighted_configs_loop(kind, weights, budget)
        assert occupations(maxis) == arg, (kind, weights, budget)
        assert f0 == 4.0 * best
        ties += len(arg) > 1
    assert ties >= 20


def test_largest_interaction_ii_total_scores_exactly():
    # N = 3k + 1 with k = 699050; an int64 overflow would move the optimum
    res = optimize_config(II, MAX_COMPOSITIONS - 1)
    assert occupations(res.maximizers) == ((699050, 1398101),)
    assert res.f0 == 4.0 * _score(II, (699050, 1398101))


def test_oversized_searches_are_refused_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated the candidates")

    monkeypatch.setattr(np, "triu_indices", refuse)
    monkeypatch.setattr(np, "indices", refuse)
    with pytest.raises(ResourceError, match="MAX_COMPOSITIONS"):
        optimize_config(I, 2047)
    with pytest.raises(ResourceError, match="MAX_COMPOSITIONS"):
        optimize_config(II, MAX_COMPOSITIONS)
    # a box of about 10^12 candidates
    with pytest.raises(ResourceError, match="MAX_COMPOSITIONS"):
        optimize_config_weighted(I, (1e-3,) * 3, 10.0)


def test_scaling_table_rejects_bad_arguments():
    with pytest.raises(ConfigurationError, match="modes"):
        scaling_table(I, 4, modes=4)
    with pytest.raises(ConfigurationError, match="modes"):
        scaling_table(II, 4, modes=0)
    for n_max in (0, -3):
        with pytest.raises(ConfigurationError, match="n_max"):
            scaling_table(I, n_max, modes=1)
