import math

import numpy as np
import pytest

from tsense import (
    BinaryFock,
    CoherentProduct,
    ConfigurationError,
    FullPNR,
    InteractionKind,
    NoisyFock,
    PreparedProbe,
    PureFock,
    ResourceError,
    SequentialS0,
    UndefinedBoundError,
    cramer_rao,
    dynamic_range,
    dynamic_range_formula,
    fisher_limit_closed_form,
    optimize_config,
    qfi_coherent,
    scaling_table,
    scan,
)
from tsense import dynamics, metrology, probes
from tsense.ladder import MAX_RUNGS
from tsense.metrology import REL_TOL, ZOOM_POINTS, SensitivityProfile, outcome_partition

from oracles import first_minimum_dense, generator_second_moment, kernel_qfi, limit_fisher

I, II = InteractionKind.I, InteractionKind.II


def test_outcome_partition_shapes():
    assert outcome_partition(FullPNR(), 4) == [[0], [1], [2], [3]]
    assert outcome_partition(BinaryFock(2), 4) == [[2], [0, 1, 3]]
    # a binary target outside the occupation range leaves its group empty
    assert outcome_partition(BinaryFock(-1), 4) == [[], [0, 1, 2, 3]]
    assert outcome_partition(BinaryFock(9), 4) == [[], [0, 1, 2, 3]]
    # negative occupations are dropped, remainder collects the rest
    assert outcome_partition(SequentialS0(1), 6) == [[1], [0, 2], [3], [4, 5]]
    assert outcome_partition(SequentialS0(3), 6) == [[3], [2, 4], [1, 5], [0]]


@pytest.mark.parametrize("scheme_type", [BinaryFock, SequentialS0])
@pytest.mark.parametrize("target", [2.5, 2.0, True, "2", None])
def test_scheme_targets_must_be_integers(scheme_type, target):
    # the integer rule of PureFock: no floats, even integral ones, and no bools
    with pytest.raises(ConfigurationError, match="scheme target must be an integer"):
        scheme_type(target)


@pytest.mark.parametrize("scheme_type", [BinaryFock, SequentialS0])
def test_numpy_integer_targets_are_accepted(scheme_type):
    assert scheme_type(np.int64(-2)) == scheme_type(-2)


@pytest.mark.parametrize("scheme", [FullPNR(), BinaryFock(1), SequentialS0(1)])
def test_single_mode_limit(scheme):
    f = limit_fisher(PureFock((1, 0, 0)), I, scheme)
    assert f == pytest.approx(4.0, abs=1e-8)


def test_limit_examples():
    assert limit_fisher(PureFock((0, 3)), II, FullPNR()) == pytest.approx(
        24.0, abs=1e-8
    )
    assert limit_fisher(PureFock((2, 1, 1)), I, FullPNR()) == pytest.approx(
        44.0, abs=1e-8
    )
    vacuum = PreparedProbe(PureFock((0, 0, 0)), I)
    f_vac = vacuum.fisher(FullPNR(), np.array([0.0, 0.7]), 1.0)
    assert f_vac.shape == (2,)
    assert f_vac[0] == 0.0
    assert f_vac[1] == 0.0
    # a binary target outside the ladder: one group holds all the
    # probability, so F vanishes up to rounding
    probe = PreparedProbe(PureFock((2, 1, 1)), I)
    for n in (-1, 9):
        f = probe.fisher(BinaryFock(n), np.array([0.0, 0.3]), 1.0)
        np.testing.assert_allclose(f, 0.0, rtol=0, atol=1e-24)


def test_closed_form_reductions():
    cfg = lambda *o: PureFock(o)
    for n in range(1, 8):
        assert fisher_limit_closed_form(cfg(n, 0, 0), I) == 4 * n
    assert fisher_limit_closed_form(cfg(3, 2, 0), I) == 4 * (3 * 2 + 3)
    assert fisher_limit_closed_form(cfg(0, 4, 5), I) == 4 * 4 * 5
    assert fisher_limit_closed_form(cfg(2, 1, 1), I) == 44.0
    assert fisher_limit_closed_form(cfg(1, 3), II) == 128.0
    assert fisher_limit_closed_form(cfg(2, 1, 1), I, t=3.0) == 44.0 * 9


def test_qfi_variance_examples():
    assert kernel_qfi(PureFock((2, 1, 1)), I) == pytest.approx(44.0, abs=1e-10)
    assert kernel_qfi(PureFock((1, 3)), II) == pytest.approx(128.0, abs=1e-10)
    assert kernel_qfi(PureFock((0, 0, 7)), I) == 0.0
    assert kernel_qfi(PureFock((2, 1, 1)), I, t=2.0) == pytest.approx(176.0)


def test_qfi_variance_equals_closed_form_everywhere():
    for na in range(6):
        for nb in range(6):
            for nc in range(6):
                cfg = PureFock((na, nb, nc))
                assert kernel_qfi(cfg, I) == pytest.approx(
                    fisher_limit_closed_form(cfg, I), abs=1e-10
                )
    for na in range(6):
        for nb in range(6):
            cfg = PureFock((na, nb))
            assert kernel_qfi(cfg, II) == pytest.approx(
                fisher_limit_closed_form(cfg, II), abs=1e-10
            )


def test_qfi_coherent_closed_forms():
    assert qfi_coherent((0.0, 0.0, 0.0), I) == 0.0
    s2 = math.sqrt(2)
    assert qfi_coherent((s2, s2, s2), I) == pytest.approx(56.0, abs=1e-12)
    assert qfi_coherent((s2, math.sqrt(3)), II) == pytest.approx(124.0, abs=1e-12)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda v: optimize_config(I, v), ConfigurationError, "total must be an integer"),
        (lambda v: optimize_config(I, 4, modes=v), ConfigurationError, "modes must lie in"),
        (lambda v: scaling_table(I, v), ConfigurationError, "n_max must be an integer"),
        (
            lambda v: scan(PureFock((2, 1, 1)), I, FullPNR(), steps=v),
            ConfigurationError,
            "steps must be an integer",
        ),
        (lambda v: cramer_rao(44.0, v), UndefinedBoundError, "trials must be an integer"),
    ],
    ids=["total", "modes", "n_max", "steps", "trials"],
)
@pytest.mark.parametrize("value", [2.0, 2.5, True], ids=["whole-float", "fraction", "bool"])
def test_integer_arguments_are_refused_unless_integers(call, error, message, value):
    with pytest.raises(error, match=message):
        call(value)


def test_cramer_rao():
    assert cramer_rao(4.0, 1) == 0.5
    assert cramer_rao(44.0, 100) == pytest.approx(1 / math.sqrt(4400))
    with pytest.raises(UndefinedBoundError):
        cramer_rao(0.0, 10)
    with pytest.raises(UndefinedBoundError):
        cramer_rao(4.0, 0)


@pytest.mark.parametrize(
    "f, trials",
    [(44.000000000000014, 10**400), (64480799.99999997, 10**301)],
    ids=["int-to-float-overflow", "product-overflow"],
)
def test_cramer_rao_refuses_trials_whose_product_with_f_is_not_a_float(f, trials):
    # 10**400 is too large for a float; 10**301 F overflows to inf, which
    # gave the bound 0.0
    with pytest.raises(UndefinedBoundError, match="too large for a float"):
        cramer_rao(f, trials)
    # a product that stays finite keeps 1 / sqrt(trials F) bit for bit
    assert cramer_rao(f, 10**300) == 1.0 / math.sqrt(10**300 * f)


@pytest.mark.parametrize(
    "probe,kind",
    [
        (PureFock((2, 1, 1)), I),
        (PureFock((1, 3)), II),
        (NoisyFock((2, 1, 1), (0.05,) * 3), I),
    ],
)
def test_scheme_refinement_ordering(probe, kind):
    prep = PreparedProbe(probe, kind)
    n_ref = 2 if kind is I else 1
    grid = np.linspace(0.0, 1.2, 25)
    f_bin = prep.fisher(BinaryFock(n_ref), grid, 1.0)
    f_s0 = prep.fisher(SequentialS0(n_ref), grid, 1.0)
    f_pnr = prep.fisher(FullPNR(), grid, 1.0)
    assert f_bin.shape == f_s0.shape == f_pnr.shape == (25,)
    assert np.all(f_bin <= f_s0 + 1e-9)
    assert np.all(f_s0 <= f_pnr + 1e-9)


def test_time_squared_scaling_of_limit():
    prep = PreparedProbe(PureFock((2, 2, 1)), I)
    for t in (0.5, 2.0, 7.0):
        (f_t,) = prep.fisher(FullPNR(), np.array([0.0]), t)
        (f_1,) = prep.fisher(FullPNR(), np.array([0.0]), 1.0)
        assert f_t == pytest.approx(t * t * f_1, rel=1e-9)


def test_b_c_swap_symmetry_pointwise():
    prep_a = PreparedProbe(PureFock((2, 1, 3)), I)
    prep_b = PreparedProbe(PureFock((2, 3, 1)), I)
    grid = np.array([0.0, 0.2, 0.9])
    f_a = prep_a.fisher(FullPNR(), grid, 1.0)
    f_b = prep_b.fisher(FullPNR(), grid, 1.0)
    for a, b in zip(f_a, f_b, strict=True):
        assert a == pytest.approx(b, abs=1e-9)


def test_noise_continuity_towards_pure():
    pure = PreparedProbe(PureFock((2, 1, 1)), I)
    at = np.array([0.2])
    (f_pure,) = pure.fisher(FullPNR(), at, 1.0)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        noisy = PreparedProbe(NoisyFock((2, 1, 1), (eps,) * 3), I)
        (f_noisy,) = noisy.fisher(FullPNR(), at, 1.0)
        gaps.append(abs(f_noisy - f_pure))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.1


def test_coherent_fisher_below_coherent_qfi():
    s2 = math.sqrt(2)
    prep = PreparedProbe(CoherentProduct((s2, s2, s2)), I)
    (f0,) = prep.fisher(FullPNR(), np.array([0.0]), 1.0)
    assert f0 < qfi_coherent((s2, s2, s2), I)
    prep = PreparedProbe(CoherentProduct((s2, math.sqrt(3))), II)
    (f0,) = prep.fisher(FullPNR(), np.array([0.0]), 1.0)
    assert f0 < qfi_coherent((s2, math.sqrt(3)), II)


@pytest.mark.parametrize("probe, kind", [
    (PureFock((2, 1, 1)), I),
    (NoisyFock((1, 2), (0.1, 0.05)), II),
    (CoherentProduct((1.0, 0.5j, 0.8)), I),
], ids=["fock", "noisy", "coherent"])
def test_an_empty_grid_gives_empty_results(probe, kind):
    prep = PreparedProbe(probe, kind)
    grid = np.array([])
    assert prep.distributions(grid, 1.0).shape == (3, 0, prep.n_outcomes)
    assert prep.fisher(FullPNR(), grid, 1.0).shape == (0,)


def test_mixture_distributions_normalized():
    probe = NoisyFock((1, 1, 1), (0.1,) * 3)
    prep = PreparedProbe(probe, I)
    p_grid, dp_grid, s_grid = prep.distributions(np.array([0.0, 0.4]), 1.0)
    assert p_grid.shape[0] == 2
    # the evolution commutes with G, so sum S = 2 t^2 sum_w w <psi|G^2|psi> throughout
    s_sum = generator_second_moment(probe, I, 1.0)
    for p, dp, s in zip(p_grid, dp_grid, s_grid):
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert dp.sum() == pytest.approx(0.0, abs=1e-9)
        assert s.sum() == pytest.approx(s_sum, abs=1e-9)


@pytest.mark.parametrize("probe,scheme", [
    (PureFock((8, 0, 0)), BinaryFock(8)),
    (PureFock((2, 1, 1)), SequentialS0(2)),
    (PureFock((20, 20, 20)), FullPNR()),
    (NoisyFock((1, 1, 1), (0.1,) * 3), FullPNR()),
    (CoherentProduct((1.2, 0.8j, 0.6 - 0.5j)), FullPNR()),
])
def test_tiny_couplings_keep_the_zero_coupling_value(probe, scheme):
    # P'^2 / P loses every digit of P at such couplings; the structural-zero
    # floor 2 S holds F at its theta -> 0 limit there
    grid = np.array([0.0, 1e-300, 1e-100, 1e-18])
    f = PreparedProbe(probe, I).fisher(scheme, grid, 1.0)
    assert f[0] > 0.0
    np.testing.assert_allclose(f[1:], f[0], rtol=1e-12, atol=0)


def test_scan_metadata_and_invariants():
    profile = scan(PureFock((1, 1, 1)), I, FullPNR(), theta_max=1.0, steps=101)
    assert profile.f_zero == pytest.approx(24.0, abs=1e-8)
    assert profile.qfi_zero == pytest.approx(24.0)
    assert profile.couplings[0] == 0.0
    assert profile.couplings[-1] == 1.0
    assert len(profile.couplings) == 101
    assert np.all(profile.fisher >= 0.0)
    assert np.all(profile.fisher <= profile.qfi_zero + 1e-6)
    with pytest.raises(ConfigurationError, match="time must be positive, got 0.0"):
        scan(PureFock((1, 1, 1)), I, FullPNR(), t=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, keyword", [("time", "t"), ("theta_max", "theta_max")])
def test_scan_refuses_non_finite_time_and_range(name, keyword, value, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("prepared the probe")

    monkeypatch.setattr(metrology, "PreparedProbe", refuse)
    with pytest.raises(ConfigurationError, match=f"{name} must be finite, got {value}"):
        scan(PureFock((2, 1, 1)), I, FullPNR(), **{keyword: value})


def test_scan_vacuum_all_zero():
    profile = scan(PureFock((0, 0, 0)), I, FullPNR(), steps=11)
    assert np.all(profile.fisher == 0.0)
    assert profile.qfi_zero == 0.0


def test_dynamic_range_single_mode_binary():
    profile = scan(PureFock((4, 0, 0)), I, BinaryFock(4), theta_max=2.5, steps=801)
    theta_min = dynamic_range(profile)
    formula = dynamic_range_formula(PureFock((4, 0, 0)), I)
    assert formula == pytest.approx(1.0)
    assert theta_min is not None
    assert abs(theta_min - formula) / formula < 0.25
    profile = scan(PureFock((0, 4)), II, BinaryFock(0), theta_max=2.5, steps=801)
    theta_min = dynamic_range(profile)
    formula = dynamic_range_formula(PureFock((0, 4)), II)
    assert formula == pytest.approx(math.sqrt(6.0 / 12.0))
    assert theta_min is not None
    assert abs(theta_min - formula) / formula < 0.25


def test_dynamic_range_monotone_profile_has_no_minimum():
    grid = np.linspace(0.0, 1.0, 50)
    profile = SensitivityProfile(
        prepared=PreparedProbe(PureFock((1, 0, 0)), I),
        scheme=FullPNR(),
        time=1.0,
        couplings=grid,
        fisher=4.0 + grid**2,
        f_zero=4.0,
        qfi_zero=4.0,
    )
    assert dynamic_range(profile) is None


def test_dynamic_range_flat_profile_ignores_rounding_noise():
    # informationally complete readout: F is constant, no minimum exists
    profile = scan(PureFock((2, 0, 0)), I, FullPNR(), theta_max=2.0, steps=401)
    np.testing.assert_allclose(profile.fisher, 8.0, rtol=1e-10)
    assert dynamic_range(profile) is None


def test_dynamic_range_reports_the_first_of_two_bracketed_minima():
    # the grid bracket [0.3125, 0.4375] holds a zero of F at 0.33469 and a
    # second minimum near 0.404
    profile = scan(PureFock((0, 16, 4)), I, BinaryFock(0), theta_max=2.5, steps=41)
    assert dynamic_range(profile) == pytest.approx(0.334693, rel=1e-4)


def _range_sweep_profile(occs):
    return scan(PureFock(occs), I, BinaryFock(occs[0]), theta_max=2.5, steps=41)


def _dense_search_misses(profiles, rel):
    """Profiles whose dynamic range is not within ``rel`` of the dense
    search, and those where both find no minimum."""
    missing, off = [], []
    for key, profile in profiles:
        got = dynamic_range(profile)
        want = first_minimum_dense(
            lambda grid: profile.prepared.fisher(profile.scheme, grid, profile.time),
            profile.couplings,
            profile.fisher,
        )
        if (got is None) != (want is None):
            off.append((key, got, want))
        elif want is None:
            missing.append(key)
        elif abs(got - want) > rel * want:
            off.append((key, got, want))
    return missing, off


def test_dynamic_range_matches_dense_search_on_range_sweep():
    # every (na, nb, nc) with na + nb + nc = 20, binary readout, 41 steps
    states = [(na, nb, 20 - na - nb) for na in range(21) for nb in range(21 - na)]
    missing, off = _dense_search_misses([(s, _range_sweep_profile(s)) for s in states], 1e-6)
    assert not off
    # inert probes, and ladders too short for a dip within the grid
    assert missing == [
        (0, 0, 20), (0, 1, 19), (0, 19, 1), (0, 20, 0),
        (1, 0, 19), (1, 1, 18), (1, 18, 1), (1, 19, 0),
    ]


@pytest.mark.parametrize("steps", [6, 11])
def test_dynamic_range_matches_dense_search_on_coarse_grids(steps):
    # grid steps of 0.5 and 0.25 leave a wide bracket to narrow; these
    # states hold one dip in it, where the dense search finds the same
    # minimum (it can find another where two dips or the flat start of F
    # share a coarse bracket); full PNR has no minimum at all
    states = [
        (I, (3, 2, 7)), (I, (5, 3, 4)), (I, (8, 1, 3)), (I, (0, 3, 9)), (II, (6, 6)), (II, (9, 3))
    ]
    profiles = [
        ((occs, scheme), scan(PureFock(occs), kind, scheme, theta_max=2.5, steps=steps))
        for kind, occs in states
        for scheme in [BinaryFock(occs[0]), SequentialS0(occs[0])]
    ]
    missing, off = _dense_search_misses(profiles, 1e-6)
    assert not off
    assert missing == [((0, 3, 9), SequentialS0(0))]


@pytest.mark.parametrize("occs", [(0, 16, 4), (5, 7, 8), (4, 0, 0), (10, 5, 5)])
def test_dynamic_range_refines_in_few_grid_calls(occs, monkeypatch):
    profile = _range_sweep_profile(occs)
    grids = []
    fisher = profile.prepared.fisher

    def recording(scheme, couplings, time):
        grids.append(couplings)
        return fisher(scheme, couplings, time)

    monkeypatch.setattr(profile.prepared, "fisher", recording)
    assert dynamic_range(profile) is not None
    assert 1 <= len(grids) <= 5
    assert [len(g) for g in grids] == [ZOOM_POINTS] * len(grids)
    # each rescan narrows a bracket still wider than REL_TOL relative
    assert all(g[-1] - g[0] > REL_TOL * (g[0] + g[-1]) for g in grids)


def test_dynamic_range_takes_the_vertex_on_the_grid_when_its_bracket_is_narrow(monkeypatch):
    # a grid step of 2.5e-5 brackets the minimum near 1.17457 more
    # narrowly than REL_TOL relative, so no rescan runs
    profile = scan(PureFock((4, 0, 0)), I, BinaryFock(4), theta_max=2.5, steps=100_001)

    def no_rescan(scheme, couplings, time):
        raise AssertionError("rescanned")

    monkeypatch.setattr(profile.prepared, "fisher", no_rescan)
    assert dynamic_range(profile) == pytest.approx(1.174567389525, rel=1e-8)


def test_dynamic_range_takes_the_bracket_middle_when_the_minimum_is_on_its_end(monkeypatch):
    profile = _range_sweep_profile((4, 0, 0))
    i = metrology._first_minimum(profile.fisher, 1e-9)
    a, b = profile.couplings[i - 1], profile.couplings[i + 1]
    # F rising on every rescan: each keeps its first three couplings, a
    # bracket 16 times narrower, and the last one's middle is returned
    grids = []

    def rising(scheme, couplings, time):
        grids.append(couplings)
        return couplings

    monkeypatch.setattr(profile.prepared, "fisher", rising)
    got = dynamic_range(profile)
    assert a < got < b
    assert got == pytest.approx(a + (b - a) / 2 / 16 ** len(grids), rel=1e-12)


def test_dynamic_range_formula_prefactors():
    # 16 below three excited modes (kind I), 24 otherwise
    assert dynamic_range_formula(PureFock((4, 0, 0)), I) == pytest.approx(
        math.sqrt(16.0 / 16.0)
    )
    assert dynamic_range_formula(PureFock((2, 2, 0)), I) == pytest.approx(
        math.sqrt(16.0 / (4 * (4 + 2)))
    )
    assert dynamic_range_formula(PureFock((2, 2, 2)), I) == pytest.approx(
        math.sqrt(24.0 / 120.0)
    )
    assert dynamic_range_formula(PureFock((0, 4)), II) == pytest.approx(
        math.sqrt(24.0 / 48.0)
    )
    assert dynamic_range_formula(PureFock((0, 0, 0)), I) is None


def test_probe_eigenvector_budget_is_checked_before_diagonalizing(monkeypatch):
    # 27 ladders of d = 7999-8003, each under MAX_RUNGS rungs, about 12.9 GiB
    # of eigenvectors together
    def refuse(offdiag):
        raise AssertionError(f"diagonalized a ladder of d = {offdiag.shape[-1] + 1}")

    monkeypatch.setattr(dynamics, "diagonalize", refuse)
    probe = NoisyFock((2000, 6000, 6000), (0.1, 0.1, 0.1))
    with pytest.raises(ResourceError, match=r"27 ladders .* 12\.9 GiB"):
        PreparedProbe(probe, I)


def test_probe_eigenvector_budget_admits_one_ladder_at_the_cap(monkeypatch):
    # d = MAX_RUNGS fills the budget exactly; the stub keeps it undiagonalized
    seen = []

    class Admitted(Exception):
        pass

    def stop(offdiag):
        seen.append(offdiag.shape[-1] + 1)
        raise Admitted

    monkeypatch.setattr(dynamics, "diagonalize", stop)
    with pytest.raises(Admitted):
        PreparedProbe(PureFock((MAX_RUNGS - 1, 0, 0)), I)
    assert seen == [MAX_RUNGS]


def test_coherent_eigenvector_budget_is_checked_before_building(monkeypatch):
    # 16596 sectors of up to ~300 rungs, about 2.1 GiB of eigenvectors
    # together; their dimensions follow from the sector roots, so the
    # probe is refused before `probes` builds any stack's rungs or generators
    def refuse(kind, roots, d):
        raise AssertionError(f"built a stack of {len(roots)} ladders")

    monkeypatch.setattr(probes, "ladder_basis", refuse)
    monkeypatch.setattr(probes, "ladder_offdiag", refuse)
    with pytest.raises(ResourceError, match=r"16596 ladders .* 2\.1 GiB"):
        PreparedProbe(CoherentProduct((0.0, 12.0, 12.0)), I)
