"""Exact analytic results that reach ladders far deeper than the dense oracle.

A pure Fock probe under full number resolution has F(theta) = QFI at every
coupling and time: in the rung gauge its amplitudes c~ are real, so each
rung's term P'^2 / P is (2 c~ c~')^2 / c~^2 = 4 c~'^2, and the terms sum to
2 sum S = 4 t^2 <G^2>, which the evolution conserves.  The single-pumped
ladder (n, 0, 0) of interaction I, whose couplings from the start rung are
j sqrt(n - j + 1), tends to the su(1,1) ladder of Bargmann index 1/2, whose
survival probability is sech^2(sqrt(n) theta t): the binary readout's F
tends to 4 n t^2 sech^2(sqrt(n) theta t).

The identity reads only the derivative rows c~', so an amplitude row that
is wrong (the gauge's sign on the odd rungs, a dropped constant a0 row)
leaves it exact; the su(1,1) limit reads the amplitudes too.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsense import (
    BinaryFock,
    FullPNR,
    InteractionKind,
    PreparedProbe,
    PureFock,
    fisher_limit_closed_form,
)

I, II = InteractionKind.I, InteractionKind.II


@st.composite
def fock_probes(draw):
    """A pure Fock probe with occupations below 60, and its interaction."""
    kind = draw(st.sampled_from([I, II]))
    return kind, PureFock(tuple(draw(st.integers(0, 59)) for _ in range(kind.n_modes)))


def assert_flat_at_the_qfi(prep, probe, kind, grid, t):
    f = prep.fisher(FullPNR(), grid, t)
    qfi = fisher_limit_closed_form(probe, kind, t)
    if qfi == 0.0:
        # a one-rung ladder: one outcome, certain at every coupling
        assert np.all(f == 0.0)
    else:
        assert np.max(np.abs(f - qfi)) <= 1e-13 * qfi


@settings(max_examples=60, deadline=None)
@given(
    case=fock_probes(),
    grid=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12).map(np.array),
    t=st.sampled_from([0.3, 1.0, 1.3, 2.0]),
)
def test_pnr_fisher_of_a_pure_fock_probe_is_its_qfi(case, grid, t):
    kind, probe = case
    assert_flat_at_the_qfi(PreparedProbe(probe, kind), probe, kind, grid, t)


def test_pnr_fisher_equals_the_qfi_on_a_deep_ladder():
    # d = 2001, one row of the rung gauge, 41 couplings in 7 blocks
    probe = PureFock((2000, 0, 0))
    prep = PreparedProbe(probe, I)
    grid = np.linspace(0.0, 0.1, 41)
    assert prep.n_outcomes == 2001
    assert -(-len(grid) // prep.block_rows) == 7
    assert_flat_at_the_qfi(prep, probe, I, grid, 1.3)


@pytest.mark.parametrize("n", [256, 1024])
def test_binary_fisher_of_a_single_pumped_ladder_tends_to_su11(n):
    # F / F_lim - 1 is about 0.40 / n wherever sqrt(n) theta t <= 1.5
    t = 1.3
    x = np.linspace(0.0, 1.5, 61)
    f = PreparedProbe(PureFock((n, 0, 0)), I).fisher(BinaryFock(n), x / (np.sqrt(n) * t), t)
    limit = 4.0 * n * t * t / np.cosh(x) ** 2
    assert np.max(np.abs(f / limit - 1.0)) <= 0.5 / n
