"""Properties of the grid-batched kernel over random probes and grids.

Every check holds at each point of a coupling grid, not only at sampled
couplings: conservation of P, P' and S = 2 sum |c'|^2, the ordering of
the coarse-grained readouts, the quantum bound, the Cauchy-Schwarz bound
F <= 2 sum S, and agreement between one grid call and one-point calls.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    fisher_limit_closed_form,
    qfi_coherent,
)

from oracles import generator_second_moment

I, II = InteractionKind.I, InteractionKind.II


@st.composite
def probes(draw):
    """A small Fock, noisy-Fock or coherent probe with its interaction."""
    kind = draw(st.sampled_from([I, II]))
    family = draw(st.sampled_from(["fock", "noisy", "coherent"]))
    occs = tuple(draw(st.integers(0, 4)) for _ in range(kind.n_modes))
    if family == "fock":
        return kind, PureFock(occs)
    if family == "noisy":
        eps = tuple(draw(st.floats(0.0, 0.25)) for _ in range(kind.n_modes))
        return kind, NoisyFock(occs, eps)
    parts = st.floats(-1.2, 1.2, allow_nan=False)
    alphas = tuple(complex(draw(parts), draw(parts)) for _ in range(kind.n_modes))
    return kind, CoherentProduct(alphas)


grids = st.lists(
    st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=12
).map(np.array)
times = st.floats(0.25, 2.0)


def qfi_bound(probe, kind, t):
    """The QFI of a pure probe; for a mixture, the weighted QFI of its parts."""
    if isinstance(probe, PureFock):
        return fisher_limit_closed_form(probe, kind, t)
    if isinstance(probe, CoherentProduct):
        return qfi_coherent(probe.alphas, kind, t)
    total = 0.0
    for stack in decompose(probe, kind).components:
        # K rows on each generator's row of elements, zero rows of weight 0 among them
        offdiags = np.repeat(stack.offdiag, stack.multiplicity, axis=0)
        for weight, offdiag, psi in zip(stack.weights, offdiags, stack.amplitudes, strict=True):
            g = np.diag(offdiag, 1) + np.diag(offdiag, -1)
            mean = np.vdot(psi, g @ psi).real
            total += weight * 4.0 * t * t * (np.vdot(psi, g @ (g @ psi)).real - mean**2)
    return total


@settings(max_examples=60, deadline=None)
@given(case=probes(), grid=grids, t=times)
# sum S = 1224 here: the bound on its rounding is relative
@example(case=(II, PureFock((4, 4))), grid=np.array([1.46875]), t=1.84375)
def test_distributions_conserve_probability_at_every_point(case, grid, t):
    kind, probe = case
    prep = PreparedProbe(probe, kind)
    P, dP, S = prep.distributions(grid, t)
    assert P.shape == dP.shape == S.shape == (len(grid), prep.n_outcomes)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dP.sum(axis=1), 0.0, rtol=0, atol=1e-12)
    # the evolution commutes with G, so sum S = 2 t^2 sum_w w <psi|G^2|psi>
    # at every coupling; its terms grow with the probe, so its rounding does
    s_sum = generator_second_moment(probe, kind, t)
    bound = max(1e-12, 1e-13 * s_sum)
    assert np.all(np.abs(S.sum(axis=1) - s_sum) <= bound)
    if isinstance(probe, PureFock):
        # <G> = 0 on a Fock rung: sum S is half the QFI
        qfi = fisher_limit_closed_form(probe, kind, t)
        assert abs(2.0 * s_sum - qfi) <= 1e-12 * max(1.0, qfi)


@settings(max_examples=60, deadline=None)
@given(case=probes(), grid=grids, t=times)
def test_readout_ordering_and_quantum_bound_on_the_grid(case, grid, t):
    kind, probe = case
    prep = PreparedProbe(probe, kind)
    n_ref = (probe.occupations if isinstance(probe, PureFock)
             else probe.nominal if isinstance(probe, NoisyFock)
             else [round(abs(a) ** 2) for a in probe.alphas])[0]
    f_bin = prep.fisher(BinaryFock(n_ref), grid, t)
    f_s0 = prep.fisher(SequentialS0(n_ref), grid, t)
    f_pnr = prep.fisher(FullPNR(), grid, t)
    assert f_bin.shape == f_s0.shape == f_pnr.shape == grid.shape
    qfi = qfi_bound(probe, kind, t)
    tol = 1e-9 * (1.0 + qfi)
    assert np.all(f_bin >= 0.0)
    assert np.all(f_bin <= f_s0 + tol)
    assert np.all(f_s0 <= f_pnr + tol)
    assert np.all(f_pnr <= qfi + 1e-6 * (1.0 + qfi))


@settings(max_examples=60, deadline=None)
@given(case=probes(), grid=grids, t=times)
def test_fisher_is_within_its_cauchy_schwarz_bound(case, grid, t):
    # P'^2 <= 2 P S on every outcome group, so F <= 2 sum S at every point
    kind, probe = case
    prep = PreparedProbe(probe, kind)
    bound = 2.0 * prep.distributions(grid, t)[2].sum(axis=1)
    for scheme in (FullPNR(), BinaryFock(1), SequentialS0(1)):
        f = prep.fisher(scheme, grid, t)
        assert np.all(f <= bound * (1.0 + 1e-12) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(case=probes(), grid=grids, t=times)
def test_grid_call_equals_one_point_calls(case, grid, t):
    kind, probe = case
    prep = PreparedProbe(probe, kind)
    for scheme in (FullPNR(), SequentialS0(1)):
        batched = prep.fisher(scheme, grid, t)
        single = np.array([prep.fisher(scheme, np.array([th]), t)[0] for th in grid])
        np.testing.assert_allclose(batched, single, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("scheme", [FullPNR(), SequentialS0(180), BinaryFock(180)])
def test_deep_ladder_grid_spans_blocks(scheme):
    # Q_b = Q_c = 400: one ladder of 401 rungs, several blocks per grid
    prep = PreparedProbe(PureFock((180, 220, 220)), I)
    ((spectrum, _, _, _),) = prep.plan
    assert spectrum.eigenvalues.shape == (1, 401)
    grid = np.linspace(0.0, 0.02, 97)
    assert len(grid) > 3 * prep.block_rows
    batched = prep.fisher(scheme, grid, 1.0)
    single = np.array([prep.fisher(scheme, np.array([th]), 1.0)[0] for th in grid])
    np.testing.assert_allclose(batched, single, rtol=1e-12, atol=0)
    assert batched[0] == pytest.approx(
        fisher_limit_closed_form(PureFock((180, 220, 220)), I), rel=1e-9
    )
