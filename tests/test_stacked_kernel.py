"""The stacked kernel against the per-ladder loop of tests/oracles.py.

Ladders of one dimension go through one build, one SVD and one
evolution per slice of a stack; the oracle walks its own ladders rung
by rung, diagonalizes and evolves every ladder on its own and adds its
populations one ladder at a time.  Both must give the same P, P', P''
and Fisher information, for every probe family, both interactions, and
grids and block budgets that cut the stacks and the coupling grid into
several blocks.
"""
import numpy as np
import pytest
from hypothesis import given, settings
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
    metrology,
)

from oracles import (
    _probe_ladders,
    compositions,
    distributions_per_ladder,
    fisher_per_ladder,
    reachable_block,
    tridiagonal,
)

I, II = InteractionKind.I, InteractionKind.II
RTOL = 1e-12


# noise of 0, or large enough that no population sits at the 1e-14
# structural-zero floor, where the Fisher term of an outcome jumps between
# P'^2/P and 2 P'' on the last bit of P (see CHANGES.md)
noise = st.one_of(st.just(0.0), st.floats(1e-3, 0.25))


@st.composite
def cases(draw):
    """A probe with its interaction and a readout."""
    kind = draw(st.sampled_from([I, II]))
    family = draw(st.sampled_from(["fock", "noisy", "coherent"]))
    if family == "fock":
        probe = PureFock(tuple(draw(st.integers(0, 6)) for _ in range(kind.n_modes)))
    elif family == "noisy":
        occs = tuple(draw(st.integers(0, 4)) for _ in range(kind.n_modes))
        eps = tuple(draw(noise) for _ in range(kind.n_modes))
        probe = NoisyFock(occs, eps)
    else:
        parts = st.floats(-1.3, 1.3, allow_nan=False)
        probe = CoherentProduct(
            tuple(complex(draw(parts), draw(parts)) for _ in range(kind.n_modes))
        )
    n = draw(st.integers(0, 4))
    scheme = draw(st.sampled_from([FullPNR(), BinaryFock(n), SequentialS0(n)]))
    return kind, probe, scheme


# couplings of 0, where F is its analytic limit, or of at least 1e-2 in
# magnitude.  In between, a first neighbour's P grows like theta^2 from
# amplitudes that cancel down to rounding, so its P'^2/P is fixed by that
# rounding in both kernels (see CHANGES.md) and cannot agree to RTOL.
couplings = st.one_of(
    st.just(0.0), st.floats(1e-2, 2.0), st.floats(1e-2, 2.0).map(lambda x: -x)
)
grids = st.lists(couplings, min_size=1, max_size=40).map(np.array)


def assert_close(got, want):
    """Agreement to RTOL relative to the largest magnitude of ``want``, or
    to RTOL absolute where that is below 1: values that vanish on the
    whole grid agree down to rounding, not to a fraction of themselves."""
    assert got.shape == want.shape
    scale = max(1.0, np.abs(want).max(initial=0.0))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=80, deadline=None)
@given(
    case=cases(),
    grid=grids,
    t=st.floats(0.25, 2.0),
    block=st.sampled_from([1, 24, 200, metrology.BLOCK_ELEMENTS]),
)
def test_stacked_kernel_matches_per_ladder_loop(case, grid, t, block):
    kind, probe, scheme = case
    with pytest.MonkeyPatch.context() as patch:
        # small budgets cut every stack, and the grid, into several blocks
        patch.setattr(metrology, "BLOCK_ELEMENTS", block)
        prep = PreparedProbe(probe, kind)
        got = prep.distributions(grid, t)
        fisher = prep.fisher(scheme, grid, t)
    for moment, want in zip(got, distributions_per_ladder(probe, kind, grid, t)):
        assert_close(moment, want)
    assert_close(fisher, fisher_per_ladder(probe, kind, scheme, grid, t))


@pytest.mark.parametrize("kind", [I, II])
@pytest.mark.parametrize("scheme", [FullPNR(), BinaryFock(2), SequentialS0(2)])
def test_coherent_stacks_over_several_coupling_blocks(kind, scheme):
    # hundreds of sectors; for kind I a few dozen stacks of up to 27
    # ladders, for kind II stacks of two (Q = 2d - 2 and 2d - 1)
    probe = CoherentProduct((1.4, 1.1j, 1.3)[: kind.n_modes])
    prep = PreparedProbe(probe, kind)
    assert max(len(w) for w in prep.spectral_weights) == (27 if kind is I else 2)
    grid = np.linspace(0.0, 0.5, 3 * prep.block_rows + 7)
    for moment, want in zip(prep.distributions(grid, 1.0),
                            distributions_per_ladder(probe, kind, grid, 1.0)):
        assert_close(moment, want)
    assert_close(prep.fisher(scheme, grid, 1.0), fisher_per_ladder(probe, kind, scheme, grid, 1.0))


@pytest.mark.parametrize("kind", [I, II])
def test_oracle_ladders_are_the_dense_reachable_blocks(kind):
    # the reference ladders share no code with the package's builder: each
    # must be the block of the dense tensor-space generator that a graph
    # search reaches from its Fock state, which it starts on
    for root in (o for total in range(7) for o in compositions(kind, total)):
        ((weight, rungs, offdiag, psi),) = _probe_ladders(PureFock(root), kind)
        states, block = reachable_block(kind, root)
        assert [tuple(r) for r in rungs.tolist()] == states
        np.testing.assert_allclose(tridiagonal(offdiag), block, rtol=0, atol=1e-12)
        start = np.zeros(len(states))
        start[states.index(root)] = 1.0
        assert weight == 1.0
        np.testing.assert_array_equal(psi, start)
