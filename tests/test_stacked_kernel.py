"""The stacked kernel against the per-ladder loop of tests/oracles.py.

Ladders of one dimension go through one build, one SVD of their
distinct generators and one evolution per slice of a stack, the ladders
of one generator as its rows; the oracle walks its own ladders rung
by rung, diagonalizes and evolves every ladder on its own and adds its
populations one ladder at a time.  Both must give the same P, P', S
and Fisher information, for every probe family, both interactions, and
grids and block budgets that cut the stacks and the coupling grid into
several blocks.  ``PreparedProbe`` must also give bit for bit what
oracles.SlicedReference gives, which re-derives every probe-fixed array
on every call.
"""
import math

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
    decompose,
    dynamics,
    metrology,
)

from oracles import (
    SlicedReference,
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
# P'^2/P and 2 S on the last bit of P (see CHANGES.md)
noise = st.one_of(st.just(0.0), st.floats(1e-3, 0.25))


@st.composite
def cases(draw, families=("fock", "noisy", "shared", "coherent")):
    """A probe of one of ``families`` with its interaction and a readout.
    A "shared" probe is noisy on every mode with at least one quantum in
    each, so that neighbouring occupations meet on one root and share a
    generator (kind II needs n_b' >= 1 for that: (n_a' + 1, n_b' - 1) and
    (n_a', n_b' + 1) share Q + 1); coherent kind I pairs (0, Q_b, Q_c)
    with (0, Q_c, Q_b)."""
    kind = draw(st.sampled_from([I, II]))
    family = draw(st.sampled_from(families))
    if family == "fock":
        probe = PureFock(tuple(draw(st.integers(0, 6)) for _ in range(kind.n_modes)))
    elif family == "noisy":
        occs = tuple(draw(st.integers(0, 4)) for _ in range(kind.n_modes))
        eps = tuple(draw(noise) for _ in range(kind.n_modes))
        probe = NoisyFock(occs, eps)
    elif family == "shared":
        occs = tuple(draw(st.integers(1, 4)) for _ in range(kind.n_modes))
        probe = NoisyFock(occs, tuple(draw(st.floats(1e-3, 0.25)) for _ in occs))
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
    # in floats: an element holds 2 per row, 2 in a Fock stack and 4 in a coherent one
    block=st.sampled_from([4, 96, 800, metrology.BLOCK_FLOATS]),
)
def test_stacked_kernel_matches_per_ladder_loop(case, grid, t, block):
    kind, probe, scheme = case
    with pytest.MonkeyPatch.context() as patch:
        # small budgets cut every stack, and the grid, into several blocks
        patch.setattr(metrology, "BLOCK_FLOATS", block)
        prep = PreparedProbe(probe, kind)
        got = prep.distributions(grid, t)
        fisher = prep.fisher(scheme, grid, t)
    for moment, want in zip(got, distributions_per_ladder(probe, kind, grid, t)):
        assert_close(moment, want)
    assert_close(fisher, fisher_per_ladder(probe, kind, scheme, grid, t))


@settings(max_examples=80, deadline=None)
@given(
    case=cases(),
    data=st.data(),
    times=st.tuples(st.floats(0.25, 2.0), st.floats(0.25, 2.0)),
    block=st.sampled_from([4, 96, 800, metrology.BLOCK_FLOATS]),
)
def test_prepared_probe_is_bit_exact_with_the_sliced_reference(case, data, times, block):
    # the plan built once per probe must not change one bit of what the
    # evaluation re-derived on every call gives; one probe alternates
    # between two times, so nothing may be kept that depends on t
    kind, probe, scheme = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrology, "BLOCK_FLOATS", block)
        prep, ref = PreparedProbe(probe, kind), SlicedReference(probe, kind)
        # from one coupling to more than three blocks (at the small budgets)
        size = data.draw(st.integers(1, min(3 * prep.block_rows + 2, 120)), label="size")
        grid = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size)))
        for t in (*times, *times):
            np.testing.assert_array_equal(prep.distributions(grid, t), ref.distributions(grid, t))
            np.testing.assert_array_equal(prep.fisher(scheme, grid, t), ref.fisher(scheme, grid, t))


@settings(max_examples=80, deadline=None)
@given(case=cases(("fock", "noisy")), grid=grids, t=st.floats(0.25, 2.0))
def test_one_row_matches_two_rows(case, grid, t):
    kind, probe, scheme = case
    grid = np.concatenate([[0.0, 1e-300], grid])
    one = PreparedProbe(probe, kind)
    # rows per generator: one per ladder on it, padded to the multiplicity
    shares = [s.multiplicity for s in decompose(probe, kind).components]
    assert [w.rows for _, w, _, _ in one.plan] == shares
    weights = dynamics.spectral_weights
    with pytest.MonkeyPatch.context() as patch:
        # complex initial vectors always take two rows
        patch.setattr(dynamics, "spectral_weights",
                      lambda spec, psi: weights(spec, psi.astype(complex)))
        two = PreparedProbe(probe, kind)
    assert [w.rows for _, w, _, _ in two.plan] == [2 * k for k in shares]
    pairs = [*zip(one.distributions(grid, t), two.distributions(grid, t)),
             (one.fisher(scheme, grid, t), two.fisher(scheme, grid, t))]
    for got, want in pairs:
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("kind", [I, II])
@pytest.mark.parametrize("scheme", [FullPNR(), BinaryFock(2), SequentialS0(2)])
def test_coherent_stacks_over_several_coupling_blocks(kind, scheme):
    # hundreds of sectors; for kind I a few dozen stacks of up to 27
    # ladders, which (0, Q_b, Q_c) and (0, Q_c, Q_b) pair onto up to 15
    # distinct generators, each diagonalized once; for kind II stacks of
    # two ladders on two generators (Q = 2d - 2 and 2d - 1)
    probe = CoherentProduct((1.4, 1.1j, 1.3)[: kind.n_modes])
    prep = PreparedProbe(probe, kind)
    assert max(len(s.weights) for s in decompose(probe, kind).components) == (27 if kind is I else 2)
    assert max(len(spectrum.s) for spectrum, _, _, _ in prep.plan) == (15 if kind is I else 2)
    grid = np.linspace(0.0, 0.5, 3 * prep.block_rows + 7)
    for moment, want in zip(prep.distributions(grid, 1.0),
                            distributions_per_ladder(probe, kind, grid, 1.0)):
        assert_close(moment, want)
    assert_close(prep.fisher(scheme, grid, 1.0), fisher_per_ladder(probe, kind, scheme, grid, 1.0))


@pytest.mark.parametrize("probe, kind, ladders, generators", [
    # the coherent-sectors benchmark probe, |alpha|^2 = 2 per mode (407 to
    # 409 ladders with the phase); a one-rung ladder has no generator
    # elements, and its key pairs (0, Q, 0) with (0, 0, Q) like any other
    (CoherentProduct((math.sqrt(2.0),) * 3), I, 407, 213),
    (CoherentProduct((1.2 + 0.8j, -0.7 + 0.9j, 0.6 - 0.5j)), I, 285, 174),
    # kind II's Q fixes its generator and no two sectors share a Q
    (CoherentProduct((1 + 1j, 2)), II, 37, 37),
    (NoisyFock((3, 2, 2), (0.1,) * 3), I, 27, 12),
    (NoisyFock((1, 1, 1), (0.1,) * 3), I, 27, 12),
], ids=["coherent-sectors", "ci", "coherent-II", "noisy-322", "noisy-111"])
def test_one_svd_per_distinct_generator(probe, kind, ladders, generators):
    stacks = decompose(probe, kind).components
    assert sum(len(s.weights) for s in stacks) == ladders
    # generators from the roots alone: kind I's unordered (Q_b, Q_c), kind II's Q
    assert len({tuple(sorted(r[1:])) for s in stacks for r in s.roots.tolist()}) == generators
    sizes = []
    diagonalize = dynamics.diagonalize

    def record(offdiag):
        sizes.append(len(offdiag))
        return diagonalize(offdiag)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "diagonalize", record)
        prep = PreparedProbe(probe, kind)
    assert sum(sizes) == sum(len(spectrum.s) for spectrum, _, _, _ in prep.plan) == generators


def test_noisy_components_on_one_root_share_a_generator():
    # (0, 2, 2), (1, 1, 1) and (2, 0, 0) lie on the one ladder rooted at
    # (0, 2, 2): one generator, three rows, which start on rungs 0, 1, 2
    (stack,) = [s for s in decompose(NoisyFock((1, 1, 1), (0.1,) * 3), I).components
                if [0, 2, 2] in s.roots.tolist()]
    on = np.flatnonzero((stack.roots == [0, 2, 2]).all(axis=1))
    assert len(set(stack.generator[on].tolist())) == 1
    assert stack.slot[on].tolist() == [0, 1, 2]
    assert [int(np.flatnonzero(psi)[0]) for psi in stack.amplitudes[on]] == [0, 1, 2]


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


@pytest.mark.parametrize("probe, kind, steps, block_rows, slices", [
    # one d = 401 ladder: 30 couplings per block, one ladder per slice
    (PureFock((200, 200, 200)), I, 101, 30, {30: (1,), 11: (1,)}),
    # stacks of d = 4 ... 8 on 3, 3, 3, 2 and 1 generators; the d = 5 and 6
    # stacks have four ladders on one generator, so 2 * 4 * 6 floats a
    # coupling set the block
    (NoisyFock((3, 2, 2), (0.1,) * 3), I, 2000, 512,
     {512: (3, 1, 1, 1, 1), 464: (3, 1, 1, 1, 1)}),
    # stacks of d = 1 ... 11, two rows per ladder and two ladders per
    # generator, so 2 * 4 * 11 floats a coupling set the block
    (CoherentProduct((0.8, 0.7j, 0.6)), I, 1000, 279,
     {279: (10, 5, 3, 2, 2, 1, 1, 1, 1, 1, 1), 163: (10, 9, 6, 4, 3, 3, 2, 2, 2, 1, 1)}),
], ids=["fock", "noisy", "coherent"])
def test_blocks_and_slices_are_pinned(probe, kind, steps, block_rows, slices):
    # couplings per fisher block, and for each block size the distinct
    # generators per evolved slice of each stack, in ascending d
    prep = PreparedProbe(probe, kind)
    assert prep.block_rows == block_rows
    calls = []
    evolve = dynamics.evolve_vector

    def record(spec, weights, couplings, time):
        calls.append((len(couplings), len(spec.eigenvalues[0]), len(spec.s)))
        return evolve(spec, weights, couplings, time)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "evolve_vector", record)
        prep.fisher(FullPNR(), np.linspace(0.0, 0.5, steps), 1.0)
    longest = {}
    for g, d, m in calls:
        longest[g, d] = max(m, longest.get((g, d), 0))
    dims = sorted(d for _, _, d, _ in prep.plan)
    assert longest == {
        (g, d): m for g, row in slices.items() for d, m in zip(dims, row, strict=True)
    }
