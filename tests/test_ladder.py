import math

import numpy as np
import pytest

from tsense import (
    ConfigurationError,
    FockConfig,
    InteractionKind,
    PureFock,
    ResourceError,
    decompose,
)
from tsense.ladder import MAX_RUNGS

from oracles import reachable_block, tridiagonal

I, II = InteractionKind.I, InteractionKind.II


def fock_ladder(kind, occupations):
    """Rung occupations, generator elements and root rung of the ladder
    through a Fock state, read from its stack of one."""
    (stack,) = decompose(PureFock(occupations), kind).components
    (root,) = np.flatnonzero(stack.amplitudes[0])
    return stack.basis[0], stack.offdiag[0], int(root)


def occs(basis):
    return [tuple(row) for row in basis.tolist()]


def test_three_mode_example():
    basis, offdiag, root = fock_ladder(I, (1, 1, 1))
    assert occs(basis) == [(0, 2, 2), (1, 1, 1), (2, 0, 0)]
    assert len(basis) == 3
    assert root == 1
    np.testing.assert_allclose(offdiag, [2.0, math.sqrt(2)], rtol=0, atol=1e-15)


def test_inert_ladder_when_one_absorbed_mode_empty():
    basis, offdiag, _ = fock_ladder(I, (0, 0, 5))
    assert occs(basis) == [(0, 0, 5)]
    assert len(basis) == 1
    assert offdiag.size == 0


def test_two_mode_example():
    basis, offdiag, root = fock_ladder(II, (1, 3))
    assert occs(basis) == [(0, 5), (1, 3), (2, 1)]
    assert len(basis) == 3
    assert root == 1
    np.testing.assert_allclose(
        offdiag, [math.sqrt(20), math.sqrt(12)], rtol=0, atol=1e-14
    )


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        fock_ladder(I, (1, 1))
    with pytest.raises(ConfigurationError):
        fock_ladder(II, (1, 1, 1))
    with pytest.raises(ConfigurationError):
        FockConfig((1, -1, 0))
    with pytest.raises(ConfigurationError):
        FockConfig((0, 2**61, 0))


def test_oversized_ladders_are_refused_before_allocation():
    # the closed-form rung count decides; none of these ladders is built
    for kind, occupations in [
        (I, (2, 3_000_000_000, 3_000_000_000)),
        (I, (MAX_RUNGS, 0, 0)),
        (I, (0, 2**60, 2**60)),
        (II, (0, 2 * MAX_RUNGS)),
        (II, (2**60, 0)),
    ]:
        with pytest.raises(ResourceError, match="rungs"):
            decompose(PureFock(occupations), kind)
    # the largest ladders still allowed: building one holds only its
    # d-element generator and initial-vector rows
    assert len(fock_ladder(I, (MAX_RUNGS - 1, 0, 0))[0]) == MAX_RUNGS
    assert len(fock_ladder(II, (0, 2 * MAX_RUNGS - 1))[0]) == MAX_RUNGS
    # above every ladder the goldens and the benchmark build (d = 401)
    assert MAX_RUNGS > 401


def test_charge_conservation():
    for root in [(3, 1, 4), (0, 2, 2), (5, 5, 1), (2, 0, 7)]:
        basis, _, _ = fock_ladder(I, root)
        qb = root[0] + root[1]
        qc = root[0] + root[2]
        for cfg in basis:
            assert cfg[0] + cfg[1] == qb
            assert cfg[0] + cfg[2] == qc
    for root in [(2, 5), (0, 9), (4, 0)]:
        basis, _, _ = fock_ladder(II, root)
        q = 2 * root[0] + root[1]
        for cfg in basis:
            assert 2 * cfg[0] + cfg[1] == q


def test_dimension_formula_exhaustive():
    for na in range(31):
        for nb in range(31):
            for nc in range(31):
                (stack,) = decompose(PureFock((na, nb, nc)), I).components
                assert stack.d == na + min(nb, nc) + 1
    for na in range(31):
        for nb in range(31):
            (stack,) = decompose(PureFock((na, nb)), II).components
            assert stack.d == na + nb // 2 + 1


def test_positive_offdiagonal_and_monotone_measured_occupation():
    for root in [(3, 2, 5), (1, 1, 1), (0, 4, 4), (6, 3, 3)]:
        basis, offdiag, _ = fock_ladder(I, root)
        assert np.all(offdiag > 0)
        measured = [cfg[0] for cfg in basis]
        assert measured == list(range(len(basis)))


def test_b_c_swap_symmetry():
    for na, nb, nc in [(2, 1, 4), (0, 3, 5), (3, 2, 2), (1, 0, 6)]:
        _, offdiag, root = fock_ladder(I, (na, nb, nc))
        _, swapped, swapped_root = fock_ladder(I, (na, nc, nb))
        np.testing.assert_array_equal(offdiag, swapped)
        assert root == swapped_root


def test_rungs_differ_by_one_generator_application():
    basis, _, _ = fock_ladder(I, (2, 3, 1))
    for lo, hi in zip(basis, basis[1:]):
        assert hi[0] - lo[0] == 1
        assert lo[1] - hi[1] == 1
        assert lo[2] - hi[2] == 1
    basis, _, _ = fock_ladder(II, (1, 4))
    for lo, hi in zip(basis, basis[1:]):
        assert hi[0] - lo[0] == 1
        assert lo[1] - hi[1] == 2


@pytest.mark.parametrize("kind", [I, II])
def test_dense_block_oracle_small_occupations(kind):
    """Ladder equals the brute-force reachable block of the dense generator."""
    rng = range(5)
    roots = (
        [(a, b, c) for a in rng for b in rng for c in rng]
        if kind is I
        else [(a, b) for a in rng for b in rng]
    )
    for root in roots:
        basis, offdiag, _ = fock_ladder(kind, root)
        states, block = reachable_block(kind, root)
        assert states == occs(basis)
        np.testing.assert_allclose(block, tridiagonal(offdiag), rtol=0, atol=1e-12)
