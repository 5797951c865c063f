import math

import numpy as np
import pytest

from tsense import ConfigurationError, FockConfig, InteractionKind, ResourceError, build_ladder
from tsense.ladder import MAX_RUNGS

from oracles import reachable_block

I, II = InteractionKind.I, InteractionKind.II


def occs(ladder):
    return [tuple(row) for row in ladder.basis.tolist()]


def test_three_mode_example():
    lad = build_ladder(I, FockConfig((1, 1, 1)))
    assert occs(lad) == [(0, 2, 2), (1, 1, 1), (2, 0, 0)]
    assert lad.d == 3
    assert lad.root_index == 1
    np.testing.assert_allclose(lad.offdiag, [2.0, math.sqrt(2)], rtol=0, atol=1e-15)


def test_inert_ladder_when_one_absorbed_mode_empty():
    lad = build_ladder(I, FockConfig((0, 0, 5)))
    assert occs(lad) == [(0, 0, 5)]
    assert lad.d == 1
    assert lad.offdiag.size == 0


def test_two_mode_example():
    lad = build_ladder(II, FockConfig((1, 3)))
    assert occs(lad) == [(0, 5), (1, 3), (2, 1)]
    assert lad.d == 3
    assert lad.root_index == 1
    np.testing.assert_allclose(
        lad.offdiag, [math.sqrt(20), math.sqrt(12)], rtol=0, atol=1e-14
    )


def test_invalid_inputs():
    with pytest.raises(ConfigurationError):
        build_ladder(I, FockConfig((1, 1)))
    with pytest.raises(ConfigurationError):
        build_ladder(II, FockConfig((1, 1, 1)))
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
            build_ladder(kind, FockConfig(occupations))
    # the largest ladders still allowed: building one holds only its d x modes table
    assert build_ladder(I, FockConfig((MAX_RUNGS - 1, 0, 0))).d == MAX_RUNGS
    assert build_ladder(II, FockConfig((0, 2 * MAX_RUNGS - 1))).d == MAX_RUNGS
    # above every ladder the goldens and the benchmark build (d = 401)
    assert MAX_RUNGS > 401


def test_charge_conservation():
    for root in [(3, 1, 4), (0, 2, 2), (5, 5, 1), (2, 0, 7)]:
        lad = build_ladder(I, FockConfig(root))
        qb = root[0] + root[1]
        qc = root[0] + root[2]
        for cfg in lad.basis:
            assert cfg[0] + cfg[1] == qb
            assert cfg[0] + cfg[2] == qc
    for root in [(2, 5), (0, 9), (4, 0)]:
        lad = build_ladder(II, FockConfig(root))
        q = 2 * root[0] + root[1]
        for cfg in lad.basis:
            assert 2 * cfg[0] + cfg[1] == q


def test_dimension_formula_exhaustive():
    for na in range(31):
        for nb in range(31):
            for nc in range(31):
                lad = build_ladder(I, FockConfig((na, nb, nc)))
                assert lad.d == na + min(nb, nc) + 1
    for na in range(31):
        for nb in range(31):
            lad = build_ladder(II, FockConfig((na, nb)))
            assert lad.d == na + nb // 2 + 1


def test_positive_offdiagonal_and_monotone_measured_occupation():
    for root in [(3, 2, 5), (1, 1, 1), (0, 4, 4), (6, 3, 3)]:
        lad = build_ladder(I, FockConfig(root))
        assert np.all(lad.offdiag > 0)
        measured = [cfg[0] for cfg in lad.basis]
        assert measured == list(range(lad.d))


def test_b_c_swap_symmetry():
    for na, nb, nc in [(2, 1, 4), (0, 3, 5), (3, 2, 2), (1, 0, 6)]:
        lad = build_ladder(I, FockConfig((na, nb, nc)))
        swapped = build_ladder(I, FockConfig((na, nc, nb)))
        np.testing.assert_array_equal(lad.offdiag, swapped.offdiag)
        assert lad.root_index == swapped.root_index


def test_rungs_differ_by_one_generator_application():
    lad = build_ladder(I, FockConfig((2, 3, 1)))
    for lo, hi in zip(lad.basis, lad.basis[1:]):
        assert hi[0] - lo[0] == 1
        assert lo[1] - hi[1] == 1
        assert lo[2] - hi[2] == 1
    lad = build_ladder(II, FockConfig((1, 4)))
    for lo, hi in zip(lad.basis, lad.basis[1:]):
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
        lad = build_ladder(kind, FockConfig(root))
        states, block = reachable_block(kind, root)
        assert states == occs(lad)
        np.testing.assert_allclose(block, lad.matrix(), rtol=0, atol=1e-12)


def test_ladder_arrays_are_immutable():
    lad = build_ladder(I, FockConfig((1, 1, 1)))
    with pytest.raises(ValueError):
        lad.offdiag[0] = 0.0
    with pytest.raises(ValueError):
        lad.basis[0, 0] = 5
