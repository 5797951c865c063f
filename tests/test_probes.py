import math

import numpy as np
import pytest

from tsense import (
    CoherentProduct,
    ConfigurationError,
    InteractionKind,
    NoisyFock,
    PureFock,
    ResourceError,
    decompose,
)
from tsense.ladder import ladder_basis, sector_roots
from tsense.probes import _amplitude_table, _unique_rows

from oracles import _probe_ladders, coherent_sectors_heap, fock_ladder

I, II = InteractionKind.I, InteractionKind.II


def ladders(probe, kind):
    """(rung occupations, weight, amplitudes) of every ladder of every
    stack: its rows but the zero rows that pad a generator's."""
    return [
        (basis, weight, psi)
        for stack in decompose(probe, kind).components
        for basis, weight, psi in zip(
            ladder_basis(kind, stack.roots, stack.d), stack.weights, stack.amplitudes,
            strict=True,
        )
        if psi.any()
    ]


def start_rung(basis, psi):
    """Occupations of the one rung a Fock component starts on."""
    (k,) = np.flatnonzero(psi)
    return tuple(basis[k].tolist())


def test_pure_fock_single_component():
    parts = ladders(PureFock((2, 1, 1)), I)
    assert len(parts) == 1
    basis, weight, psi = parts[0]
    assert weight == 1.0
    # the rung index is the measured occupation, 2
    assert tuple(basis[2].tolist()) == (2, 1, 1)
    assert psi[2] == 1.0
    assert np.count_nonzero(psi) == 1


def test_noisy_product_mixture():
    parts = ladders(NoisyFock((1, 1, 1), (0.05, 0.05, 0.05)), I)
    assert len(parts) == 27
    weights = {start_rung(basis, psi): weight for basis, weight, psi in parts}
    assert weights[(1, 1, 1)] == pytest.approx(0.9**3, abs=1e-15)
    assert weights[(0, 2, 1)] == pytest.approx(0.05 * 0.05 * 0.9, abs=1e-15)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_noisy_zero_occupation_reassigns_lower_neighbor():
    parts = ladders(NoisyFock((0, 1), (0.1, 0.0)), II)
    weights = {start_rung(basis, psi): weight for basis, weight, psi in parts}
    assert set(weights) == {(0, 1), (1, 1)}
    assert weights[(0, 1)] == pytest.approx(0.8)
    assert weights[(1, 1)] == pytest.approx(0.2)


def test_zero_noise_reduces_to_pure():
    pure = ladders(PureFock((2, 3)), II)
    noisy = ladders(NoisyFock((2, 3), (0.0, 0.0)), II)
    assert len(noisy) == len(pure) == 1
    assert noisy[0][1] == pure[0][1] == 1.0
    assert noisy[0][0].tolist() == pure[0][0].tolist()
    np.testing.assert_array_equal(noisy[0][2], pure[0][2])


@pytest.mark.parametrize("kind", [I, II])
def test_stacks_share_dimension_and_measured_occupations(kind):
    probes = [
        CoherentProduct((1.3, 0.9j, 1.1)[: kind.n_modes]),
        NoisyFock((2, 1, 3)[: kind.n_modes], (0.1, 0.05, 0.2)[: kind.n_modes]),
    ]
    for probe in probes:
        stacks = decompose(probe, kind).components
        for stack in stacks:
            m, d = stack.amplitudes.shape
            # one row of elements per distinct generator, K rows for each
            g = len(stack.offdiag)
            assert m == g * stack.multiplicity
            assert stack.offdiag.shape == (g, d - 1) and stack.weights.shape == (m,)
            basis = ladder_basis(kind, stack.roots, d)
            assert basis.shape == (m, d, kind.n_modes)
            # rung k of every ladder carries k quanta of mode a (a')
            assert np.all(basis[:, :, 0] == np.arange(d))
        # one stack per dimension, in ascending order
        dims = [stack.d for stack in stacks]
        assert dims == sorted(set(dims))


@pytest.mark.parametrize("probe, kind, underflow", [
    (NoisyFock((3, 2, 2), (0.1,) * 3), I, False),
    (NoisyFock((2, 3), (0.1, 0.1)), II, False),
    # 0.25 * 1e-323 * 1e-323 is 0.0: a ladder of weight 0, beside pad rows
    (NoisyFock((0, 0, 0), (0.125, 5e-324, 5e-324)), I, True),
    (CoherentProduct((math.sqrt(2),) * 3), I, False),
], ids=["noisy-322", "noisy-II", "underflow", "coherent"])
def test_generators_are_padded_with_zero_rows(probe, kind, underflow):
    got, pads = [], 0
    for stack in decompose(probe, kind).components:
        g, k, d = len(stack.offdiag), stack.multiplicity, stack.d
        rows = zip(stack.offdiag, stack.roots.reshape(g, k, -1), stack.weights.reshape(g, k),
                   stack.amplitudes.reshape(g, k, d), strict=True)
        for offdiag, roots, weights, amplitudes in rows:
            # a generator's ladders first, then zero rows of weight 0
            own = amplitudes.any(axis=1)
            n = int(own.sum())
            assert n >= 1 and own.tolist() == [True] * n + [False] * (k - n)
            assert np.all(amplitudes[n:] == 0) and np.all(weights[n:] == 0.0)
            pads += k - n
            for root, weight, psi in zip(roots[:n], weights[:n], amplitudes[:n]):
                # every ladder of the generator walks to its row of elements
                rungs, elements = fock_ladder(kind, tuple(root.tolist()))
                np.testing.assert_array_equal(elements, offdiag)
                got.append((rungs.tolist(), weight, psi))
    assert pads > 0
    # the ladders are the per-ladder oracle's, listed by rungs and start rung
    want = [(rungs.tolist(), w, psi) for w, rungs, _, psi in _probe_ladders(probe, kind)]
    key = lambda part: (part[0], int(np.abs(part[2]).argmax()))
    got, want = sorted(got, key=key), sorted(want, key=key)
    assert [part[0] for part in got] == [part[0] for part in want]
    assert (min(weight for _, weight, _ in got) == 0.0) == underflow
    for (_, weight, psi), (_, want_weight, want_psi) in zip(got, want, strict=True):
        if isinstance(probe, CoherentProduct):
            assert weight == pytest.approx(want_weight, rel=1e-13, abs=0)
            np.testing.assert_allclose(psi, want_psi, rtol=0, atol=1e-15)
        else:
            assert weight == want_weight
            np.testing.assert_array_equal(psi, want_psi)


def test_noise_bounds_validated():
    with pytest.raises(ConfigurationError):
        NoisyFock((1, 1), (0.3, 0.1))
    with pytest.raises(ConfigurationError):
        NoisyFock((1, 1), (0.1,))
    with pytest.raises(ConfigurationError):
        decompose(NoisyFock((1, 1, 1), (0.1, 0.1, 0.1)), II)


def test_coherent_cutoff_and_unit_norm_components():
    probe = CoherentProduct((math.sqrt(2),) * 3, cutoff_mass=1 - 1e-8)
    total = sum(stack.weights.sum() for stack in decompose(probe, I).components)
    assert total == pytest.approx(1.0, abs=1e-12)
    for _, _, psi in ladders(probe, I):
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)


def test_coherent_mean_occupation_matches_alpha():
    def mean_occupations(probe, kind):
        # each ladder's rung populations |psi_k|^2 times the rungs' occupations
        return sum(
            stack.weights @ np.einsum(
                "ik,ikj->ij",
                np.abs(stack.amplitudes) ** 2,
                ladder_basis(kind, stack.roots, stack.d),
            )
            for stack in decompose(probe, kind).components
        )

    probe = CoherentProduct((math.sqrt(2),) * 3, cutoff_mass=1 - 1e-8)
    np.testing.assert_allclose(mean_occupations(probe, I), [2.0, 2.0, 2.0], rtol=1e-2)
    probe = CoherentProduct((math.sqrt(2), 1j * math.sqrt(3)), cutoff_mass=1 - 1e-8)
    np.testing.assert_allclose(mean_occupations(probe, II), [2.0, 3.0], rtol=1e-2)


@pytest.mark.parametrize("alpha", [3.0, -2.5j, 39.0, 40.0 * np.exp(0.3j)])
def test_coherent_weights_are_poisson_past_the_underflow(alpha):
    # in the kind-I probe (0, alpha, 0) every product state is a one-rung
    # ladder, weighted by its Poisson probability and carrying the phase of
    # alpha^n; exp(-|alpha|^2/2) is 0 in floating point from |alpha|^2 ~ 1490
    mu = abs(alpha) ** 2
    parts = ladders(CoherentProduct((0, alpha, 0)), I)
    n = np.array([basis[0][1] for basis, _, _ in parts])
    weights = np.array([weight for _, weight, _ in parts])
    poisson = np.exp(n * math.log(mu) - mu - np.array([math.lgamma(k + 1) for k in n]))
    np.testing.assert_allclose(weights, poisson / poisson.sum(), rtol=1e-9)
    phases = np.array([psi[0] for _, _, psi in parts])
    np.testing.assert_allclose(phases, np.exp(1j * n * np.angle(alpha)), atol=1e-9)


def test_coherent_vacuum_is_trivial():
    parts = ladders(CoherentProduct((0.0, 0.0)), II)
    assert len(parts) == 1
    basis, weight, _ = parts[0]
    assert len(basis) == 1
    assert weight == 1.0


def test_coherent_resource_cap():
    with pytest.raises(ResourceError):
        decompose(CoherentProduct((100.0, 100.0, 100.0)), I)


@pytest.mark.parametrize(
    "kind, accepted, refused", [(I, 6.5, (6.8, 8.3)), (II, 14.0, (17.0, 35.0))]
)
def test_coherent_probes_are_bounded_by_the_eigenvector_budget(kind, accepted, refused):
    # walking the amplitudes upward, the first limit met is the budget,
    # whose ladders are counted from the box that MAX_ROWS still admits
    assert decompose(CoherentProduct((accepted,) * kind.n_modes), kind).components
    for alpha in refused:
        with pytest.raises(ResourceError, match="eigenvector entries"):
            decompose(CoherentProduct((alpha,) * kind.n_modes), kind)


def test_coherent_validation():
    with pytest.raises(ConfigurationError):
        CoherentProduct((1.0, 1.0), cutoff_mass=1.0)
    with pytest.raises(ConfigurationError):
        decompose(CoherentProduct((1.0, 1.0)), I)


@pytest.mark.parametrize(
    "alpha", [math.nan, complex(1.0, math.nan), math.inf], ids=["nan", "complex-nan", "inf"]
)
def test_non_finite_coherent_amplitudes_are_refused_when_built(alpha):
    with pytest.raises(ConfigurationError, match="must be finite"):
        CoherentProduct((alpha, 1, 1))


@pytest.mark.parametrize(
    "alpha", [1e160, complex(1e308, 1e308), 10**400], ids=["float", "complex", "int"]
)
def test_overflowing_coherent_amplitudes_are_refused_when_built(alpha):
    # |alpha|^2 is past the largest float, so no truncation can close
    with pytest.raises(ResourceError, match="did not close"):
        CoherentProduct((alpha, 1, 1))


def test_a_table_whose_mass_stalls_does_not_close():
    # the squares of the |alpha|^2 = 500 table add up to 1 - 1.4e-14 in
    # floating point (sqrt(500)**2 rounds up by 6e-14, and so shrinks them),
    # short of 1 - 1e-14 / 6: past the peak the running mass stops moving
    probe = CoherentProduct((0, math.sqrt(500), 0), cutoff_mass=1 - 1e-14)
    with pytest.raises(ResourceError, match="coherent truncation did not close"):
        decompose(probe, I)


@pytest.mark.parametrize(
    "build", [PureFock, lambda occs: NoisyFock(occs, (0.1,) * 3)], ids=["pure", "noisy"]
)
@pytest.mark.parametrize(
    "occs, message",
    [
        ((2.5, 1, 1), "must be integers"),
        ((True, 1, 1), "must be integers"),
        ((-1, 1, 1), "must be non-negative"),
        ((2**61, 0, 0), r"must be below 2\*\*61"),
    ],
    ids=["fraction", "bool", "negative", "too-large"],
)
def test_occupations_are_checked_when_the_probe_is_built(build, occs, message):
    with pytest.raises(ConfigurationError, match=message):
        build(occs)


def test_numpy_integer_occupations_become_python_ints():
    probe = PureFock((np.int64(2), 1, 1))
    assert probe == PureFock((2, 1, 1))
    assert all(type(n) is int for n in probe.occupations)
    assert NoisyFock((np.int32(1), 1), (0.1, 0.1)).nominal == (1, 1)


def _coherent_cases(kind, rng, count):
    """All-equal amplitudes, a zero amplitude, and random ones."""
    n = kind.n_modes
    cases = [
        ((math.sqrt(2),) * n, 1 - 1e-8),
        ((1.0,) * n, 1 - 1e-6),
        ((0.0,) + (1.2 - 0.5j,) * (n - 1), 1 - 1e-8),
        ((0.0,) * n, 1 - 1e-8),
    ]
    for _ in range(count):
        mags = np.sqrt(rng.uniform(0.0, 2.5, n))
        phases = rng.uniform(0.0, 2.0 * math.pi, n)
        alphas = tuple(complex(m * math.cos(p), m * math.sin(p)) for m, p in zip(mags, phases))
        cases.append((alphas, 1.0 - 10.0 ** -rng.uniform(3.0, 9.0)))
    return cases


@pytest.mark.parametrize("kind", [I, II])
def test_coherent_sectors_match_heap_search(kind):
    """The sorted cumulative cut keeps the sectors the heap search finds."""
    rng = np.random.default_rng(7 if kind is I else 8)
    for alphas, cutoff in _coherent_cases(kind, rng, 20):
        got = sorted(
            ladders(CoherentProduct(alphas, cutoff_mass=cutoff), kind),
            key=lambda part: part[0][0].tolist(),
        )
        want = coherent_sectors_heap(alphas, cutoff, kind)
        assert [tuple(basis[0].tolist()) for basis, _, _ in got] == [
            root for root, _, _ in want
        ], alphas
        for (_, weight, amplitudes), (_, want_weight, psi) in zip(got, want):
            assert weight == pytest.approx(want_weight, rel=1e-13, abs=0)
            np.testing.assert_allclose(amplitudes, psi, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", [I, II])
def test_unique_roots_are_those_of_numpy_unique(kind):
    rng = np.random.default_rng(5)
    for top in (1, 2, 7, 60):
        occs = rng.integers(0, top + 1, size=(300, kind.n_modes))
        # repeated rows, in a shuffled order
        occs = rng.permutation(np.concatenate([occs, occs[:40], occs[:3]]))
        roots = sector_roots(kind, occs)
        np.testing.assert_array_equal(_unique_rows(roots), np.unique(roots, axis=0))


@pytest.mark.parametrize("mu", [0.0, 2.0, 100.0, 729.0, 1000.0])
def test_poisson_cutoffs_keep_each_modes_share(mu):
    # the amplitude table stops at the first occupation, top, where its own
    # squares reach 1 - share
    cutoff = 1.0 - 1e-8
    share = (1.0 - cutoff) / 2.0
    top = len(_amplitude_table(math.sqrt(mu), share)) - 1
    if mu == 0.0:
        assert top == 0
    else:
        # the tail from n on, summed upward from its first term in log space
        terms = [math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)) for n in range(top + 2000)]
        assert math.fsum(terms[top + 1 :]) <= share < math.fsum(terms[top:])
    # each of three modes of |alpha|^2 = 2
    assert len(_amplitude_table(math.sqrt(2.0), (1.0 - cutoff) / 6.0)) - 1 == 15
