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
    mean_occupations,
)

from oracles import coherent_sectors_heap

I, II = InteractionKind.I, InteractionKind.II


def test_pure_fock_single_component():
    comps = decompose(PureFock((2, 1, 1)), I).components
    assert len(comps) == 1
    assert comps[0].weight == 1.0
    assert tuple(comps[0].ladder.basis[comps[0].ladder.root_index].tolist()) == (2, 1, 1)
    psi = comps[0].amplitudes
    assert psi[comps[0].ladder.root_index] == 1.0
    assert np.count_nonzero(psi) == 1


def test_noisy_product_mixture():
    comps = decompose(NoisyFock((1, 1, 1), (0.05, 0.05, 0.05)), I).components
    assert len(comps) == 27
    weights = {
        tuple(c.ladder.basis[c.ladder.root_index].tolist()): c.weight
        for c in comps
    }
    assert weights[(1, 1, 1)] == pytest.approx(0.9**3, abs=1e-15)
    assert weights[(0, 2, 1)] == pytest.approx(0.05 * 0.05 * 0.9, abs=1e-15)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


def test_noisy_zero_occupation_reassigns_lower_neighbor():
    comps = decompose(NoisyFock((0, 1), (0.1, 0.0)), II).components
    weights = {
        tuple(c.ladder.basis[c.ladder.root_index].tolist()): c.weight
        for c in comps
    }
    assert set(weights) == {(0, 1), (1, 1)}
    assert weights[(0, 1)] == pytest.approx(0.8)
    assert weights[(1, 1)] == pytest.approx(0.2)


def test_zero_noise_reduces_to_pure():
    pure = decompose(PureFock((2, 3)), II).components
    noisy = decompose(NoisyFock((2, 3), (0.0, 0.0)), II).components
    assert len(noisy) == len(pure) == 1
    assert noisy[0].weight == pure[0].weight == 1.0
    assert noisy[0].ladder.basis.tolist() == pure[0].ladder.basis.tolist()
    np.testing.assert_array_equal(noisy[0].amplitudes, pure[0].amplitudes)


def test_noise_bounds_validated():
    with pytest.raises(ConfigurationError):
        NoisyFock((1, 1), (0.3, 0.1))
    with pytest.raises(ConfigurationError):
        NoisyFock((1, 1), (0.1,))
    with pytest.raises(ConfigurationError):
        decompose(NoisyFock((1, 1, 1), (0.1, 0.1, 0.1)), II)


def test_coherent_cutoff_and_unit_norm_components():
    probe = CoherentProduct((math.sqrt(2),) * 3, cutoff_mass=1 - 1e-8)
    parts = decompose(probe, I)
    assert parts.total_weight == pytest.approx(1.0, abs=1e-12)
    for comp in parts.components:
        assert np.vdot(comp.amplitudes, comp.amplitudes).real == pytest.approx(
            1.0, abs=1e-12
        )


def test_coherent_mean_occupation_matches_alpha():
    probe = CoherentProduct((math.sqrt(2),) * 3, cutoff_mass=1 - 1e-8)
    mean = mean_occupations(decompose(probe, I))
    np.testing.assert_allclose(mean, [2.0, 2.0, 2.0], rtol=1e-2)
    probe = CoherentProduct((math.sqrt(2), 1j * math.sqrt(3)), cutoff_mass=1 - 1e-8)
    mean = mean_occupations(decompose(probe, II))
    np.testing.assert_allclose(mean, [2.0, 3.0], rtol=1e-2)


def test_coherent_vacuum_is_trivial():
    parts = decompose(CoherentProduct((0.0, 0.0)), II).components
    assert len(parts) == 1
    assert parts[0].ladder.d == 1
    assert parts[0].weight == 1.0


def test_coherent_resource_cap():
    with pytest.raises(ResourceError):
        decompose(CoherentProduct((100.0, 100.0, 100.0)), I)


def test_coherent_validation():
    with pytest.raises(ConfigurationError):
        CoherentProduct((1.0, 1.0), cutoff_mass=1.0)
    with pytest.raises(ConfigurationError):
        decompose(CoherentProduct((1.0, 1.0)), I)


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
        got = decompose(CoherentProduct(alphas, cutoff_mass=cutoff), kind).components
        want = coherent_sectors_heap(alphas, cutoff, kind)
        assert [tuple(c.ladder.basis[0].tolist()) for c in got] == [
            root for root, _, _ in want
        ], alphas
        for comp, (_, weight, psi) in zip(got, want):
            assert comp.weight == pytest.approx(weight, rel=1e-13, abs=0)
            np.testing.assert_allclose(comp.amplitudes, psi, rtol=0, atol=1e-15)
