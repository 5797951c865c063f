import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsense import (
    CoherentProduct,
    InteractionKind,
    NoisyFock,
    PreparedProbe,
    PureFock,
    decompose,
    diagonalize,
    evolve_vector,
    spectral_weights,
)
from tsense.ladder import ladder_basis

from oracles import (
    central_diff,
    evolved_amplitudes_taylor,
    expm_taylor,
    second_diff_5,
    tridiagonal,
    ungauged,
)

I, II = InteractionKind.I, InteractionKind.II


def fock_stack(kind, root):
    """The stack of one that holds the ladder of the Fock state ``root``."""
    (stack,) = decompose(PureFock(root), kind).components
    return stack


def spectrum_of(kind, root):
    """The ladder of the Fock state ``root`` as a stack of one, and the
    spectrum of its generator."""
    stack = fock_stack(kind, root)
    return stack, diagonalize(stack.offdiag[0])


def eigenvectors(spec):
    """The d x d eigenvector matrix of one ladder, assembled from its SVD
    factors with columns in the order of ``spec.eigenvalues``: (u_k, -v_k)
    over the even and odd rungs for -s_k, the null vector (u0, 0) when d
    is odd, then (u_k, v_k) for s_k in reverse, each pair scaled by
    1/sqrt(2)."""
    n, u, v = len(spec.s), spec.u, spec.v
    d = len(u) + n
    vec = np.zeros((d, d))
    vec[0::2, :n] = u[:, :n]
    vec[1::2, :n] = -v
    vec[0::2, d - n :] = u[:, :n][:, ::-1]
    vec[1::2, d - n :] = v[:, ::-1]
    vec *= math.sqrt(0.5)
    if d % 2:
        vec[0::2, n] = u[:, n]
    return vec


def root_rung(stack):
    """The rung a Fock stack of one starts on."""
    (k,) = np.flatnonzero(stack.amplitudes[0])
    return int(k)


def evolve_root(stack, spec, couplings, time=1.0, dtype=float):
    """Amplitudes c, c' evolved from the ladder's root rung.

    Each is a (G x d) array, one row per coupling, rebuilt from the rung
    gauge's rows: one row for the stack's real amplitudes, two with
    ``dtype=complex``.
    """
    weights = spectral_weights(spec, stack.amplitudes[0].astype(dtype))
    gauged = evolve_vector(spec, weights, np.asarray(couplings, dtype=float), time)
    return np.stack([ungauged(rows, root_rung(stack)) for rows in gauged])


def test_trivial_spectrum():
    stack, spec = spectrum_of(I, (1, 0, 0))
    assert stack.d == 2  # (0,1,1) and (1,0,0)
    stack, spec = spectrum_of(I, (0, 3, 0))
    assert stack.d == 1
    np.testing.assert_allclose(spec.eigenvalues, [0.0])
    np.testing.assert_allclose(spec.u, [[1.0]])
    assert spec.s.shape == (0,) and spec.v.shape == (0, 0)


def test_spectrum_examples():
    _, spec = spectrum_of(I, (1, 1, 1))
    np.testing.assert_allclose(
        spec.eigenvalues, [-math.sqrt(6), 0.0, math.sqrt(6)], atol=1e-12
    )
    _, spec = spectrum_of(II, (0, 2))
    np.testing.assert_allclose(
        spec.eigenvalues, [-math.sqrt(2), math.sqrt(2)], atol=1e-12
    )


@pytest.mark.parametrize(
    "kind,root",
    [
        (I, (2, 3, 1)), (I, (4, 4, 4)), (II, (3, 5)), (II, (0, 9)), (I, (1, 0, 5)),
        # d = 2, 3, 4
        (I, (1, 0, 0)), (I, (2, 0, 0)), (II, (3, 0)),
        # the benchmark's deep ladders: d = 401 and d = 301
        (I, (200, 200, 200)), (II, (130, 340)),
    ],
)
def test_spectrum_invariants(kind, root):
    stack, spec = spectrum_of(kind, root)
    v, lam = eigenvectors(spec), spec.eigenvalues
    g = tridiagonal(stack.offdiag[0])
    dense = np.linalg.eigh(g)[0]
    norm = np.abs(dense).max()
    np.testing.assert_allclose(lam, dense, rtol=0, atol=1e-13 * norm)
    np.testing.assert_allclose(v @ np.diag(lam) @ v.T, g, rtol=0, atol=1e-10)
    np.testing.assert_allclose(v.T @ v, np.eye(stack.d), rtol=0, atol=1e-10)
    assert np.all(np.diff(lam) >= -1e-12)
    # chain with zero diagonal: eigenvalues come in +/- pairs
    np.testing.assert_allclose(lam, -lam[::-1], rtol=0, atol=1e-10)
    assert np.array_equal(lam, -lam[::-1])
    if stack.d % 2:
        # the null vector lives on the even rungs alone
        null = stack.d // 2
        assert lam[null] == 0.0
        assert np.all(v[1::2, null] == 0.0)


@pytest.mark.parametrize("kind", [I, II])
def test_factors_are_the_svd_of_the_even_odd_block(kind):
    for d in range(1, 42):
        root = (0, d - 1, d + 4) if kind is I else (0, 2 * d - 2 + d % 2)
        stack, spec = spectrum_of(kind, root)
        g = tridiagonal(stack.offdiag[0])
        b = g[0::2, 1::2]
        n = d // 2
        assert stack.d == d
        assert spec.s.shape == (n,)
        assert spec.u.shape == ((d + 1) // 2,) * 2 and spec.v.shape == (n, n)
        np.testing.assert_allclose(spec.u.T @ spec.u, np.eye(d - n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(spec.v.T @ spec.v, np.eye(n), rtol=0, atol=1e-12)
        norm = np.linalg.norm(g, 2)
        np.testing.assert_allclose(
            spec.u[:, :n] * spec.s @ spec.v.T, b, rtol=0, atol=1e-12 * norm
        )
        assert np.all(np.diff(spec.s) <= 0)
        lam = spec.eigenvalues
        assert lam.shape == (d,)
        # each eigenpair, assembled here from the factors, solves G x = lambda x
        vec = eigenvectors(spec)
        np.testing.assert_allclose(g @ vec, vec * lam, rtol=0, atol=1e-12 * norm)


@pytest.mark.parametrize("kind", [I, II])
def test_spectra_ascend_and_pair_exactly(kind):
    for d in range(1, 65):
        root = (d - 1, 0, 0) if kind is I else (0, 2 * d - 1)
        stack, spec = spectrum_of(kind, root)
        lam = spec.eigenvalues
        assert stack.d == d and spec.u.shape == ((d + 1) // 2,) * 2
        assert spec.v.shape == (d // 2, d // 2)
        assert np.all(np.diff(lam) > 0)
        assert np.array_equal(lam, -lam[::-1])


def test_zero_coupling_is_identity():
    stack, spec = spectrum_of(I, (2, 1, 1))
    c, _ = evolve_root(stack, spec, [0.0])
    expected = np.zeros(stack.d, complex)
    expected[root_rung(stack)] = 1.0
    assert c.shape == (1, stack.d)
    np.testing.assert_allclose(c[0], expected, atol=1e-12)


def test_small_coupling_populations_match_neighbor_rates():
    # leading-order transfer out of (1,1,1): 4 theta^2 down, 2 theta^2 up
    stack, spec = spectrum_of(I, (1, 1, 1))
    th = 1e-3
    c, _ = evolve_root(stack, spec, [th])
    p = np.abs(c[0]) ** 2
    assert p[0] / th**2 == pytest.approx(4.0, abs=1e-4)
    assert p[2] / th**2 == pytest.approx(2.0, abs=1e-4)
    assert p[1] == pytest.approx(1.0 - 6.0 * th**2, abs=1e-9)


@pytest.mark.parametrize("theta_t", [0.1, 0.5, 1.0])
@pytest.mark.parametrize(
    "kind,root", [(I, (1, 1, 1)), (I, (2, 3, 1)), (II, (1, 3)), (II, (2, 2))]
)
def test_amplitudes_match_taylor_exponential(kind, root, theta_t):
    stack, spec = spectrum_of(kind, root)
    c, _ = evolve_root(stack, spec, [theta_t], dtype=complex)
    oracle = evolved_amplitudes_taylor(tridiagonal(stack.offdiag[0]), root_rung(stack), theta_t)
    np.testing.assert_allclose(c[0], oracle, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [I, II])
def test_general_vectors_and_derivatives_match_taylor_exponential(kind):
    rng = np.random.default_rng(11)
    grid = np.array([-0.9, 0.0, 0.35, 1.4])
    time = 0.7
    for d in range(1, 14):
        root = (0, d - 1, d + 1) if kind is I else (0, 2 * d - 1)
        stack, spec = spectrum_of(kind, root)
        g = tridiagonal(stack.offdiag[0])
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        c, dc = map(ungauged, evolve_vector(spec, spectral_weights(spec, psi), grid, time))
        for i, theta in enumerate(grid):
            want = expm_taylor(-1j * theta * time * g) @ psi
            dwant = -1j * time * g @ want
            np.testing.assert_allclose(c[i], want, rtol=0, atol=1e-11)
            np.testing.assert_allclose(dc[i], dwant, rtol=0, atol=1e-10 * max(1.0, len(g)))


@pytest.mark.parametrize(
    "kind,root", [(I, (1, 1, 1)), (I, (2, 3, 1)), (II, (1, 3)), (II, (2, 2))]
)
def test_grid_rows_match_taylor_exponential(kind, root):
    stack, spec = spectrum_of(kind, root)
    grid = np.array([-1.3, 0.0, 0.1, 0.5, 1.0, 2.2])
    c, _ = evolve_root(stack, spec, grid, dtype=complex)
    assert c.shape == (len(grid), stack.d)
    g, k = tridiagonal(stack.offdiag[0]), root_rung(stack)
    for row, theta_t in zip(c, grid):
        oracle = evolved_amplitudes_taylor(g, k, theta_t)
        np.testing.assert_allclose(row, oracle, rtol=0, atol=1e-10)


@pytest.mark.parametrize(
    "kind,root",
    [(I, (1, 1, 1)), (I, (2, 2, 2)), (I, (2, 3, 1)), (I, (5, 2, 4)), (II, (1, 3)), (II, (2, 2))],
)
def test_real_formula_is_the_rung_gauge_of_the_amplitudes(kind, root):
    # the one row of a Fock ladder started on rung r holds
    # c~_k = i^((k mod 2) - (r mod 2)) c_k, and likewise c~'; roots on even
    # and odd rungs, ladders of odd d (with the null column) and of even d
    stack, spec = spectrum_of(kind, root)
    grid = np.array([-1.3, 0.0, 0.1, 0.5, 1.0, 2.2])
    c, dc = evolve_vector(spec, spectral_weights(spec, stack.amplitudes[0]), grid, 1.0)[:, 0]
    assert c.dtype == dc.dtype == float
    g, r = tridiagonal(stack.offdiag[0]), root_rung(stack)
    gauge = 1j ** (np.arange(stack.d) % 2 - r % 2)
    for row, drow, theta_t in zip(c, dc, grid):
        want = evolved_amplitudes_taylor(g, r, theta_t)
        np.testing.assert_allclose(row, gauge * want, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            drow, gauge * (-1j * g @ want), rtol=0, atol=1e-10 * max(1.0, len(g))
        )


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from([I, II]),
    d=st.integers(1, 30),
    complex_psi=st.booleans(),
    theta=st.floats(-1.5, 1.5),
    time=st.floats(0.25, 1.5),
)
def test_two_rows_match_taylor_exponential(data, kind, d, complex_psi, theta, time):
    # complex vectors, and real ones on rungs of both parities, evolve as
    # the two rows of the rung gauge; c and c' are rebuilt from them
    root = (0, d - 1, d + 1) if kind is I else (0, 2 * d - 1)
    stack, spec = spectrum_of(kind, root)
    entries = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    psi = np.array(data.draw(entries))
    if complex_psi or d == 1:
        psi = psi + 1j * np.array(data.draw(entries))
    else:
        psi[:2] = data.draw(st.tuples(st.floats(0.125, 1.0), st.floats(-1.0, -0.125)))
    weights = spectral_weights(spec, psi)
    assert weights.rotating.shape == (2, d // 2, 1) and weights.constant.shape == (2, d % 2, 1)
    c, dc = map(ungauged, evolve_vector(spec, weights, np.array([theta]), time))
    g = tridiagonal(stack.offdiag[0])
    want = expm_taylor(-1j * theta * time * g) @ psi
    scale = max(1.0, np.linalg.norm(psi))
    np.testing.assert_allclose(c[0], want, rtol=0, atol=1e-11 * scale)
    np.testing.assert_allclose(
        dc[0], -1j * time * g @ want, rtol=0, atol=1e-10 * scale * max(1.0, len(g))
    )


def test_single_parity_stacks_take_real_weights():
    for probe, kind in [
        (PureFock((2, 1, 1)), I),
        (PureFock((3, 4)), II),
        (NoisyFock((1, 2), (0.1, 0.05)), II),
        (NoisyFock((3, 2, 2), (0.1,) * 3), I),
    ]:
        prep = PreparedProbe(probe, kind)
        # one real row per ladder, so a generator holds one row per ladder
        # on it, padded to its stack's multiplicity
        stacks = decompose(probe, kind).components
        assert [w.rows for _, w, _, _ in prep.plan] == [s.multiplicity for s in stacks]
    # in the noisy (3, 2, 2) the d = 5 and d = 6 stacks hold ladders that
    # start on rungs of both parities, each ladder on one
    stacks = {s.d: s for s in decompose(NoisyFock((3, 2, 2), (0.1,) * 3), I).components}
    for d in (5, 6):
        starts = [int(k) for (k,) in map(np.flatnonzero, stacks[d].amplitudes)]
        assert {k % 2 for k in starts} == {0, 1}


def test_complex_or_two_parity_vectors_take_two_rows():
    probe = CoherentProduct((1.2, 0.8, 0.6))
    prep = PreparedProbe(probe, I)
    # two per ladder, and one generator holds up to two ladders
    stacks = decompose(probe, I).components
    assert [w.rows for _, w, _, _ in prep.plan] == [2 * s.multiplicity for s in stacks]
    stack, spec = spectrum_of(II, (3, 4))
    assert spectral_weights(spec, stack.amplitudes[0]).rows == 1
    assert spectral_weights(spec, stack.amplitudes[0].astype(complex)).rows == 2
    # real, but on rungs 1 and 2: its phases do not factor out
    psi = np.zeros(stack.d)
    psi[1:3] = 0.6, 0.8
    assert spectral_weights(spec, psi).rows == 2
    # one such vector takes its whole stack to two rows
    spectra = diagonalize(np.stack([stack.offdiag[0]] * 2))
    weights = spectral_weights(spectra, np.stack([stack.amplitudes[0], psi]))
    assert weights.rotating.shape == (2, 2, stack.d // 2, 1)
    # two rows evolve it as a complex vector would
    c, dc = evolve_vector(spec, spectral_weights(spec, psi), np.array([0.3]), 1.0)
    want, dwant = evolve_vector(spec, spectral_weights(spec, psi + 0j), np.array([0.3]), 1.0)
    np.testing.assert_array_equal(c, want)
    np.testing.assert_array_equal(dc, dwant)


def test_outcome_probabilities_at_zero():
    stack = fock_stack(I, (2, 1, 1))
    assert ladder_basis(I, stack.roots, stack.d)[0, :, 0].tolist() == [0, 1, 2, 3]
    probs, dprobs, _ = PreparedProbe(PureFock((2, 1, 1)), I).distributions(
        np.array([0.0]), 1.0
    )
    assert probs.shape == (1, 4)
    assert probs[0, 2] == pytest.approx(1.0, abs=1e-12)
    assert probs[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert dprobs[0, 2] == pytest.approx(0.0, abs=1e-12)


def test_probabilities_sum_to_one():
    prep = PreparedProbe(PureFock((2, 5)), II)
    probs, dprobs, _ = prep.distributions(np.array([0.0, 0.3, 1.7]), 1.0)
    assert probs.shape[0] == 3
    for p, dp in zip(probs, dprobs):
        assert p.sum() == pytest.approx(1.0, abs=1e-10)
        assert dp.sum() == pytest.approx(0.0, abs=1e-9)


def test_evenness_in_coupling():
    stack, spec = spectrum_of(I, (2, 2, 1))
    grid = np.array([0.15, 0.8, 2.0])
    plus = np.abs(evolve_root(stack, spec, grid)[0]) ** 2
    minus = np.abs(evolve_root(stack, spec, -grid)[0]) ** 2
    assert plus.shape == (3, stack.d)
    np.testing.assert_allclose(plus, minus, rtol=0, atol=1e-12)


def test_only_coupling_time_product_matters():
    stack, spec = spectrum_of(II, (1, 4))
    rng = np.random.default_rng(7)
    for _ in range(20):
        th, t, t2 = rng.uniform(0.05, 2.0, size=3)
        p1 = np.abs(evolve_root(stack, spec, [th], t)[0]) ** 2
        p2 = np.abs(evolve_root(stack, spec, [th * t / t2], t2)[0]) ** 2
        np.testing.assert_allclose(p1, p2, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind,root", [(I, (2, 1, 3)), (II, (1, 5))])
def test_analytic_derivatives_match_finite_differences(kind, root):
    stack, spec = spectrum_of(kind, root)
    prep = PreparedProbe(PureFock(root), kind)
    t = 1.0

    def pops(th):
        return np.abs(evolve_root(stack, spec, [th], t)[0, 0]) ** 2

    grid = np.array([0.07, 0.4, 1.1])
    # the occupation of mode a (a') is the rung index, so outcomes align with rungs
    _, dprobs_grid, _ = prep.distributions(grid, t)
    for th, dprobs in zip(grid, dprobs_grid):
        fd1, _ = central_diff(pops, th)
        for k, dp in enumerate(dprobs):
            if abs(dp) > 1e-8:
                assert abs(dp - fd1[k]) / abs(dp) < 1e-5
    # on the rungs empty at theta = 0, S = 2 |c'|^2 is P'' there
    (s_zero,) = prep.distributions(np.array([0.0]), t)[2]
    fd2 = second_diff_5(pops, 0.0)
    empty = np.flatnonzero(stack.amplitudes[0] == 0)
    assert np.count_nonzero(s_zero[empty] > 1e-6) >= 1
    for k in empty:
        if abs(s_zero[k]) > 1e-6:
            assert abs(s_zero[k] - fd2[k]) / abs(s_zero[k]) < 1e-3


@settings(max_examples=150, deadline=None)
@given(
    occ=st.tuples(
        st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)
    ),
    theta_t=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_unitarity_random(occ, theta_t):
    stack, spec = spectrum_of(I, occ)
    c, dc = evolve_root(stack, spec, [theta_t], 1.0)[:, 0]
    assert abs(np.vdot(c, c).real - 1.0) < 1e-10
    # norm preservation differentiates to zero
    assert abs(np.vdot(c, dc).real) < 1e-9


def test_evolve_vector_general_initial_state():
    stack, spec = spectrum_of(II, (1, 2))
    psi = np.array([0.6, 0.8j, 0.0], dtype=complex)[: stack.d]
    psi /= np.linalg.norm(psi)
    c = ungauged(evolve_vector(spec, spectral_weights(spec, psi), np.array([0.4]), 1.0)[0])[0]
    assert abs(np.vdot(c, c).real - 1.0) < 1e-12
    back = ungauged(evolve_vector(spec, spectral_weights(spec, c), np.array([-0.4]), 1.0)[0])[0]
    np.testing.assert_allclose(back, psi, atol=1e-12)


@pytest.mark.parametrize("kind,roots", [
    (I, [(0, 6, 9), (0, 7, 6), (0, 6, 6), (0, 11, 6)]),
    (II, [(0, 12), (0, 13)]),
    # even d
    (I, [(0, 5, 9), (0, 8, 5), (0, 5, 5)]),
    (II, [(0, 10), (0, 11)]),
])
def test_a_stack_is_its_ladders_side_by_side(kind, roots):
    # ladders of one dimension go through one stacked SVD and one stacked
    # product; every ladder comes out bit for bit as its slice does alone
    offdiag = np.concatenate([fock_stack(kind, r).offdiag for r in roots])
    spectra = diagonalize(offdiag)
    rng = np.random.default_rng(3)
    m, d = offdiag.shape[0], offdiag.shape[1] + 1
    psi = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    grid = np.linspace(-0.7, 1.1, 9)
    stacked = evolve_vector(spectra, spectral_weights(spectra, psi), grid, 0.8)
    for i in range(m):
        spec = diagonalize(offdiag[i])
        np.testing.assert_array_equal(spectra.eigenvalues[i], spec.eigenvalues)
        for stacked_factor, factor in zip(spectra, spec):
            np.testing.assert_array_equal(stacked_factor[i], factor)
        single = evolve_vector(spec, spectral_weights(spec, psi[i]), grid, 0.8)
        np.testing.assert_array_equal(stacked[:, i], single)
