"""Exact ladder dynamics through the SVD of the even-odd block, for stacks.

The evolution operator on a ladder is exp(-i theta t G) with G the real
symmetric tridiagonal generator.  G has a zero diagonal, so it only
couples even rungs to odd ones: with the even rungs listed first it is
[[0, B], [B^T, 0]] with B the bidiagonal ceil(d/2) x floor(d/2) block.
One SVD B = U S V^T (Golub & Kahan, 1965) gives, with x = theta t,

    exp(-i x G) = [[U cos(xS) U^T + u0 u0^T,  -i U sin(xS) V^T],
                   [-i V sin(xS) U^T,          V cos(xS) V^T   ]],

where S acts on the first floor(d/2) columns of U and u0, the last
column of U for odd d (absent for even d), spans the null space of B^T.
The d x d eigenvector matrix of G is never built: U and V hold about
d^2/2 floats per ladder.  Every array may carry leading stack axes, one
entry per ladder of equal d, and a stack goes through one stacked SVD.

With a = U^T psi_even, b = V^T psi_odd, p = (a + b)/2 and q = (a - b)/2
over the paired columns, and E = exp(-i x s), the evolved vector is

    U^T c_even = E p + conj(E) q  (and a0 = u0^T psi_even),
    V^T c_odd  = E p - conj(E) q,

and as dE/dtheta = -i t s E, the theta-derivative of either half is
-i t s times the other half, which gives c' as an exact analytic
expression: Fisher-information limits at theta -> 0 carry no
finite-difference noise.

The rung gauge: multiplying the odd rungs by i (D = diag(i^(k mod 2)))
turns the propagator into the real orthogonal

    D exp(-i x G) D^-1 = [[U C U^T + u0 u0^T,  -U S V^T],
                          [V S U^T,             V C V^T]],

C = cos(xS), S = sin(xS).  A ladder whose initial vector psi is real
and sits on rungs of the parity of r then stays real in the gauged
amplitudes c~_k = i^((k mod 2) - (r mod 2)) c_k, which equal c on the
rungs of that parity and start from c~ = psi.  With alpha = U^T psi_even over the paired columns
(the null entry a0 stays constant) and beta = V^T psi_odd,

    U^T c~_even = Y_E = C alpha - S beta,
    V^T c~_odd  = Y_O = S alpha + C beta,

whose theta-derivatives are -t s Y_O and t s Y_E.  The gauge factor has
modulus 1 and is the same on c and c', so |c~| = |c|, c~ c~' = Re(c* c')
and |c~'| = |c'|: populations, their derivatives and S come out as the
same numbers from half the product columns.  Every Fock and noisy-Fock
stack starts each ladder on one rung, so it evolves this way; coherent
stacks, and any complex initial vector, take the complex formula above.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericError


class Spectrum(NamedTuple):
    """SVD factors B = U S V^T of ladder generators' even-odd blocks: ``s``
    (..., floor(d/2)), descending, ``u`` (..., ceil(d/2), ceil(d/2)) over
    the even rungs and ``v`` (..., floor(d/2), floor(d/2)) over the odd
    rungs.  A tuple, so that a slice of a stack costs little to wrap."""

    s: np.ndarray
    u: np.ndarray
    v: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """The (..., d) eigenvalues of G, ascending: -s, 0 for odd d, s reversed."""
        zero = np.zeros((*self.s.shape[:-1], self.u.shape[-1] - self.s.shape[-1]))
        return np.concatenate([-self.s, zero, self.s[..., ::-1]], axis=-1)


def diagonalize(offdiag: np.ndarray) -> Spectrum:
    """Spectrum of tridiagonal generators through the SVD of B.

    ``offdiag`` is the (..., d-1) array of generator elements between
    rungs k and k+1: one row for a single ladder, one row per ladder for
    a stack.  B is the ceil(d/2) x floor(d/2) block that couples even
    rungs (rows) to odd rungs (columns): B[i, i] = offdiag[2i] and
    B[i+1, i] = offdiag[2i+1]; the blocks of a stack go through one
    ``np.linalg.svd``, whose factors are kept as they come.
    """
    lead, d = offdiag.shape[:-1], offdiag.shape[-1] + 1
    n = d // 2
    b = np.zeros((*lead, d - n, n))
    # B[i, i] and B[i+1, i] sit n+1 apart in B's row-major storage
    flat = b.reshape(*lead, (d - n) * n)
    flat[..., 0 :: n + 1] = offdiag[..., 0::2]
    flat[..., n :: n + 1] = offdiag[..., 1::2]
    try:
        u, s, vt = np.linalg.svd(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"bidiagonal SVD failed: {exc}") from exc
    return Spectrum(s=s, u=u, v=vt.swapaxes(-1, -2))


def spectral_weights(spectrum: Spectrum, psi0: np.ndarray) -> np.ndarray:
    """The weights of the (..., d) initial vectors ``psi0``, in rung order
    (see the module docstring): real [alpha, beta, a0] when ``psi0`` is
    real and each row's nonzero entries share one rung parity, otherwise
    complex [p, q, a0]; a0 is present for odd d only."""
    real = not np.iscomplexobj(psi0)
    if real:
        nonzero = np.asarray(psi0) != 0
        real = not np.any(nonzero[..., 0::2].any(-1) & nonzero[..., 1::2].any(-1))
    psi = np.ascontiguousarray(psi0, dtype=float if real else complex)
    # complex vectors enter real products as (real, imaginary) column pairs
    rows = psi.view(float).reshape(*psi.shape, -1)
    a = (spectrum.u.swapaxes(-1, -2) @ rows[..., 0::2, :]).view(psi.dtype)[..., 0]
    b = (spectrum.v.swapaxes(-1, -2) @ rows[..., 1::2, :]).view(psi.dtype)[..., 0]
    n = b.shape[-1]
    if real:
        return np.concatenate([a[..., :n], b, a[..., n:]], axis=-1)
    return np.concatenate([(a[..., :n] + b) / 2, (a[..., :n] - b) / 2, a[..., n:]], axis=-1)


def evolve_vector(
    spectrum: Spectrum, weights: np.ndarray, couplings: np.ndarray, time: float
) -> np.ndarray:
    """Evolved amplitudes c and their coupling derivatives c'.

    ``weights`` are the initial vectors' (..., d) weights (see
    :func:`spectral_weights`) and ``couplings`` a 1-D grid of G couplings.
    The result is a (2 x ... x G x d) array that unpacks as ``c, dc``,
    each with the stack's leading axes, one row per coupling and one
    column per rung; it is real, and holds the gauged c~ and c~', for
    real weights.  The factors are real, so the whole stack and grid go
    through one real product with U, written into the even rungs, and
    one with V, written into the odd rungs: 2 columns per coupling for
    real weights, 4 for complex ones.
    """
    s, u, v = spectrum
    *lead, d = weights.shape
    n = s.shape[-1]
    th = np.asarray(couplings, dtype=float)
    g = len(th)
    w = weights.reshape(-1, d, 1)
    m = len(w)
    # rows V^T c_odd, then U^T c_even (a0 last); columns (c, c') x coupling
    if np.iscomplexobj(weights):
        # ladder x singular value x coupling
        gen = (-1j * time) * s.reshape(m, n, 1)
        phase = np.exp(gen * th)
        ep, eq = phase * w[:, :n], phase.conj() * w[:, n : 2 * n]
        z = np.zeros((m, d, 2, g), dtype=complex)
        halves = z[:, : 2 * n].reshape(m, 2, n, 2, g)
        np.subtract(ep, eq, out=halves[:, 0, :, 0])
        np.add(ep, eq, out=halves[:, 1, :, 0])
        # the derivative of either half is -i t s times the other half
        np.multiply(gen[:, None], halves[:, ::-1, :, 0], out=halves[:, :, :, 1])
    else:
        rate = time * s.reshape(m, n, 1)
        x = rate * th
        cos, sin = np.cos(x), np.sin(x)
        alpha, beta = w[:, :n], w[:, n : 2 * n]
        z = np.zeros((m, d, 2, g))
        # Y_O = S alpha + C beta and Y_E = C alpha - S beta, whose
        # derivatives are t s Y_E and -t s Y_O
        y_odd, y_even = z[:, :n, 0], z[:, n : 2 * n, 0]
        np.multiply(sin, alpha, out=y_odd)
        y_odd += cos * beta
        np.multiply(cos, alpha, out=y_even)
        y_even -= sin * beta
        np.multiply(rate, y_even, out=z[:, :n, 1])
        np.multiply(-rate, y_odd, out=z[:, n : 2 * n, 1])
    z[:, 2 * n :, 0] = w[:, 2 * n :]
    cols = z.view(float).reshape(*lead, d, -1)
    moved = np.empty(cols.shape)
    np.matmul(u, cols[..., n:, :], out=moved[..., 0::2, :])
    np.matmul(v, cols[..., :n, :], out=moved[..., 1::2, :])
    # stored as (..., d, 2, G); returned as the view (2, ..., G, d)
    moved = moved.view(z.dtype).reshape(*lead, d, 2, g)
    k = len(lead)
    return moved.transpose(k + 1, *range(k), k + 2, k)
