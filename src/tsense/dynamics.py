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
d^2/2 floats per ladder.  A spectrum may carry leading stack axes, one
entry per generator of equal d, and a stack goes through one stacked SVD.
Each generator evolves R initial vectors, the one row axis this module
lays out: R r real rows (see below) in :class:`Weights`.

The rung gauge: multiplying the odd rungs by i (D = diag(i^(k mod 2)))
turns the propagator into the real orthogonal

    D exp(-i x G) D^-1 = [[U C U^T + u0 u0^T,  -U S V^T],
                          [V S U^T,             V C V^T]],

C = cos(xS), S = sin(xS), which evolves the real and the imaginary part
of a gauged vector D psi each on its own.  So every ladder evolves r
real rows.  In general r = 2, the real and imaginary parts of D psi, and
c_k = i^-(k mod 2) (c~_0 + i c~_1).  Where psi is real and sits on the
rungs of one parity, that of the start rung r0 (every Fock and noisy-Fock
ladder), one part of D psi vanishes and r = 1: c~_k = i^((k mod 2) -
(r0 mod 2)) c_k.  With alpha = U^T over a row's even rungs (paired
columns; the null entry a0 stays constant) and beta = V^T over its odd
rungs, y = exp(i x s) (alpha + i beta) gives

    U^T c~_even = Re y = C alpha - S beta,
    V^T c~_odd  = Im y = S alpha + C beta,

and as dy/dtheta = i t s y the theta-derivatives are -t s Im y and
t s Re y: c' is exact and analytic, so Fisher-information limits at
theta -> 0 carry no finite-difference noise.  Summed over the rows,
c~^2 = |c|^2, c~ c~' = Re(c* c') and c~'^2 = |c'|^2: populations, their
derivatives and S are sums over real rows.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericError

# i times the signs of the rung gauge on the reversed rows (Im, Re) of
# two-row odd-rung weights, see spectral_weights
_I_GAUGE = np.array([-1j, 1j])


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


class Weights(NamedTuple):
    """Spectral weights in the form :func:`evolve_vector` takes, the R r
    real rows (see the module docstring) of each generator's R initial
    vectors, vector by vector: ``rotating`` the complex (..., R r,
    floor(d/2)) alpha + i beta and ``constant`` the real (..., R r, d mod 2) a0."""

    rotating: np.ndarray
    constant: np.ndarray

    @property
    def rows(self) -> int:
        """R r, the real rows per generator."""
        return self.rotating.shape[-2]


def spectral_weights(spectrum: Spectrum, psi0: np.ndarray) -> Weights:
    """The :class:`Weights` of the (..., R, d) initial vectors ``psi0``, R
    per generator: the leading axes are those of ``spectrum``, else
    ValueError.  A vector takes r = 1 row when ``psi0`` is real and each
    vector's nonzero entries share one rung parity, else r = 2."""
    psi0 = np.asarray(psi0)
    lead = spectrum.s.shape[:-1]
    if psi0.ndim != len(lead) + 2 or psi0.shape[:-2] != lead:
        raise ValueError(f"initial vectors {psi0.shape} do not fit generators {lead}")
    # any() takes every nonzero entry (NaN too) as true; a complex vector
    # takes two rows without the parity test
    two = np.iscomplexobj(psi0) or (psi0[..., 0::2].any(-1) & psi0[..., 1::2].any(-1)).any()
    psi = np.ascontiguousarray(psi0, dtype=complex if two else float)
    # vector x rung x row, the rows of a complex vector its real and imaginary parts
    rows = psi.view(float).reshape(*psi.shape, -1)
    a = spectrum.u[..., None, :, :].swapaxes(-1, -2) @ rows[..., 0::2, :]
    b = spectrum.v[..., None, :, :].swapaxes(-1, -2) @ rows[..., 1::2, :]
    n = b.shape[-2]
    # i beta: the gauge's i on the odd rungs takes the two rows (Re, Im)
    # of b to beta = (-Im, Re), so i beta is (-i Im, i Re)
    i_beta = b[..., ::-1] * _I_GAUGE if two else b * 1j
    # vector x row x rung, laid out row by row and read as (vector, row) x rung
    rotating = np.add(a[..., :n, :].swapaxes(-1, -2), i_beta.swapaxes(-1, -2), order="C")
    shape = (*lead, psi.shape[-2] * rows.shape[-1])
    constant = a[..., n:, :].swapaxes(-1, -2)
    return Weights(rotating.reshape(*shape, n), constant.reshape(*shape, psi.shape[-1] % 2))


def evolve_vector(
    spectrum: Spectrum, weights: Weights, couplings: np.ndarray, time: float
) -> np.ndarray:
    """Gauged amplitudes c~ and their coupling derivatives c~', a real
    contiguous (... x R r x d x 2 x G) array: rows, rungs, (c~, c~') and
    couplings, from the :class:`Weights` of :func:`spectral_weights`
    (leading axes those of ``spectrum``) and a 1-D grid of ``couplings``.
    Every row and coupling of the stack goes through one product with U
    and one with V: 2 R r columns per coupling.  Only the phases and what they
    touch are formed here; everything fixed by the initial vectors is in
    ``weights``."""
    s, u, v = spectrum
    n, g = s.shape[-1], len(couplings)
    d = n + u.shape[-1]
    # ... x row x singular value x coupling
    rate = time * s[..., None, :, None]
    x = rate * couplings
    # exp(i x s) from cos and sin, which numpy evaluates faster than exp(i x s)
    phase = np.empty(x.shape, complex)
    np.cos(x, out=phase.real)
    np.sin(x, out=phase.imag)
    y = phase * weights.rotating[..., None]
    re, im = y.real, y.imag
    # rows V^T c~_odd = Im y, then U^T c~_even = Re y (a0 last); columns
    # (c~, c~') x coupling, the derivatives t s Re y and -t s Im y
    lead = y.shape[:-2]
    z = np.zeros((*lead, d, 2, g))
    z[..., :n, 0, :] = im
    z[..., n : 2 * n, 0, :] = re
    np.multiply(rate, re, out=z[..., :n, 1, :])
    np.multiply(-rate, im, out=z[..., n : 2 * n, 1, :])
    z[..., 2 * n :, 0, :] = weights.constant[..., None]
    cols = z.reshape(*lead, d, 2 * g)
    moved = np.empty(cols.shape)
    np.matmul(u[..., None, :, :], cols[..., n:, :], out=moved[..., 0::2, :])
    np.matmul(v[..., None, :, :], cols[..., :n, :], out=moved[..., 1::2, :])
    return moved.reshape(*lead, d, 2, g)
