"""Exact ladder dynamics via spectral decomposition, for stacks of ladders.

The evolution operator on a ladder is exp(-i theta t G) with G the real
symmetric tridiagonal generator.  G has a zero diagonal, so it only
couples even rungs to odd ones: with the even rungs listed first it is
[[0, B], [B^T, 0]] with B bidiagonal.  Each singular triple (s, u, v) of
B gives the eigenpairs +s and -s with eigenvectors (u, +v)/sqrt(2) and
(u, -v)/sqrt(2), and a ladder with an odd number of rungs has one more
eigenvector (u_null, 0) at eigenvalue 0 (Golub & Kahan, 1965).  One SVD
of B therefore diagonalizes G, with numpy alone.

Every array here may carry leading stack axes in front of its ladder
axes: m ladders of one dimension d have (m, d-1) generator elements,
(m, d) eigenvalues and (m, d, d) eigenvectors.  A stack goes through one
stacked SVD, and each slice of it through one stacked real product per
call; a single ladder is the same code with no leading axis.

Diagonalizing G once gives the evolved amplitudes together with their
first and second derivatives in the coupling theta as exact analytic
expressions,

    c_k(theta)  = sum_j V_kj (V^T psi0)_j exp(-i theta t lambda_j),
    dc_k/dtheta = sum_j V_kj (V^T psi0)_j (-i t lambda_j) exp(...),

which keeps Fisher-information limits at theta -> 0 free of
finite-difference noise.  The spectral weights V^T psi0 depend on the
initial vector only, so they are formed once per probe.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NumericError

_SQRT_HALF = math.sqrt(0.5)


class Spectrum(NamedTuple):
    """Eigendecomposition of ladder generators, eigenvalues ascending.

    ``eigenvalues`` is (..., d) and ``eigenvectors`` (..., d, d), with the
    same leading stack axes; column j of a ladder's eigenvector matrix
    belongs to its eigenvalue j.  A tuple, so that a slice of a stack
    costs little to wrap.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diagonalize(offdiag: np.ndarray) -> Spectrum:
    """Eigendecomposition of tridiagonal generators through the SVD of B.

    ``offdiag`` is the (..., d-1) array of generator elements between
    rungs k and k+1: one row for a single ladder, one row per ladder for
    a stack.  B is the ceil(d/2) x floor(d/2) block that couples even
    rungs (rows) to odd rungs (columns): B[i, i] = offdiag[2i] and
    B[i+1, i] = offdiag[2i+1]; the blocks of a stack go through one
    ``np.linalg.svd``.  With B = U S V^T and s descending, the
    eigenvalues are -s, then 0 when d is odd, then s reversed, so they
    ascend and pair exactly as -lambda.  The eigenvector of +-s_k is
    (u_k, +-v_k)/sqrt(2) spread over the even and odd rungs; for odd d
    the last column of U, which B^T annihilates, gives the null vector
    (u_null, 0), with no weight on any odd rung.
    """
    lead, d = offdiag.shape[:-1], offdiag.shape[-1] + 1
    if d == 1:
        return Spectrum(eigenvalues=np.zeros((*lead, 1)), eigenvectors=np.ones((*lead, 1, 1)))
    n = d // 2
    b = np.zeros((*lead, (d + 1) // 2, n))
    # B[i, i] and B[i+1, i] sit n+1 apart in B's row-major storage
    flat = b.reshape(*lead, -1)
    flat[..., 0 :: n + 1] = offdiag[..., 0::2]
    flat[..., n :: n + 1] = offdiag[..., 1::2]
    try:
        u, s, vt = np.linalg.svd(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"bidiagonal SVD failed: {exc}") from exc
    lam = np.concatenate([-s, np.zeros((*lead, d % 2)), s[..., ::-1]], axis=-1)
    # columns: the -s pairs, the null vector when d is odd, the +s pairs
    v = vt.swapaxes(-1, -2)
    vec = np.zeros((*lead, d, d))
    vec[..., 0::2, :n] = u[..., :n]
    np.negative(v, out=vec[..., 1::2, :n])
    vec[..., 0::2, d - n :] = u[..., n - 1 :: -1]
    vec[..., 1::2, d - n :] = v[..., ::-1]
    vec *= _SQRT_HALF
    if d % 2:
        # the null vector (u_null, 0) is not shared between two halves
        vec[..., 0::2, n] = u[..., n]
    return Spectrum(eigenvalues=lam, eigenvectors=vec)


def spectral_weights(spectrum: Spectrum, psi0: np.ndarray) -> np.ndarray:
    """V^T psi0: the (..., d) initial vectors ``psi0``, in rung order, on
    the eigenbasis of each ladder of the stack."""
    psi = np.ascontiguousarray(psi0, dtype=complex)
    # complex vectors enter real products as (real, imaginary) column pairs
    rows = psi.view(float).reshape(*psi.shape, 2)
    return (spectrum.eigenvectors.swapaxes(-1, -2) @ rows).view(complex)[..., 0]


def evolve_vector(
    spectrum: Spectrum, weights: np.ndarray, couplings: np.ndarray, time: float
) -> np.ndarray:
    """Evolved amplitudes c and their coupling derivatives c', c''.

    ``weights`` are the initial vectors' spectral weights V^T psi0 (see
    :func:`spectral_weights`), one (..., d) row per ladder of the stack,
    and ``couplings`` a 1-D grid of G couplings.  The result is a
    (3 x ... x G x d) array that unpacks as ``c, dc, d2c``, each with the
    stack's leading axes, one row per coupling and one column per rung.
    The eigenvectors are real, so the phase-weighted spectral vectors of
    the whole stack and grid go through one stacked real product over
    their real and imaginary parts.
    """
    lam = spectrum.eigenvalues
    *lead, d = lam.shape
    th = np.asarray(couplings, dtype=float)
    n = len(th)
    # one row per rung of every ladder of the stack
    gen = (-1j * time) * lam.reshape(-1, 1)
    # column blocks: the spectral weights of c, c' and c'' at each coupling
    cols = np.empty((len(gen), 3 * n), dtype=complex)
    np.multiply(np.exp(gen * th), weights.reshape(-1, 1), out=cols[:, :n])
    np.multiply(cols[:, :n], gen, out=cols[:, n : 2 * n])
    np.multiply(cols[:, n : 2 * n], gen, out=cols[:, 2 * n :])
    moved = spectrum.eigenvectors @ cols.view(float).reshape(*lead, d, 6 * n)
    # stored as (..., d, 3, G); returned as the view (3, ..., G, d)
    moved = moved.view(complex).reshape(*lead, d, 3, n)
    k = lam.ndim
    return moved.transpose(k, *range(k - 1), k + 1, k - 1)
