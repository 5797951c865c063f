"""Exact ladder dynamics via spectral decomposition.

The evolution operator on a ladder is exp(-i theta t G) with G the real
symmetric tridiagonal generator.  G has a zero diagonal, so it only
couples even rungs to odd ones: with the even rungs listed first it is
[[0, B], [B^T, 0]] with B bidiagonal.  Each singular triple (s, u, v) of
B gives the eigenpairs +s and -s with eigenvectors (u, +v)/sqrt(2) and
(u, -v)/sqrt(2), and a ladder with an odd number of rungs has one more
eigenvector (u_null, 0) at eigenvalue 0 (Golub & Kahan, 1965).  One SVD
of B therefore diagonalizes G, with numpy alone.

Diagonalizing G once gives the evolved amplitudes together with their
first and second derivatives in the coupling theta as exact analytic
expressions,

    c_k(theta)  = sum_j V_kj (V^T psi0)_j exp(-i theta t lambda_j),
    dc_k/dtheta = sum_j V_kj (V^T psi0)_j (-i t lambda_j) exp(...),

which keeps Fisher-information limits at theta -> 0 free of
finite-difference noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .ladder import Ladder


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a ladder generator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j belongs to eigenvalues[j]


def diagonalize(ladder: Ladder) -> Spectrum:
    """Eigendecomposition of the tridiagonal generator through the SVD of B.

    B is the ceil(d/2) x floor(d/2) block that couples even rungs (rows)
    to odd rungs (columns): B[i, i] = offdiag[2i] and
    B[i+1, i] = offdiag[2i+1].  With B = U S V^T and s descending, the
    eigenvalues are -s, then 0 when d is odd, then s reversed, so they
    ascend and pair exactly as -lambda.  The eigenvector of +-s_k is
    (u_k, +-v_k)/sqrt(2) spread over the even and odd rungs; for odd d
    the last column of U, which B^T annihilates, gives the null vector
    (u_null, 0), with no weight on any odd rung.
    """
    d = ladder.d
    if d == 1:
        return Spectrum(eigenvalues=np.zeros(1), eigenvectors=np.eye(1))
    e = ladder.offdiag
    n = d // 2
    b = np.zeros(((d + 1) // 2, n))
    # B[i, i] and B[i+1, i] sit n+1 apart in B's row-major storage
    b.reshape(-1)[0 :: n + 1] = e[0::2]
    b.reshape(-1)[n :: n + 1] = e[1::2]
    try:
        u, s, vt = np.linalg.svd(b)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"bidiagonal SVD failed: {exc}") from exc
    lam = np.concatenate([-s, np.zeros(d % 2), s[::-1]])
    # columns: the -s pairs, the null vector when d is odd, the +s pairs
    u[:, :n] *= np.sqrt(0.5)
    vt *= np.sqrt(0.5)
    vec = np.zeros((d, d))
    vec[0::2, :n] = u[:, :n]
    np.negative(vt.T, out=vec[1::2, :n])
    vec[0::2, d - n :] = u[:, n - 1 :: -1]
    vec[1::2, d - n :] = vt[::-1].T
    if d % 2:
        vec[0::2, n] = u[:, n]
    return Spectrum(eigenvalues=lam, eigenvectors=vec)


def evolve_vector(
    spectrum: Spectrum, psi0: np.ndarray, couplings: np.ndarray, time: float
) -> np.ndarray:
    """Evolved amplitudes c and their coupling derivatives c', c''.

    ``psi0`` is any initial vector on the ladder, in rung order, and
    ``couplings`` a 1-D grid of G couplings.  The result is a (3 x G x d)
    array that unpacks as ``c, dc, d2c``, with one row per coupling.
    The eigenvectors are real, so the phase-weighted spectral vectors go
    through one real product over their real and imaginary parts.
    """
    lam = spectrum.eigenvalues
    v = spectrum.eigenvectors
    # complex vectors enter real products as (real, imaginary) column pairs
    psi = np.ascontiguousarray(psi0, dtype=complex)
    w = (v.T @ psi.view(float).reshape(-1, 2)).view(complex)
    th = np.asarray(couplings, dtype=float)
    n = len(th)
    gen = (-1j * time) * lam[:, None]
    # column blocks: the spectral weights of c, c' and c'' at each coupling
    cols = np.empty((len(lam), 3 * n), dtype=complex)
    np.multiply(np.exp(gen * th), w, out=cols[:, :n])
    np.multiply(cols[:, :n], gen, out=cols[:, n : 2 * n])
    np.multiply(cols[:, n : 2 * n], gen, out=cols[:, 2 * n :])
    moved = (v @ cols.view(float)).view(complex)
    return moved.reshape(len(lam), 3, n).transpose(1, 2, 0)
