"""Exact ladder dynamics via spectral decomposition.

The evolution operator on a ladder is exp(-i theta t G) with G the real
symmetric tridiagonal generator.  Diagonalizing G once gives the evolved
amplitudes together with their first and second derivatives in the
coupling theta as exact analytic expressions,

    c_k(theta)  = sum_j V_kj (V^T psi0)_j exp(-i theta t lambda_j),
    dc_k/dtheta = sum_j V_kj (V^T psi0)_j (-i t lambda_j) exp(...),

which keeps Fisher-information limits at theta -> 0 free of
finite-difference noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericError
from .ladder import Ladder


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a ladder generator, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column j belongs to eigenvalues[j]


def diagonalize(ladder: Ladder) -> Spectrum:
    """Eigendecomposition of the tridiagonal generator."""
    if ladder.d == 1:
        return Spectrum(eigenvalues=np.zeros(1), eigenvectors=np.eye(1))
    try:
        lam, vec = eigh_tridiagonal(np.zeros(ladder.d), ladder.offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"tridiagonal eigensolver failed: {exc}") from exc
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
