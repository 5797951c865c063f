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
    spectrum: Spectrum, psi0: np.ndarray, coupling: float, time: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolved amplitudes c and their coupling derivatives c', c''.

    ``psi0`` is any initial vector on the ladder, in rung order.
    """
    lam = spectrum.eigenvalues
    v = spectrum.eigenvectors
    w = v.T @ np.asarray(psi0, dtype=complex)
    phase = np.exp(-1j * coupling * time * lam)
    gen = -1j * time * lam
    return v @ (phase * w), v @ (gen * phase * w), v @ (gen * gen * phase * w)
