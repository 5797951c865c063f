"""Invariant subspaces ("ladders") of the two trilinear couplings.

Two interaction generators are supported:

* kind I   couples three modes (a, b, c) through ``a† b c + a b† c†``.
  It conserves both n_a + n_b and n_a + n_c, so a Fock product state
  only ever reaches the chain of states (k, Q_b - k, Q_c - k) with
  Q_b = n_a + n_b and Q_c = n_a + n_c.
* kind II  couples two modes (a', b') through ``a'† b'² + a' b'†²``.
  It conserves 2 n_a' + n_b', giving the chain (k, Q - 2k).

Ordering the chain by increasing occupation of the measured mode (a or
a') makes the generator a real symmetric tridiagonal matrix with zero
diagonal, and makes the rung index equal to the measured-mode
occupation.  Everything downstream (spectral evolution, population
readout) relies on that ordering.
"""
from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import ConfigurationError, ResourceError

# the most rungs a ladder may have: 8192 rungs already mean 512 MiB of
# float64 eigenvectors once the ladder is diagonalized, and decompose
# caps the sum of d**2 over a probe's ladders at the same MAX_RUNGS**2.
# While diagonalize runs, the SVD's outputs and workspace add about
# 1.3 d**2 more (measured at d = 2001 and 3000)
MAX_RUNGS = 8192


class InteractionKind(Enum):
    """Which trilinear coupling drives the dynamics."""

    I = "I"
    II = "II"

    @property
    def n_modes(self) -> int:
        return 3 if self is InteractionKind.I else 2

    @property
    def rung_step(self) -> tuple[int, ...]:
        """Change of each mode's occupation from one rung to the next."""
        return (1, -1, -1) if self is InteractionKind.I else (1, -2)


def validate_config(kind: InteractionKind, occupations: tuple[int, ...]) -> None:
    if len(occupations) != kind.n_modes:
        raise ConfigurationError(
            f"interaction {kind.value} needs {kind.n_modes} occupations, "
            f"got {len(occupations)}"
        )


def sector_roots(kind: InteractionKind, occs: np.ndarray) -> np.ndarray:
    """Rung-0 configuration of the ladder through each row of ``occs``.

    Works on any (..., modes) integer array: a kind-I state (n_a, n_b, n_c)
    lies on the ladder of (0, Q_b, Q_c), a kind-II state (n_a', n_b') on
    that of (0, Q), as many rungs below it as its measured mode holds quanta.
    """
    return occs - occs[..., :1] * kind.rung_step


def checked_rungs(kind: InteractionKind, roots: list, labels) -> list[int]:
    """Ladder dimension d of each rung-0 configuration in the list
    ``roots``, min(Q_b, Q_c) + 1 for kind I and Q // 2 + 1 for kind II,
    refused above MAX_RUNGS before anything is allocated.  ``labels[i]``
    names ladder i in the refusal."""
    if kind is InteractionKind.I:
        d = [min(qb, qc) + 1 for _, qb, qc in roots]
    else:
        d = [q // 2 + 1 for _, q in roots]
    if max(d) > MAX_RUNGS:
        i = next(i for i, n in enumerate(d) if n > MAX_RUNGS)
        raise ResourceError(
            f"the ladder of {tuple(np.asarray(labels[i]).tolist())} has {d[i]} rungs "
            f"(cap {MAX_RUNGS})"
        )
    return d


def ladder_basis(kind: InteractionKind, roots: np.ndarray, d: int) -> np.ndarray:
    """(..., d, modes) occupations of every rung of d-rung ladders with the
    (..., modes) rung-0 configurations ``roots``."""
    return roots[..., None, :] + np.arange(d)[:, None] * kind.rung_step


def ladder_offdiag(kind: InteractionKind, roots: np.ndarray, d: int) -> np.ndarray:
    """Generator elements between rungs k and k+1 of d-rung ladders.

    ``roots`` is a (..., modes) array of rung-0 configurations and the
    result a (..., d-1) array.  Matrix elements follow from the explicit
    ladder-operator action: sqrt((k+1)(Q_b-k)(Q_c-k)) for kind I and
    sqrt((k+1)(Q-2k)(Q-2k-1)) for kind II, where the occupations of the
    raising target enter for the measured mode and those of the lower
    rung for the absorbed modes.
    """
    lo = np.arange(d - 1)
    # float factors: each partial product is exact below 2^53, as the
    # integer product would be, and nothing can wrap around
    if kind is InteractionKind.I:
        qb, qc = roots[..., 1, None], roots[..., 2, None]
        return np.sqrt((lo + 1.0) * (qb - lo) * (qc - lo))
    q = roots[..., 1, None] - 2 * lo
    return np.sqrt((lo + 1.0) * q * (q - 1))
