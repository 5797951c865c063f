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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ResourceError

# the most rungs build_ladder will allocate: 8192 rungs already mean
# 512 MiB of float64 eigenvectors once the ladder is diagonalized, and
# PreparedProbe caps the sum of d**2 over a probe's ladders at the same
# MAX_RUNGS**2.  While diagonalize runs, the SVD's outputs and workspace
# add about 1.3 d**2 more (measured at d = 2001 and 3000)
MAX_RUNGS = 8192


class InteractionKind(Enum):
    """Which trilinear coupling drives the dynamics."""

    I = "I"
    II = "II"

    @property
    def n_modes(self) -> int:
        return 3 if self is InteractionKind.I else 2


@dataclass(frozen=True)
class FockConfig:
    """A product Fock state, one occupation per mode."""

    occupations: tuple[int, ...]

    def __post_init__(self) -> None:
        occs = tuple(int(n) for n in self.occupations)
        object.__setattr__(self, "occupations", occs)
        if any(n < 0 for n in occs):
            raise ConfigurationError(f"occupations must be non-negative, got {occs}")
        # ladder rungs and charges (up to 2 n_a' + n_b') are int64 arrays
        if any(n >= 2**61 for n in occs):
            raise ConfigurationError(f"occupations must be below 2**61, got {occs}")

    def __getitem__(self, i: int) -> int:
        return self.occupations[i]

    def __len__(self) -> int:
        return len(self.occupations)


@dataclass(frozen=True)
class Ladder:
    """One invariant subspace with its tridiagonal generator.

    ``basis`` is a read-only (d x modes) integer array: row ``basis[k]``
    holds the occupations of rung k, whose measured-mode occupation is
    k.  ``offdiag[k]`` is the generator matrix element between rungs k
    and k+1.  The diagonal is zero (the resonant interaction picture has
    no diagonal part).
    """

    basis: np.ndarray
    offdiag: np.ndarray
    root_index: int

    d: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", len(self.basis))
        self.basis.flags.writeable = False
        self.offdiag.flags.writeable = False

    def matrix(self) -> np.ndarray:
        """Dense d x d generator matrix (small; for inspection and tests)."""
        return np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)


def validate_config(kind: InteractionKind, config: FockConfig) -> None:
    if len(config) != kind.n_modes:
        raise ConfigurationError(
            f"interaction {kind.value} needs {kind.n_modes} occupations, "
            f"got {len(config)}"
        )


def build_ladder(kind: InteractionKind, root: FockConfig) -> Ladder:
    """Construct the invariant subspace reachable from ``root``.

    Matrix elements follow from the explicit ladder-operator action:
    between rungs k and k+1 the element is sqrt((k+1)(Q_b-k)(Q_c-k))
    for kind I and sqrt((k+1)(Q-2k)(Q-2k-1)) for kind II, where the
    occupations of the raising target enter for the measured mode and
    those of the lower rung for the absorbed modes.
    """
    validate_config(kind, root)
    if kind is InteractionKind.I:
        na, nb, nc = root.occupations
        qb, qc = na + nb, na + nc
        k = np.arange(_checked_rungs(min(qb, qc) + 1, root))
        basis = np.stack([k, qb - k, qc - k], axis=1)
        # float factors: each partial product is exact below 2^53, as
        # the integer product was, and nothing can wrap around
        lo = k[:-1]
        off = np.sqrt((lo + 1.0) * (qb - lo) * (qc - lo))
    else:
        na, nb = root.occupations
        q = 2 * na + nb
        k = np.arange(_checked_rungs(q // 2 + 1, root))
        basis = np.stack([k, q - 2 * k], axis=1)
        lo = k[:-1]
        off = np.sqrt((lo + 1.0) * (q - 2 * lo) * (q - 2 * lo - 1))
    return Ladder(basis=basis, offdiag=off, root_index=root[0])


def _checked_rungs(d: int, root: FockConfig) -> int:
    """The closed-form rung count ``d``, refused above MAX_RUNGS before
    anything is allocated."""
    if d > MAX_RUNGS:
        raise ResourceError(
            f"the ladder of {root.occupations} has {d} rungs (cap {MAX_RUNGS})"
        )
    return d
