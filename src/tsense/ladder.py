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

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError


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

    @property
    def total(self) -> int:
        return sum(self.occupations)

    def __getitem__(self, i: int) -> int:
        return self.occupations[i]

    def __len__(self) -> int:
        return len(self.occupations)


@dataclass(frozen=True)
class Ladder:
    """One invariant subspace with its tridiagonal generator.

    ``basis[k]`` has measured-mode occupation k; ``offdiag[k]`` is the
    generator matrix element between rungs k and k+1.  The diagonal is
    zero (the resonant interaction picture has no diagonal part).
    """

    kind: InteractionKind
    basis: tuple[FockConfig, ...]
    offdiag: np.ndarray
    root_index: int

    d: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", len(self.basis))
        self.offdiag.flags.writeable = False

    def matrix(self) -> np.ndarray:
        """Dense d x d generator matrix (small; for inspection and tests)."""
        g = np.zeros((self.d, self.d))
        for k, v in enumerate(self.offdiag):
            g[k, k + 1] = g[k + 1, k] = v
        return g


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
        d = min(qb, qc) + 1
        basis = tuple(FockConfig((k, qb - k, qc - k)) for k in range(d))
        # products of ints <= 61^3 stay exact in Python ints before the sqrt
        off = np.array(
            [math.sqrt((k + 1) * (qb - k) * (qc - k)) for k in range(d - 1)]
        )
    else:
        na, nb = root.occupations
        q = 2 * na + nb
        d = q // 2 + 1
        basis = tuple(FockConfig((k, q - 2 * k)) for k in range(d))
        off = np.array(
            [math.sqrt((k + 1) * (q - 2 * k) * (q - 2 * k - 1)) for k in range(d - 1)]
        )
    return Ladder(
        kind=kind,
        basis=basis,
        offdiag=off,
        root_index=root[0],
    )
