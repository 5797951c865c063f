"""Probe states as weighted collections of ladder components.

Three probe families are supported: ideal product Fock states, the
symmetric preparation-noise mixture (per mode, weight eps on each of the
two neighboring occupations), and product coherent states.  All of them
decompose into components that live on a single ladder each:

* a pure Fock product is one component rooted at its own rung;
* the noise mixture is a product of per-mode trinomials, one component
  (with its own ladder) per occupation combination;
* a coherent product spreads over conserved-charge sectors; within each
  sector its restriction is a fixed complex vector over the full sector
  ladder, and the sector enters as one component with the squared norm
  of that restriction as weight.  The sectors are those of the product
  states that carry the probe's mass: the truncated product box is
  sorted once by descending Poisson weight (ties by per-mode weight
  rank), and cut at the first state where the cumulative weight reaches
  ``cutoff_mass``.

Sector populations add for any measurement diagonal in the measured
mode's number basis, so this decomposition is exact for every scheme in
:mod:`tsense.metrology`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, ResourceError
from .ladder import FockConfig, InteractionKind, Ladder, build_ladder, validate_config

MAX_COHERENT_STATES = 200_000


@dataclass(frozen=True)
class PureFock:
    """Ideal product Fock probe."""

    occupations: tuple[int, ...]


@dataclass(frozen=True)
class NoisyFock:
    """Fock probe with symmetric neighbor noise eps_i per mode.

    Each mode is the mixture (1-2e)|n><n| + e|n-1><n-1| + e|n+1><n+1|.
    For a mode with nominal occupation 0 the lower neighbor does not
    exist; its weight is reassigned to |1><1| (total stays normalized).
    """

    nominal: tuple[int, ...]
    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.eps) != len(self.nominal):
            raise ConfigurationError("need one eps per mode")
        if any(not 0.0 <= e <= 0.25 for e in self.eps):
            raise ConfigurationError(f"eps must lie in [0, 0.25], got {self.eps}")


@dataclass(frozen=True)
class CoherentProduct:
    """Product coherent probe |alpha_1> x ... with a mass cutoff.

    The Fock expansion is truncated once the retained probability mass
    reaches ``cutoff_mass``; the truncation error is therefore bounded
    by 1 - cutoff_mass regardless of |alpha|.
    """

    alphas: tuple[complex, ...]
    cutoff_mass: float = 1.0 - 1e-8

    def __post_init__(self) -> None:
        if not 0.0 < self.cutoff_mass < 1.0:
            raise ConfigurationError(
                f"cutoff_mass must lie in (0, 1), got {self.cutoff_mass}"
            )


Probe = Union[PureFock, NoisyFock, CoherentProduct]


@dataclass(frozen=True)
class Component:
    """One ladder with an initial unit vector and an ensemble weight."""

    weight: float
    ladder: Ladder
    amplitudes: np.ndarray


@dataclass(frozen=True)
class WeightedComponents:
    components: tuple[Component, ...]

    @property
    def total_weight(self) -> float:
        return sum(c.weight for c in self.components)


def _root_component(kind: InteractionKind, occs: tuple[int, ...], weight: float) -> Component:
    ladder = build_ladder(kind, FockConfig(occs))
    psi = np.zeros(ladder.d, dtype=complex)
    psi[ladder.root_index] = 1.0
    return Component(weight=weight, ladder=ladder, amplitudes=psi)


def _noise_terms(n: int, e: float) -> list[tuple[int, float]]:
    if e == 0.0:
        return [(n, 1.0)]
    if n == 0:
        return [(0, 1.0 - 2.0 * e), (1, 2.0 * e)]
    return [(n - 1, e), (n, 1.0 - 2.0 * e), (n + 1, e)]


def _poisson_cutoffs(mus: list[float], cutoff_mass: float) -> list[int]:
    """Per-mode occupation bounds leaving total neglected mass below target."""
    per_mode_tail = (1.0 - cutoff_mass) / (2.0 * len(mus))
    tops = []
    for mu in mus:
        n, cum, term = 0, 0.0, math.exp(-mu)
        while cum + term < 1.0 - per_mode_tail:
            cum += term
            n += 1
            term *= mu / n
            if n > 10_000:  # pragma: no cover
                raise ResourceError("coherent truncation did not close")
        tops.append(n)
    return tops


def _sector_roots(kind: InteractionKind, occs: np.ndarray) -> np.ndarray:
    """Rung-0 configuration of the conserved-charge sector of each row."""
    if kind is InteractionKind.I:
        na, nb, nc = occs.T
        return np.stack([np.zeros_like(na), na + nb, na + nc], axis=1)
    na, nb = occs.T
    return np.stack([np.zeros_like(na), 2 * na + nb], axis=1)


def decompose(probe: Probe, kind: InteractionKind) -> WeightedComponents:
    """Split a probe into weighted single-ladder components."""
    if isinstance(probe, PureFock):
        validate_config(kind, FockConfig(probe.occupations))
        return WeightedComponents((_root_component(kind, probe.occupations, 1.0),))

    if isinstance(probe, NoisyFock):
        validate_config(kind, FockConfig(probe.nominal))
        per_mode = [_noise_terms(n, e) for n, e in zip(probe.nominal, probe.eps)]
        comps = []
        for combo in itertools.product(*per_mode):
            occs = tuple(term[0] for term in combo)
            weight = math.prod(term[1] for term in combo)
            comps.append(_root_component(kind, occs, weight))
        return WeightedComponents(tuple(comps))

    if isinstance(probe, CoherentProduct):
        return _decompose_coherent(probe, kind)

    raise ConfigurationError(f"unknown probe type {type(probe).__name__}")


def _decompose_coherent(probe: CoherentProduct, kind: InteractionKind) -> WeightedComponents:
    alphas = probe.alphas
    if len(alphas) != kind.n_modes:
        raise ConfigurationError(
            f"interaction {kind.value} needs {kind.n_modes} coherent amplitudes"
        )
    mus = [abs(a) ** 2 for a in alphas]
    tops = _poisson_cutoffs(mus, probe.cutoff_mass)
    n_states = math.prod(t + 1 for t in tops)
    if n_states > MAX_COHERENT_STATES:
        raise ResourceError(
            f"coherent decomposition needs {n_states} basis states "
            f"(cap {MAX_COHERENT_STATES}); raise the cap or lower cutoff_mass"
        )

    # per-mode amplitude tables <n|alpha>
    tables = []
    for a, top in zip(alphas, tops):
        norm = math.exp(-abs(a) ** 2 / 2.0)
        row = np.empty(top + 1, dtype=complex)
        row[0] = norm
        for n in range(1, top + 1):
            row[n] = row[n - 1] * a / math.sqrt(n)
        tables.append(row)

    # product states by descending Poisson weight, ties by their tuple of
    # per-mode weight ranks, kept until the retained mass reaches the cutoff
    weight_rows = [np.abs(t) ** 2 for t in tables]
    orders = [np.argsort(-w, kind="stable") for w in weight_rows]
    box = np.ones(())
    for w, o in zip(weight_rows, orders):
        box = np.multiply.outer(box, w[o])
    weights = box.ravel()
    ranked = np.argsort(-weights, kind="stable")
    retained = np.cumsum(weights[ranked])
    kept = int(np.searchsorted(retained, probe.cutoff_mass)) + 1
    if kept > len(ranked):
        raise ResourceError(
            f"retained mass {retained[-1]} below cutoff {probe.cutoff_mass}; "
            "per-mode truncation too tight"
        )
    ranks = np.unravel_index(ranked[:kept], box.shape)
    occs = np.stack([o[r] for o, r in zip(orders, ranks)], axis=1)

    # each table gains a trailing zero for occupations past its cutoff
    padded = [np.append(t, 0.0) for t in tables]
    comps = []
    for root in np.unique(_sector_roots(kind, occs), axis=0):
        ladder = build_ladder(kind, FockConfig(root))
        psi = np.ones(ladder.d, dtype=complex)
        for table, column in zip(padded, ladder.basis.T):
            psi *= table[np.minimum(column, len(table) - 1)]
        w = float(np.vdot(psi, psi).real)
        if w <= 0.0:
            continue
        comps.append(Component(weight=w, ladder=ladder, amplitudes=psi / math.sqrt(w)))

    total = sum(c.weight for c in comps)
    comps = [
        Component(weight=c.weight / total, ladder=c.ladder, amplitudes=c.amplitudes)
        for c in comps
    ]
    return WeightedComponents(tuple(comps))


def mean_occupations(components: WeightedComponents) -> np.ndarray:
    """Ensemble mean occupation per mode (diagnostic for truncation)."""
    return sum(
        c.weight * (np.abs(c.amplitudes) ** 2 @ c.ladder.basis)
        for c in components.components
    )
