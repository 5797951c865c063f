"""Probe states as weighted collections of ladder components.

Three probe families are supported: ideal product Fock states, the
symmetric preparation-noise mixture (per mode, weight eps on each of the
two neighboring occupations), and product coherent states.  A
:class:`PureFock` is also the configuration that :mod:`tsense.optimize`
searches and the closed forms of :mod:`tsense.metrology` take; Fock
occupations and coherent amplitudes are checked when a probe is built.
All of them decompose into components that live on a single ladder each:

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

Components are handed out in stacks: every component whose ladder has
the same dimension d and the same measured-mode occupations on its
rungs joins one :class:`LadderStack`, whose generators, initial vectors
and weights are (m x d-1), (m x d) and (m,) arrays built by table
lookups.  A coherent probe with a few hundred sectors has a few dozen
stacks; a pure Fock probe is one stack of one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, ResourceError
from .ladder import (
    MAX_RUNGS,
    InteractionKind,
    checked_rungs,
    ladder_basis,
    ladder_offdiag,
    sector_roots,
    validate_config,
)

MAX_COHERENT_STATES = 200_000


def _checked_occupations(values) -> tuple[int, ...]:
    """``values`` as Python ints, refused unless each is an integer (numpy
    integers too, bools not), non-negative and below 2**61."""
    if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in values):
        raise ConfigurationError(f"occupations must be integers, got {values}")
    occs = tuple(int(n) for n in values)
    if any(n < 0 for n in occs):
        raise ConfigurationError(f"occupations must be non-negative, got {occs}")
    # ladder rungs and charges (up to 2 n_a' + n_b') are int64 arrays
    if any(n >= 2**61 for n in occs):
        raise ConfigurationError(f"occupations must be below 2**61, got {occs}")
    return occs


@dataclass(frozen=True)
class PureFock:
    """Ideal product Fock probe, one occupation per mode."""

    occupations: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "occupations", _checked_occupations(self.occupations))


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
        object.__setattr__(self, "nominal", _checked_occupations(self.nominal))
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
        try:
            mus = [abs(complex(a)) ** 2 for a in self.alphas]
        except OverflowError:  # a mean occupation past the largest float
            raise ResourceError("coherent truncation did not close") from None
        if not all(map(math.isfinite, mus)):
            raise ConfigurationError(f"amplitudes must be finite, got {self.alphas}")


Probe = Union[PureFock, NoisyFock, CoherentProduct]


@dataclass(frozen=True)
class LadderStack:
    """m ladders of one dimension d, each with an initial unit vector and
    an ensemble weight, stacked along a leading axis.

    ``roots`` is the (m x modes) rung-0 configuration of each ladder, so
    rung k of ladder i has the occupations ``roots[i] + k * rung_step``;
    ``offdiag`` is (m x d-1), ``amplitudes`` (m x d) complex unit rows
    and ``weights`` (m,).  Every ladder of a stack has the same
    occupations of the measured mode on its rungs.
    """

    kind: InteractionKind
    roots: np.ndarray
    weights: np.ndarray
    offdiag: np.ndarray
    amplitudes: np.ndarray

    @property
    def d(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def basis(self) -> np.ndarray:
        """(m x d x modes) occupations of every rung of every ladder."""
        return ladder_basis(self.kind, self.roots, self.d)

    def occupations(self, mode: int) -> np.ndarray:
        """The (d,) occupations of ``mode`` on the rungs, shared by the stack."""
        first, step = int(self.roots[0, mode]), self.kind.rung_step[mode]
        return np.arange(first, first + step * self.d, step)


@dataclass(frozen=True)
class WeightedComponents:
    """A probe's ladders, grouped into stacks."""

    components: tuple[LadderStack, ...]


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


def decompose(probe: Probe, kind: InteractionKind, mode: int = 0) -> WeightedComponents:
    """Split a probe into weighted single-ladder parts, stacked.

    Ladders of one dimension whose rungs carry the same occupations of
    the measured ``mode`` form one :class:`LadderStack`.  For mode 0 the
    rung occupations are 0..d-1 on every ladder, so the dimension alone
    decides.  Every dimension is known in closed form before anything is
    built: a ladder above MAX_RUNGS rungs, or ladders that need more than
    MAX_RUNGS**2 eigenvector entries together, are refused first.
    """
    if isinstance(probe, PureFock):
        validate_config(kind, probe.occupations)
        return _fock_stacks(kind, [probe.occupations], [1.0], mode)

    if isinstance(probe, NoisyFock):
        validate_config(kind, probe.nominal)
        per_mode = [_noise_terms(n, e) for n, e in zip(probe.nominal, probe.eps)]
        combos = list(itertools.product(*per_mode))
        occs = [tuple(term[0] for term in combo) for combo in combos]
        weights = [math.prod(term[1] for term in combo) for combo in combos]
        return _fock_stacks(kind, occs, weights, mode)

    if isinstance(probe, CoherentProduct):
        return _decompose_coherent(probe, kind, mode)

    raise ConfigurationError(f"unknown probe type {type(probe).__name__}")


def _stack_members(
    kind: InteractionKind, rows: list, labels, mode: int
) -> list[tuple[int, list[int]]]:
    """The dimension and the ladder numbers of each stack, once the rung
    cap and the eigenvector budget have passed.

    ``rows`` are the rung-0 configurations of the ladders, ``labels`` the
    occupations that name each ladder in a refusal.
    """
    d = checked_rungs(kind, rows, labels)
    # each ladder keeps a d x d eigenvector matrix; all of them together
    # may hold no more than one ladder at the rung cap
    entries = sum(n * n for n in d)
    if entries > MAX_RUNGS**2:
        raise ResourceError(
            f"the {len(d)} ladders of the probe need {entries} eigenvector "
            f"entries, {entries * 8 / 2**30:.1f} GiB (cap {MAX_RUNGS}**2)"
        )
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (n, row) in enumerate(zip(d, rows)):
        groups.setdefault((n, row[mode]), []).append(i)
    return [(key[0], groups[key]) for key in sorted(groups)]


def _fock_stacks(
    kind: InteractionKind, occs: list[tuple[int, ...]], weights: list[float], mode: int
) -> WeightedComponents:
    """Stacks of the product Fock states ``occs``, each starting on the
    rung of its measured-mode occupation.  Few states, so each stack's
    arrays are made from lists."""
    rows = sector_roots(kind, np.array(occs)).tolist()
    stacks = []
    for d, members in _stack_members(kind, rows, occs, mode):
        start = np.array([occs[i][0] for i in members])
        psi = (np.arange(d) == start[:, None]).astype(complex)
        roots = np.array([rows[i] for i in members])
        stacks.append(_stack(kind, roots, np.array([weights[i] for i in members]), psi))
    return WeightedComponents(tuple(stacks))


def _stack(
    kind: InteractionKind, roots: np.ndarray, weights: np.ndarray, amplitudes: np.ndarray
) -> LadderStack:
    """The stacked build: one generator table for ladders of one dimension."""
    offdiag = ladder_offdiag(kind, roots, amplitudes.shape[1])
    return LadderStack(kind, roots, weights, offdiag, amplitudes)


def _decompose_coherent(
    probe: CoherentProduct, kind: InteractionKind, mode: int
) -> WeightedComponents:
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
    roots = np.unique(sector_roots(kind, occs), axis=0)
    parts = []
    for d, members in _stack_members(kind, roots.tolist(), roots, mode):
        idx = np.array(members)
        psi = np.ones((len(idx), d), dtype=complex)
        columns = np.moveaxis(ladder_basis(kind, roots[idx], d), -1, 0)
        for table, column in zip(padded, columns):
            psi *= table[np.minimum(column, len(table) - 1)]
        w = np.einsum("ij,ij->i", psi.conj(), psi).real
        keep = w > 0.0
        parts.append((idx[keep], w[keep], psi[keep] / np.sqrt(w[keep])[:, None]))
    total = sum(w.sum() for _, w, _ in parts)
    return WeightedComponents(
        tuple(_stack(kind, roots[idx], w / total, psi) for idx, w, psi in parts if idx.size)
    )
