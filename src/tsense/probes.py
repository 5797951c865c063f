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
  states that carry the probe's mass: the box of per-mode <n|alpha>
  tables (see :class:`CoherentProduct`) is sorted once by descending
  weight (ties by per-mode weight rank), and cut at the first state
  where the cumulative weight reaches ``cutoff_mass``.

Every readout is diagonal in the number basis of mode a (a' for
interaction II), where sector populations add, so this decomposition is
exact for every scheme in :mod:`tsense.metrology`.

Components are handed out in stacks: every component whose ladder has
dimension d joins one :class:`LadderStack`, whose generators, initial
vectors and weights are (m x d-1), (m x d) and (m,) arrays built by
table lookups.  Rung k of every ladder carries k quanta of mode a (a'),
so it is readout outcome k.  A coherent probe with a few hundred
sectors has a few dozen stacks; a pure Fock probe is one stack of one.

Components of one stack may share a generator, which then needs to be
diagonalized only once: kind I's elements sqrt((k+1)(Q_b-k)(Q_c-k)) are
symmetric under Q_b <-> Q_c, so the coherent sectors (0, Q_b, Q_c) and
(0, Q_c, Q_b) share one (the |alpha|^2 = 2 probe has 407 ladders on 213
generators), and noisy components that share a root share their whole
ladder, as (1, 1, 1) and (2, 0, 0) do on (0, 2, 2).  Each stack lists
its ladders generator by generator, and the grouping is found once per
probe over all of its ladders.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigurationError, ResourceError
from .ladder import (
    MAX_ROWS,
    MAX_RUNGS,
    InteractionKind,
    generator_keys,
    ladder_basis,
    ladder_dims,
    ladder_offdiag,
    sector_roots,
    validate_config,
)


def _is_integer(n) -> bool:
    """Python and numpy integers are integers; bools are not."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _checked_occupations(values) -> tuple[int, ...]:
    """``values`` as Python ints, refused unless each is an integer (see
    ``_is_integer``), non-negative and below 2**61."""
    if not all(map(_is_integer, values)):
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

    The Fock expansion keeps a probability mass of at least
    ``cutoff_mass``.  Each mode's table stops where its own mass reaches
    1 - (1 - cutoff_mass) / (2 modes), past floor(|alpha|^2), so a box
    whose lower bound prod(floor(|alpha_i|^2) + 1) exceeds MAX_ROWS is
    refused before any table is built.  "did not close" means a table's
    mass stalled short of that in rounding, or |alpha|^2 overflows.
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
    rung k of ladder i has the occupations ``roots[i] + k * rung_step``
    (see :func:`tsense.ladder.ladder_basis`) and k quanta of mode a (a');
    ``offdiag`` is (m x d-1), ``amplitudes`` (m x d) unit rows, real
    for Fock and noisy-Fock stacks and complex for coherent ones, and
    ``weights`` (m,).

    Ladders with one generator (see :func:`tsense.ladder.generator_keys`)
    are adjacent: ``generator`` (m,) numbers the distinct generators 0, 1,
    ... in order, and ``slot`` (m,) is each ladder's place among those of
    its generator, 0 for the first.
    """

    roots: np.ndarray
    weights: np.ndarray
    offdiag: np.ndarray
    amplitudes: np.ndarray
    generator: np.ndarray
    slot: np.ndarray

    @property
    def d(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def multiplicity(self) -> int:
        """K, the most ladders that share one generator."""
        return int(self.slot.max()) + 1


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


def decompose(probe: Probe, kind: InteractionKind) -> WeightedComponents:
    """Split a probe into weighted single-ladder parts, stacked.

    Ladders of one dimension d form one :class:`LadderStack`, listed
    generator by generator; their rungs carry 0..d-1 quanta of mode a
    (a').  Every dimension is known in closed form before anything is
    built: ladders that need more than MAX_RUNGS**2 eigenvector entries
    together are refused first (counted per ladder, shared generators
    or not).
    """
    if isinstance(probe, PureFock):
        validate_config(kind, probe.occupations, "occupations")
        return _fock_stacks(kind, [probe.occupations], [1.0])

    if isinstance(probe, NoisyFock):
        validate_config(kind, probe.nominal, "occupations")
        per_mode = [_noise_terms(n, e) for n, e in zip(probe.nominal, probe.eps)]
        combos = list(itertools.product(*per_mode))
        occs = [tuple(term[0] for term in combo) for combo in combos]
        weights = [math.prod(term[1] for term in combo) for combo in combos]
        return _fock_stacks(kind, occs, weights)

    if isinstance(probe, CoherentProduct):
        return _decompose_coherent(probe, kind)

    raise ConfigurationError(f"unknown probe type {type(probe).__name__}")


def _stack_members(kind: InteractionKind, roots: np.ndarray) -> list[tuple]:
    """Each stack, in ascending d, of the ladders with the (m x modes)
    rung-0 configurations ``roots``, once the eigenvector budget has
    passed: its d, its ladder numbers, and their ``generator`` and ``slot``
    (see :class:`LadderStack`).  Within a stack the ladders of one
    generator are adjacent and keep their given order; the grouping is
    found over all the ladders at once."""
    d = ladder_dims(kind, roots)
    # all the ladders together may need no more d**2 entries than one
    # ladder of MAX_RUNGS rungs (their SVD factors hold about half of that);
    # summed in floats, which cannot wrap as int64 could
    if d @ d.astype(float) > MAX_RUNGS**2:
        dims = d.tolist()
        entries = sum(n * n for n in dims)
        raise ResourceError(
            f"the {len(dims)} ladders of the probe need {entries} eigenvector "
            f"entries, {entries * 8 / 2**30:.1f} GiB (cap {MAX_RUNGS}**2); "
            f"the largest has {max(dims)} rungs"
        )
    if len(d) == 1:
        # one ladder (every pure Fock probe) is its own generator; the sort
        # below would cost a short Fock job more than its evaluation saves
        zero = np.zeros(1, dtype=int)
        return [(int(d[0]), zero, zero, zero)]
    keys = generator_keys(kind, roots)
    order = np.lexsort((keys, d))
    d, keys = d[order], keys[order]
    # a stack starts where d changes, and a generator where d or the key does
    step = d[1:] != d[:-1]
    first = np.concatenate(([True], step | (keys[1:] != keys[:-1])))
    generator = first.cumsum() - 1
    slot = np.arange(len(d)) - first.nonzero()[0][generator]
    cuts = [0, *(step.nonzero()[0] + 1).tolist(), len(d)]
    return [
        (int(d[lo]), order[lo:hi], generator[lo:hi] - generator[lo], slot[lo:hi])
        for lo, hi in zip(cuts, cuts[1:])
    ]


def _fock_stacks(
    kind: InteractionKind, occs: list[tuple[int, ...]], weights: list[float]
) -> WeightedComponents:
    """Stacks of the product Fock states ``occs``, each starting on the
    rung of its occupation of mode a (a')."""
    occs, weights = np.array(occs), np.array(weights)
    roots = sector_roots(kind, occs)
    return WeightedComponents(tuple(
        _stack(kind, roots[idx], weights[idx], (np.arange(d) == occs[idx, :1]).astype(float),
               generator, slot)
        for d, idx, generator, slot in _stack_members(kind, roots)
    ))


def _stack(
    kind: InteractionKind, roots: np.ndarray, weights: np.ndarray, amplitudes: np.ndarray,
    generator: np.ndarray, slot: np.ndarray,
) -> LadderStack:
    """The stacked build: one generator table for ladders of one dimension."""
    offdiag = ladder_offdiag(kind, roots, amplitudes.shape[1])
    return LadderStack(roots, weights, offdiag, amplitudes, generator, slot)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique(rows, axis=0)`` for non-negative integer rows, through one
    integer key per row, which sorts them alike without comparing rows."""
    _, first = np.unique(np.ravel_multi_index(rows.T, rows.max(axis=0) + 1), return_index=True)
    return rows[first]


def _amplitude_table(alpha, share: float) -> np.ndarray:
    """<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!) up to the first n
    where its own squares reach 1 - share, by recursion from the first
    entry whose log exceeds -708 (exp(-708.4) is the smallest normal float;
    the entries before it weigh below 1e-600 and stay 0).  Past the peak
    (n > |alpha|^2) the entries only shrink: one that no longer moves the
    running mass stalls it."""
    mu, size = abs(alpha) ** 2, abs(alpha) or 1.0  # alpha = 0 gives the table [1]
    log_a, phase = math.log(size), complex(alpha) / size
    logs = (n * log_a - mu / 2.0 - math.lgamma(n + 1) / 2.0 for n in itertools.count())
    first, log_first = next((n, v) for n, v in enumerate(logs) if v > -708.0)
    entry = np.complex128(math.exp(log_first) * phase**first)
    entries, mass, n = [entry], abs(entry) ** 2, first
    while mass < 1.0 - share:
        n += 1
        entry = entry * alpha / math.sqrt(n)
        weight = abs(entry) ** 2
        if n > mu and mass + weight == mass:
            raise ResourceError("coherent truncation did not close")
        entries.append(entry)
        mass += weight
    return np.concatenate([np.zeros(first, dtype=complex), entries])


def _decompose_coherent(probe: CoherentProduct, kind: InteractionKind) -> WeightedComponents:
    alphas = probe.alphas
    validate_config(kind, alphas, "coherent amplitudes")
    # a table reaches 1 - share > 3/4, but its squares below floor(|alpha|^2)
    # weigh under 1/2, since the Poisson median is at least |alpha|^2 - ln 2
    least = math.prod(math.floor(abs(a) ** 2) + 1 for a in alphas)
    if least > MAX_ROWS:
        raise ResourceError(
            f"coherent decomposition needs at least {least} basis states, "
            f"floor(|alpha|**2) + 1 per mode (cap MAX_ROWS = {MAX_ROWS})"
        )
    share = (1.0 - probe.cutoff_mass) / (2.0 * len(alphas))
    tables = [_amplitude_table(a, share) for a in alphas]
    n_states = math.prod(map(len, tables))
    if n_states > MAX_ROWS:
        raise ResourceError(
            f"coherent decomposition needs {n_states} basis states "
            f"(cap MAX_ROWS = {MAX_ROWS}); lower cutoff_mass"
        )

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
    roots = _unique_rows(sector_roots(kind, occs))
    parts = []
    for d, idx, generator, slot in _stack_members(kind, roots):
        psi = np.ones((len(idx), d), dtype=complex)
        columns = np.moveaxis(ladder_basis(kind, roots[idx], d), -1, 0)
        for table, column in zip(padded, columns):
            psi *= table[np.minimum(column, len(table) - 1)]
        # positive: each ladder holds a kept product state, and none of those
        # weighs less than the last one kept, which still moved the retained
        # sum (by at least half an ulp of the cutoff)
        w = np.einsum("ij,ij->i", psi.conj(), psi).real
        parts.append((roots[idx], w, psi / np.sqrt(w)[:, None], generator, slot))
    total = sum(w.sum() for _, w, _, _, _ in parts)
    return WeightedComponents(tuple(
        _stack(kind, r, w / total, psi, generator, slot) for r, w, psi, generator, slot in parts
    ))
