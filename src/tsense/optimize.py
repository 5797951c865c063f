"""Optimal Fock configurations for a fixed total excitation number.

Exhaustive enumeration over integer compositions, scored at once as
int64 columns so ties are exact, is the ground truth; it refuses more
than ``MAX_COMPOSITIONS`` candidates (totals from 2047 for interaction I,
from 2**21 for II).  Its maximizers are :class:`~tsense.probes.PureFock`
probes, ready to scan.  ``scaling_table`` scores each total once, for one
optimum per excited-mode count.  The continuous Lagrange relaxation
(stationarity of the closed-form zero-coupling Fisher information under
sum(n_i) = N) exists to validate the round-to-neighbors heuristic and the
N^3 growth.  It is the larger root of one quadratic (n_b = n_c at every
stationary point of interaction I), and None where that has no real root.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ResourceError
from .ladder import InteractionKind, validate_config
from .probes import PureFock, _is_integer

# Largest number of candidates one search scores, for two reasons.
# Memory: interaction I at the cap (total 2046) lifts the peak RSS of a
# run from about 30 MB to about 110 MB of int64 columns.  Exact scores:
# the largest interaction-II score at the cap is 2.7e18, below 2**63;
# above it scores wrap without an error (a 2**23 cap gave the wrong
# maximizer at total 5,000,000).
MAX_COMPOSITIONS = 2**21


@dataclass(frozen=True)
class OptimalResult:
    n: int
    kind: InteractionKind
    maximizers: tuple[PureFock, ...]
    f0: float
    relaxation: Optional[tuple[float, ...]]
    asymptote: float


def _score(kind: InteractionKind, occs):
    """F0 / (4 t^2) of a configuration; ``occs`` holds one Python int or
    one int64 column of candidates per mode."""
    if kind is InteractionKind.I:
        na, nb, nc = occs
        return na * (nb + 1) * (nc + 1) + (na + 1) * nb * nc
    na, nb = occs
    return nb * (nb - 1) * (na + 1) + (nb + 1) * (nb + 2) * na


def _check_count(count: int, what: str) -> None:
    """Refuse a search over more than MAX_COMPOSITIONS candidates."""
    if count > MAX_COMPOSITIONS:
        raise ResourceError(f"{count} {what} exceed MAX_COMPOSITIONS = {MAX_COMPOSITIONS}")


def _compositions(kind: InteractionKind, total: int) -> list:
    """One int64 column per mode of the compositions of ``total``, in
    lexicographic order."""
    if not _is_integer(total):
        raise ConfigurationError(f"total must be an integer, got {total!r}")
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    _check_count(math.comb(total + kind.n_modes - 1, kind.n_modes - 1), "compositions")
    if kind is InteractionKind.I:
        # row na, column na + nb of the upper triangle
        na, upper = np.triu_indices(total + 1)
        return [na, upper - na, total - upper]
    na = np.arange(total + 1)
    return [na, total - na]


def _argmax(kind: InteractionKind, cols) -> tuple[int, tuple[PureFock, ...]]:
    """Best score among the candidate rows, of which there is at least
    one, and every row that ties it."""
    scores = _score(kind, cols)
    best = scores.max()
    hit = scores == best
    rows = np.stack([c[hit] for c in cols], axis=1).tolist()
    return int(best), tuple(PureFock(r) for r in rows)


def optimize_config(
    kind: InteractionKind,
    total: int,
    modes: Optional[int] = None,
    t: float = 1.0,
) -> OptimalResult:
    """All argmax Fock configurations of the zero-coupling Fisher limit.

    ``modes`` restricts the search to configurations with exactly that
    many excited modes (single-, two-, or three-mode excitation
    schemes); None searches every composition of ``total``.
    """
    if modes is not None and not (_is_integer(modes) and 1 <= modes <= kind.n_modes):
        raise ConfigurationError(
            f"modes must lie in 1..{kind.n_modes} for interaction {kind.value}"
        )
    cols = _compositions(kind, total)
    if modes is not None:
        keep = sum(c > 0 for c in cols) == modes
        cols = [c[keep] for c in cols]
    if not cols[0].size:
        raise ConfigurationError(
            f"no configuration of {total} quanta excites exactly {modes} modes"
        )
    best, maximizers = _argmax(kind, cols)
    return OptimalResult(
        n=total,
        kind=kind,
        maximizers=maximizers,
        f0=4.0 * t * t * best,
        relaxation=lagrange_relaxation(kind, total) if total > 0 else None,
        asymptote=asymptotic_prediction(kind, total, t),
    )


def optimize_config_weighted(
    kind: InteractionKind,
    weights: tuple[float, ...],
    budget: float,
    t: float = 1.0,
) -> tuple[tuple[PureFock, ...], float]:
    """Argmax configurations under the budget sum(w_i n_i) <= budget.

    Energy-style variant of :func:`optimize_config` for mode-dependent
    quantum costs (e.g. trap frequencies); returns (maximizers, f0).
    """
    validate_config(kind, weights, "weights")
    if not all(math.isfinite(v) for v in (*weights, budget)):
        raise ConfigurationError("weights and budget must be finite")
    if any(w <= 0 for w in weights) or budget < 0:
        raise ConfigurationError("weights must be positive and budget >= 0")
    shape = [int(budget / w) + 1 for w in weights]
    _check_count(math.prod(shape), "candidates")
    box = np.indices(shape).reshape(kind.n_modes, -1)
    # summed left to right in float, as sum(w_i * n_i) over Python numbers;
    # the empty configuration always fits
    keep = sum(w * n for w, n in zip(weights, box)) <= budget
    best, maximizers = _argmax(kind, [n[keep] for n in box])
    return maximizers, 4.0 * t * t * best


def lagrange_relaxation(kind: InteractionKind, total: float) -> Optional[tuple[float, ...]]:
    """Continuous stationary occupations of the closed form under sum = N.

    For interaction I, dF/dn_b - dF/dn_c = (n_c - n_b)(2 n_a + 1), so a
    stationary point has n_b = n_c = m, and equal partial derivatives
    under n_a = N - 2m reduce to 6m^2 + (3 - 2N)m + (1 - N) = 0, whose
    larger root is m = (2N - 3 + sqrt(4N^2 + 12N - 15)) / 12.  For
    interaction II they reduce to 6n_b^2 + (2 - 4N)n_b + (3 - 2N) = 0,
    with n_b = (2N - 1 + sqrt(4N^2 + 8N - 17)) / 6 and n_a = N - n_b.
    The other root is negative for N > 1 (I) and N > 3/2 (II); below
    N = 1 both roots of I are negative.  None when the quadratic has no
    real root: N below about 0.95 for I and 1.29 for II, so among
    integers only N = 1 of interaction II.
    """
    if total <= 0:
        raise ConfigurationError(f"total must be positive, got {total}")
    if kind is InteractionKind.I:
        disc = 4.0 * total * total + 12.0 * total - 15.0
        if disc < 0:
            return None
        m = (2.0 * total - 3.0 + math.sqrt(disc)) / 12.0
        return (total - 2.0 * m, m, m)
    disc = 4.0 * total * total + 8.0 * total - 17.0
    if disc < 0:
        return None
    nb = (2.0 * total - 1.0 + math.sqrt(disc)) / 6.0
    return (total - nb, nb)


def asymptotic_prediction(kind: InteractionKind, total: int, t: float = 1.0) -> float:
    """Leading-order optimal Fisher information, 8t^2 N^3/27 or 32t^2 N^3/27."""
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    coeff = 8.0 if kind is InteractionKind.I else 32.0
    return coeff * t * t * total**3 / 27.0


def scaling_table(kind: InteractionKind, n_max: int, t: float = 1.0) -> list[tuple]:
    """One row per total N = 1..n_max: N, then the optimum F0 among the
    compositions of N that excite exactly 1, ..., n_modes modes (None
    where none does).  Each total is enumerated and scored once."""
    if not _is_integer(n_max):
        raise ConfigurationError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    if n_max > 200:
        raise ConfigurationError(f"n_max capped at 200, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        cols = _compositions(kind, n)
        scores, excited = _score(kind, cols), sum(c > 0 for c in cols)
        by_count = [scores[excited == m] for m in range(1, kind.n_modes + 1)]
        rows.append((n, *(4.0 * t * t * int(s.max()) if s.size else None for s in by_count)))
    return rows
