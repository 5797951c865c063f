"""Optimal Fock configurations for a fixed total excitation number.

The search scores the rows of ``_candidates`` at once as int64 columns,
so ties are exact: all N + 1 compositions for interaction II, and for I
at most 4(N + 1) rows beside the balanced line n_b = n_c, which hold
every maximizer.  Its maximizers are :class:`~tsense.probes.PureFock`
probes, ready to scan.  ``scaling_table`` builds and scores the rows of
every total 1..n_max in one pass, for one optimum per excited-mode
count.  Both count their rows before building them and refuse more than
``ladder.MAX_ROWS``: totals from 524,288 (I) and 2**21 (II), and n_max
from 1023 (I) and 2047 (II).  The continuous Lagrange relaxation
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

from .errors import ConfigurationError, NumericError, ResourceError
from .ladder import MAX_ROWS, InteractionKind, validate_config
from .probes import PureFock, _is_integer


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


def _check_count(count: int) -> None:
    """Refuse a search over more than MAX_ROWS candidates."""
    if count > MAX_ROWS:
        raise ResourceError(f"{count} candidates exceed MAX_ROWS = {MAX_ROWS}")


def _finite(value) -> bool:
    """Whether ``value`` is finite; an integer past the largest float is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _rows_per_n_a(kind: InteractionKind) -> int:
    """The most candidate rows ``_candidates`` gives one n_a of one total."""
    return 4 if kind is InteractionKind.I else 1


def _candidates(kind: InteractionKind, totals) -> list:
    """One int64 column per mode of the candidate rows of every total in
    ``totals``, the rows of each total in lexicographic order.

    Interaction II gets every composition.  For interaction I, with
    M = n_b + n_c = N - n_a,

        score = n_a (n_b+1)(n_c+1) + (n_a+1) n_b n_c
              = (2 n_a + 1) n_b n_c + n_a (M + 1),

    and n_b n_c = (M^2 - (n_b - n_c)^2) / 4 falls strictly with
    |n_b - n_c|.  So at fixed n_a, the best splits of M that excite both
    b and c are (floor(M/2), ceil(M/2)) and its swap, the splits that
    excite one of them are (0, M) and (M, 0), which tie, and (0, 0) is
    the only split of M = 0.  A maximizer under any excited-mode
    restriction is best at its own n_a among the splits that excite as
    many of b and c as it does, so it is one of these at most four rows
    per n_a.
    """
    totals = np.asarray(totals)
    per_total = totals + 1
    na = np.arange(per_total.sum()) - np.repeat(np.cumsum(per_total) - per_total, per_total)
    rest = np.repeat(totals, per_total) - na
    if kind is InteractionKind.II:
        return [na, rest]
    half = rest // 2
    nb = np.stack([np.zeros_like(rest), half, rest - half, rest], axis=1).ravel()
    # the four rows of one n_a ascend in n_b; a row equal to the one before
    # it repeats it, and the first row of each n_a is always kept
    keep = np.empty(nb.size, dtype=bool)
    np.not_equal(nb[1:], nb[:-1], out=keep[1:])
    keep[::4] = True
    row = np.flatnonzero(keep)
    nb, group = nb[row], row // 4
    return [na[group], nb, rest[group] - nb]


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
    if not _is_integer(total):
        raise ConfigurationError(f"total must be an integer, got {total!r}")
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    _check_count(_rows_per_n_a(kind) * (int(total) + 1))
    cols = _candidates(kind, [total])
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
    if not all(map(_finite, (*weights, budget))):
        raise ConfigurationError("weights and budget must be finite")
    if any(w <= 0 for w in weights) or budget < 0:
        raise ConfigurationError("weights must be positive and budget >= 0")
    tops = [budget / w for w in weights]
    if not all(map(math.isfinite, tops)):
        raise ConfigurationError(f"budget / weight exceeds the largest float, weights {weights}")
    shape = [int(top) + 1 for top in tops]
    _check_count(math.prod(shape))
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
    integers only N = 1 of interaction II.  The quadratic is solved for
    N scaled by 2^-k, k its binary exponent, so that 4N^2 cannot overflow;
    the scaling is exact, and the roots stay finite up to the largest float.
    """
    if not (_finite(total) and total > 0):
        raise ConfigurationError(f"total must be positive and finite, got {total}")
    one = kind is InteractionKind.I
    p, q, r, den = (3.0, 12.0, 15.0, 12.0) if one else (1.0, 8.0, 17.0, 6.0)
    k = max(math.frexp(total)[1], 0)
    n, h = math.ldexp(total, -k), math.ldexp(1.0, -k)
    disc = 4.0 * n * n + q * n * h - r * h * h
    if disc < 0:
        return None
    x = math.ldexp((2.0 * n - p * h + math.sqrt(disc)) / den, k)  # m for I, n_b for II
    occs = (total - 2.0 * x, x, x) if one else (total - x, x)
    if not all(map(math.isfinite, occs)):
        raise NumericError(f"the relaxation at total {total} is not finite")
    return occs


def asymptotic_prediction(kind: InteractionKind, total: int, t: float = 1.0) -> float:
    """Leading-order optimal F0, 8t^2 N^3/27 or 32t^2 N^3/27; NumericError past a float."""
    if not (_finite(total) and total >= 0):
        raise ConfigurationError(f"total must be >= 0 and finite, got {total}")
    coeff = 8.0 if kind is InteractionKind.I else 32.0
    try:
        value = coeff * t * t * total**3 / 27.0
    except OverflowError:  # N**3 past the largest float
        raise ConfigurationError(f"total**3 exceeds the largest float, got {total}") from None
    if not math.isfinite(value):
        raise NumericError(f"the asymptote at total {total}, t = {t} is not finite")
    return value


def scaling_table(kind: InteractionKind, n_max: int, t: float = 1.0) -> list[tuple]:
    """One row per total N = 1..n_max: N, then the optimum F0 among the
    compositions of N that excite exactly 1, ..., n_modes modes (None
    where none does).  The candidate rows of all the totals are built
    and scored in one pass, and each (total, excited-mode count) keeps
    its best score."""
    if not _is_integer(n_max):
        raise ConfigurationError(f"n_max must be an integer, got {n_max!r}")
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    # N + 1 values of n_a for each total N = 1..n_max
    _check_count(_rows_per_n_a(kind) * (int(n_max) * (int(n_max) + 3) // 2))
    cols = _candidates(kind, np.arange(1, n_max + 1))
    # the best score of each total and excited-mode count, at flat index
    # total * width + count (ufunc.at is several times faster on one index
    # array than on a pair); every score is >= 0, so -1 marks a count that
    # no composition of the total has
    width = kind.n_modes + 1
    best = np.full((n_max + 1) * width, -1)
    np.maximum.at(best, sum(cols) * width + sum(c > 0 for c in cols), _score(kind, cols))
    return [
        (n, *(4.0 * t * t * s if s >= 0 else None for s in row[1:]))
        for n, row in enumerate(best.reshape(-1, width).tolist()[1:], start=1)
    ]
