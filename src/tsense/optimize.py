"""Optimal Fock configurations for a fixed total excitation number.

Exhaustive enumeration over integer compositions, scored at once as
int64 columns so ties are exact, is the ground truth; it refuses more
than ``MAX_COMPOSITIONS`` candidates (totals from 2047 for interaction I,
from 2**21 for II).  The continuous Lagrange relaxation (stationarity of
the closed-form zero-coupling Fisher information under sum(n_i) = N)
exists to validate the round-to-neighbors heuristic and the N^3 growth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericError, ResourceError
from .ladder import FockConfig, InteractionKind

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
    maximizers: tuple[FockConfig, ...]
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


def _compositions(kind: InteractionKind, total: int, modes: Optional[int]) -> list:
    """One int64 column per mode of the compositions of ``total`` with
    ``modes`` excited modes (None: any), in lexicographic order."""
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    if modes is not None and not 1 <= modes <= kind.n_modes:
        raise ConfigurationError(
            f"modes must lie in 1..{kind.n_modes} for interaction {kind.value}"
        )
    count = math.comb(total + kind.n_modes - 1, kind.n_modes - 1)
    if count > MAX_COMPOSITIONS:
        raise ResourceError(
            f"{count} compositions exceed MAX_COMPOSITIONS = {MAX_COMPOSITIONS}"
        )
    if kind is InteractionKind.I:
        # row na, column na + nb of the upper triangle
        na, upper = np.triu_indices(total + 1)
        cols = [na, upper - na, total - upper]
    else:
        na = np.arange(total + 1)
        cols = [na, total - na]
    if modes is not None:
        keep = sum(c > 0 for c in cols) == modes
        cols = [c[keep] for c in cols]
    return cols


def _argmax(kind: InteractionKind, cols) -> tuple[Optional[int], tuple[FockConfig, ...]]:
    """Best score among the candidate rows and every row that ties it,
    or (None, ()) if there are none."""
    scores = _score(kind, cols)
    if scores.size == 0:
        return None, ()
    best = scores.max()
    hit = scores == best
    rows = np.stack([c[hit] for c in cols], axis=1).tolist()
    return int(best), tuple(FockConfig(tuple(r)) for r in rows)


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
    best, maximizers = _argmax(kind, _compositions(kind, total, modes))
    if best is None:
        raise ConfigurationError(
            f"no configuration of {total} quanta excites exactly {modes} modes"
        )
    relaxation = None
    if total > 0:
        try:
            relaxation = lagrange_relaxation(kind, total)
        except NumericError:
            # the continuous stationarity system has no real root for
            # kind II at N=1; enumeration stays authoritative
            relaxation = None
    return OptimalResult(
        n=total,
        kind=kind,
        maximizers=maximizers,
        f0=4.0 * t * t * best,
        relaxation=relaxation,
        asymptote=asymptotic_prediction(kind, total, t),
    )


def optimize_config_weighted(
    kind: InteractionKind,
    weights: tuple[float, ...],
    budget: float,
    t: float = 1.0,
) -> tuple[tuple[FockConfig, ...], float]:
    """Argmax configurations under the budget sum(w_i n_i) <= budget.

    Energy-style variant of :func:`optimize_config` for mode-dependent
    quantum costs (e.g. trap frequencies); returns (maximizers, f0).
    """
    if len(weights) != kind.n_modes:
        raise ConfigurationError(
            f"interaction {kind.value} needs {kind.n_modes} weights"
        )
    if any(w <= 0 for w in weights) or budget < 0:
        raise ConfigurationError("weights must be positive and budget >= 0")
    shape = [int(budget / w) + 1 for w in weights]
    if math.prod(shape) > MAX_COMPOSITIONS:
        raise ResourceError(
            f"{math.prod(shape)} candidates exceed MAX_COMPOSITIONS = {MAX_COMPOSITIONS}"
        )
    box = np.indices(shape).reshape(kind.n_modes, -1)
    # summed left to right in float, as sum(w_i * n_i) over Python numbers
    keep = sum(w * n for w, n in zip(weights, box)) <= budget
    best, maximizers = _argmax(kind, [n[keep] for n in box])
    return maximizers, 4.0 * t * t * (best or 0)


def _grad_hess(kind: InteractionKind, x: np.ndarray):
    if kind is InteractionKind.I:
        na, nb, nc = x
        grad = np.array(
            [
                (nb + 1) * (nc + 1) + nb * nc,
                na * (nc + 1) + (na + 1) * nc,
                na * (nb + 1) + (na + 1) * nb,
            ]
        )
        hess = np.array(
            [
                [0.0, 2 * nc + 1, 2 * nb + 1],
                [2 * nc + 1, 0.0, 2 * na + 1],
                [2 * nb + 1, 2 * na + 1, 0.0],
            ]
        )
    else:
        na, nb = x
        grad = np.array(
            [
                2 * nb * nb + 2 * nb + 2,
                (2 * nb - 1) * (na + 1) + (2 * nb + 3) * na,
            ]
        )
        hess = np.array(
            [
                [0.0, 4 * nb + 2],
                [4 * nb + 2, 4 * na + 2],
            ]
        )
    return grad, hess


def lagrange_relaxation(kind: InteractionKind, total: float) -> tuple[float, ...]:
    """Continuous stationary occupations of the closed form under sum = N.

    Damped Newton on grad F = lambda, sum(n_i) = N from the even split;
    steps are halved while the residual norm would grow.
    """
    if total <= 0:
        raise ConfigurationError(f"total must be positive, got {total}")
    k = kind.n_modes
    z = np.empty(k + 1)
    z[:k] = total / k
    z[k] = _grad_hess(kind, z[:k])[0].mean()

    def residual(zv: np.ndarray) -> np.ndarray:
        grad, _ = _grad_hess(kind, zv[:k])
        return np.append(grad - zv[k], zv[:k].sum() - total)

    r = residual(z)
    for _ in range(200):
        if np.linalg.norm(r) < 1e-10:
            return tuple(float(v) for v in z[:k])
        _, hess = _grad_hess(kind, z[:k])
        jac = np.zeros((k + 1, k + 1))
        jac[:k, :k] = hess
        jac[:k, k] = -1.0
        jac[k, :k] = 1.0
        step = np.linalg.solve(jac, -r)
        damp = 1.0
        while damp > 1e-8:
            trial = z + damp * step
            r_trial = residual(trial)
            if np.linalg.norm(r_trial) <= np.linalg.norm(r):
                z, r = trial, r_trial
                break
            damp *= 0.5
        else:
            z = z + step
            r = residual(z)
    raise NumericError(f"relaxation did not converge for N={total}, kind {kind.value}")


def asymptotic_prediction(kind: InteractionKind, total: int, t: float = 1.0) -> float:
    """Leading-order optimal Fisher information, 8t^2 N^3/27 or 32t^2 N^3/27."""
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    coeff = 8.0 if kind is InteractionKind.I else 32.0
    return coeff * t * t * total**3 / 27.0


def scaling_table(
    kind: InteractionKind, n_max: int, modes: int, t: float = 1.0
) -> list[tuple[int, Optional[float]]]:
    """Constrained optimum F0 for every N up to n_max (None if infeasible)."""
    if n_max < 1:
        raise ConfigurationError(f"n_max must be >= 1, got {n_max}")
    if n_max > 200:
        raise ConfigurationError(f"n_max capped at 200, got {n_max}")
    rows: list[tuple[int, Optional[float]]] = []
    for n in range(1, n_max + 1):
        best, _ = _argmax(kind, _compositions(kind, n, modes))
        rows.append((n, None if best is None else 4.0 * t * t * best))
    return rows
