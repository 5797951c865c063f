"""Optimal Fock configurations for a fixed total excitation number.

Exhaustive enumeration over integer compositions is the ground truth;
the continuous Lagrange relaxation (stationarity of the closed-form
zero-coupling Fisher information under sum(n_i) = N) exists to validate
the round-to-neighbors heuristic and the asymptotic N^3 growth.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericError
from .ladder import FockConfig, InteractionKind


@dataclass(frozen=True)
class OptimalResult:
    n: int
    kind: InteractionKind
    maximizers: tuple[FockConfig, ...]
    f0: float
    relaxation: Optional[tuple[float, ...]]
    asymptote: float


def _score(kind: InteractionKind, occs: tuple[int, ...]) -> int:
    # integer arithmetic so ties are exact
    if kind is InteractionKind.I:
        na, nb, nc = occs
        return na * (nb + 1) * (nc + 1) + (na + 1) * nb * nc
    na, nb = occs
    return nb * (nb - 1) * (na + 1) + (nb + 1) * (nb + 2) * na


def _compositions(kind: InteractionKind, total: int):
    if kind is InteractionKind.I:
        for na in range(total + 1):
            for nb in range(total - na + 1):
                yield (na, nb, total - na - nb)
    else:
        for na in range(total + 1):
            yield (na, total - na)


def _argmax(
    kind: InteractionKind, candidates
) -> tuple[Optional[int], tuple[FockConfig, ...]]:
    """Best score among the candidates, with every tie.

    Returns (score, sorted maximizers), or (None, ()) if there are none.
    """
    best = None
    arg: list[tuple[int, ...]] = []
    for occs in candidates:
        s = _score(kind, occs)
        if best is None or s > best:
            best, arg = s, [occs]
        elif s == best:
            arg.append(occs)
    return best, tuple(FockConfig(o) for o in sorted(arg))


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
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    if modes is not None and not 1 <= modes <= kind.n_modes:
        raise ConfigurationError(
            f"modes must lie in 1..{kind.n_modes} for interaction {kind.value}"
        )
    candidates = _compositions(kind, total)
    if modes is not None:
        candidates = (o for o in candidates if sum(n > 0 for n in o) == modes)
    best, maximizers = _argmax(kind, candidates)
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
    tops = [int(budget / w) for w in weights]
    box = itertools.product(*(range(top + 1) for top in tops))
    best, maximizers = _argmax(
        kind, (o for o in box if sum(w * n for w, n in zip(weights, o)) <= budget)
    )
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
    if n_max > 200:
        raise ConfigurationError(f"n_max capped at 200, got {n_max}")
    rows: list[tuple[int, Optional[float]]] = []
    for n in range(1, n_max + 1):
        try:
            rows.append((n, optimize_config(kind, n, modes=modes, t=t).f0))
        except ConfigurationError:
            rows.append((n, None))
    return rows
