"""Classical and quantum Fisher information for coupling estimation.

The classical Fisher information of a measurement with outcome
probabilities P(x|theta) is sum_x P'(x)^2 / P(x).  Each term is at most
2 S(x), S = 2 sum |c'|^2 over the outcome's amplitudes (Cauchy-Schwarz;
equal where c || c', as on rungs empty at theta = 0), and an outcome whose
P and |P'| are below 1e-14 contributes that limit 2 S, at any coupling.

Measurement schemes are outcome partitions of the number basis of
mode a (a' for interaction II): full number resolution, the binary
check {|n><n|, rest}, and the four-outcome sequential partition
{|n>, |n-1>+|n+1>, |n-2>+|n+2>, rest} standing in for a two-shot
qubit-coupling readout.  Coarser partitions never gain information, so
F_binary <= F_s0 <= F_pnr pointwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from . import dynamics
from .errors import ConfigurationError, ResourceError, UndefinedBoundError
from .ladder import InteractionKind, validate_config
from .optimize import _score
from .probes import CoherentProduct, LadderStack, Probe, PureFock, _is_integer, decompose

ZERO_PROB = 1e-14
# floats evaluated at once over generators x rungs x couplings: an element
# carries c~ and c~' in each of its generator's rows, two floats a row
BLOCK_FLOATS = 4 * 6144
# couplings per rescan of a bracketed minimum; odd, so the rescan keeps a
# point at the bracket's centre and narrows the bracket 16-fold
ZOOM_POINTS = 33
# dynamic_range narrows a bracket [a, b] until b - a < REL_TOL (|a| + |b|)
REL_TOL = 1e-4
# couplings on one scan grid; refused above it before any allocation
MAX_STEPS = 2**20
# P = sum c~^2, P' = 2 sum c~ c~' and S = 2 sum c~'^2, over ladders and rows
_MOMENT_SCALE = np.array([[1.0], [2.0], [2.0]])


@dataclass(frozen=True)
class FullPNR:
    """Full number-resolving readout of mode a (a')."""


@dataclass(frozen=True)
class _TargetScheme:
    """A partition around the reference occupation n, an integer that may be negative."""

    n: int

    def __post_init__(self) -> None:
        if not _is_integer(self.n):
            raise ConfigurationError(f"scheme target must be an integer, got {self.n!r}")


@dataclass(frozen=True)
class BinaryFock(_TargetScheme):
    """Two-outcome check against the reference occupation n."""


@dataclass(frozen=True)
class SequentialS0(_TargetScheme):
    """Four-outcome partition around n; negative occupations drop out."""


MeasurementScheme = Union[FullPNR, BinaryFock, SequentialS0]


def outcome_partition(scheme: MeasurementScheme, n_outcomes: int) -> list[list[int]]:
    """Occupation groups for a scheme over occupations 0..n_outcomes-1."""
    occs = range(n_outcomes)
    if isinstance(scheme, FullPNR):
        return [[m] for m in occs]
    if isinstance(scheme, BinaryFock):
        # a target outside the occupation range leaves its group empty
        return [[m for m in occs if m == scheme.n], [m for m in occs if m != scheme.n]]
    if isinstance(scheme, SequentialS0):
        n = scheme.n
        shells = [[n], [n - 1, n + 1], [n - 2, n + 2]]
        groups = [[m for m in shell if 0 <= m < n_outcomes] for shell in shells]
        used = {m for g in groups for m in g}
        groups.append([m for m in occs if m not in used])
        return groups
    raise TypeError(f"unknown scheme {type(scheme).__name__}")


@dataclass(frozen=True)
class SensitivityProfile:
    """Fisher information on a coupling grid, with its zero-coupling limits."""

    prepared: PreparedProbe
    scheme: MeasurementScheme
    time: float
    couplings: np.ndarray
    fisher: np.ndarray
    f_zero: float
    qfi_zero: Optional[float]


class PreparedProbe:
    """Probe decomposed and diagonalized once, reusable across couplings.

    ``plan`` holds what every evaluation reuses, built once here: per
    stack of ladders (see :func:`tsense.probes.decompose`) the stacked
    spectrum of its distinct generators, each diagonalized once, the
    :class:`~tsense.dynamics.Weights` of its initial vectors scaled by
    the square root of each ladder's weight, so that the populations of a
    stack add up without weights, its dimension d, and how many of its
    generators fit within BLOCK_FLOATS with one coupling.  The weights
    hold the real rows of the rung gauge (see :mod:`tsense.dynamics`):
    one per ladder in Fock and noisy-Fock stacks, two in coherent ones.
    The ladders of one generator are its rows, ladder by ladder, padded
    with zero rows to the stack's largest share K (see
    :attr:`~tsense.probes.LadderStack.multiplicity`): their phases depend
    on the generator alone and are formed once for all of them.  With
    K = 1 that is each ladder's own row or two, as it stands.  A call
    forms only what depends on the couplings and the time.  Rung k of
    every ladder is outcome k, so there are as many outcomes as the
    largest ladder has rungs.
    """

    def __init__(self, probe: Probe, kind: InteractionKind):
        self.plan = []
        for stack in decompose(probe, kind).components:
            spectrum, weights = _diagonalize_stack(stack)
            fit = BLOCK_FLOATS // (2 * weights.rows * stack.d)
            self.plan.append((spectrum, weights, stack.d, fit))
        self.n_outcomes = max(d for _, _, d, _ in self.plan)
        # couplings per evaluation block, so that every generator's rows x
        # rungs x couplings stay within BLOCK_FLOATS
        self.block_rows = max(1, min(fit for _, _, _, fit in self.plan))
        # (order, starts) of each scheme's outcome partition, see fisher
        self._partitions: dict = {}

    def distributions(self, couplings: np.ndarray, time: float) -> np.ndarray:
        """Aggregated P, P' and S over the occupation of mode a (a').

        The result is a (3 x G x n_outcomes) array that unpacks as
        ``P, dP, S``, one row per coupling, S = 2 sum c~'^2 (equal to P''
        where P vanishes).  Each stack is evolved in slices of as many
        generators as keep the floats of generators x rungs x couplings
        within BLOCK_FLOATS (at least one; a stack that fits is evolved
        whole), and each slice adds its sum over generators and their rows
        into the first d outcomes, one per rung.
        """
        n = len(couplings)
        # laid out as outcome x (P, P', S) x coupling while accumulating
        moments = np.zeros((self.n_outcomes, 3, n))
        for spectrum, weights, d, fit in self.plan:
            m, step = len(spectrum.s), max(1, fit // n)
            parts = [(spectrum, weights)] if step >= m else [
                (dynamics.Spectrum(*(a[lo : lo + step] for a in spectrum)),
                 dynamics.Weights(*(a[lo : lo + step] for a in weights)))
                for lo in range(0, m, step)
            ]
            for part in parts:
                amps = dynamics.evolve_vector(*part, couplings, time)
                # (ladder, row) x rung x (c~, c~') x coupling
                amps = amps.transpose(1, 2, 4, 0, 3).reshape(-1, d, 2, n)
                # c~^2 and c~ c~', then c~'^2, summed over ladders and rows
                moments[:d, :2] += np.add.reduce(amps[:, :, :1] * amps)
                moments[:d, 2] += np.add.reduce(amps[:, :, 1] ** 2)
        moments *= _MOMENT_SCALE
        return moments.transpose(1, 2, 0)

    def fisher(
        self, scheme: MeasurementScheme, couplings: np.ndarray, time: float
    ) -> np.ndarray:
        """Classical Fisher information of one scheme at each coupling."""
        couplings = np.asarray(couplings, dtype=float)
        order, starts = self._partition(scheme)
        values = np.empty(len(couplings))
        for lo in range(0, len(couplings), self.block_rows):
            block = couplings[lo : lo + self.block_rows]
            moments = self.distributions(block, time).transpose(2, 0, 1)
            p, dp, s = np.add.reduceat(moments[order], starts).transpose(1, 0, 2)
            values[lo : lo + len(block)] = np.add.reduce(_fisher_terms(p, dp, s))
        return values

    def _partition(self, scheme: MeasurementScheme) -> tuple[np.ndarray, np.ndarray]:
        """Occupations ordered group by group, and where each group starts;
        empty groups contribute nothing and are left out.  Built once per
        scheme."""
        cached = self._partitions.get(scheme)
        if cached is None:
            groups = [g for g in outcome_partition(scheme, self.n_outcomes) if g]
            order = np.array([m for g in groups for m in g])
            starts = np.array([0, *accumulate(len(g) for g in groups[:-1])])
            cached = self._partitions[scheme] = (order, starts)
        return cached


def _diagonalize_stack(stack: LadderStack) -> tuple[dynamics.Spectrum, dynamics.Weights]:
    """The spectrum of a stack's distinct generators and the
    :class:`~tsense.dynamics.Weights` of its ladders on it: a generator's
    rows are the rows of its ladders' weighted initial vectors, ladder by
    ladder, and zero rows up to the stack's multiplicity K.  With K = 1
    every ladder is its own generator and is diagonalized as it stands,
    which spares every pure Fock probe the regrouping."""
    psi = stack.amplitudes * np.sqrt(stack.weights)[:, None]
    k = stack.multiplicity
    if k == 1:
        spectrum = dynamics.diagonalize(stack.offdiag)
        return spectrum, dynamics.spectral_weights(spectrum, psi)
    spectrum = dynamics.diagonalize(stack.offdiag[stack.slot == 0])
    s, u, v = spectrum
    rows = np.zeros((len(s), k, stack.d), psi.dtype)
    rows[stack.generator, stack.slot] = psi
    rotating, constant = dynamics.spectral_weights(
        dynamics.Spectrum(s[:, None], u[:, None], v[:, None]), rows)
    # generator x ladder x row x ... -> generator x (ladder, row) x ...
    m, _, r, n, _ = rotating.shape
    return spectrum, dynamics.Weights(
        rotating.reshape(m, k * r, n, 1), constant.reshape(m, k * r, -1, 1))


def _fisher_terms(p: np.ndarray, dp: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Fisher term P'^2 / P of each outcome group, its bound 2 S at structural zeros."""
    zero = np.maximum(p, np.abs(dp)) < ZERO_PROB
    return np.divide(dp * dp, p, out=2.0 * s, where=~zero)


def fisher_limit_closed_form(probe: PureFock, kind: InteractionKind, t: float = 1.0) -> float:
    """Zero-coupling Fisher limit of a pure Fock probe: 4 t^2 times
    ``optimize._score``, the polynomial the configuration search maximizes."""
    validate_config(kind, probe.occupations, "occupations")
    return 4.0 * t * t * _score(kind, probe.occupations)


def qfi_coherent(
    alphas: tuple[complex, ...], kind: InteractionKind, t: float = 1.0
) -> float:
    """Quantum Fisher information of a product coherent probe (closed form)."""
    validate_config(kind, alphas, "coherent amplitudes")
    n = [abs(a) ** 2 for a in alphas]
    if kind is InteractionKind.I:
        na, nb, nc = n
        return 4.0 * t * t * (na * nb + na * nc + nb * nc + na)
    na, nb = n
    return 4.0 * t * t * (nb * nb + 3.0 * na * nb + 2.0 * na)


def cramer_rao(f: float, trials: int) -> float:
    """Cramer-Rao bound 1 / sqrt(trials F) on the estimation error; a trial
    count whose product with F is not a finite float is refused."""
    if not _is_integer(trials):
        raise UndefinedBoundError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise UndefinedBoundError(f"trials must be >= 1, got {trials}")
    if not 0.0 < f < math.inf:
        raise UndefinedBoundError(f"Fisher information must be positive and finite, got {f}")
    try:
        product = trials * f
    except OverflowError:  # an integer too large for a float
        product = math.inf
    if not math.isfinite(product):
        raise UndefinedBoundError(
            f"trials times the Fisher information {f} is too large for a float")
    return 1.0 / math.sqrt(product)


def check_positive_finite(**values: float) -> None:
    """Refuse each named value that is not finite, then each that is not positive."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def scan(
    probe: Probe,
    kind: InteractionKind,
    scheme: MeasurementScheme,
    t: float = 1.0,
    theta_max: float = 1.0,
    steps: int = 401,
) -> SensitivityProfile:
    """Fisher information on a uniform coupling grid [0, theta_max].

    A grid of more than ``MAX_STEPS`` couplings raises ResourceError
    before anything is allocated.
    """
    check_positive_finite(time=t, theta_max=theta_max)
    if not _is_integer(steps):
        raise ConfigurationError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise ConfigurationError(f"steps must be >= 2, got {steps}")
    if steps > MAX_STEPS:
        raise ResourceError(f"{steps} steps exceed MAX_STEPS = {MAX_STEPS}")
    prepared = PreparedProbe(probe, kind)
    grid = np.linspace(0.0, theta_max, steps)
    values = prepared.fisher(scheme, grid, t)
    f_zero = float(values[0])
    qfi_zero: Optional[float] = None
    if isinstance(probe, PureFock):
        qfi_zero = fisher_limit_closed_form(probe, kind, t)
    elif isinstance(probe, CoherentProduct):
        qfi_zero = qfi_coherent(probe.alphas, kind, t)
    return SensitivityProfile(
        prepared=prepared, scheme=scheme, time=t, couplings=grid, fisher=values,
        f_zero=f_zero, qfi_zero=qfi_zero,
    )


def dynamic_range(profile: SensitivityProfile) -> Optional[float]:
    """Coupling at the first local minimum of F, or None if none exists.

    A grid point is a minimum when it is no higher than its left
    neighbour and lower than its right one.  On the profile's grid both
    comparisons allow a relative noise floor of 1e-9, so that profiles
    that are mathematically constant (every partition informationally
    complete) do not report rounding wiggles as minima.  The bracket
    around the first minimum is then rescanned on ZOOM_POINTS couplings
    and narrowed to the first minimum of the rescan, with no floor,
    until it is narrower than REL_TOL relative.  The result is the vertex
    of the parabola through the last scan's minimum and its two
    neighbours, or the bracket's middle if the last rescan had no
    interior minimum.  Over both kinds, three schemes, totals 6-30 and
    grids of 6 to 41 couplings it is within 7.8e-6 relative (median
    about 1e-8) of a dense search that finds the same dip.  Two minima
    closer together than about bracket / (ZOOM_POINTS - 1) can still be
    taken for one another.
    """
    i = _first_minimum(profile.fisher, 1e-9)
    if i is None:
        return None
    grid, f, found = profile.couplings, profile.fisher, i
    a, b = grid[i - 1], grid[i + 1]
    steps = np.arange(float(ZOOM_POINTS))
    while (b - a) > REL_TOL * max(abs(a) + abs(b), 1e-12):
        # np.linspace(a, b, ZOOM_POINTS) bit for bit, b - a being positive
        grid = steps * ((b - a) / (ZOOM_POINTS - 1)) + a
        grid[-1] = b
        f = profile.prepared.fisher(profile.scheme, grid, profile.time)
        found = _first_minimum(f, 0.0)
        # without one, the minimum sits on a bracket end
        i = min(max(int(np.argmin(f)), 1), ZOOM_POINTS - 2) if found is None else found
        a, b = grid[i - 1], grid[i + 1]
    if found is None:
        return 0.5 * (a + b)
    # f_l >= f_m < f_r (up to the 1e-9 floor if the grid needed no rescan):
    # positive curvature, vertex within about half a step of grid[i]
    f_l, f_m, f_r = f[i - 1 : i + 2]
    return grid[i] + 0.25 * (b - a) * (f_l - f_r) / (f_l - 2.0 * f_m + f_r)


def _first_minimum(f: np.ndarray, floor: float) -> Optional[int]:
    """Index of the first interior local minimum of f, beyond a relative floor."""
    mid, left, right = f[1:-1], f[:-2], f[2:]
    if floor:
        tol = floor * (1.0 + np.abs(mid))
        left, right = left + tol, right - tol
    hits = np.flatnonzero((mid <= left) & (mid < right))
    return int(hits[0]) + 1 if hits.size else None


def dynamic_range_formula(
    probe: PureFock, kind: InteractionKind, t: float = 1.0
) -> Optional[float]:
    """Rough first-minimum location sqrt(prefactor / F(0)).

    The prefactor is 16 for interaction I probes with at most two
    excited modes and 24 for fully excited interaction-I probes and for
    interaction II.  Returns None for inert probes (F(0) = 0).

    This is a leading-order estimate with no stated accuracy.  For
    single-pumped interaction-I probes (n, 0, 0) under the binary
    readout, the true first minimum times sqrt(F(0)) grows with n
    (3.63, 4.70, 5.87, 7.10 at n = 2, 4, 8, 16, against sqrt(16) = 4),
    so the estimate is off by 9%, 17%, 47% and 78% there.  The growth
    goes on as a logarithm: the product is 8.34, 9.59 and 10.83 at
    n = 32, 64 and 128, about 1.245 more per doubling of n from n = 16
    on, so the true minimum falls like ln(n)/sqrt(n), while this
    formula, with F(0) = 4n, gives 2/sqrt(n).  Probes whose
    ladder has only two rungs, such as (0, 2) and (0, 3) for
    interaction II or (1, 1, 0) for interaction I, have a constant F and
    no minimum at all, yet a number is still returned for them.
    """
    f0 = fisher_limit_closed_form(probe, kind, t)
    if f0 <= 0.0:
        return None
    if kind is InteractionKind.I and sum(n > 0 for n in probe.occupations) < 3:
        prefactor = 16.0
    else:
        prefactor = 24.0
    return math.sqrt(prefactor / f0)
