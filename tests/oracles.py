"""Independent brute-force references for the test suite.

Nothing here reuses the package's spectral path: generators are built on
the full truncated tensor-product space from single-mode ladder
matrices, reachability is a graph search over nonzero matrix entries,
and time evolution is a scaled Taylor series of the matrix exponential.
Coherent-probe sectors are found by a best-first heap search over the
truncated product states, one state at a time.  The first Fisher
minimum is found by dense rescans of its grid bracket, given any
function that evaluates F on a coupling grid.  Optimal configurations
are found by scoring one composition at a time in Python integers.  The
Lagrange relaxation is found by a damped Newton solve of the full
stationarity system, with no symmetry assumed.
"""
import heapq
import itertools
import math

import numpy as np

from tsense import InteractionKind
from tsense.optimize import _score
from tsense.probes import _poisson_cutoffs


def _a_op(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for n in range(1, dim):
        m[n - 1, n] = np.sqrt(n)
    return m


def dense_generator(kind: InteractionKind, truncs: tuple[int, ...]) -> np.ndarray:
    """a†bc + h.c. (kind I) or a†b² + h.c. (kind II) on the tensor space.

    ``truncs`` are per-mode dimensions (occupations 0..trunc-1), mode
    order (a, b, c) or (a', b').
    """
    if kind is InteractionKind.I:
        da, db, dc = truncs
        a, b, c = _a_op(da), _a_op(db), _a_op(dc)
        term = np.kron(np.kron(a.T, b), c)
        return term + term.T
    da, db = truncs
    a, b = _a_op(da), _a_op(db)
    term = np.kron(a.T, b @ b)
    return term + term.T


def state_index(occs: tuple[int, ...], truncs: tuple[int, ...]) -> int:
    idx = 0
    for n, d in zip(occs, truncs):
        idx = idx * d + n
    return idx


def index_state(idx: int, truncs: tuple[int, ...]) -> tuple[int, ...]:
    occs = []
    for d in reversed(truncs):
        occs.append(idx % d)
        idx //= d
    return tuple(reversed(occs))


def reachable_block(kind: InteractionKind, root: tuple[int, ...]):
    """BFS over dense-generator nonzeros from the root product state.

    Returns (ordered occupation list, generator block) with states
    sorted by the occupation of the first (measured) mode.
    """
    total = sum(root)
    if kind is InteractionKind.I:
        truncs = (total + 2, total + 2, total + 2)
    else:
        truncs = (total + 2, 2 * total + 2)
    g = dense_generator(kind, truncs)
    start = state_index(root, truncs)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for j in np.nonzero(np.abs(g[i]) > 0)[0]:
                if j not in seen:
                    seen.add(int(j))
                    nxt.append(int(j))
        frontier = nxt
    states = sorted((index_state(i, truncs) for i in seen), key=lambda s: s[0])
    idx = [state_index(s, truncs) for s in states]
    return states, g[np.ix_(idx, idx)]


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling-and-squaring on a plain Taylor series."""
    norm = np.linalg.norm(m, 1)
    squarings = 0 if norm == 0 else max(0, int(np.ceil(np.log2(norm)))) + 1
    b = m / (2.0**squarings)
    term = np.eye(m.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 80):
        term = term @ b / k
        total = total + term
        if np.abs(term).max() < 1e-22:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def evolved_amplitudes_taylor(tridiag: np.ndarray, root: int, theta_t: float) -> np.ndarray:
    """Column of exp(-i theta t G) for the root rung, via the Taylor oracle."""
    u = expm_taylor(-1j * theta_t * tridiag)
    return u[:, root]


def central_diff(fn, x: float, step: float = 1e-5):
    """First and second central finite differences."""
    up, mid, dn = fn(x + step), fn(x), fn(x - step)
    return (up - dn) / (2 * step), (up - 2 * mid + dn) / (step * step)


def coherent_sectors_heap(alphas, cutoff_mass: float, kind: InteractionKind):
    """Sectors of a product coherent probe by best-first heap search.

    Product states leave a heap in descending Poisson weight, ties broken
    by their tuple of per-mode weight ranks, until the retained mass
    reaches ``cutoff_mass``.  Returns ``(root, weight, psi)`` per sector
    in ascending root order: the rung-0 occupations, the normalized
    sector weight and the unit amplitude vector over the sector's rungs,
    each amplitude a product of per-mode <n|alpha> built rung by rung.
    """
    tops = _poisson_cutoffs([abs(a) ** 2 for a in alphas], cutoff_mass)
    tables = []
    for a, top in zip(alphas, tops):
        # numpy complex arithmetic, as the package's tables use: ties in
        # weight must round alike on both sides
        row = np.empty(top + 1, dtype=complex)
        row[0] = math.exp(-abs(a) ** 2 / 2.0)
        for n in range(1, top + 1):
            row[n] = row[n - 1] * a / math.sqrt(n)
        tables.append(row)
    weight_rows = [np.abs(t) ** 2 for t in tables]
    orders = [np.argsort(-w, kind="stable") for w in weight_rows]

    def state_weight(idx):
        return math.prod(w[o[i]] for w, o, i in zip(weight_rows, orders, idx))

    start = tuple(0 for _ in alphas)
    heap = [(-state_weight(start), start)]
    seen = {start}
    retained = 0.0
    keys = set()
    while heap and retained < cutoff_mass:
        negw, idx = heapq.heappop(heap)
        retained += -negw
        occs = tuple(int(o[i]) for o, i in zip(orders, idx))
        if kind is InteractionKind.I:
            keys.add((occs[0] + occs[1], occs[0] + occs[2]))
        else:
            keys.add((2 * occs[0] + occs[1],))
        for axis in range(len(idx)):
            nxt = idx[:axis] + (idx[axis] + 1,) + idx[axis + 1 :]
            if nxt[axis] <= tops[axis] and nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (-state_weight(nxt), nxt))
    assert retained >= cutoff_mass

    sectors = []
    for key in sorted(keys):
        if kind is InteractionKind.I:
            qb, qc = key
            rungs = [(k, qb - k, qc - k) for k in range(min(qb, qc) + 1)]
        else:
            (q,) = key
            rungs = [(k, q - 2 * k) for k in range(q // 2 + 1)]
        psi = np.zeros(len(rungs), dtype=complex)
        for k, rung in enumerate(rungs):
            amp = 1.0 + 0.0j
            for table, n in zip(tables, rung):
                amp = amp * table[n] if n < len(table) else 0.0j
            psi[k] = amp
        w = float(np.vdot(psi, psi).real)
        if w > 0.0:
            sectors.append((rungs[0], w, psi / math.sqrt(w)))
    total = sum(w for _, w, _ in sectors)
    return [(root, w / total, psi) for root, w, psi in sectors]


def _first_strict_minimum(f: np.ndarray) -> int:
    """First index below both neighbours, else the interior argmin."""
    below = (f[1:-1] < f[:-2]) & (f[1:-1] < f[2:])
    if below.any():
        return int(np.argmax(below)) + 1
    return min(max(int(np.argmin(f)), 1), len(f) - 2)


def first_minimum_dense(fisher, couplings, values):
    """Coupling of the first Fisher minimum by dense search, or None.

    The bracket is the first grid point of ``values`` that is no more
    than 1e-9 relative above its left neighbour and that much below its
    right one, with its two neighbours.  Inside it the first strict
    local minimum of 20001 evaluations of ``fisher`` is taken, and its
    own bracket is searched the same way twice more on 2001 points.
    """
    start = None
    for i in range(1, len(values) - 1):
        floor = 1e-9 * (1.0 + abs(values[i]))
        if values[i] <= values[i - 1] + floor and values[i] < values[i + 1] - floor:
            start = i
            break
    if start is None:
        return None
    grid, i = couplings, start
    for points in (20001, 2001, 2001):
        grid = np.linspace(grid[i - 1], grid[i + 1], points)
        i = _first_strict_minimum(fisher(grid))
    return float(grid[i])


def compositions(kind: InteractionKind, total: int):
    """Every composition of ``total`` over the interaction's modes."""
    if kind is InteractionKind.I:
        for na in range(total + 1):
            for nb in range(total - na + 1):
                yield (na, nb, total - na - nb)
    else:
        for na in range(total + 1):
            yield (na, total - na)


def argmax_loop(kind: InteractionKind, candidates):
    """Best score among the candidates, with every tie.

    Returns (score, sorted maximizer tuples), or (None, ()) if there are
    none.
    """
    best = None
    arg: list[tuple[int, ...]] = []
    for occs in candidates:
        s = _score(kind, occs)
        if best is None or s > best:
            best, arg = s, [occs]
        elif s == best:
            arg.append(occs)
    return best, tuple(sorted(arg))


def optimal_configs_loop(kind: InteractionKind, total: int, modes=None):
    """(score, maximizers) over the compositions of ``total`` that excite
    exactly ``modes`` modes (any number if None)."""
    candidates = compositions(kind, total)
    if modes is not None:
        candidates = (o for o in candidates if sum(n > 0 for n in o) == modes)
    return argmax_loop(kind, candidates)


def weighted_configs_loop(kind: InteractionKind, weights, budget: float):
    """(score, maximizers) over the box of occupations with
    sum(w_i n_i) <= budget, the sum taken left to right."""
    tops = [int(budget / w) for w in weights]
    box = itertools.product(*(range(top + 1) for top in tops))
    return argmax_loop(
        kind, (o for o in box if sum(w * n for w, n in zip(weights, o)) <= budget)
    )


def grad_hess(kind: InteractionKind, x: np.ndarray):
    """Gradient and Hessian of the zero-coupling score at occupations x."""
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


def relaxation_newton(kind: InteractionKind, total: float) -> tuple[float, ...]:
    """Continuous stationary occupations of the score under sum = N.

    Damped Newton on grad F = lambda, sum(n_i) = N from the even split;
    steps are halved while the residual norm would grow.  The absolute
    residual target of 1e-10 is out of reach once grad F is large, so
    this raises ``ArithmeticError`` from about N = 770 (II) or 1085 (I).
    """
    k = kind.n_modes
    z = np.empty(k + 1)
    z[:k] = total / k
    z[k] = grad_hess(kind, z[:k])[0].mean()

    def residual(zv: np.ndarray) -> np.ndarray:
        grad, _ = grad_hess(kind, zv[:k])
        return np.append(grad - zv[k], zv[:k].sum() - total)

    r = residual(z)
    for _ in range(200):
        if np.linalg.norm(r) < 1e-10:
            return tuple(float(v) for v in z[:k])
        _, hess = grad_hess(kind, z[:k])
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
    raise ArithmeticError(f"relaxation did not converge for N={total}, kind {kind.value}")
