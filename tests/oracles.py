"""Independent brute-force references for the test suite.

Nothing here reuses the package's ladder construction or spectral path:
generators are built on the full truncated tensor-product space from
single-mode ladder matrices, reachability is a graph search over nonzero
matrix entries, single ladders are walked one rung at a time from a Fock
state, and time evolution is a scaled Taylor series of the matrix
exponential.  Coherent-probe sectors are found by a best-first heap
search over the truncated product states, one state at a time.  The
first Fisher minimum is found by dense rescans of its grid bracket,
given any function that evaluates F on a coupling grid.  Optimal
configurations are found by scoring one composition at a time in Python
integers, or, for totals too large for that, by scoring every
composition of the interaction-I triangle at once as int64 columns.
The Lagrange relaxation is found by a damped Newton solve of the full
stationarity system, with no symmetry assumed.

Two exceptions reuse parts of the package.  The per-ladder Fisher loop,
the reference for the stacked kernel, runs the package's
diagonalization, spectral weights and evolution on one ladder at a time,
from complex initial vectors (two rows of the rung gauge, see
:func:`ungauged`), the ladders walked here and found without the
package's decomposition, and adds each ladder's populations into the
measured occupations by fancy indexing.  :class:`SlicedReference`, the
bit-exact reference for ``PreparedProbe``, takes the package's stacks and
spectra and evaluates them in the package's own arithmetic order, but
re-derives every probe-fixed array on every call: real [alpha, beta, a0]
weights turned complex per call, each slice of each stack re-cut and its
spectrum re-wrapped, the outcome grouping rebuilt and applied as a 0/1
matrix even where ``PreparedProbe`` skips it (``pnr``).
"""
import heapq
import itertools
import math

import numpy as np

from tsense import (
    BinaryFock,
    CoherentProduct,
    FullPNR,
    InteractionKind,
    NoisyFock,
    PureFock,
    SequentialS0,
    decompose,
    diagonalize,
    evolve_vector,
    metrology,
    spectral_weights,
)
from tsense.optimize import _score


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


def unpacked(amps: np.ndarray) -> np.ndarray:
    """c~ and c~', each (..., r, G, d), from the (..., r, d, 2, G) array
    that ``evolve_vector`` returns."""
    return np.moveaxis(amps, (-2, -3), (0, -1))


def ungauged(rows: np.ndarray, start: int = 0) -> np.ndarray:
    """Amplitudes c from the (..., r, G, d) real rows c~ of the rung gauge
    (see :func:`unpacked`; likewise c' from c~'): c_k =
    i^-(k mod 2) (c~_0 + i c~_1) for two rows, c_k = i^((start mod 2) -
    (k mod 2)) c~_k for the one row of a ladder started on rung ``start``."""
    k = np.arange(rows.shape[-1]) % 2
    if rows.shape[-3] == 2:
        return (rows[..., 0, :, :] + 1j * rows[..., 1, :, :]) / 1j**k
    return rows[..., 0, :, :] * 1j ** (start % 2 - k)


def central_diff(fn, x: float, step: float = 1e-5):
    """First and second central finite differences."""
    up, mid, dn = fn(x + step), fn(x), fn(x - step)
    return (up - dn) / (2 * step), (up - 2 * mid + dn) / (step * step)


def second_diff_5(fn, x: float, step: float = 1e-5):
    """Five-point central second difference."""
    f2u, f1u, f0, f1d, f2d = (fn(x + k * step) for k in (2, 1, 0, -1, -2))
    return (-f2u + 16 * f1u - 30 * f0 + 16 * f1d - f2d) / (12 * step * step)


def poisson_top(mu: float, share: float) -> int:
    """The first n where the Poisson mass of 0..n reaches 1 - share, each
    term formed in log space and the sum taken exactly by ``math.fsum``."""
    if mu == 0.0:
        return 0
    terms = [math.exp(-mu)]
    while math.fsum(terms) < 1.0 - share:
        n = len(terms)
        terms.append(math.exp(n * math.log(mu) - mu - math.lgamma(n + 1)))
    return len(terms) - 1


def coherent_sectors_heap(alphas, cutoff_mass: float, kind: InteractionKind):
    """Sectors of a product coherent probe by best-first heap search.

    Product states leave a heap in descending Poisson weight, ties broken
    by their tuple of per-mode weight ranks, until the retained mass
    reaches ``cutoff_mass``.  Returns ``(root, weight, psi)`` per sector
    in ascending root order: the rung-0 occupations, the normalized
    sector weight and the unit amplitude vector over the sector's rungs,
    each amplitude a product of per-mode <n|alpha> built rung by rung.
    """
    share = (1.0 - cutoff_mass) / (2.0 * len(alphas))
    tops = [poisson_top(abs(a) ** 2, share) for a in alphas]
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


def tridiagonal(offdiag: np.ndarray) -> np.ndarray:
    """Dense symmetric tridiagonal matrix with zero diagonal."""
    return np.diag(offdiag, 1) + np.diag(offdiag, -1)


def fock_ladder(kind: InteractionKind, occs: tuple[int, ...]):
    """(rungs, generator elements) of the ladder through a Fock state.

    The ladder is walked one rung at a time: down from ``occs`` (one
    quantum less in the measured mode, one or two more in the others)
    until the measured mode is empty, then up until an absorbed mode runs
    out.  Rungs come as a (d x modes) array in ascending measured-mode
    occupation, so ``occs`` sits on rung ``occs[0]``.  The element between
    a rung with occupations (a, b, c), or (a, b), and the rung above it
    is sqrt((a+1) b c) for kind I and sqrt((a+1) b (b-1)) for kind II.
    """
    step = (1, -1, -1) if kind is InteractionKind.I else (1, -2)
    rung = tuple(occs)
    while rung[0] > 0:
        rung = tuple(n - s for n, s in zip(rung, step))
    rungs = [rung]
    while min(n + s for n, s in zip(rungs[-1], step)) >= 0:
        rungs.append(tuple(n + s for n, s in zip(rungs[-1], step)))
    if kind is InteractionKind.I:
        elements = [math.sqrt((a + 1) * b * c) for a, b, c in rungs[:-1]]
    else:
        elements = [math.sqrt((a + 1) * b * (b - 1)) for a, b in rungs[:-1]]
    return np.array(rungs), np.array(elements, dtype=float)


def _probe_ladders(probe, kind: InteractionKind):
    """(weight, rungs, generator elements, initial vector) of every ladder
    of a probe, each ladder walked by :func:`fock_ladder`."""
    if isinstance(probe, CoherentProduct):
        for root, weight, psi in coherent_sectors_heap(probe.alphas, probe.cutoff_mass, kind):
            yield (weight, *fock_ladder(kind, root), psi)
        return
    if isinstance(probe, PureFock):
        terms = [[(n, 1.0)] for n in probe.occupations]
    else:
        # per mode (1-2e)|n> + e|n-1> + e|n+1>, the lower weight moved up at n = 0
        terms = []
        for n, e in zip(probe.nominal, probe.eps):
            if e == 0.0:
                terms.append([(n, 1.0)])
            elif n == 0:
                terms.append([(0, 1.0 - 2.0 * e), (1, 2.0 * e)])
            else:
                terms.append([(n - 1, e), (n, 1.0 - 2.0 * e), (n + 1, e)])
    for combo in itertools.product(*terms):
        occs = tuple(n for n, _ in combo)
        rungs, offdiag = fock_ladder(kind, occs)
        psi = np.zeros(len(rungs), dtype=complex)
        psi[occs[0]] = 1.0
        yield math.prod(w for _, w in combo), rungs, offdiag, psi


def distributions_per_ladder(probe, kind: InteractionKind, couplings, time: float):
    """P, P' and S = 2 |c'|^2 as a (3 x G x outcomes) array, one ladder at a time.

    Each ladder is walked, diagonalized and evolved on its own, and its
    weighted populations are added into the occupations of mode a (a')
    on its rungs.
    """
    couplings = np.asarray(couplings, dtype=float)
    parts = list(_probe_ladders(probe, kind))
    n_outcomes = 1 + max(int(rungs[:, 0].max()) for _, rungs, _, _ in parts)
    moments = np.zeros((n_outcomes, 3, len(couplings)))
    for weight, rungs, offdiag, psi in parts:
        spec = diagonalize(offdiag)
        amps = evolve_vector(spec, spectral_weights(spec, psi), couplings, time)
        c, dc = map(ungauged, unpacked(amps))
        prods = np.stack([np.abs(c) ** 2, 2.0 * (np.conj(c) * dc).real, 2.0 * np.abs(dc) ** 2])
        moments[rungs[:, 0]] += weight * prods.transpose(2, 0, 1)
    return moments.transpose(1, 2, 0)


def generator_second_moment(probe, kind: InteractionKind, time: float) -> float:
    """2 t^2 sum_w w <psi|G^2|psi> over the walked ladders.

    The evolution commutes with G, so this is sum_x S(x) at every
    coupling; for a pure Fock probe, whose <G> is zero, it is half the
    quantum Fisher information.
    """
    total = 0.0
    for weight, _, offdiag, psi in _probe_ladders(probe, kind):
        g_psi = tridiagonal(offdiag) @ psi
        total += weight * np.vdot(g_psi, g_psi).real
    return 2.0 * time * time * total


def fisher_per_ladder(probe, kind: InteractionKind, scheme, couplings, time: float):
    """Classical Fisher information from :func:`distributions_per_ladder`.

    Outcome groups are summed one by one; a group whose P and |P'| are
    both below 1e-14 adds 2 S instead of P'^2 / P.
    """
    p, dp, s = distributions_per_ladder(probe, kind, couplings, time)
    occs = range(p.shape[1])
    if isinstance(scheme, FullPNR):
        groups = [[m] for m in occs]
    elif isinstance(scheme, BinaryFock):
        groups = [[scheme.n], [m for m in occs if m != scheme.n]]
    else:
        assert isinstance(scheme, SequentialS0)
        n = scheme.n
        groups = [[n], [n - 1, n + 1], [n - 2, n + 2]]
        groups.append([m for m in occs if m not in {k for g in groups for k in g}])
    values = np.zeros(len(p))
    for g in range(len(p)):
        for group in groups:
            members = [m for m in group if m in occs]
            if not members:
                continue
            pg, dpg, sg = (float(a[g, members].sum()) for a in (p, dp, s))
            if max(pg, abs(dpg)) < 1e-14:
                values[g] += 2.0 * sg
            else:
                values[g] += dpg * dpg / pg
    return values


def _real_weights(spectrum, psi0: np.ndarray) -> np.ndarray:
    """The real (..., r, d) rows [alpha, beta, a0] of the rung gauge."""
    nonzero = np.asarray(psi0) != 0
    two = np.iscomplexobj(psi0) or np.any(nonzero[..., 0::2].any(-1) & nonzero[..., 1::2].any(-1))
    psi = np.ascontiguousarray(psi0, dtype=complex if two else float)
    rows = psi.view(float).reshape(*psi.shape, -1)
    a = spectrum.u.swapaxes(-1, -2) @ rows[..., 0::2, :]
    b = spectrum.v.swapaxes(-1, -2) @ rows[..., 1::2, :]
    if two:
        b = b[..., ::-1] * [-1.0, 1.0]
    n = b.shape[-2]
    return np.concatenate([a[..., :n, :], b, a[..., n:, :]], axis=-2).swapaxes(-1, -2)


def _evolve_real(spectrum, weights: np.ndarray, couplings: np.ndarray, time: float):
    """c~ and c~' as (m x r x d x 2 x G) from (m, r, d) real weights, the
    complex alpha + i beta formed anew."""
    s, u, v = spectrum
    m, r, d = weights.shape
    n, g = s.shape[-1], len(couplings)
    w = weights.reshape(m, r, d, 1)
    rate = time * s.reshape(m, 1, n, 1)
    x = rate * couplings
    phase = np.empty(x.shape, complex)
    np.cos(x, out=phase.real)
    np.sin(x, out=phase.imag)
    y = phase * (w[:, :, :n] + 1j * w[:, :, n : 2 * n])
    z = np.zeros((m, r, d, 2, g))
    z[:, :, :n, 0] = y.imag
    z[:, :, n : 2 * n, 0] = y.real
    np.multiply(rate, y.real, out=z[:, :, :n, 1])
    np.multiply(-rate, y.imag, out=z[:, :, n : 2 * n, 1])
    z[:, :, 2 * n :, 0] = w[:, :, 2 * n :]
    cols = z.reshape(m, r, d, -1)
    moved = np.empty(cols.shape)
    np.matmul(u[:, None], cols[..., n:, :], out=moved[..., 0::2, :])
    np.matmul(v[:, None], cols[..., :n, :], out=moved[..., 1::2, :])
    return moved.reshape(m, r, d, 2, g)


class SlicedReference:
    """``PreparedProbe.distributions`` and ``.fisher`` with nothing kept
    between calls but the spectra and real weights of each stack's
    distinct generators: each call cuts every stack into slices of
    max(1, BLOCK_FLOATS // (2 r d G)) generators of r rows, evolves each
    slice, adds c~^2, c~ c~' and c~'^2 summed over (generator, row) into
    the first d outcomes, scales by (1, 2, 2), then sums outcomes into
    groups through a 0/1 (groups x outcomes) matrix rebuilt on every call,
    for ``pnr`` too, where ``PreparedProbe`` skips the grouping, and sums
    the Fisher terms, block by block of couplings.  A stack's ladders are
    its rows that carry an initial vector.  Their generators are found
    here from the roots alone, as the sorted (Q_b, Q_c) of kind I and the
    Q of kind II, in the order of their first ladder, and built by
    :func:`fock_ladder` from that ladder's root; a generator's rows are
    its ladders' real rows, ladder by ladder, and zero rows up to the
    stack's largest share."""

    def __init__(self, probe, kind: InteractionKind):
        self.spectra, self.weights = [], []
        for stack in decompose(probe, kind).components:
            members: dict = {}
            for i, (root, psi) in enumerate(zip(stack.roots.tolist(), stack.amplitudes)):
                if psi.any():
                    members.setdefault(tuple(sorted(root[1:])), []).append(i)
            groups = list(members.values())
            offdiag = [fock_ladder(kind, tuple(stack.roots[g[0]].tolist()))[1] for g in groups]
            spec = diagonalize(np.array(offdiag).reshape(len(groups), stack.d - 1))
            psi = stack.amplitudes * np.sqrt(stack.weights)[:, None]
            rows = np.zeros((len(groups), max(map(len, groups)), stack.d), psi.dtype)
            for j, group in enumerate(groups):
                rows[j, : len(group)] = psi[group]
            real = _real_weights(type(spec)(*(a[:, None] for a in spec)), rows)
            self.spectra.append(spec)
            self.weights.append(real.reshape(len(groups), rows.shape[1] * real.shape[2], stack.d))
        self.n_outcomes = max(w.shape[2] for w in self.weights)
        widest = max(w.shape[1] * w.shape[2] for w in self.weights)
        self.block_rows = max(1, metrology.BLOCK_FLOATS // (2 * widest))

    def distributions(self, couplings, time: float) -> np.ndarray:
        n = len(couplings)
        moments = np.zeros((self.n_outcomes, 3, n))
        for (s, u, v), weights in zip(self.spectra, self.weights):
            m, r, d = weights.shape
            step = max(1, metrology.BLOCK_FLOATS // (2 * r * d * n))
            for lo in range(0, m, step):
                part = slice(lo, lo + step)
                spec = type(self.spectra[0])(s[part], u[part], v[part])
                amps = _evolve_real(spec, weights[part], couplings, time).reshape(-1, d, 2, n)
                moments[:d, ::2] += np.add.reduce(amps * amps)
                moments[:d, 1] += np.add.reduce(amps[:, :, 0] * amps[:, :, 1])
        moments *= np.array([[1.0], [2.0], [2.0]])
        return moments.transpose(1, 2, 0)

    def fisher(self, scheme, couplings, time: float) -> np.ndarray:
        couplings = np.asarray(couplings, dtype=float)
        groups = [g for g in metrology.outcome_partition(scheme, self.n_outcomes) if g]
        grouping = np.zeros((len(groups), self.n_outcomes))
        for row, group in zip(grouping, groups):
            row[group] = 1.0
        values = np.empty(len(couplings))
        for lo in range(0, len(couplings), self.block_rows):
            block = couplings[lo : lo + self.block_rows]
            p, dp, s = grouping @ self.distributions(block, time).transpose(0, 2, 1)
            zero = np.maximum(p, np.abs(dp)) < metrology.ZERO_PROB
            terms = np.divide(dp * dp, p, out=2.0 * s, where=~zero)
            values[lo : lo + len(block)] = np.add.reduce(terms)
        return values


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


def triangle_optimum(total: int, modes=None):
    """(score, maximizers) of interaction I over every composition of
    ``total`` that excites exactly ``modes`` modes (any number if None),
    scored as int64 columns of the whole (N+1)(N+2)/2 triangle."""
    # row na, column na + nb of the upper triangle
    na, upper = np.triu_indices(total + 1)
    cols = [na, upper - na, total - upper]
    if modes is not None:
        keep = sum(c > 0 for c in cols) == modes
        cols = [c[keep] for c in cols]
    if not cols[0].size:
        return None, ()
    scores = _score(InteractionKind.I, cols)
    hit = scores == scores.max()
    return int(scores.max()), tuple(map(tuple, np.stack([c[hit] for c in cols], axis=1).tolist()))


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
