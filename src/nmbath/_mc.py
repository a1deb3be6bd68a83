"""Monte Carlo trajectory engine.

Each trajectory applies the event map E at its sampled event times, with the
coherent propagator exp(t L_H) in between.  Written in the eigenbasis W of
L_H, from ``eigh`` of H, a trajectory's state changes only at events, and so
do the sums over trajectories that give the moments on the time grid.  Each
output row reads a few columns of that basis:

* still rows - every column the row reads lies in a coupled set of
  E' = W^dag E W whose frequencies are all equal.  The evolution between
  events is a scalar phase there, so a trajectory with N events is at
  W E'^N W^dag v0 under both operator orderings, and the sums over
  trajectories are fixed by how many trajectories have had k events by each
  grid time.  The counts are exact integers.  Without coherent evolution
  every row is still, with W = I.
* moving rows - each event adds the change of the few linear and quadratic
  combinations of the state that the row reads to a difference array over
  the grid.  Trajectories lie on the contiguous last axis, in order of
  event count.

Every state is a density matrix, so only the entries i <= j of the mean
are computed; Hermitian symmetry gives the rest.

Event times come from a counter-based splitmix64 generator keyed by
(seed, trajectory index): every trajectory's sample path is a pure function
of that pair, independent of batching, and each stream starts at a mixed
point so that no two replay each other's draws.
"""

from __future__ import annotations

import math

import numpy as np

from . import qops

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# cells held at once: event-count histogram cells (grid times x counts), whose
# count axis grows with the most events of one trajectory; or the state and
# feature cells of one block of trajectories, rows * (D + features) per
# trajectory for states of rows x D
HIST_CELLS = 1 << 16


def _finalize(z):
    """The splitmix64 finalizer, into a new array: a bijection of uint64 that mixes every bit."""
    z = z ^ (z >> np.uint64(30))
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _mix(state):
    """Advance each stream by one splitmix64 output, in place; returns the uniforms in (0, 1)."""
    state += _GOLDEN
    u = (_finalize(state) >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


def _stream_init(seed, n):
    """Stream i = 1..n starts at the i-th splitmix64 output of ``seed``.

    That is SplitMix's split (Steele, Lea & Flood, OOPSLA 2014): streams that
    started at seed + i golden would replay each other's draws shifted by one.
    """
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return _finalize(np.uint64(int(seed) % 2**64) + idx * _GOLDEN)


def _assemble(n, rounds_idx, rounds_t):
    """(flat event times, offsets) from the rounds: round r holds the r-th event of its trajectories."""
    # n = 0 makes no rounds, and concatenate needs at least one array
    counts = np.bincount(np.concatenate([np.empty(0, np.intp), *rounds_idx]), minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    times = np.empty(offsets[-1], dtype=np.float64)
    for r, (idx, tv) in enumerate(zip(rounds_idx, rounds_t)):
        times[offsets[idx] + r] = tv
    return times, offsets


def _sample_events(seed, n, t_max, rates, weights, renewal):
    """Event times of n trajectories, each wait exponential at a rate drawn from the ensemble.

    The rate (component R with probability P_R) is drawn once per trajectory,
    or afresh before every event when ``renewal``.  Round r draws the r-th
    event of every trajectory still inside [0, t_max], whose stream states,
    clocks and rates are held compacted.  Returns (flat event times,
    offsets): the events of trajectory i are times[offsets[i]:offsets[i+1]].
    """
    state = _stream_init(seed, n)
    cum = np.cumsum(weights)

    def pick(u):
        return rates[np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)]

    if not renewal:
        frozen = pick(_mix(state))
    cur = np.zeros(n)
    alive = np.arange(n)
    rounds_idx, rounds_t = [], []
    max_rate = max(float(np.max(rates)), 1.0)
    max_rounds = 1000 + 20.0 * t_max * max_rate
    if max_rounds == np.inf:
        raise RuntimeError(f"event sampling: t_max {t_max:.3g} times the largest rate "
                           f"{max_rate:.3g} overflows")
    # a zero rate waits forever, which ends its trajectory; so does a rate so
    # small that its wait overflows
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(int(max_rounds)):
            if alive.size == 0:
                break
            gam = pick(_mix(state)) if renewal else frozen
            # the wait is -log(u) / gam; rounds_t holds cur, so it is not written
            u = _mix(state)
            np.log(u, out=u)
            u /= gam
            cur = np.subtract(cur, u, out=u)
            keep = np.flatnonzero(cur <= t_max)
            alive, cur, state = alive[keep], cur[keep], state[keep]
            if not renewal:
                frozen = frozen[keep]
            rounds_idx.append(alive)
            rounds_t.append(cur)
        else:
            raise RuntimeError("event sampling did not terminate")
    return _assemble(n, rounds_idx, rounds_t)


def sample_frozen_events(seed, n, t_max, rates, weights):
    """Poisson event times at a per-trajectory rate drawn once from the ensemble."""
    return _sample_events(seed, n, t_max, rates, weights, renewal=False)


def sample_renewal_events(seed, n, t_max, rates, weights):
    """I.i.d. waiting times from the ensemble mixture density: a fresh rate per event."""
    return _sample_events(seed, n, t_max, rates, weights, renewal=True)


def _grid_rows(tgrid, t):
    """``np.searchsorted(tgrid, t, side="left")`` on a uniform grid, by division.

    The guess ceil((t - t0) / h) is within one row of the answer on a grid
    that ``dynamics._check_grid`` accepts; one comparison each way against
    the grid itself then makes it exact.
    """
    nt = tgrid.size
    scale = (nt - 1) / (tgrid[-1] - tgrid[0])
    g = np.clip(np.ceil((t - tgrid[0]) * scale), 0, nt).astype(np.int64)
    # padded[g] = tgrid[g - 1] and padded[g + 1] = tgrid[g]; NaN past the ends
    # fails both comparisons, so the rows 0 and nt stay put
    padded = np.concatenate(([np.nan], tgrid, [np.nan]))
    g += padded[g + 1] < t
    g -= padded[g] >= t
    return g


def _count_histogram_sums(cols, tgrid, ev_times, ev_off, row):
    """Sum over trajectories of ``cols[N_i(t_k)]`` at every grid time t_k.

    N_i(t) is the number of events of trajectory i up to and including t.  The
    histogram of N over trajectories changes only where an event moves one
    trajectory from count c - 1 to c, so it is the running sum over time of a
    difference array.  Grid times are taken in blocks of at most
    ``HIST_CELLS`` histogram cells.  ``row`` is ``_grid_rows(tgrid,
    ev_times)``.
    """
    n, nt, ncol = ev_off.size - 1, tgrid.size, cols.shape[0]
    # an event that takes its trajectory to count c >= 1 is in cell k ncol + c
    # of the first t_k >= its time ("left"), past the last cell if past the grid
    # in place, one event-sized temporary at a time (the caller still holds
    # ``row``): one more live array of that size made the H = None route ~20%
    # slower at 4e4 events
    cell = row * ncol
    cell += np.arange(1, ev_times.size + 1)
    cell -= np.repeat(ev_off[:-1], np.diff(ev_off))
    hist = np.zeros(ncol, dtype=np.int64)
    hist[0] = n
    out = np.empty((nt, cols.shape[1]))
    rows = max(1, HIST_CELLS // ncol)
    for k0 in range(0, nt, rows):
        k1 = min(k0 + rows, nt)
        size = (k1 - k0) * ncol
        own = cell if k1 - k0 == nt else cell[(cell >= k0 * ncol) & (cell < k1 * ncol)] - k0 * ncol
        # each event adds one at its count and takes one from the count before
        moved = np.bincount(own, minlength=size + 1)
        diff = moved[:size] - moved[1:size + 1]
        diff[:ncol] += hist
        block = np.cumsum(diff.reshape(k1 - k0, ncol), axis=0)
        hist = block[-1]
        out[k0:k1] = block @ cols
    return out


def _mean_stderr(ref, dev_sum, dev_sq, n):
    """Mean and standard error per entry from the sums of y = z - ref and |y|^2 over n."""
    dev = dev_sum / n
    if n > 1:
        var = np.maximum(dev_sq / n - np.abs(dev) ** 2, 0.0) * (n / (n - 1))
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros_like(dev_sq)
    return ref + dev, stderr


def _upper(d):
    """Vec indices i + d j of the entries i <= j of a d x d matrix, and of their transposes."""
    up, low = zip(*[(i + d * j, j + d * i) for i in range(d) for j in range(i, d)])
    return np.array(up), np.array(low)


def _mirror(d, mean, stderr):
    """Full (nt, d^2) mean and standard error from their entries i <= j (:func:`_upper`).

    The mean of density matrices is Hermitian: entry (j, i) is the conjugate
    of entry (i, j), with the same standard error, and the diagonal is real.
    """
    up, low = _upper(d)
    # entry c of the full arrays is entry src[c] of the given ones
    src = np.empty(d * d, dtype=np.intp)
    src[low] = src[up] = np.arange(up.size)
    below = np.zeros(d * d, dtype=bool)
    below[low] = low != up
    full_mean, full_stderr = mean[:, src], stderr[:, src]
    np.conjugate(full_mean, out=full_mean, where=below)
    full_mean.imag[:, ::d + 1] = 0.0
    return full_mean, full_stderr


def _fold_plan(nz, key):
    """Slice operations that fold the products z_(g+k) conj(z_g), k >= 0, into features.

    ``key(k, g)`` names the feature that the pair (g + k, g) adds to, or is
    None where no output reads the pair.  Features are numbered in order of
    first appearance, diagonal k after diagonal k - 1.  Returns (ops, pairs):
    op (k, g0, g1, c, fold, first) covers the pairs g0 <= g < g1 of diagonal
    k; with ``fold`` their sum goes to feature c (written by the feature's
    first op, added by the rest), otherwise pair g writes feature
    c + g - g0.  ``pairs[c]`` is the first pair (k, g) of feature c.
    """
    kept = [(k, g, key(k, g)) for k in range(nz) for g in range(nz - k)]
    kept = [(k, g, name) for k, g, name in kept if name is not None]
    feature, pairs, size = {}, [], {}
    for k, g, name in kept:
        if name not in feature:
            feature[name] = len(pairs)
            pairs.append((k, g))
        size[name] = size.get(name, 0) + 1
    ops = []
    for k, g, name in kept:
        c, fold = feature[name], size[name] > 1
        if ops:
            k1, g0, g1, c1, fold1, first = ops[-1]
            if (k1, g1, fold1) == (k, g, fold) and c == (c1 if fold else c1 + g - g0):
                ops[-1] = (k, g0, g + 1, c1, fold, first)
                continue
        ops.append((k, g, g + 1, c, fold, fold and pairs[c] == (k, g)))
    return ops, pairs


def _runs(omega):
    """The first index of each run of equal values of the sorted ``omega``."""
    return np.flatnonzero(np.diff(omega, prepend=-np.inf))


def _fold(z, zc, q, ops):
    """Write the products z_(g+k) conj(z_g) of the features z[:, g] into q by ``ops``.

    ``zc`` is conj(z); ``ops`` is from :func:`_fold_plan`.
    """
    for k, g0, g1, c, fold, first in ops:
        a, b = z[:, g0 + k:g1 + k], zc[:, g0:g1]
        if not fold:
            np.multiply(a, b, out=q[:, c:c + g1 - g0])
        elif first:
            np.add.reduce(a * b, axis=1, out=q[:, c])
        else:
            q[:, c] += (a * b).sum(axis=1)


def _event_sums(tgrid, ev_times, ev_off, row, state0, omega, A, P, ops, nq):
    """Sums over trajectories of each state's features at every grid time.

    A state is a (rows, D) array; every trajectory starts in ``state0`` and
    changes state only at its events, where each row x maps to D(-s) A D(s) x,
    D(s) = diag(exp(i omega s)) with ``omega`` sorted.  One complex exp per
    distinct |omega| > 0 gives D(s): the columns of -|omega| take its
    conjugate, and D(-s) is conj(D(s)).  The features of a row are
    z = P (x - x0), where x0 is its row of ``state0``, then the products
    z_(g+k) conj(z_g) folded into ``nq`` features by ``ops``
    (:func:`_fold_plan`), row after row.  They are constant between events,
    so each event adds features(new) - features(old) to a difference array at
    the first grid time t_g >= s (``row``, from :func:`_grid_rows`), and one
    running sum over time, from 0, gives their sums: all 0 until the first
    event.

    Trajectories are sorted by event count (stable, descending) and taken in
    blocks of at most ``HIST_CELLS`` cells of states and features, held as
    (rows, columns, m) with the m trajectories on the contiguous last axis.
    Round r applies the r-th event of every trajectory that has one; those
    are a prefix of the block, so each round works on slices.
    """
    nt = tgrid.size
    rows, D = state0.shape
    nz = P.shape[0]
    nf = nz + nq
    width = rows * nf
    x0 = state0[:, :, None]
    z0 = P @ x0
    # for each distinct w = |omega| > 0, the columns [p0, p1) of +w and [m0, m1) of -w
    starts = _runs(omega)
    run = {omega[j0]: (j0, j1) for j0, j1 in zip(starts, [*starts[1:], D])}
    pos = [(1j * w, run.get(w, (0, 0)), run.get(-w, (0, 0)))
           for w in sorted({abs(v) for v in run if v != 0})]
    # row nt collects the events past the grid
    flat = np.zeros((nt + 1) * width, dtype=np.complex128)
    diff = flat.reshape(nt + 1, width)
    cols = np.arange(width).reshape(rows, nf, 1)
    counts = np.diff(ev_off)
    order = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
    block = max(1, min(HIST_CELLS // (rows * (D + nf)), order.size))
    # the states and features after this round's event, and the buffers of the
    # next round; D(s), D(-s) and the work arrays
    xbuf = np.empty((2, rows * D * block), dtype=np.complex128)
    fbuf = np.empty((2, width * block), dtype=np.complex128)
    ph_buf = np.ones((2, D, block), dtype=np.complex128)
    e_buf = np.empty((2, block), dtype=np.complex128)
    tmp = np.empty((rows, D, block), dtype=np.complex128)
    zc_buf = np.empty((rows, nz, block), dtype=np.complex128)
    for i0 in range(0, order.size, block):
        idx = order[i0:i0 + block]
        first = ev_off[idx]
        # alive[r]: how many trajectories of the block have more than r events
        alive = np.searchsorted(-counts[idx], -np.arange(counts[idx[0]]), side="left")
        old_x, old_f = x0, None
        for r, m in enumerate(alive):
            k = first[:m] + r
            s = ev_times[k]
            (ph, phc), (e, ec) = ph_buf[:, :, :m], e_buf[:, :m]
            for w, (p0, p1), (m0, m1) in pos:
                np.exp(s * w, out=e)
                np.conjugate(e, out=ec)
                ph[p0:p1] = phc[m0:m1] = e
                ph[m0:m1] = phc[p0:p1] = ec
            new_x = xbuf[r % 2, :rows * D * m].reshape(rows, D, m)
            new_f = fbuf[r % 2, :width * m].reshape(rows, nf, m)
            np.multiply(old_x[:, :, :m], ph, out=tmp[:, :, :m])
            np.matmul(A, tmp[:, :, :m], out=new_x)
            np.multiply(new_x, phc, out=new_x)
            z, zc = new_f[:, :nz], zc_buf[:, :, :m]
            np.matmul(P, new_x, out=z)
            z -= z0
            np.conjugate(z, out=zc)
            _fold(z, zc, new_f[:, nz:], ops)
            delta = new_f if old_f is None else new_f - old_f[:, :, :m]
            np.add.at(flat, (cols + row[k] * width).ravel(), delta.ravel())
            old_x, old_f = new_x, new_f
    return np.cumsum(diff[:nt], axis=0)


def _power_sums(tgrid, ev_times, ev_off, row, x0, A, lin, ops, nq):
    """Sums over trajectories of the features of A^N x0, N the event count, at every grid time.

    The features are the entries y = (A^N x0 - x0)[lin], then the products
    y_(g+k) conj(y_g) folded into ``nq`` features by ``ops``
    (:func:`_fold_plan`).  They depend on a trajectory only through its
    event count, so the event-count histogram weights them.
    """
    x = np.empty((int(np.diff(ev_off).max(initial=0)) + 1, x0.size), dtype=np.complex128)
    x[0] = x0
    for k in range(1, len(x)):
        np.matmul(A, x[k - 1], out=x[k])
    # complex features as Re, Im column pairs, at count k in row k
    f = np.empty((len(x), lin.size + nq), dtype=np.complex128)
    y = np.subtract(x[:, lin], x0[lin], out=f[:, :lin.size])
    _fold(y, y.conj(), f[:, lin.size:], ops)
    sums = _count_histogram_sums(f.view(np.float64), tgrid, ev_times, ev_off, row)
    return sums.view(np.complex128)


def _eigenbasis(H):
    """(W, lam) with exp(t L_H) = W diag(exp(lam t)) W^dag, stably sorted by frequency."""
    energies, U = np.linalg.eigh(np.asarray(H, dtype=np.complex128))
    d = energies.size
    lam = -1j * (np.tile(energies, d) - np.repeat(energies, d))
    perm = np.argsort(lam.imag, kind="stable")
    return np.kron(U.conj(), U)[:, perm], lam[perm]


def _sets(pattern, omega):
    """Per column, the first column of its set in ``qops.coupled_sets(pattern)`` and
    whether every column of that set has the same frequency ``omega``."""
    label = np.empty(omega.size, dtype=np.intp)
    static = np.empty(omega.size, dtype=bool)
    for sets in qops.coupled_sets(pattern):
        w = omega[sets]
        label[sets] = sets[:, :1]
        static[sets] = np.all(w == w[:, :1], axis=1)[:, None]
    return label, static


def run_trajectories(v0, tgrid, ev_times, ev_off, H, E, composition="forward"):
    """Return (mean, standard error) over all trajectories at every uniform grid time.

    ``H`` is the Hamiltonian that acts between events, or None where nothing
    evolves between them (L_H identically zero).  ``composition`` selects
    the operator ordering of each realization: "forward" applies the event
    map chronologically (the frozen-rate unraveling of the exact average)
    while "reversed" attaches the drawn gaps to the unitaries in reverse,
    which is the string whose renewal average solves the effective
    memory-kernel equation.  Each trajectory is written in the eigenbasis
    (W, lam) of L_H (:func:`_eigenbasis`), where its state changes only at
    events, with E' = W^dag E W and c0 = W^dag v0.  Output row i reads the
    columns a with W[i, a] != 0.

    * A row is still when every column that it reads lies in a coupled set
      of E' whose frequencies are all equal.  D(s) = diag(exp(lam s)) is a
      scalar on such a set, so a trajectory with N events is at W E'^N c0
      there under both orderings.  All still rows take one
      :func:`_power_sums`: the entries y_a of y = E'^N c0 - c0 that they
      read, and the products y_a conj(y_b) that one of them reads with y_b.
      Without ``H``, W = I and every row is still; ``eigh`` is skipped.
    * The other rows take the event rounds of :func:`_event_sums` on the
      columns of the sets that they touch.  Forward: v(t) = W (exp(lam t) *
      c), with c <- D(-s) E' D(s) c at each event from c = c0, and the same
      entries and products as a still row.  Reversed: v(t) = B (exp(lam t)
      * c0), with B <- B D(s) E' D(-s) at each event from B = W.  Row i of B
      reaches the output only as sum_f exp(i w_f t) z_if, where z_if sums
      (B - W)_ij c0_j over the columns j of frequency w_f; |.|^2 needs the
      products z_if conj(z_ig) only summed over the pairs of one difference
      w_f - w_g.

    Both sum the moments of v(t) - a(t), where a(t) is the trajectory
    without events, W (exp(lam t) * c0), and add a(t) back to the mean: the
    standard error is exactly 0 where no trajectory has left a(t), not the
    square root of round-off.  Every state is a density matrix, so only the
    entries i <= j are computed; :func:`_mirror` fills the rest.
    """
    if composition not in ("forward", "reversed"):
        raise ValueError(f"unknown composition {composition!r}")

    tgrid = np.ascontiguousarray(tgrid, dtype=np.float64)
    v0 = np.ascontiguousarray(v0, dtype=np.complex128)
    ev_times = np.ascontiguousarray(ev_times, dtype=np.float64)
    ev_off = np.ascontiguousarray(ev_off, dtype=np.int64)
    E = np.ascontiguousarray(E, dtype=np.complex128)
    d = math.isqrt(v0.size)
    up = _upper(d)[0]
    n = ev_off.size - 1
    nt = tgrid.size
    # "left": an event exactly at t_k counts at t_k
    row = _grid_rows(tgrid, ev_times)

    if H is None:
        # W = I: row i reads its entry up[i] alone
        nu = up.size
        ops, _ = _fold_plan(nu, lambda k, g: g if k == 0 else None)
        feat = _power_sums(tgrid, ev_times, ev_off, row, v0, E, up, ops, nu)
        return _mirror(d, *_mean_stderr(v0[up], feat[:, :nu], feat[:, nu:].real, n))

    W, lam = _eigenbasis(H)
    omega = lam.imag
    E_eig = W.conj().T @ E @ W
    c0 = W.conj().T @ v0
    phases = np.exp(np.outer(tgrid, lam))
    Wu = W[up]
    reads = Wu != 0
    # the trajectory without events, W (exp(lam t) * c0), under both strings
    ref = (phases * c0) @ Wu.T
    label, static = _sets(E_eig != 0, omega)
    # a row is still when every column that it reads lies in a set of one frequency
    still = np.all(static | ~reads, axis=1)
    dev_sum = np.empty((nt, up.size), dtype=np.complex128)
    dev_sq = np.empty((nt, up.size))
    for is_still in (True, False):
        rows = np.flatnonzero(still == is_still)
        if rows.size == 0:
            continue
        # the columns that the rows read, and all columns of the sets of those
        lin = np.flatnonzero(np.any(reads[rows], axis=0))
        C = np.flatnonzero(np.isin(label, label[lin]))
        A = E_eig[np.ix_(C, C)]
        if is_still or composition == "forward":
            # the entries y_a that the rows read, and the pairs that one of them reads together
            Wl = Wu[np.ix_(rows, lin)]
            ops, pairs = _fold_plan(lin.size, lambda k, g: (
                (k, g) if np.any(Wl[:, g + k] * Wl[:, g].conj()) else None))
            at = np.searchsorted(C, lin)
            if is_still:
                feat = _power_sums(tgrid, ev_times, ev_off, row, c0[C], A, at, ops, len(pairs))
            else:
                feat = _event_sums(tgrid, ev_times, ev_off, row, c0[None, C], omega[C], A,
                                   np.eye(C.size, dtype=np.complex128)[at], ops, len(pairs))
            Y = Wl * phases[:, None, lin]
            dev_sum[:, rows] = np.einsum("kia,ka->ki", Y, feat[:, :lin.size])
            k, g = np.array(pairs).T
            # an off-diagonal product stands for itself and its conjugate
            quad = feat[:, lin.size:] * np.where(k == 0, 1.0, 2.0)
            dev_sq[:, rows] = np.einsum("kic,kc,kic->ki", Y[:, :, g + k], quad,
                                        Y[:, :, g].conj()).real
        else:
            # the columns of each distinct frequency, weighted by c0; and the
            # pairs of bins folded by their difference of frequency
            starts = _runs(omega[C])
            nz, w = starts.size, omega[C[starts]]
            P = np.zeros((nz, C.size), dtype=np.complex128)
            P[np.searchsorted(w, omega[C]), np.arange(C.size)] = c0[C]
            ops, pairs = _fold_plan(nz, lambda k, g: w[g + k] - w[g])
            # each row x of B maps as x <- x D(s) E' D(-s), that is x <- D(-s) E'^T D(s) x
            feat = _event_sums(tgrid, ev_times, ev_off, row, Wu[np.ix_(rows, C)], omega[C], A.T,
                               P, ops, len(pairs)).reshape(nt, rows.size, -1)
            dev_sum[:, rows] = np.einsum("kif,kf->ki", feat[:, :, :nz], phases[:, C[starts]])
            k, g = np.array(pairs).T
            nu = w[g + k] - w[g]
            quad = np.exp(1j * np.outer(tgrid, nu)) * np.where(k == 0, 1.0, 2.0)
            dev_sq[:, rows] = np.einsum("kic,kc->ki", feat[:, :, nz:], quad).real
    return _mirror(d, *_mean_stderr(ref, dev_sum, dev_sq, n))
