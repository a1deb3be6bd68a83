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
* moving rows - the forward string carries one state, which each row reads
  through its row of W; the reversed string carries one state per row, its
  row of B, which it reads through c0.  Each event adds the change of the
  entries that a readout touches, and of their pairwise products, to a
  difference array over the grid.  Trajectories lie on the contiguous last
  axis, in order of event count.

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


def _pair_plan(nz, read):
    """Slice operations that write the products y_(g+k) conj(y_g), k >= 0, as features.

    ``read(k, g)`` says whether a readout touches the pair (g + k, g).
    Features are numbered in order, diagonal k after diagonal k - 1.  Returns
    (ops, pairs): op (k, g0, g1, c) covers the pairs g0 <= g < g1 of diagonal
    k, pair g writing feature c + g - g0; ``pairs[c]`` is the pair (k, g) of
    feature c.
    """
    pairs = [(k, g) for k in range(nz) for g in range(nz - k) if read(k, g)]
    ops = []
    for c, (k, g) in enumerate(pairs):
        if ops and ops[-1][0] == k and ops[-1][2] == g:
            ops[-1] = (k, ops[-1][1], g + 1, ops[-1][3])
        else:
            ops.append((k, g, g + 1, c))
    return ops, pairs


def _runs(omega):
    """The first index of each run of equal values of the sorted ``omega``."""
    return np.flatnonzero(np.diff(omega, prepend=-np.inf))


def _products(y, yc, q, ops):
    """Write the products y_(g+k) conj(y_g) of the entries y[:, g] into q by ``ops``.

    ``yc`` is conj(y); ``ops`` is from :func:`_pair_plan`.
    """
    for k, g0, g1, c in ops:
        np.multiply(y[:, g0 + k:g1 + k], yc[:, g0:g1], out=q[:, c:c + g1 - g0])


def _event_sums(tgrid, ev_times, ev_off, row, state0, omega, A, lin, ops, nq):
    """Sums over trajectories of each state's features at every grid time.

    A state is a (rows, D) array; every trajectory starts in ``state0`` and
    changes state only at its events, where each row x maps to D(-s) A D(s) x,
    D(s) = diag(exp(i omega s)) with ``omega`` sorted.  One complex exp per
    distinct |omega| > 0 gives D(s): the columns of -|omega| take its
    conjugate, and D(-s) is conj(D(s)).  The features of a row are the
    entries y = (x - x0)[lin], where x0 is its row of ``state0``, then the
    ``nq`` products y_(g+k) conj(y_g) of ``ops`` (:func:`_pair_plan`), row
    after row.  They are constant between events, so each event adds
    features(new) - features(old) to a difference array at the first grid
    time t_g >= s (``row``, from :func:`_grid_rows`), and one running sum
    over time, from 0, gives their sums: all 0 until the first event.

    Trajectories are sorted by event count (stable, descending) and taken in
    blocks of at most ``HIST_CELLS`` cells of states and features, held as
    (rows, columns, m) with the m trajectories on the contiguous last axis.
    Round r applies the r-th event of every trajectory that has one; those
    are a prefix of the block, so each round works on slices.
    """
    nt = tgrid.size
    rows, D = state0.shape
    nz = lin.size
    nf = nz + nq
    width = rows * nf
    x0 = state0[:, :, None]
    y0 = x0[:, lin]
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
    yc_buf = np.empty((rows, nz, block), dtype=np.complex128)
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
            y, yc = new_f[:, :nz], yc_buf[:, :, :m]
            np.subtract(new_x[:, lin], y0, out=y)
            np.conjugate(y, out=yc)
            _products(y, yc, new_f[:, nz:], ops)
            delta = new_f if old_f is None else new_f - old_f[:, :, :m]
            np.add.at(flat, (cols + row[k] * width).ravel(), delta.ravel())
            old_x, old_f = new_x, new_f
    return np.cumsum(diff[:nt], axis=0)


def _power_sums(tgrid, ev_times, ev_off, row, x0, A, lin, ops, nq):
    """Sums over trajectories of the features of A^N x0, N the event count, at every grid time.

    The features are the entries y = (A^N x0 - x0)[lin], then the ``nq``
    products y_(g+k) conj(y_g) of ``ops`` (:func:`_pair_plan`).  They depend
    on a trajectory only through its event count, so the event-count
    histogram weights them.
    """
    x = np.empty((int(np.diff(ev_off).max(initial=0)) + 1, x0.size), dtype=np.complex128)
    x[0] = x0
    for k in range(1, len(x)):
        np.matmul(A, x[k - 1], out=x[k])
    # complex features as Re, Im column pairs, at count k in row k
    f = np.empty((len(x), lin.size + nq), dtype=np.complex128)
    y = np.subtract(x[:, lin], x0[lin], out=f[:, :lin.size])
    _products(y, y.conj(), f[:, lin.size:], ops)
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
      there under both orderings, and all still rows take one
      :func:`_power_sums` over the state E'^N c0.  Without ``H``, W = I and
      every row is still; ``eigh`` is skipped.
    * The other rows take the event rounds of :func:`_event_sums` on the
      columns C of the sets that they touch.  Forward: v(t) = W (exp(lam t)
      * c), with c <- D(-s) E' D(s) c at each event from c = c0.  Reversed:
      v(t) = B (exp(lam t) * c0), with B <- B D(s) E' D(-s) at each event
      from B = W; each row x of B over C is a state of its own,
      x <- D(-s) E'^T D(s) x.

    Row i reads a state through weights V_ia: W[i, a] for the one state c,
    c0_a for its own row of B.  The routes sum the entries y_a of the state
    minus its start that a readout touches, and the products y_a conj(y_b)
    of the pairs that one readout touches together.  Then the moments of
    v(t) - a(t), where a(t) = W (exp(lam t) * c0) is the trajectory without
    events, are sum_a V_ia exp(lam_a t) y_a and the real part of
    sum V_ia conj(V_ib) exp(i (w_a - w_b) t) y_a conj(y_b), twice for
    a != b.  A row whose readout touches no column, where c0 vanishes on C,
    stays on a(t).  a(t) is added back to the mean, so the
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
        ops, _ = _pair_plan(nu, lambda k, g: k == 0)
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
    dev_sum = np.zeros((nt, up.size), dtype=np.complex128)
    dev_sq = np.zeros((nt, up.size))
    for is_still in (True, False):
        rows = np.flatnonzero(still == is_still)
        # the columns that the rows read, and all columns of the sets of those
        lin = np.flatnonzero(np.any(reads[rows], axis=0))
        C = np.flatnonzero(np.isin(label, label[lin]))
        A = E_eig[np.ix_(C, C)]
        if is_still or composition == "forward":
            # one state c over C, which row i reads through W[i, lin]
            V, state0 = Wu[np.ix_(rows, lin)], c0[None, C]
        else:
            # one state per row, its row x of B over C, read through c0; x
            # maps as x <- x D(s) E' D(-s), that is x <- D(-s) E'^T D(s) x
            lin = C[c0[C] != 0]
            V, state0, A = c0[None, lin], Wu[np.ix_(rows, C)], A.T
        if lin.size == 0:
            # no rows, or c0 vanishes on C: the rows stay on a(t)
            continue
        # the entries y_a that a readout touches, and the pairs that one readout touches together
        at = np.searchsorted(C, lin)
        ops, pairs = _pair_plan(lin.size, lambda k, g: np.any(V[:, g + k] * V[:, g].conj()))
        if is_still:
            feat = _power_sums(tgrid, ev_times, ev_off, row, c0[C], A, at, ops, len(pairs))
        else:
            feat = _event_sums(tgrid, ev_times, ev_off, row, state0, omega[C], A, at, ops,
                               len(pairs))
        # (nt, states, features): one state for every row, or one per row
        feat = feat.reshape(nt, -1, lin.size + len(pairs))
        Y = V * phases[:, None, lin]
        dev_sum[:, rows] = np.einsum("kia,kia->ki", Y, feat[:, :, :lin.size])
        k, g = np.array(pairs).T
        # an off-diagonal product stands for itself and its conjugate
        quad = feat[:, :, lin.size:] * np.where(k == 0, 1.0, 2.0)
        dev_sq[:, rows] = np.einsum("kic,kic,kic->ki", Y[:, :, g + k], quad,
                                    Y[:, :, g].conj()).real
    return _mirror(d, *_mean_stderr(ref, dev_sum, dev_sq, n))
