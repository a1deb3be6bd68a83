"""Monte Carlo trajectory engine.

Each trajectory applies the event map E at its sampled event times, with the
coherent propagator exp(t L_H) in between.  Moments on the time grid come
from one of two routes, both sums over trajectories that change only at
events:

* ``count_histogram`` - without coherent evolution a trajectory is just
  E^N(t) v0, so the sums over trajectories are fixed by how many trajectories
  have had k events by each grid time.  The counts are exact integers.
* ``eigenbasis`` - otherwise each trajectory is written in the eigenbasis of
  L_H, where its state is constant between events; each event adds the change
  of the state and of the upper triangle of its rows' Hermitian outer
  products to a difference array over the grid.  Trajectories lie on the
  contiguous last axis, in order of event count.

Event times come from a counter-based splitmix64 generator keyed by
(seed, trajectory index): every trajectory's sample path is a pure function
of that pair, independent of batching.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# cells held at once: event-count histogram cells (grid times x counts), whose
# count axis grows with the most events of one trajectory; or feature cells
# (trajectories x features) of one block of trajectories, with D^2 (D + 3) / 2
# features per trajectory under the reversed string for states of size D
HIST_CELLS = 1 << 16


def _mix(state):
    """One splitmix64 output per stream; returns (new_state, uniform in (0,1))."""
    state = state + _GOLDEN
    z = state
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return state, u


def _stream_init(seed, n):
    idx = np.arange(1, n + 1, dtype=np.uint64)
    return np.uint64(int(seed) % 2**64) + idx * _GOLDEN


def _assemble(n, rounds_idx, rounds_t):
    """(flat event times, offsets) from the rounds: round r holds the r-th event of its trajectories."""
    counts = np.zeros(n, dtype=np.int64)
    for idx in rounds_idx:
        counts[idx] += 1
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
    event of every trajectory still inside [0, t_max].  Returns (flat event
    times, offsets): the events of trajectory i are times[offsets[i]:offsets[i+1]].
    """
    state = _stream_init(seed, n)
    cum = np.cumsum(weights)

    def pick(u):
        return rates[np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)]

    if not renewal:
        state, u = _mix(state)
        frozen = pick(u)
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
            s = state[alive]
            if renewal:
                s, u = _mix(s)
                gam = pick(u)
            else:
                gam = frozen[alive]
            state[alive], u = _mix(s)
            cur[alive] += -np.log(u) / gam
            alive = alive[cur[alive] <= t_max]
            rounds_idx.append(alive)
            rounds_t.append(cur[alive])
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


def _count_histogram_sums(cols, tgrid, ev_times, ev_off):
    """Sum over trajectories of ``cols[N_i(t_k)]`` at every grid time t_k.

    N_i(t) is the number of events of trajectory i up to and including t.  The
    histogram of N over trajectories changes only where an event moves one
    trajectory from count c - 1 to c, so it is the running sum over time of a
    difference array.  Grid times are taken in blocks of at most
    ``HIST_CELLS`` histogram cells.
    """
    n, nt, ncol = ev_off.size - 1, tgrid.size, cols.shape[0]
    # "left": an event exactly at t_k counts at t_k
    g = _grid_rows(tgrid, ev_times)
    after = np.arange(1, ev_times.size + 1) - np.repeat(ev_off[:-1], np.diff(ev_off))
    hist = np.zeros(ncol, dtype=np.int64)
    hist[0] = n
    out = np.empty((nt, cols.shape[1]))
    rows = max(1, HIST_CELLS // ncol)
    for k0 in range(0, nt, rows):
        k1 = min(k0 + rows, nt)
        sel = (g >= k0) & (g < k1)
        cell = (g[sel] - k0) * ncol + after[sel]
        size = (k1 - k0) * ncol
        diff = np.bincount(cell, minlength=size) - np.bincount(cell - 1, minlength=size)
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


def _outer_triangle(F, y):
    """Fill ``F[:, D:]`` with y_a conj(y_b), a <= b, of each row of ``y`` (rows, D, m).

    Those are the upper triangle of the Hermitian y y^dag, in
    ``np.triu_indices(D)`` order; the trajectories lie on the last axis.
    """
    D = y.shape[1]
    yc = y.conj()
    j = D
    for a in range(D):
        np.multiply(y[:, a:a + 1], yc[:, a:], out=F[:, j:j + D - a])
        j += D - a


def _event_sums(tgrid, ev_times, ev_off, state0, lam, A):
    """Sums over trajectories of each state's features at every grid time.

    A state is a (rows, D) array; every trajectory starts in ``state0`` and
    changes state only at its events, where each row x maps to D(-s) A D(s) x,
    D(s) = diag(exp(lam s)).  The features of a row are x and the upper
    triangle of y y^dag (:func:`_outer_triangle`), row after row, where
    y = x - x0 is the change of the row from its row x0 of ``state0``.  They
    are constant between events, so each event adds features(new) -
    features(old) to a difference array at the first grid time t_g >= s, and
    one running sum over time, from 0, gives the sums of y and of the
    triangle: all 0 until the first event.

    Trajectories are sorted by event count (stable, descending) and taken in
    blocks of at most ``HIST_CELLS`` feature cells, held as (rows, features,
    m) with the m trajectories on the contiguous last axis.  Round r applies
    the r-th event of every trajectory that has one; those are a prefix of the
    block, so each round works on slices.
    """
    nt = tgrid.size
    rows, D = state0.shape
    nf = D + D * (D + 1) // 2
    width = rows * nf
    x0 = state0[:, :, None]
    # the features before the first event: x0, and a zero triangle
    f0 = np.zeros((rows, nf, 1), dtype=np.complex128)
    f0[:, :D] = x0
    # row nt collects the events past the grid
    flat = np.zeros((nt + 1) * width, dtype=np.complex128)
    diff = flat.reshape(nt + 1, width)
    # "left": an event exactly at t_k counts at t_k
    row = _grid_rows(tgrid, ev_times)
    cols = np.arange(width).reshape(rows, nf, 1)
    counts = np.diff(ev_off)
    order = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
    block = max(1, HIST_CELLS // width)
    # the features after this round's event, and the buffer of the next round
    new_buf, next_buf = np.empty((2, width * min(block, order.size)), dtype=np.complex128)
    for i0 in range(0, order.size, block):
        idx = order[i0:i0 + block]
        first = ev_off[idx]
        # alive[r]: how many trajectories of the block have more than r events
        alive = np.searchsorted(-counts[idx], -np.arange(counts[idx[0]]), side="left")
        old = np.broadcast_to(f0, (rows, nf, idx.size))
        for r, m in enumerate(alive):
            k = first[:m] + r
            ph = np.exp(lam[:, None] * ev_times[k])
            new = new_buf[:width * m].reshape(rows, nf, m)
            np.multiply(A @ (old[:, :D, :m] * ph), ph.conj(), out=new[:, :D])
            _outer_triangle(new, new[:, :D] - x0)
            np.add.at(flat, (cols + row[k] * width).ravel(), (new - old[..., :m]).ravel())
            old, new_buf, next_buf = new, next_buf, new_buf
    return np.cumsum(diff[:nt], axis=0)


def run_trajectories(v0, tgrid, ev_times, ev_off, unitary, E, composition="forward"):
    """Return (mean, standard error) over all trajectories at every uniform grid time.

    ``unitary`` is None for trivial inter-event evolution, else the pair
    (W, lam) with exp(t L_H) = W diag(exp(lam t)) W^dag.  ``composition``
    selects the operator ordering of each realization: "forward" applies the
    event map chronologically (the frozen-rate unraveling of the exact
    average) while "reversed" attaches the drawn gaps to the unitaries in
    reverse, which is the string whose renewal average solves the effective
    memory-kernel equation.  Without a unitary both orderings give E^N(t) v0
    and the moments come from event-count histograms.  Otherwise each
    trajectory is written in the eigenbasis of L_H, where its state changes
    only at events (see :func:`_event_sums`), with E' = W^dag E W:

    * forward: v(t) = W (exp(lam t) * c), with c <- D(-s) E' D(s) c at each
      event from c = W^dag v0;
    * reversed: v(t) = B (exp(lam t) * W^dag v0), with B <- B D(s) E' D(-s)
      at each event from B = W.

    Both routes sum the moments of v(t) - a(t), where a(t) is the trajectory
    without events (v0, or W (exp(lam t) * W^dag v0)), and add a(t) back to
    the mean: the standard error is exactly 0 where no trajectory has left
    a(t), not the square root of round-off.
    """
    if composition not in ("forward", "reversed"):
        raise ValueError(f"unknown composition {composition!r}")

    tgrid = np.ascontiguousarray(tgrid, dtype=np.float64)
    v0 = np.ascontiguousarray(v0, dtype=np.complex128)
    ev_times = np.ascontiguousarray(ev_times, dtype=np.float64)
    ev_off = np.ascontiguousarray(ev_off, dtype=np.int64)
    E = np.ascontiguousarray(E, dtype=np.complex128)
    dsq = v0.size
    n = ev_off.size - 1
    nt = tgrid.size

    if unitary is None:
        powers = np.empty((int(np.diff(ev_off).max(initial=0)) + 1, dsq), dtype=np.complex128)
        powers[0] = v0
        for k in range(1, len(powers)):
            powers[k] = E @ powers[k - 1]
        powers -= v0
        # columns: Re and Im of E^k v0 - v0 interleaved, then |E^k v0 - v0|^2
        cols = np.hstack([powers.view(np.float64), powers.real**2 + powers.imag**2])
        sums = _count_histogram_sums(cols, tgrid, ev_times, ev_off)
        dev_sum = np.ascontiguousarray(sums[:, :2 * dsq]).view(np.complex128)
        return _mean_stderr(v0, dev_sum, sums[:, 2 * dsq:], n)

    W, lam = (np.asarray(a, dtype=np.complex128) for a in unitary)
    E_eig = W.conj().T @ E @ W
    c0 = W.conj().T @ v0
    phases = np.exp(np.outer(tgrid, lam))
    x = phases * c0
    # the trajectory without events, W (exp(lam t) * c0), under both strings
    ref = x @ W.T
    a, b = np.triu_indices(dsq)
    # an off-diagonal entry of the triangle stands for itself and its conjugate
    twice = np.where(a == b, 1.0, 2.0)
    if composition == "forward":
        sums = _event_sums(tgrid, ev_times, ev_off, c0[None], lam, E_eig)
        Y = W * phases[:, None, :]
        dev_sum = np.einsum("kia,ka->ki", Y, sums[:, :dsq])
        tri = sums[:, dsq:] * twice
        dev_sq = np.einsum("kit,kt,kit->ki", Y[:, :, a], tri, Y[:, :, b].conj()).real
    else:
        # each row x of B maps as x <- x D(s) E' D(-s), that is x <- D(-s) E'^T D(s) x
        sums = _event_sums(tgrid, ev_times, ev_off, W, lam, E_eig.T).reshape(nt, dsq, -1)
        dev_sum = np.einsum("kij,kj->ki", sums[:, :, :dsq], x)
        dev_sq = np.einsum("kit,kt->ki", sums[:, :, dsq:], twice * x[:, a] * x[:, b].conj()).real
    return _mean_stderr(ref, dev_sum, dev_sq, n)
