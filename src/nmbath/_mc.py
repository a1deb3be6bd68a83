"""Monte Carlo trajectory engine.

Each trajectory applies the event map E at its sampled event times, with the
coherent propagator exp(t L_H) in between.  Moments on the time grid come
from one of two routes:

* ``count_histogram`` - without coherent evolution a trajectory is just
  E^N(t) v0, so the sums over trajectories are fixed by how many trajectories
  have had k events by each grid time.  The counts are exact integers.
* ``batched`` - otherwise all trajectories of a fixed-size chunk advance in
  lockstep through their events; chunks may run on threads and are merged in
  chunk order with compensated summation.

Event times come from a counter-based splitmix64 generator keyed by
(seed, trajectory index): every trajectory's sample path is a pure function
of that pair, independent of batching or thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# fixed so that results do not depend on the thread count
CHUNK = 8192
# event-count histogram cells (grid times x counts) held at once; bounds the
# memory when some trajectory has thousands of events
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
    counts = np.zeros(n, dtype=np.int64)
    for idx in rounds_idx:
        counts[idx] += 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    times = np.empty(offsets[-1], dtype=np.float64)
    for r, (idx, tv) in enumerate(zip(rounds_idx, rounds_t)):
        times[offsets[idx] + r] = tv
    return times, offsets


def sample_frozen_events(seed, n, t_max, rates, weights):
    """Poisson event times at a per-trajectory rate drawn once from the ensemble.

    Returns (flat event times, offsets).
    """
    state = _stream_init(seed, n)
    state, u = _mix(state)
    cum = np.cumsum(weights)
    comp = np.minimum(np.searchsorted(cum, u, side="right"), len(weights) - 1)
    gam = rates[comp]

    cur = np.zeros(n)
    alive = np.nonzero(gam > 0)[0]
    rounds_idx, rounds_t = [], []
    max_rounds = int(1000 + 20.0 * t_max * max(float(np.max(rates)), 1.0))
    for _ in range(max_rounds):
        if alive.size == 0:
            break
        state_a, u = _mix(state[alive])
        state[alive] = state_a
        cur[alive] += -np.log(u) / gam[alive]
        still = cur[alive] <= t_max
        keep = alive[still]
        rounds_idx.append(keep)
        rounds_t.append(cur[keep])
        alive = keep
    else:
        raise RuntimeError("frozen-rate event sampling did not terminate")
    return _assemble(n, rounds_idx, rounds_t)


def sample_renewal_events(seed, n, t_max, rates, weights):
    """I.i.d. waiting times from the ensemble mixture density.

    Each event draws a fresh component (probability P_R) and an exponential
    interval at that component's rate.
    """
    state = _stream_init(seed, n)
    cum = np.cumsum(weights)
    cur = np.zeros(n)
    alive = np.arange(n)
    rounds_idx, rounds_t = [], []
    max_rounds = int(1000 + 20.0 * t_max * max(float(np.max(rates)), 1.0))
    for _ in range(max_rounds):
        if alive.size == 0:
            break
        state_a, u1 = _mix(state[alive])
        state_a, u2 = _mix(state_a)
        state[alive] = state_a
        comp = np.minimum(np.searchsorted(cum, u1, side="right"), len(weights) - 1)
        gam = rates[comp]
        with np.errstate(divide="ignore"):
            wait = np.where(gam > 0, -np.log(u2) / np.maximum(gam, 1e-300), np.inf)
        cur[alive] += wait
        still = cur[alive] <= t_max
        keep = alive[still]
        rounds_idx.append(keep)
        rounds_t.append(cur[keep])
        alive = keep
    else:
        raise RuntimeError("renewal event sampling did not terminate")
    return _assemble(n, rounds_idx, rounds_t)


def _advance_prefix_numpy(v0, tgrid, ev_times, ev_off, use_unitary, U_h, W, Winv, lam, E,
                          out_sum, out_sq):
    """Reversed-composition advance for the renewal unraveling.

    Each trajectory accumulates the prefix map M = U(g_1) E U(g_2) E ... E over
    its inter-event gaps and reports M @ U(t - s_last) @ v0.  Averaging this
    string solves the effective memory-kernel equation; the forward ordering
    of :func:`_advance_chunk_numpy` would not for noncommuting models.
    """
    n = ev_off.size - 1
    dsq = v0.size
    M = np.tile(np.eye(dsq, dtype=np.complex128), (n, 1, 1))
    s_prev = np.zeros(n)
    ptr = ev_off[:-1].copy()
    end = ev_off[1:]
    c0 = Winv @ v0 if use_unitary else v0
    WinvE = Winv @ E
    for k in range(tgrid.size):
        tk = tgrid[k]
        while True:
            cand = np.nonzero(ptr < end)[0]
            if cand.size:
                cand = cand[ev_times[ptr[cand]] <= tk]
            if cand.size == 0:
                break
            te = ev_times[ptr[cand]]
            gap = te - s_prev[cand]
            if use_unitary:
                # M <- M @ U(gap) @ E with U(gap) = W diag(exp(lam*gap)) Winv
                phased = np.exp(np.outer(gap, lam))[:, None, :] * (M[cand] @ W)
                M[cand] = phased @ WinvE
            else:
                M[cand] = M[cand] @ E
            s_prev[cand] = te
            ptr[cand] += 1
        if use_unitary:
            tail = np.exp(np.outer(tk - s_prev, lam)) * c0
            V = np.einsum("nij,nj->ni", M, tail @ W.T)
        else:
            V = M @ v0
        out_sum[k] += V.sum(axis=0)
        out_sq[k] += (V.real**2 + V.imag**2).sum(axis=0)
    return out_sum, out_sq


def _advance_chunk_numpy(v0, tgrid, ev_times, ev_off, use_unitary, U_h, W, Winv, lam, E,
                         out_sum, out_sq):
    """Vectorized batch advance: all trajectories of the chunk move in lockstep."""
    n = ev_off.size - 1
    dsq = v0.size
    V = np.tile(v0, (n, 1))
    cur = np.zeros(n)
    ptr = ev_off[:-1].copy()
    end = ev_off[1:]
    ET = np.ascontiguousarray(E.T)
    WinvT = np.ascontiguousarray(Winv.T) if use_unitary else None
    WT = np.ascontiguousarray(W.T) if use_unitary else None
    UhT = np.ascontiguousarray(U_h.T) if use_unitary else None
    prev_t = 0.0
    for k in range(tgrid.size):
        tk = tgrid[k]
        while True:
            cand = np.nonzero(ptr < end)[0]
            if cand.size:
                cand = cand[ev_times[ptr[cand]] <= tk]
            if cand.size == 0:
                break
            te = ev_times[ptr[cand]]
            if use_unitary:
                dt = te - cur[cand]
                V[cand] = ((V[cand] @ WinvT) * np.exp(np.outer(dt, lam))) @ WT
            V[cand] = V[cand] @ ET
            cur[cand] = te
            ptr[cand] += 1
        if use_unitary and tk > 0.0:
            aligned = cur == prev_t
            if np.any(aligned):
                V[aligned] = V[aligned] @ UhT
            rest = np.nonzero(~aligned)[0]
            if rest.size:
                dt = tk - cur[rest]
                V[rest] = ((V[rest] @ WinvT) * np.exp(np.outer(dt, lam))) @ WT
        cur[:] = tk
        prev_t = tk
        out_sum[k] += V.sum(axis=0)
        out_sq[k] += (V.real**2 + V.imag**2).sum(axis=0)
    return out_sum, out_sq


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
    g = np.searchsorted(tgrid, ev_times, side="left")
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


def _mean_stderr(total_sum, total_sq, n):
    """Per-entry mean and standard error from the sums of z and |z|^2 over n trajectories."""
    mean = total_sum / n
    if n > 1:
        var = np.maximum(total_sq / n - np.abs(mean) ** 2, 0.0) * (n / (n - 1))
        stderr = np.sqrt(var / n)
    else:
        stderr = np.zeros_like(total_sq)
    return mean, stderr


def run_trajectories(v0, tgrid, ev_times, ev_off, unitary, E, n_threads=1,
                     composition="forward"):
    """Advance all trajectories and return (mean, standard error) per grid point.

    ``unitary`` is None for trivial inter-event evolution, else a tuple
    (U_h, W, Winv, lam) with the single-step propagator and the spectral
    factorization used for off-grid intervals.  ``composition`` selects the
    operator ordering of each realization: "forward" applies the event map
    chronologically (the frozen-rate unraveling of the exact average) while
    "reversed" attaches the drawn gaps to the unitaries in reverse, which is
    the string whose renewal average solves the effective memory-kernel
    equation.  Without a unitary both orderings give E^N(t) v0 and the moments
    come from event-count histograms.  Otherwise accumulation is chunked with
    a fixed chunk size and merged in chunk order with compensated summation,
    so the result is independent of the thread count.
    """
    if composition not in ("forward", "reversed"):
        raise ValueError(f"unknown composition {composition!r}")

    tgrid = np.ascontiguousarray(tgrid, dtype=np.float64)
    if tgrid[0] != 0.0:
        # the aligned-step fast path assumes every interval has the grid step
        raise ValueError("trajectory grids must start at t = 0")
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
        # columns: Re and Im of E^k v0 interleaved, then |E^k v0|^2
        cols = np.hstack([powers.view(np.float64), powers.real**2 + powers.imag**2])
        sums = _count_histogram_sums(cols, tgrid, ev_times, ev_off)
        total_sum = np.ascontiguousarray(sums[:, :2 * dsq]).view(np.complex128)
        return _mean_stderr(total_sum, sums[:, 2 * dsq:], n)

    U_h, W, Winv, lam = (np.ascontiguousarray(a, dtype=np.complex128) for a in unitary)
    fn = _advance_prefix_numpy if composition == "reversed" else _advance_chunk_numpy
    starts = list(range(0, n, CHUNK))
    results = [None] * len(starts)

    def work(j):
        i0 = starts[j]
        i1 = min(i0 + CHUNK, n)
        s = np.zeros((nt, dsq), dtype=np.complex128)
        q = np.zeros((nt, dsq), dtype=np.float64)
        off = ev_off[i0:i1 + 1] - ev_off[i0]
        times = ev_times[ev_off[i0]:ev_off[i1]]
        fn(v0, tgrid, times, off, True, U_h, W, Winv, lam, E, s, q)
        results[j] = (s, q)

    if n_threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, range(len(starts))))
    else:
        for j in range(len(starts)):
            work(j)

    total_sum = np.zeros((nt, dsq), dtype=np.complex128)
    total_sq = np.zeros((nt, dsq), dtype=np.float64)
    comp_sum = np.zeros_like(total_sum)
    comp_sq = np.zeros_like(total_sq)
    for s, q in results:
        # Kahan step keeps the chunk merge insensitive to chunk count
        y = s - comp_sum
        t = total_sum + y
        comp_sum = (t - total_sum) - y
        total_sum = t
        y2 = q - comp_sq
        t2 = total_sq + y2
        comp_sq = (t2 - total_sq) - y2
        total_sq = t2

    return _mean_stderr(total_sum, total_sq, n)
