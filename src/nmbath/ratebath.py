"""Rate ensembles and the renewal-process analytics built on them.

An environment is a finite list of dissipation rates with probabilities.
Everything downstream (survival probability, waiting-time density, sprinkling
distribution, memory kernel) is exact algebra on that list: sums of
exponentials, the renewal chain's exact step maps (no poles), and the
kernel's partial fractions.  The fractional long-tail model is the one
non-rational object and is handled by numerical Laplace inversion (fixed
Talbot grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qops

# rates closer than this (relative to the largest rate) are merged so that all
# spectral functions keep simple poles
MERGE_RTOL = 1e-9

# a level whose kernel pole would sit closer than this (relative to its own
# rate) to -gamma_R is deflated: its pole and zero cancel in K(u)
DEFLATE_RTOL = 1e-13

TALBOT_NODES = 32
# contour scale of the fixed Talbot method, independent of the node count
TALBOT_SCALE = 2.0 * TALBOT_NODES / 5.0

# fewest samples a power-law fit accepts on its window
FIT_MIN_SAMPLES = 10


class KernelDecompositionError(RuntimeError):
    """Pole separation or reconstruction of the memory kernel failed."""


@dataclass(frozen=True)
class RateEnsemble:
    """Finite set of dissipation rates gamma_R with probabilities P_R.

    ``alpha`` is populated by :func:`manifold_ensemble` (ratio of population
    to coupling decay constants) and None otherwise.
    """

    rates: np.ndarray
    weights: np.ndarray
    alpha: float | None = None

    @property
    def n(self):
        return len(self.rates)

    def __post_init__(self):
        self.rates.setflags(write=False)
        self.weights.setflags(write=False)


def rate_ensemble(rates, weights, alpha=None):
    """Validate, merge near-duplicate rates, and sort descending."""
    rates = np.asarray(rates, dtype=float).reshape(-1)
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if rates.size == 0 or rates.size != weights.size:
        raise ValueError("rates and weights must be equal-length, nonempty")
    if not (np.all(np.isfinite(rates)) and np.all(np.isfinite(weights))):
        raise ValueError("rates and weights must be finite")
    if np.any(rates < 0):
        raise ValueError("rates must be nonnegative")
    if np.any(weights < 0):
        raise ValueError("weights must be nonnegative")
    total = float(weights.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    weights = weights / total

    keep = weights > 0.0
    rates, weights = rates[keep], weights[keep]
    order = np.argsort(rates)[::-1]
    rates, weights = rates[order], weights[order]

    if rates[0] == 0.0:
        raise ValueError("mean rate is zero: every rate with positive weight is 0")
    tol = MERGE_RTOL * rates[0]
    merged_r, merged_w = [rates[0]], [weights[0]]
    for r, w in zip(rates[1:], weights[1:]):
        if merged_r[-1] - r < tol:
            merged_w[-1] += w
        else:
            merged_r.append(r)
            merged_w.append(w)
    return RateEnsemble(np.array(merged_r), np.array(merged_w), alpha)


def two_state_ensemble(p_up, gamma_up, gamma_down):
    """Two-level environment with occupation p_up of the fast state."""
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up = {p_up} outside [0, 1]")
    if not (0 < gamma_up < math.inf and 0 < gamma_down < math.inf):
        raise ValueError("two-state rates must be positive and finite")
    return rate_ensemble([gamma_up, gamma_down], [p_up, 1.0 - p_up])


def manifold_ensemble(gamma, a, b, n):
    """N-level environment with geometric rates and populations.

    Rates gamma * exp(-b R) and weights proportional to exp(-a R) for
    R = 0 .. n-1.  b = 0 collapses to a single rate.  b < 0 is refused: it
    gives alpha = a/b < 0, outside the power-law regime w(t) ~ t^-(1+alpha).
    """
    if n < 1:
        raise ValueError("manifold needs at least one level")
    if not all(map(math.isfinite, (gamma, a, b))):
        raise ValueError("manifold parameters gamma, a, b must be finite")
    if a <= 0:
        raise ValueError("population decay constant a must be positive")
    if b < 0:
        raise ValueError("rate decay constant b must be nonnegative")
    if gamma <= 0:
        raise ValueError("base rate must be positive")
    levels = np.arange(n)
    rates = gamma * np.exp(-b * levels)
    weights = np.exp(-a * levels)
    weights /= weights.sum()
    return rate_ensemble(rates, weights, alpha=(a / b if b != 0 else None))


@dataclass(frozen=True)
class EnsembleStats:
    mean_rate: float
    second_moment: float
    mean_waiting_time: float
    fluctuation_rate: float
    eta: float | None = None
    alpha: float | None = None


def stats(ens: RateEnsemble) -> EnsembleStats:
    """Moments of the rate distribution and derived time scales."""
    r, w = ens.rates, ens.weights
    mean = float(r @ w)
    second = float((r * r) @ w)
    if np.all(r > 0):
        mean_tau = float((1.0 / r) @ w)
    else:
        mean_tau = math.inf
    beta = (second - mean * mean) / mean
    eta = None
    if ens.n == 2:
        # rates are sorted descending: index 0 is "up"
        eta = float(w[0] * r[1] + w[1] * r[0])
    return EnsembleStats(mean, second, mean_tau, beta, eta, ens.alpha)


def _exp_sum(t, exponents, coeffs):
    """sum_j coeffs_j exp(exponents_j t) at every t >= 0; a float for scalar t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = np.exp(np.multiply.outer(t, exponents)) @ coeffs
    return out if out.ndim else float(out)


def survival(ens: RateEnsemble, t):
    """Survival probability P0(t) = sum_R P_R exp(-gamma_R t)."""
    return _exp_sum(t, -ens.rates, ens.weights)


def waiting_density(ens: RateEnsemble, t):
    """Waiting-time density w(t) = -dP0/dt = sum_R P_R gamma_R exp(-gamma_R t)."""
    return _exp_sum(t, -ens.rates, ens.weights * ens.rates)


def w_of_u(ens: RateEnsemble, u):
    """w(u) = <gamma_R / (u + gamma_R)> by direct summation (stable for any N)."""
    u = np.asarray(u, dtype=complex)
    out = (ens.rates / (u[..., None] + ens.rates)) @ ens.weights
    return out if out.ndim else complex(out)


def kernel_of_u(ens: RateEnsemble, u):
    """K(u) = w(u) / P0(u), P0(u) = <1 / (u + gamma_R)>, by direct summation."""
    u = np.asarray(u, dtype=complex)
    out = w_of_u(ens, u) / ((1.0 / (u[..., None] + ens.rates)) @ ens.weights)
    return out if np.ndim(out) else complex(out)


@dataclass(frozen=True)
class KernelDecomposition:
    """Memory kernel K(t) = markov_weight * delta(t) + sum_j c_j exp(p_j t)."""

    markov_weight: float
    amplitudes: np.ndarray
    poles: np.ndarray

    def of_u(self, u):
        """K(u) = markov_weight + sum_j c_j / (u - p_j)."""
        u = np.asarray(u, dtype=complex)
        out = self.markov_weight + (1.0 / (u[..., None] - self.poles)) @ self.amplitudes
        return out if out.ndim else complex(out)


def kernel_decompose(ens: RateEnsemble) -> KernelDecomposition:
    """Partial fractions of K(u) = w(u) / P0(u) = 1 / P0(u) - u.

    The Markovian weight is the mean rate.  The poles are the zeros of
    P0(u) = q^T (u + diag(gamma))^-1 q with q = sqrt(P): the negated
    eigenvalues of diag(gamma) compressed onto the complement of q (the
    rank-one secular problem; Golub, SIAM Review 15, 1973).  Since w = 1 at
    every zero of P0, the amplitudes are c_j = 1 / P0'(p_j).

    A level of weight P_R puts a zero of P0 at about -gamma_R + P_R / |S_R|,
    S_R = sum_{k != R} P_k / (gamma_k - gamma_R).  Where that offset is below
    DEFLATE_RTOL * gamma_R the pole cancels against the zero to working
    precision, and the level is dropped before the eigen-solve.  Poles must
    interlace the negated rates of the kept levels, and the reconstruction
    must match the direct sum w/P0 of the full ensemble on the positive real
    axis.
    """
    if np.any(ens.rates <= 0):
        raise ValueError("kernel decomposition requires strictly positive rates")
    st = stats(ens)

    gap = ens.rates[None, :] - ens.rates[:, None]
    np.fill_diagonal(gap, np.inf)
    secular = np.abs((ens.weights / gap).sum(axis=1))
    keep = ens.weights > DEFLATE_RTOL * ens.rates * secular
    rates, weights = ens.rates[keep], ens.weights[keep]

    poles = amps = np.zeros(0)
    if rates.size > 1:
        # Householder reflector mapping q to a multiple of e_1; its other
        # columns are an orthonormal basis of the complement of q
        q = np.sqrt(weights)
        basis = np.linalg.qr(q[:, None], mode="complete")[0][:, 1:]
        eig = np.linalg.eigvalsh(basis.T @ (rates[:, None] * basis))

        # one eigenvalue strictly between each pair of consecutive rates
        ascending = rates[::-1]
        escaped = ~((ascending[:-1] < eig) & (eig < ascending[1:]))
        if np.any(escaped):
            j = int(np.argmax(escaped))
            raise KernelDecompositionError(
                f"pole {-eig[j]} escapes interval ({-ascending[j + 1]}, {-ascending[j]})"
            )
        poles = -eig
        amps = -1.0 / ((1.0 / (poles[:, None] + rates) ** 2) @ weights)

    decomp = KernelDecomposition(st.mean_rate, amps, poles)
    u_check = np.linspace(0.1, 10.0, 50) * st.mean_rate
    resid = np.max(np.abs(decomp.of_u(u_check) - kernel_of_u(ens, u_check)))
    if resid > 1e-8 * max(1.0, st.mean_rate):
        raise KernelDecompositionError(
            f"kernel reconstruction residual {resid:.3e} exceeds tolerance"
        )
    return decomp


def renewal_series(ens: RateEnsemble, t):
    """f(t) and K_reg(t) = f'(t), stacked (2, n_t), at the times t0 + k h with t0 >= 0.

    With G = -diag(gamma) + gamma P^T, P^T (u - G)^-1 gamma = w / (1 - w), so f(t) =
    P^T e^{tG} gamma and K_reg(t) = P^T e^{tG} G gamma, G gamma = gamma (<gamma> - gamma):
    the Volterra embedding of one component with E = 1, by exact step maps in real
    arithmetic, with no pole.
    """
    t0, h, nt = qops.arithmetic_grid(t)
    if t0 < 0:
        raise ValueError("time must be nonnegative")
    r, p = ens.rates, ens.weights
    G = np.multiply.outer(r, p) - np.diag(r)
    norm = np.abs(G).sum(axis=0).max()
    start, step = (qops.expm1(lambda X: G @ X, s, s * norm, (1,) + G.shape) for s in (t0, h))
    y0 = np.stack([r, r * (r @ p - r)], axis=1)[None]
    return qops.block_powers(step, y0 + start @ y0, nt, p[None]).reshape(nt + 1, 2).T


@dataclass(frozen=True)
class FractionalKernelModel:
    """Complete-monotone long-tail model for 0 < alpha < 1.

    w(u) = mean_rate / (u + mean_rate + fluctuation_rate**(1-alpha) * sigma(u))
    with sigma(u) = (u + cutoff)**alpha - cutoff**alpha.  cutoff = 0 gives the
    pure fractional limit with kernel K(u) ~ amplitude * u**(1-alpha).
    """

    alpha: float
    mean_rate: float
    fluctuation_rate: float
    cutoff: float
    amplitude: float

    def _b_sigma(self, u):
        """fluctuation_rate**(1-alpha) * sigma(u), the one complex power of every transform."""
        b = self.fluctuation_rate ** (1.0 - self.alpha)
        return b * ((u + self.cutoff) ** self.alpha - self.cutoff ** self.alpha)

    def w_of_u(self, u):
        u = np.asarray(u, dtype=complex)
        out = self.mean_rate / (u + self.mean_rate + self._b_sigma(u))
        return out if out.ndim else complex(out)

    def kernel_of_u(self, u):
        u = np.asarray(u, dtype=complex)
        out = self.mean_rate / (1.0 + self._b_sigma(u) / u)
        return out if out.ndim else complex(out)

    def series_of_u(self, u):
        """The transforms of w, P0 = (1 - w)/u, f = w/(1 - w) and K - mean_rate, stacked.

        sigma(u) is evaluated once per node and serves all four, so a single
        Talbot inversion returns all four series.  Each is written in place
        into one (4,) + u.shape array, with the operations of
        :meth:`w_of_u` and :meth:`kernel_of_u` in their order, so the values
        are theirs bit for bit.
        """
        u = np.asarray(u, dtype=complex)
        bs = self._b_sigma(u)
        out = np.empty((4,) + u.shape, dtype=complex)
        w, p0, f, k = out
        np.divide(self.mean_rate, u + self.mean_rate + bs, out=w)
        np.subtract(1.0, w, out=f)
        np.divide(f, u, out=p0)
        np.divide(w, f, out=f)
        np.divide(bs, u, out=k)
        k += 1.0
        np.divide(self.mean_rate, k, out=k)
        k -= self.mean_rate
        return out


def fractional_model(alpha, mean_rate, fluctuation_rate, mean_waiting_time):
    """Fit the cutoff so the model reproduces the target <gamma><tau> product.

    The cutoff solves alpha * (beta/cutoff)**(1-alpha) = <gamma><tau> - 1, so
    cutoff = beta * (alpha / (<gamma><tau> - 1))**(1/(1-alpha)); it must lie
    in [1e-12, 1e3].  An infinite waiting time forces cutoff 0 and a pure
    power-law tail.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not (0 < fluctuation_rate < math.inf and 0 < mean_rate < math.inf):
        raise ValueError("rates must be positive and finite")
    if math.isnan(mean_waiting_time):
        raise ValueError("mean waiting time is nan")
    amplitude = mean_rate / fluctuation_rate ** (1.0 - alpha)
    if mean_waiting_time == math.inf:
        return FractionalKernelModel(alpha, mean_rate, fluctuation_rate, 0.0, amplitude)

    target = mean_rate * mean_waiting_time - 1.0
    if target <= 0:
        raise ValueError("<gamma><tau> must exceed 1 for a finite cutoff")

    lo, hi = 1e-12, 1e3
    try:
        cutoff = fluctuation_rate * (alpha / target) ** (1.0 / (1.0 - alpha))
    except OverflowError:
        cutoff = math.inf
    if not lo <= cutoff <= hi:
        rlo, rhi = (alpha * (fluctuation_rate / gc) ** (1.0 - alpha) - target for gc in (lo, hi))
        raise ValueError(
            "cutoff relation has no root in [1e-12, 1e3]: "
            f"residual({lo:g}) = {rlo:.3e}, residual({hi:g}) = {rhi:.3e}"
        )
    return FractionalKernelModel(alpha, mean_rate, fluctuation_rate, cutoff, amplitude)


def talbot_invert(transform, t, nodes=TALBOT_NODES):
    """Numerical inverse Laplace transform on the fixed Talbot contour.

    ``transform`` maps the contour nodes, shape (n_t, nodes), to values of
    the same shape, or to a stack of k transforms of shape (k, n_t, nodes);
    it must be analytic to the right of the contour.  The result has shape
    (n_t,), or (k, n_t) for a stack, with the time axis dropped for scalar t.
    The contour scale TALBOT_SCALE is deliberately decoupled from the node
    count: doubling ``nodes`` refines the quadrature on the same contour and
    serves as the convergence self-check.  (Tying the scale to the node count
    would make the exp(scale) round-off amplification grow with the node
    count and destroy the check in double precision.)
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise ValueError("Talbot inversion requires t > 0")
    M = nodes
    r = TALBOT_SCALE
    theta = np.arange(M) * np.pi / M
    cot = np.zeros(M)
    cot[1:] = 1.0 / np.tan(theta[1:])
    shape = np.empty(M, dtype=complex)
    shape[0] = 0.5
    shape[1:] = 1.0 + 1j * theta[1:] * (1.0 + cot[1:] ** 2) - 1j * cot[1:]

    # the contour nodes of every time at once, shape (n_t, nodes)
    scale = (r / t_arr)[:, None]
    p = (scale * theta) * (cot + 1j)
    p[:, 0] = scale[:, 0]
    terms = np.exp(t_arr[:, None] * p) * shape * np.asarray(transform(p), dtype=complex)
    # a time fails when any transform of a stack overflows there
    finite = np.all(np.isfinite(terms), axis=-1).reshape(-1, t_arr.size).all(axis=0)
    if not np.all(finite):
        raise FloatingPointError(f"Talbot contour overflowed at t = {t_arr[~finite][0]}")
    out = (r / (M * t_arr)) * terms.sum(axis=-1).real
    if not np.ndim(t):
        out = out[..., 0]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PowerLawFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int
    window: tuple = field(default=(0.0, 0.0))


def fit_power_law(t, values, window):
    """Least-squares slope of log(values) against log(t) inside the window.

    A clean power law t**(-s) returns slope -s with r_squared near 1;
    exponentials are flagged by a poor r_squared.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if np.count_nonzero(mask) < FIT_MIN_SAMPLES:
        raise ValueError(
            f"window [{lo}, {hi}] selects {np.count_nonzero(mask)} samples, "
            f"need >= {FIT_MIN_SAMPLES}"
        )
    if np.any(values[mask] <= 0):
        raise ValueError("power-law fit requires positive values on the window")
    x = np.log(t[mask])
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = np.sum((y - y.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 0.0
    return PowerLawFit(float(slope), float(intercept), float(r2), int(mask.sum()), (lo, hi))


def default_power_law_window(ens: RateEnsemble):
    """[5/<gamma>, 1/gamma_min] over the positive rates."""
    st = stats(ens)
    lo = 5.0 / st.mean_rate
    # a zero rate never fires and adds nothing to w(t)
    hi = 1.0 / float(np.min(ens.rates[ens.rates > 0]))
    if hi <= lo:
        # degenerate for narrow ensembles; fall back to a decade past the mean
        lo, hi = 1.0 / st.mean_rate, 20.0 / st.mean_rate
    return lo, hi
