"""Rate ensembles and the renewal-process analytics built on them.

An environment is a finite list of dissipation rates with probabilities.
Everything downstream (survival probability, waiting-time density, sprinkling
distribution, memory kernel) is exact rational-function algebra on that list,
inverted to the time domain by partial fractions.  The fractional long-tail
model is the one non-rational object and is handled by numerical Laplace
inversion (fixed Talbot grid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# rates closer than this (relative to the largest rate) are merged so that all
# spectral functions keep simple poles
MERGE_RTOL = 1e-9

# a level whose kernel pole would sit closer than this (relative to its own
# rate) to -gamma_R is deflated: its pole and zero cancel in K(u)
DEFLATE_RTOL = 1e-13

TALBOT_NODES = 32

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


def single_rate_ensemble(rate):
    return rate_ensemble([rate], [1.0])


def two_state_ensemble(p_up, gamma_up, gamma_down):
    """Two-level environment with occupation p_up of the fast state."""
    if not 0.0 <= p_up <= 1.0:
        raise ValueError(f"p_up = {p_up} outside [0, 1]")
    if gamma_up <= 0 or gamma_down <= 0:
        raise ValueError("two-state rates must be positive")
    return rate_ensemble([gamma_up, gamma_down], [p_up, 1.0 - p_up])


def manifold_ensemble(gamma, a, b, n):
    """N-level environment with geometric rates and populations.

    Rates gamma * exp(-b R) and weights proportional to exp(-a R) for
    R = 0 .. n-1.  b = 0 collapses to a single rate.  b < 0 is refused: it
    gives alpha = a/b < 0, outside the power-law regime w(t) ~ t^-(1+alpha).
    """
    if n < 1:
        raise ValueError("manifold needs at least one level")
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


def survival(ens: RateEnsemble, t):
    """Survival probability P0(t) = sum_R P_R exp(-gamma_R t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = np.exp(-np.multiply.outer(t, ens.rates)) @ ens.weights
    return out if out.ndim else float(out)


def waiting_density(ens: RateEnsemble, t):
    """Waiting-time density w(t) = -dP0/dt = sum_R P_R gamma_R exp(-gamma_R t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = np.exp(-np.multiply.outer(t, ens.rates)) @ (ens.weights * ens.rates)
    return out if out.ndim else float(out)


def w_of_u(ens: RateEnsemble, u):
    """w(u) = <gamma_R / (u + gamma_R)> by direct summation (stable for any N)."""
    u = np.asarray(u, dtype=complex)
    out = (ens.rates / (u[..., None] + ens.rates)) @ ens.weights
    return out if out.ndim else complex(out)


def p0_of_u(ens: RateEnsemble, u):
    """P0(u) = <1 / (u + gamma_R)> by direct summation."""
    u = np.asarray(u, dtype=complex)
    out = (1.0 / (u[..., None] + ens.rates)) @ ens.weights
    return out if out.ndim else complex(out)


def f_of_u(ens: RateEnsemble, u):
    """f(u) = w(u) / [1 - w(u)] by direct summation."""
    u = np.asarray(u, dtype=complex)
    w = w_of_u(ens, u)
    out = w / (1.0 - w)
    return out if np.ndim(out) else complex(out)


def kernel_of_u(ens: RateEnsemble, u):
    """K(u) = w(u) / P0(u) by direct summation."""
    u = np.asarray(u, dtype=complex)
    out = w_of_u(ens, u) / p0_of_u(ens, u)
    return out if np.ndim(out) else complex(out)


@dataclass(frozen=True)
class KernelDecomposition:
    """Memory kernel K(t) = markov_weight * delta(t) + sum_j c_j exp(p_j t)."""

    markov_weight: float
    amplitudes: np.ndarray
    poles: np.ndarray

    @property
    def n_modes(self):
        return len(self.poles)

    def of_u(self, u):
        """K(u) = markov_weight + sum_j c_j / (u - p_j)."""
        u = np.asarray(u, dtype=complex)
        out = np.full(u.shape, self.markov_weight, dtype=complex)
        for c, p in zip(self.amplitudes, self.poles):
            out = out + c / (u - p)
        return out if out.ndim else complex(out)

    def regular_part(self, t):
        """The non-singular part sum_j c_j exp(p_j t)."""
        t = np.asarray(t, dtype=float)
        if self.n_modes == 0:
            out = np.zeros(t.shape)
        else:
            out = np.exp(np.multiply.outer(t, self.poles)) @ self.amplitudes
        return out if out.ndim else float(out)


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


def sprinkling(ens: RateEnsemble, t):
    """Event density f(t) for t > 0: 1/<tau> plus the kernel modes over poles.

    f shares its poles with the regular kernel part, with amplitudes c_j/p_j,
    plus the constant long-time level 1/<tau>; K(t) = df/dt follows.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    decomp = kernel_decompose(ens)
    st = stats(ens)
    level = 1.0 / st.mean_waiting_time
    if decomp.n_modes == 0:
        out = np.full(t.shape, level)
    else:
        coeff = decomp.amplitudes / decomp.poles
        out = level + np.exp(np.multiply.outer(t, decomp.poles)) @ coeff
    return out if out.ndim else float(out)


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

    def _sigma(self, u):
        return (u + self.cutoff) ** self.alpha - self.cutoff ** self.alpha

    def w_of_u(self, u):
        u = np.asarray(u, dtype=complex)
        b = self.fluctuation_rate ** (1.0 - self.alpha)
        out = self.mean_rate / (u + self.mean_rate + b * self._sigma(u))
        return out if out.ndim else complex(out)

    def p0_of_u(self, u):
        u = np.asarray(u, dtype=complex)
        out = (1.0 - self.w_of_u(u)) / u
        return out if out.ndim else complex(out)

    def f_of_u(self, u):
        u = np.asarray(u, dtype=complex)
        w = self.w_of_u(u)
        out = w / (1.0 - w)
        return out if out.ndim else complex(out)

    def kernel_of_u(self, u):
        u = np.asarray(u, dtype=complex)
        b = self.fluctuation_rate ** (1.0 - self.alpha)
        out = self.mean_rate / (1.0 + b * self._sigma(u) / u)
        return out if out.ndim else complex(out)


def fractional_model(alpha, mean_rate, fluctuation_rate, mean_waiting_time):
    """Fit the cutoff so the model reproduces the target <gamma><tau> product.

    The cutoff solves alpha * (beta/cutoff)**(1-alpha) = <gamma><tau> - 1 by
    bisection on [1e-12, 1e3]; an infinite waiting time forces cutoff 0 and a
    pure power-law tail.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if fluctuation_rate <= 0 or mean_rate <= 0:
        raise ValueError("rates must be positive")
    amplitude = mean_rate / fluctuation_rate ** (1.0 - alpha)
    if math.isinf(mean_waiting_time):
        return FractionalKernelModel(alpha, mean_rate, fluctuation_rate, 0.0, amplitude)

    target = mean_rate * mean_waiting_time - 1.0
    if target <= 0:
        raise ValueError("<gamma><tau> must exceed 1 for a finite cutoff")

    def residual(gc):
        return alpha * (fluctuation_rate / gc) ** (1.0 - alpha) - target

    lo, hi = 1e-12, 1e3
    rlo, rhi = residual(lo), residual(hi)
    if rlo < 0 or rhi > 0:
        raise ValueError(
            "cutoff relation has no root in [1e-12, 1e3]: "
            f"residual({lo:g}) = {rlo:.3e}, residual({hi:g}) = {rhi:.3e}"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if residual(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    cutoff = 0.5 * (lo + hi)
    return FractionalKernelModel(alpha, mean_rate, fluctuation_rate, cutoff, amplitude)


def talbot_invert(transform, t, nodes=TALBOT_NODES, contour_scale=2.0 * TALBOT_NODES / 5.0):
    """Numerical inverse Laplace transform on the fixed Talbot contour.

    ``transform`` must accept complex u (vectorized or scalar) and be analytic
    to the right of the contour.  The contour scale is deliberately decoupled
    from the node count: doubling ``nodes`` refines the quadrature on the same
    contour and serves as the convergence self-check.  (Tying the scale to the
    node count would make the exp(scale) round-off amplification grow with the
    node count and destroy the check in double precision.)
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0):
        raise ValueError("Talbot inversion requires t > 0")
    M = nodes
    r = contour_scale
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
    bad = ~np.all(np.isfinite(terms), axis=1)
    if np.any(bad):
        raise FloatingPointError(f"Talbot contour overflowed at t = {t_arr[bad][0]}")
    out = (r / (M * t_arr)) * terms.sum(axis=1).real
    return out if np.ndim(t) else float(out[0])


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


def default_power_law_window(ens: RateEnsemble, t_max=None):
    """[5/<gamma>, 1/gamma_min] over the positive rates, clipped to t_max when given."""
    st = stats(ens)
    lo = 5.0 / st.mean_rate
    # a zero rate never fires and adds nothing to w(t)
    hi = 1.0 / float(np.min(ens.rates[ens.rates > 0]))
    if t_max is not None:
        hi = min(hi, t_max)
    if hi <= lo:
        # degenerate for narrow ensembles; fall back to a decade past the mean
        lo, hi = 1.0 / st.mean_rate, 20.0 / st.mean_rate
    return lo, hi
