"""Closed-form figures of merit for the link.

Covers the binary entropy function, the asymptotic secret key rate

    R = mu * (exp(-mu) * (1 - H(qber_x)) - H(qber_z) * ec_inefficiency),

its zero contour over a (mu, QBER) grid, and the two estimators derived
from a signal-to-background ratio: the storage fidelity F = 1 - 1/(2*sbr)
and the expected sifted error rate QBER = 1/(2*(1+sbr)).

The two estimators agree to first order in 1/sbr but normalize the
background differently (against the signal alone vs against all counts),
so they differ at second order: (1-F) - QBER = 1/(2*sbr*(1+sbr)). Both
are exposed; neither is silently preferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Classical error-correction inefficiency used unless overridden.
DEFAULT_EC_INEFFICIENCY = 1.05

#: Fidelity above which storage cannot be explained by measure-and-resend.
CLASSICAL_FIDELITY_BOUND = 0.85

#: Operating points reported by the key-rate sweep when they fall inside the
#: swept ranges: the bare single-photon-level regime and the noise-suppressed
#: regime, as (mu, qber) pairs.
REFERENCE_OPERATING_POINTS = ((1.6, 0.119), (1.0, 0.03))


def _require(ok: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise ValueError(message), naming the first value where ok is False."""
    if not np.all(ok):
        raise ValueError(f"{message}, got {values[~ok].flat[0]}")


def binary_entropy(x) -> float | np.ndarray:
    """Binary Shannon entropy of ``x`` in bits, with 0*log(0) taken as 0.

    Works elementwise on arrays; a scalar argument returns a float.
    Evaluated on p = max(x, 1-x) so that binary_entropy(x) and
    binary_entropy(1 - x) are equal bit for bit, not just approximately.
    """
    x = np.asarray(x, dtype=float)
    _require((0.0 <= x) & (x <= 1.0), x, "entropy argument must lie in [0, 1]")
    p = np.maximum(x, 1.0 - x)
    h = np.zeros_like(p)
    mixed = p < 1.0  # the logarithms are only taken where both terms are nonzero
    p = p[mixed]
    h[mixed] = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return h if h.ndim else float(h)


def secret_key_rate(
    mu, qber_x, qber_z, ec_inefficiency=DEFAULT_EC_INEFFICIENCY
) -> float | np.ndarray:
    """Asymptotic secret key rate in bits per emitted pulse (may be negative).

    R = mu * (exp(-mu) * (1 - H(qber_x)) - H(qber_z) * ec_inefficiency)

    mu is the mean photon number per pulse at the sender, qber_x / qber_z the
    per-basis error rates, and ec_inefficiency the overhead factor of the
    classical error-correction step (1 would be Shannon-limit reconciliation).
    The arguments broadcast against each other; scalars return a float.
    """
    mu, qber_x, qber_z, f = (
        np.asarray(v, dtype=float) for v in (mu, qber_x, qber_z, ec_inefficiency)
    )
    _require((0.0 < mu) & (mu < np.inf), mu, "mu must be positive and finite")
    for name, q in (("qber_x", qber_x), ("qber_z", qber_z)):
        _require((0.0 <= q) & (q <= 0.5), q, f"{name} must lie in [0, 0.5]")
    _require((1.0 <= f) & (f < np.inf), f, "ec_inefficiency must be >= 1 and finite")
    rate = _rate(mu, binary_entropy(qber_x), binary_entropy(qber_z), f)
    return rate if rate.ndim else float(rate)


def _rate(mu: np.ndarray, h_x, h_z, f) -> np.ndarray:
    """secret_key_rate of checked arrays, from the entropies h_x and h_z.

    The operations of the formula in its order, in one array of the
    broadcast shape: a (mu, QBER) grid holds no grid-sized temporary.
    """
    rate = np.empty(np.broadcast_shapes(*(np.shape(v) for v in (mu, h_x, h_z, f))))
    np.multiply(np.exp(-mu), 1.0 - h_x, out=rate)
    rate -= h_z * f
    return np.multiply(mu, rate, out=rate)


def positive_rate_boundary(
    mu,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
    tol: float = 1e-6,
) -> float | np.ndarray:
    """QBER (applied to both bases) at which the key rate crosses zero, per mu.

    Elementwise on arrays (a scalar mu returns a float); NaN where the rate at
    QBER 0 is not positive. The rate strictly decreases in the shared QBER on
    (0, 0.5), so bisection finds the unique root. Every mu is bisected at
    once and stops on its own once its bracket is within tol or holds two
    adjacent floats, so its result does not depend on the other values.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    mu = np.asarray(mu, dtype=float)
    active = found = secret_key_rate(mu, 0.0, 0.0, ec_inefficiency) > 0.0
    lo, hi = np.zeros_like(mu), np.full_like(mu, 0.5)
    while True:
        mid = 0.5 * (lo + hi)
        active = active & (hi - lo > tol) & (mid != lo) & (mid != hi)
        if not active.any():
            q_star = np.where(found, mid, np.nan)
            return q_star if q_star.ndim else float(q_star)
        h = binary_entropy(mid)
        positive = _rate(mu, h, h, ec_inefficiency) > 0.0
        lo = np.where(active & positive, mid, lo)
        hi = np.where(active & ~positive, mid, hi)


@dataclass(frozen=True)
class KeyRateMap:
    """Key rate evaluated on a (mu, qber) grid plus its zero contour.

    rates[i, j] is the rate at (mu_axis[i], qber_axis[j]) with the same QBER
    applied to both bases. q_star[i] is the zero-crossing QBER at mu_axis[i],
    NaN where that mu has no positive region.
    """

    mu_axis: np.ndarray
    qber_axis: np.ndarray
    rates: np.ndarray
    q_star: np.ndarray


def key_rate_map(
    mu_axis,
    qber_axis,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
    boundary_tol: float = 1e-6,
) -> KeyRateMap:
    """Evaluate the key rate on the full grid and locate the zero boundary.

    Each cell equals the pointwise secret_key_rate value, and q_star is
    positive_rate_boundary of mu_axis at boundary_tol; secret_key_rate checks
    the axis values.
    """
    mu_axis = np.asarray(mu_axis, dtype=float)
    qber_axis = np.asarray(qber_axis, dtype=float)
    for name, axis in (("mu_axis", mu_axis), ("qber_axis", qber_axis)):
        if axis.size == 0:
            raise ValueError(f"{name} must not be empty")
        if np.any(np.diff(axis) <= 0):
            raise ValueError(f"{name} must be strictly increasing")
    rates = secret_key_rate(mu_axis[:, None], qber_axis, qber_axis, ec_inefficiency)
    q_star = positive_rate_boundary(mu_axis, ec_inefficiency, boundary_tol)
    return KeyRateMap(mu_axis, qber_axis, rates, q_star)


def fidelity_from_sbr(sbr: float) -> float:
    """Storage fidelity estimate F = 1 - 1/(2*sbr).

    The linearized estimator leaves [0, 1] once the background reaches the
    signal level, so ratios at or below 0.5 are rejected loudly instead of
    being clamped.
    """
    if not sbr > 0.5:
        raise ValueError(
            f"fidelity formula out of validity range: requires sbr > 0.5, got {sbr}"
        )
    return 1.0 - 1.0 / (2.0 * sbr)


def qber_oracle_from_sbr(sbr: float) -> float:
    """Expected sifted error rate when background splits evenly: 1/(2*(1+sbr)).

    Assumes the signal always fires the correct detector while unpolarized
    background routes 50/50 within the matched basis. Serves as the analytic
    cross-check for the Monte Carlo pipeline.
    """
    if sbr < 0:
        raise ValueError(f"sbr must be nonnegative, got {sbr}")
    return 1.0 / (2.0 * (1.0 + sbr))


def classical_bound_check(fidelity: float) -> bool:
    """True iff the fidelity strictly exceeds the 85% classical threshold."""
    return fidelity > CLASSICAL_FIDELITY_BOUND
