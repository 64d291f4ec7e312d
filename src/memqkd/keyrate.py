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


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy of ``x`` in bits, with 0*log(0) taken as 0.

    Evaluated on p = max(x, 1-x) so that binary_entropy(x) and
    binary_entropy(1 - x) are equal bit for bit, not just approximately.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    p = max(x, 1.0 - x)
    if p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class KeyRateInput:
    """Operating point for the asymptotic key-rate formula.

    mu is the mean photon number per pulse at the sender, qber_x / qber_z the
    per-basis error rates, and ec_inefficiency the overhead factor of the
    classical error-correction step (1 would be Shannon-limit reconciliation).
    """

    mu: float
    qber_x: float
    qber_z: float
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY

    def __post_init__(self) -> None:
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        for name, q in (("qber_x", self.qber_x), ("qber_z", self.qber_z)):
            if not 0.0 <= q <= 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5], got {q}")
        if not 1.0 <= self.ec_inefficiency < math.inf:
            raise ValueError(
                f"ec_inefficiency must be >= 1 and finite, got {self.ec_inefficiency}"
            )


def secret_key_rate(
    mu: float,
    qber_x: float,
    qber_z: float,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
) -> float:
    """Asymptotic secret key rate in bits per emitted pulse (may be negative).

    R = mu * (exp(-mu) * (1 - H(qber_x)) - H(qber_z) * ec_inefficiency)
    """
    point = KeyRateInput(mu, qber_x, qber_z, ec_inefficiency)
    gain = math.exp(-point.mu) * (1.0 - binary_entropy(point.qber_x))
    cost = binary_entropy(point.qber_z) * point.ec_inefficiency
    return point.mu * (gain - cost)


def positive_rate_boundary(
    mu: float,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
    tol: float = 1e-6,
) -> float | None:
    """QBER (applied to both bases) at which the key rate crosses zero.

    The rate is strictly decreasing in the shared QBER on (0, 0.5), so plain
    bisection converges to the unique root whenever the rate at QBER 0 is
    positive. Returns None when there is no positive region at all.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if secret_key_rate(mu, 0.0, 0.0, ec_inefficiency) <= 0.0:
        return None
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats: tol is below their spacing
            break
        if secret_key_rate(mu, mid, mid, ec_inefficiency) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class KeyRateMap:
    """Key rate evaluated on a (mu, qber) grid plus its zero contour.

    rates[i, j] is the rate at (mu_axis[i], qber_axis[j]) with the same QBER
    applied to both bases. boundary holds one (mu, qber_star) pair per mu for
    which a positive region exists.
    """

    mu_axis: np.ndarray
    qber_axis: np.ndarray
    rates: np.ndarray
    boundary: tuple[tuple[float, float], ...]


def _check_axis(name: str, axis: np.ndarray, valid: str, bad) -> None:
    if axis.size == 0:
        raise ValueError(f"{name} must not be empty")
    if np.any(np.diff(axis) <= 0):
        raise ValueError(f"{name} must be strictly increasing")
    if bad(axis):
        raise ValueError(f"{name} values must {valid}")


def key_rate_map(
    mu_axis,
    qber_axis,
    ec_inefficiency: float = DEFAULT_EC_INEFFICIENCY,
    boundary_tol: float = 1e-6,
) -> KeyRateMap:
    """Evaluate the key rate on the full grid and locate the zero boundary.

    Each cell is exactly the pointwise secret_key_rate value; the boundary is
    solved per mu by bisection to boundary_tol.
    """
    mu_axis = np.asarray(mu_axis, dtype=float)
    qber_axis = np.asarray(qber_axis, dtype=float)
    _check_axis("mu_axis", mu_axis, "be positive", lambda a: a[0] <= 0.0)
    _check_axis(
        "qber_axis", qber_axis, "lie in [0, 0.5]", lambda a: a[0] < 0.0 or a[-1] > 0.5
    )

    rates = np.empty((mu_axis.size, qber_axis.size), dtype=float)
    for i, mu in enumerate(mu_axis):
        for j, q in enumerate(qber_axis):
            rates[i, j] = secret_key_rate(mu, q, q, ec_inefficiency)

    boundary = []
    for mu in mu_axis:
        q_star = positive_rate_boundary(mu, ec_inefficiency, boundary_tol)
        if q_star is not None:
            boundary.append((float(mu), q_star))
    return KeyRateMap(mu_axis, qber_axis, rates, tuple(boundary))


@dataclass(frozen=True)
class SbrEstimate:
    """Signal and background counts per integration window, and their ratio.

    eta is the expected retrieved-signal count per window, q the expected
    background count. A zero-background estimate is flagged as infinite
    rather than raising a division error.
    """

    eta: float
    q: float

    def __post_init__(self) -> None:
        if self.eta < 0 or self.q < 0:
            raise ValueError("counts must be nonnegative")

    @property
    def sbr(self) -> float:
        return math.inf if self.q == 0 else self.eta / self.q

    @property
    def is_infinite(self) -> bool:
        return self.q == 0


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
