import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from memqkd import keyrate
from memqkd.keyrate import (
    binary_entropy,
    classical_bound_check,
    fidelity_from_sbr,
    key_rate_map,
    positive_rate_boundary,
    qber_oracle_from_sbr,
    secret_key_rate,
)

# Frozen against a 50-digit evaluation of the formulas.
H_0119 = 0.5264795487695574
RATE_BARE = -0.7315222334485613
RATE_SUPPRESSED = 0.09225522242092865
BOUNDARY_MU1 = 0.0438013126721694


def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_value():
    assert binary_entropy(0.119) == pytest.approx(0.5265, abs=1e-4)
    assert binary_entropy(0.119) == pytest.approx(H_0119, rel=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetry_exact(x):
    assert binary_entropy(x) == binary_entropy(1.0 - x)


def test_secret_key_rate_values():
    # Independent direct evaluation alongside the frozen constants.
    def rate(mu, q, f):
        h = -q * math.log2(q) - (1 - q) * math.log2(1 - q)
        return mu * (math.exp(-mu) * (1 - h) - h * f)

    bare = secret_key_rate(1.6, 0.119, 0.119, 1.05)
    good = secret_key_rate(1.0, 0.03, 0.03, 1.05)
    assert bare == pytest.approx(-0.732, abs=2e-3)
    assert good == pytest.approx(0.0922, abs=1e-3)
    assert bare == pytest.approx(RATE_BARE, rel=1e-12)
    assert good == pytest.approx(RATE_SUPPRESSED, rel=1e-12)
    assert bare == pytest.approx(rate(1.6, 0.119, 1.05), rel=1e-12)
    assert good == pytest.approx(rate(1.0, 0.03, 1.05), rel=1e-12)
    assert bare < 0 < good


@pytest.mark.parametrize("mu", [0.2, 1.0, 1.6, 3.0])
def test_rate_negative_at_half(mu):
    # H(0.5) = 1 kills the gain term and leaves the negative correction cost.
    assert secret_key_rate(mu, 0.5, 0.5, 1.05) < 0


def test_rate_strictly_decreasing_in_qber():
    qs = np.linspace(0.0, 0.49, 50)
    rates_z = [secret_key_rate(1.0, 0.1, q, 1.05) for q in qs]
    rates_x = [secret_key_rate(1.0, q, 0.1, 1.05) for q in qs]
    assert all(a > b for a, b in zip(rates_z, rates_z[1:]))
    assert all(a > b for a, b in zip(rates_x, rates_x[1:]))


def test_key_rate_input_validation():
    with pytest.raises(ValueError):
        secret_key_rate(mu=0.0, qber_x=0.1, qber_z=0.1)
    with pytest.raises(ValueError):
        secret_key_rate(mu=1.0, qber_x=0.6, qber_z=0.1)
    with pytest.raises(ValueError):
        secret_key_rate(mu=1.0, qber_x=0.1, qber_z=-0.1)
    with pytest.raises(ValueError):
        secret_key_rate(mu=1.0, qber_x=0.1, qber_z=0.1, ec_inefficiency=0.9)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "name,message",
    [("mu", "mu must be positive and finite"), ("ec_inefficiency", "must be >= 1 and finite")],
)
def test_key_rate_input_rejects_non_finite(name, message, value):
    point = {"mu": 1.0, "qber_x": 0.1, "qber_z": 0.1, "ec_inefficiency": 1.05}
    with pytest.raises(ValueError, match=message):
        secret_key_rate(**{**point, name: value})



@pytest.mark.parametrize(
    "args,message",
    [
        # mu * H(0.5) * f overflows in the one cell.
        ((1.75e308, 0.5, 0.5), "mu=1.75e+308, qber_x=0.5, qber_z=0.5: -inf"),
        # Of a broadcast (mu, qber_z) grid at f = 1e308, only mu 2 at qber_z
        # 0.5 overflows; the cell is named by its broadcast values.
        (
            (np.array([[1.0], [2.0]]), 0.25, np.array([0.0, 0.5]), 1e308),
            "mu=2.0, qber_x=0.25, qber_z=0.5: -inf",
        ),
    ],
    ids=["scalar", "grid"],
)
def test_secret_key_rate_overflow_is_an_error_naming_the_cell(args, message):
    # Every input is finite and valid; the rate they give is not. Warnings
    # are errors in Tier-1, so none may be raised on the way.
    with pytest.raises(ValueError, match=f"^key rate is not finite at {re.escape(message)}$"):
        secret_key_rate(*args)

def test_boundary_value_against_oracle():
    # Independent oracle: bisect H(q) = e^-mu / (f + e^-mu) directly.
    target = math.exp(-1.0) / (1.05 + math.exp(-1.0))
    lo, hi = 1e-12, 0.5
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    q_star = positive_rate_boundary(1.0, 1.05, tol=1e-5)
    assert q_star == pytest.approx(0.0438, abs=5e-4)
    assert q_star == pytest.approx(oracle, abs=1e-5)
    assert oracle == pytest.approx(BOUNDARY_MU1, abs=1e-9)


def test_boundary_always_exists_for_positive_mu():
    # The gain term mu * e^-mu is positive at q = 0, so a root exists.
    for mu in (1e-6, 0.5, 5.0, 20.0):
        assert not math.isnan(positive_rate_boundary(mu, 1.05))


def test_boundary_rejects_bad_tol():
    with pytest.raises(ValueError):
        positive_rate_boundary(1.0, 1.05, tol=0.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf], ids=repr)
def test_boundary_rejects_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        positive_rate_boundary(1.0, 1.05, tol=tol)


def test_boundary_tol_below_float_spacing_terminates():
    # No float lies strictly between two adjacent ones, so the bisection
    # stops there instead of looping forever.
    assert positive_rate_boundary(1.0, 1.05, tol=1e-300) == pytest.approx(
        BOUNDARY_MU1, abs=1e-15
    )


def test_boundary_brackets_sign_change():
    tol = 1e-6
    for mu in np.linspace(0.1, 3.0, 20):
        q_star = positive_rate_boundary(mu, 1.05, tol=tol)
        assert secret_key_rate(mu, q_star - 2 * tol, q_star - 2 * tol, 1.05) > 0
        assert secret_key_rate(mu, q_star + 2 * tol, q_star + 2 * tol, 1.05) < 0


def test_map_single_cell_matches_point():
    grid = key_rate_map([1.0], [0.03], 1.05)
    assert grid.rates.shape == (1, 1)
    assert grid.rates[0, 0] == secret_key_rate(1.0, 0.03, 0.03, 1.05)
    assert grid.rates[0, 0] == pytest.approx(0.0922, abs=1e-3)


def test_map_row_at_half_all_negative():
    grid = key_rate_map(np.linspace(0.1, 3.0, 7), [0.5], 1.05)
    assert np.all(grid.rates < 0)


def test_map_cells_equal_pointwise_eval():
    mu_axis = np.linspace(0.2, 2.0, 5)
    qber_axis = np.linspace(0.0, 0.15, 6)
    grid = key_rate_map(mu_axis, qber_axis, 1.05)
    for i, mu in enumerate(mu_axis):
        for j, q in enumerate(qber_axis):
            assert grid.rates[i, j] == secret_key_rate(mu, q, q, 1.05)


def test_map_holds_one_grid_while_it_evaluates():
    # The gain, the cost and the rate as separate grid-sized arrays peak at
    # about 3 grids; computed in place, the rates are the only one.
    mu_axis, qber_axis = np.linspace(0.05, 2.5, 400), np.linspace(0.0, 0.15, 400)
    key_rate_map(mu_axis, qber_axis)
    tracemalloc.start()
    try:
        key_rate_map(mu_axis, qber_axis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grids = peak / (400 * 400 * 8)
    assert grids <= 1.5, f"{grids:.2f} grids"


def test_map_boundary_splits_grid_signs():
    tol = 1e-6
    grid = key_rate_map(
        np.linspace(0.1, 3.0, 50), np.linspace(0.0, 0.15, 50), 1.05, boundary_tol=tol
    )
    assert grid.q_star.shape == (50,)
    assert not np.isnan(grid.q_star).any()
    for i, q_star in enumerate(grid.q_star):
        for j, q in enumerate(grid.qber_axis):
            if q < q_star - 2 * tol:
                assert grid.rates[i, j] > 0
            elif q > q_star + 2 * tol:
                assert grid.rates[i, j] < 0


def test_map_rejects_bad_axes():
    with pytest.raises(ValueError):
        key_rate_map([], [0.1])
    with pytest.raises(ValueError):
        key_rate_map([1.0, 1.0], [0.1])
    with pytest.raises(ValueError):
        key_rate_map([1.0], [0.2, 0.1])
    with pytest.raises(ValueError):
        key_rate_map([1.0], [0.6])


@pytest.mark.parametrize("tol", [1e-6, 1e-300], ids=repr)
def test_map_boundary_equals_scalar_boundary(tol):
    # At 1e-300 every mu stops at the float spacing of its own root, so the
    # elements stop at different iterations. exp(-800) underflows to 0: that
    # mu has no positive region, so its entry is NaN.
    mu_axis = np.concatenate([np.geomspace(1e-6, 40.0, 60), [800.0]])
    grid = key_rate_map(mu_axis, [0.0, 0.1], 1.05, boundary_tol=tol)
    assert math.isnan(positive_rate_boundary(800.0, 1.05, tol))
    expected = [positive_rate_boundary(mu, 1.05, tol) for mu in mu_axis]
    np.testing.assert_array_equal(grid.q_star, expected)


def test_boundary_scalar_returns_float():
    q_star = positive_rate_boundary(1.0, 1.05)
    assert type(q_star) is float
    assert q_star == pytest.approx(BOUNDARY_MU1, abs=1e-6)
    # exp(-800) underflows to 0: no positive region, so NaN.
    no_region = positive_rate_boundary(800.0, 1.05)
    assert type(no_region) is float and math.isnan(no_region)


@pytest.mark.parametrize("shape", [(7,), (3, 4)], ids=str)
def test_boundary_array_keeps_shape(shape):
    mu = np.geomspace(0.01, 5.0, math.prod(shape)).reshape(shape)
    q_star = positive_rate_boundary(mu, 1.05)
    assert isinstance(q_star, np.ndarray) and q_star.shape == shape
    expected = [positive_rate_boundary(m, 1.05) for m in mu.ravel().tolist()]
    np.testing.assert_array_equal(q_star.ravel(), expected)


def test_boundary_empty_array_returns_empty_array():
    q_star = positive_rate_boundary(np.array([]), 1.05)
    assert isinstance(q_star, np.ndarray) and q_star.shape == (0,)


def test_map_calls_boundary_once(monkeypatch):
    # The sweep's bisection is the public function: one call per map, so a
    # hook on the module attribute sees (and times) all of it.
    calls = []
    original = keyrate.positive_rate_boundary

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(keyrate, "positive_rate_boundary", counting)
    grid = key_rate_map(np.linspace(0.1, 3.0, 40), [0.0, 0.1], 1.05)
    assert len(calls) == 1
    assert grid.q_star.shape == (40,)


def test_map_matches_closed_form():
    # Written with math, independently of the array code; the qber axis
    # includes both end columns, where H is 0 and 1.
    def rate(mu, q, f):
        h = 0.0 if q == 0.0 else -q * math.log2(q) - (1 - q) * math.log2(1 - q)
        return mu * (math.exp(-mu) * (1 - h) - h * f)

    mu_axis = np.linspace(0.05, 5.0, 23)
    qber_axis = np.linspace(0.0, 0.5, 17)
    grid = key_rate_map(mu_axis, qber_axis, 1.2)
    expected = [rate(mu, q, 1.2) for mu in mu_axis.tolist() for q in qber_axis.tolist()]
    assert grid.rates.shape == (23, 17)
    assert grid.rates.ravel().tolist() == pytest.approx(expected, rel=1e-12)


def test_binary_entropy_arrays():
    xs = np.linspace(0.0, 1.0, 11)
    assert binary_entropy(xs).tolist() == [binary_entropy(x) for x in xs.tolist()]
    assert type(binary_entropy(0.25)) is float
    assert type(secret_key_rate(1.0, 0.03, 0.03)) is float


@pytest.mark.parametrize("bad", [math.nan, -0.01, 1.01], ids=repr)
def test_binary_entropy_rejects_one_bad_element(bad):
    xs = np.full(5, 0.2)
    xs[3] = bad
    with pytest.raises(ValueError, match="entropy argument must lie in"):
        binary_entropy(xs)


@pytest.mark.parametrize(
    "name,bad",
    [
        ("mu", math.nan), ("mu", -1.0), ("qber_x", math.nan), ("qber_x", 0.6),
        ("qber_z", math.nan), ("qber_z", -0.1), ("ec_inefficiency", math.nan),
        ("ec_inefficiency", 0.9),
    ],
    ids=repr,
)  # fmt: skip
def test_secret_key_rate_rejects_one_bad_element(name, bad):
    point = {"mu": 1.0, "qber_x": 0.1, "qber_z": 0.1, "ec_inefficiency": 1.05}
    values = np.full(5, point[name])
    values[3] = bad
    with pytest.raises(ValueError, match=f"^{name} must"):
        secret_key_rate(**{**point, name: values})


def test_fidelity_from_sbr():
    assert fidelity_from_sbr(6.25) == 0.92
    assert fidelity_from_sbr(20.0) == 0.975
    assert fidelity_from_sbr(1e12) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_validity_cutoff():
    for bad in (0.5, 0.2, 0.0, -1.0):
        with pytest.raises(ValueError, match="validity"):
            fidelity_from_sbr(bad)


def test_qber_oracle():
    assert qber_oracle_from_sbr(0.0) == 0.5
    assert qber_oracle_from_sbr(3.2017) == pytest.approx(0.119, abs=1e-4)
    assert qber_oracle_from_sbr(200.0) == pytest.approx(0.0024875621890547264, rel=1e-12)
    with pytest.raises(ValueError):
        qber_oracle_from_sbr(-0.5)


@given(st.floats(min_value=2.0, max_value=1e4, allow_nan=False))
def test_estimators_agree_to_first_order(sbr):
    # Both approximate 1/(2*sbr); the documented gap is second order. The
    # epsilon covers cancellation in 1 - fidelity, which reaches the size of
    # the second-order margin itself once sbr grows past ~1e4.
    infidelity = 1.0 - fidelity_from_sbr(sbr)
    qber = qber_oracle_from_sbr(sbr)
    assert abs(infidelity - qber) <= 1.0 / (2.0 * sbr * sbr) + 1e-15


def test_classical_bound():
    assert classical_bound_check(0.92)
    assert not classical_bound_check(0.85)
    assert not classical_bound_check(0.5)
