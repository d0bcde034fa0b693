"""Drift/minorization, two-term, scan, and chi-square bound formulas."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibbsrates import (
    AZUMA_RATE,
    BetaBinomialFamily,
    DriftMinorization,
    EmptyFeasibleGridError,
    LogMagnitude,
    NonContractingError,
    NonContractingWarning,
    ParameterError,
    RosenthalParams,
    ValidityThresholdError,
    bb_drift_minorization,
    binomial_tail_le,
    chisq_bound_pg,
    chisq_min_steps_pg,
    pg_geometric_reference,
    PoissonGammaFamily,
    random_scan_lower,
    random_scan_rate,
    random_scan_upper,
    random_scan_validity_threshold,
    rosenthal_bound,
    rosenthal_grid_optimize,
    rosenthal_ingredients,
    rosenthal_min_steps,
    scan_time_ratio,
    systematic_rate,
    systematic_upper,
    systematic_validity_threshold,
    two_term_bound,
    two_term_min_steps,
)


@pytest.fixture(scope="module")
def headline_cert():
    """The n=100 flat-prior certificate started at x0 = 0."""
    return bb_drift_minorization(BetaBinomialFamily(n=100), x0=0)


HEADLINE_PARAMS = RosenthalParams(d=1000.0, r=0.001)


def headline_min_steps_oracle():
    """Extended-precision minimal step count for the headline certificate."""
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(60):
        lam = mpmath.mpf(100) / 102
        b = lam
        eps = mpmath.mpf(2) ** -100
        d = mpmath.mpf(1000)
        r = mpmath.mpf(1) / 1000
        alpha = (1 + d) / (1 + 2 * b + lam * d)
        u = 1 + 2 * (lam * d + b)
        coeff = 1 + b / (1 - lam)
        ratio_min = (1 - eps) ** r
        ratio_drift = u**r / alpha ** (1 - r)
        target = mpmath.mpf(1) / 100

        def value(steps):
            return ratio_min**steps + coeff * ratio_drift**steps

        low, high = 0, 1
        while value(high) > target:
            low, high = high, high * 2
        while low + 1 < high:
            mid = (low + high) // 2
            if value(mid) <= target:
                high = mid
            else:
                low = mid
        return high


# ---------------------------------------------------------------------------
# DriftMinorization
# ---------------------------------------------------------------------------


def test_certificate_derived_constants(headline_cert):
    cert = headline_cert
    assert cert.lam == 100.0 / 102.0
    assert cert.b == 100.0 / 102.0
    assert cert.epsilon.log_value == -100.0 * math.log(2.0)
    assert cert.v_x0 == 0.0
    assert cert.small_set_threshold == pytest.approx(100.0, rel=1e-12)
    assert cert.coefficient == pytest.approx(51.0, rel=1e-12)


def test_certificate_accepts_linear_epsilon():
    cert = DriftMinorization(lam=0.5, b=1.0, epsilon=0.25)
    assert isinstance(cert.epsilon, LogMagnitude)
    assert cert.epsilon.to_float() == pytest.approx(0.25)


def test_certificate_validation():
    eps = LogMagnitude.from_linear(0.5)
    with pytest.raises(ParameterError):
        DriftMinorization(lam=1.0, b=0.5, epsilon=eps)
    with pytest.raises(ParameterError):
        DriftMinorization(lam=-0.1, b=0.5, epsilon=eps)
    with pytest.raises(ParameterError):
        DriftMinorization(lam=0.5, b=-1.0, epsilon=eps)
    with pytest.raises(ParameterError):
        DriftMinorization(lam=0.5, b=0.5, epsilon=LogMagnitude.from_linear(1.5))
    with pytest.raises(ParameterError):
        DriftMinorization(lam=0.5, b=0.5, epsilon=LogMagnitude.zero())
    with pytest.raises(ParameterError):
        DriftMinorization(lam=0.5, b=0.5, epsilon=eps, v_x0=-1.0)


def test_rosenthal_params_validation():
    with pytest.raises(ParameterError, match="invalid-d"):
        RosenthalParams(d=-1.0, r=0.5)
    with pytest.raises(ParameterError, match="invalid-r"):
        RosenthalParams(d=1.0, r=0.0)
    with pytest.raises(ParameterError, match="invalid-r"):
        RosenthalParams(d=1.0, r=1.0)


# ---------------------------------------------------------------------------
# rosenthal_ingredients / rosenthal_bound
# ---------------------------------------------------------------------------


def test_ingredients_headline_values(headline_cert):
    ing = rosenthal_ingredients(headline_cert, HEADLINE_PARAMS)
    assert ing.rosenthal_alpha == pytest.approx(1.0179458036729079, rel=1e-12)
    assert ing.u == pytest.approx(1963.7450980392157, rel=1e-12)
    assert math.exp(ing.log_ratio_drift) == pytest.approx(0.9898654211791701, rel=1e-12)
    assert ing.coefficient == pytest.approx(51.0, rel=1e-12)
    # The minorization ratio is (1 - 2^-100)^r: log must carry ~ -r * 2^-100.
    assert ing.log_ratio_minorization == pytest.approx(-0.001 * 2.0**-100, rel=1e-9)


def test_ingredients_reject_small_d(headline_cert):
    with pytest.raises(ValidityThresholdError, match="invalid-d"):
        rosenthal_ingredients(headline_cert, RosenthalParams(d=10.0, r=0.001))


def test_bound_at_zero_steps_is_one_plus_coefficient(headline_cert):
    value = rosenthal_bound(headline_cert, HEADLINE_PARAMS, 0).to_float()
    assert value == pytest.approx(52.0, rel=1e-12)


def test_bound_frozen_value_at_1e33_steps(headline_cert):
    value = rosenthal_bound(headline_cert, HEADLINE_PARAMS, 10**33)
    assert value.to_float() == pytest.approx(0.45436206207115176, rel=1e-9)


def test_bound_is_decreasing_along_powers_of_ten(headline_cert):
    logs = [
        rosenthal_bound(headline_cert, HEADLINE_PARAMS, 10**k).log_value
        for k in range(0, 35)
    ]
    for earlier, later in zip(logs, logs[1:]):
        assert later < earlier


def test_bound_degenerate_unit_ratio_warns():
    cert = DriftMinorization(lam=0.0, b=0.0, epsilon=0.5)
    params = RosenthalParams(d=0.0, r=0.5)
    with pytest.warns(NonContractingWarning):
        value = rosenthal_bound(cert, params, 2).to_float()
    assert value == pytest.approx(1.5, rel=1e-12)  # (1-1/2)^1 + 1 * 1^2
    # The solver cannot cross any target below the coefficient: hard error.
    with pytest.raises(NonContractingError, match="non-contracting"):
        rosenthal_min_steps(cert, params, 0.01)


def test_bound_expanding_ratio_is_rejected():
    cert = DriftMinorization(lam=0.9, b=0.9, epsilon=0.5)
    params = RosenthalParams(d=19.0, r=0.5)  # u = 37 swamps alpha ~ 1.005
    with pytest.raises(NonContractingError, match="non-contracting"):
        rosenthal_bound(cert, params, 5)


def test_bound_validation(headline_cert):
    with pytest.raises(ParameterError):
        rosenthal_bound(headline_cert, HEADLINE_PARAMS, -1)
    with pytest.raises(ParameterError):
        rosenthal_min_steps(headline_cert, HEADLINE_PARAMS, 0.0)
    with pytest.raises(ParameterError):
        rosenthal_min_steps(headline_cert, HEADLINE_PARAMS, 1.0)


# ---------------------------------------------------------------------------
# rosenthal_min_steps: the 10^33 headline
# ---------------------------------------------------------------------------


def test_min_steps_headline_matches_extended_precision(headline_cert):
    steps = rosenthal_min_steps(headline_cert, HEADLINE_PARAMS, 0.01)
    oracle = headline_min_steps_oracle()
    # Double-precision log arithmetic localizes the crossing of a curve that
    # moves ~1e-34 relative per step; agreement is only meaningful in
    # relative terms, far inside the acceptance window.
    assert steps == pytest.approx(oracle, rel=1e-9)
    assert math.log10(steps) == pytest.approx(math.log10(oracle), abs=1e-6)
    assert math.log10(steps) == pytest.approx(33.766245250761564, abs=1e-6)
    # Well before the crossing the bound is still clearly above the target.
    early = rosenthal_bound(headline_cert, HEADLINE_PARAMS, int(0.9 * steps))
    assert early.to_float() == pytest.approx(0.01584893192461114, rel=1e-6)
    assert early.to_float() > 0.01
    at_min = rosenthal_bound(headline_cert, HEADLINE_PARAMS, steps)
    assert at_min.log_value <= math.log(0.01) + 1e-12


# ---------------------------------------------------------------------------
# rosenthal_grid_optimize
# ---------------------------------------------------------------------------


def test_grid_statuses_and_best_cell(headline_cert):
    d_grid = [10.0, 100.0, 1000.0, 10000.0]
    r_grid = [1e-4, 1e-3, 1e-2, 1e-1]
    result = rosenthal_grid_optimize(headline_cert, 0.01, d_grid, r_grid)
    by_status: dict = {}
    for cell in result.cells:
        by_status.setdefault(cell.status, []).append(cell)
    # d = 10 sits below the small-set threshold 100 for every r.
    assert {c.params.d for c in by_status["infeasible"]} == {10.0}
    assert len(by_status["infeasible"]) == 4
    # d = 100 hits the threshold exactly (alpha = 1, no contraction for any
    # r), and even at larger d the two aggressive r values let u^r win.
    non_contracting = {(c.params.d, c.params.r) for c in by_status["non-contracting"]}
    assert non_contracting == {
        (100.0, 1e-4), (100.0, 1e-3), (100.0, 1e-2), (100.0, 1e-1),
        (1000.0, 1e-2), (1000.0, 1e-1), (10000.0, 1e-2), (10000.0, 1e-1),
    }
    assert {(c.params.d, c.params.r) for c in by_status["ok"]} == {
        (1000.0, 1e-4), (1000.0, 1e-3), (10000.0, 1e-4), (10000.0, 1e-3),
    }
    assert result.best_params == RosenthalParams(d=1000.0, r=1e-3)
    assert math.log10(result.min_steps) == pytest.approx(33.766245, abs=1e-4)
    # The optimum beats every other feasible cell, and the exact tie with
    # d = 10000 at r = 1e-3 resolves to the smaller d.
    steps_by_cell = {(c.params.d, c.params.r): c.min_steps for c in by_status["ok"]}
    for steps in steps_by_cell.values():
        assert result.min_steps <= steps
    assert steps_by_cell[(10000.0, 1e-3)] == result.min_steps


def test_grid_tie_break_prefers_smaller_d():
    # Both cells cross at the same step count (the shared minorization term
    # dominates), so the reported optimum must be the smaller d.
    cert = DriftMinorization(lam=0.1, b=0.5, epsilon=0.5)
    result = rosenthal_grid_optimize(cert, 0.2, [5.0, 6.0], [0.1])
    assert [c.status for c in result.cells] == ["ok", "ok"]
    assert result.cells[0].min_steps == result.cells[1].min_steps == 24
    assert result.best_params == RosenthalParams(d=5.0, r=0.1)
    assert result.min_steps == 24


def test_grid_failures(headline_cert):
    with pytest.raises(EmptyFeasibleGridError, match="empty-feasible-grid"):
        rosenthal_grid_optimize(headline_cert, 0.01, [10.0], [0.001])
    with pytest.raises(ParameterError):
        rosenthal_grid_optimize(headline_cert, 0.01, [], [0.001])


# ---------------------------------------------------------------------------
# two-term bound
# ---------------------------------------------------------------------------


def test_two_term_frozen_crossing():
    steps = two_term_min_steps(0.99986, 0.998497, 2.0, 0.01)
    assert steps == 32892
    assert two_term_bound(0.99986, 0.998497, 2.0, steps) <= 0.01
    assert two_term_bound(0.99986, 0.998497, 2.0, steps - 1) > 0.01
    assert two_term_bound(0.99986, 0.998497, 2.0, 34000) == pytest.approx(
        0.008562755545553887, rel=1e-12
    )


def test_two_term_edges():
    assert two_term_bound(0.5, 0.25, 3.0, 0) == pytest.approx(4.0)
    assert two_term_min_steps(0.5, 0.9, 0.0, 0.5) == 1
    assert two_term_min_steps(0.5, 0.5, 1.0, 3.0) == 0
    with pytest.raises(ParameterError, match="invalid ratio"):
        two_term_bound(1.0, 0.5, 1.0, 3)
    with pytest.raises(ParameterError, match="invalid ratio"):
        two_term_bound(0.5, -0.1, 1.0, 3)
    with pytest.raises(ParameterError):
        two_term_bound(0.5, 0.5, -1.0, 3)
    with pytest.raises(ParameterError):
        two_term_min_steps(0.5, 0.25, 1.0, 0.0)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
def test_two_term_monotone_in_steps(steps, gap):
    a = two_term_bound(0.97, 0.5, 2.0, steps)
    b = two_term_bound(0.97, 0.5, 2.0, steps + gap)
    assert b <= a


# ---------------------------------------------------------------------------
# scan-bound family
# ---------------------------------------------------------------------------


def test_validity_thresholds():
    assert random_scan_validity_threshold(100) == 75
    assert random_scan_validity_threshold(1) == 1
    assert random_scan_validity_threshold(4) == 3
    assert systematic_validity_threshold(100) == 19
    assert systematic_validity_threshold(16) == 3
    assert systematic_validity_threshold(1) == 1
    with pytest.raises(ParameterError):
        random_scan_validity_threshold(0)


def test_rates():
    assert systematic_rate(100) == pytest.approx(100.0 / 102.0, rel=1e-15)
    assert random_scan_rate(1) == pytest.approx(0.7886751345948129, rel=1e-15)
    assert random_scan_rate(100) == pytest.approx(0.9950737714883371, rel=1e-15)


def test_random_scan_lower():
    assert random_scan_lower(1, 1) == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert random_scan_lower(100, 10) == pytest.approx(
        (1.0 / 3.0) * (101.0 / 102.0) ** 10, rel=1e-12
    )
    with pytest.raises(ParameterError):
        random_scan_lower(100, 0)


def test_random_scan_upper_frozen_value_and_gate():
    assert random_scan_upper(4, 3) == pytest.approx(12.439505980012502, rel=1e-12)
    with pytest.raises(ValidityThresholdError, match="below-validity-threshold"):
        random_scan_upper(4, 2)
    # At its validity threshold for n = 100 the bound is vacuous (> 1) and
    # returned as-is.
    assert random_scan_upper(100, 75) > 1.0


def test_systematic_upper_orders():
    q = 8.0 / 9.0
    assert systematic_upper(16, 3) == pytest.approx(10.0 * q**3, rel=1e-12)
    assert systematic_upper(16, 3, order="x_theta") == systematic_upper(16, 3)
    assert systematic_upper(16, 3, order="theta_x") == pytest.approx(
        10.0 * q**2.5, rel=1e-12
    )
    with pytest.raises(ParameterError, match="unknown sweep order"):
        systematic_upper(16, 3, order="diagonal")
    with pytest.raises(ValidityThresholdError):
        systematic_upper(16, 2)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=50))
def test_scan_uppers_monotone_in_steps(steps, n):
    start = max(steps, random_scan_validity_threshold(n))
    assert random_scan_upper(n, start + 1) <= random_scan_upper(n, start)
    start = max(steps, systematic_validity_threshold(n))
    assert systematic_upper(n, start + 1) <= systematic_upper(n, start)


def test_azuma_rate_dominates_exact_binomial_tails():
    # The 3 e^{-(steps-1)/8} term majorizes the exact probability of at most
    # a quarter theta-refreshes among fair coin flips.
    for flips in range(1, 65):
        tail = binomial_tail_le(flips, flips // 4)
        assert float(tail) <= math.exp(-flips / 8.0) * (1.0 - 1e-9)
    assert AZUMA_RATE == math.exp(-0.125)


# ---------------------------------------------------------------------------
# chi-square bound (Poisson-gamma)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pg_stationary():
    return pg_geometric_reference(PoissonGammaFamily())


def test_chisq_bound_values(pg_stationary):
    assert chisq_bound_pg(0, 0, pg_stationary) == pytest.approx(math.sqrt(2.0), rel=1e-9)
    # One extra step halves the bound at the default decay rate 1/2.
    assert chisq_bound_pg(0, 5, pg_stationary) == pytest.approx(
        chisq_bound_pg(0, 4, pg_stationary) / 2.0, rel=1e-12
    )
    # Starting deeper costs sqrt of the inverse stationary mass.
    assert chisq_bound_pg(8, 0, pg_stationary) == pytest.approx(
        2.0 ** (9.0 / 2.0), rel=1e-9
    )


def test_chisq_min_steps_slope(pg_stationary):
    assert chisq_min_steps_pg(0, pg_stationary, 0.01) == 8
    for j, expected in ((8, 12), (16, 16), (32, 24), (64, 40), (128, 72)):
        assert chisq_min_steps_pg(j, pg_stationary, 0.01) == expected
    # The crossing grows by one step for every two levels of start depth.
    for j in range(2, 120, 2):
        early = chisq_min_steps_pg(j - 2, pg_stationary, 0.01)
        late = chisq_min_steps_pg(j, pg_stationary, 0.01)
        assert late - early == 1


def test_chisq_validation(pg_stationary):
    with pytest.raises(ParameterError):
        chisq_bound_pg(-1, 0, pg_stationary)
    with pytest.raises(ParameterError, match="beyond truncation"):
        chisq_bound_pg(10**6, 0, pg_stationary)
    with pytest.raises(ParameterError):
        chisq_bound_pg(0, 0, pg_stationary, decay_rate=1.0)
    with pytest.raises(ParameterError):
        chisq_bound_pg(0, -1, pg_stationary)
    with pytest.raises(ParameterError, match="must be positive"):
        chisq_bound_pg(1, 0, [1.0, 0.0])


# ---------------------------------------------------------------------------
# scan_time_ratio
# ---------------------------------------------------------------------------


def test_scan_time_ratio_frozen_values():
    assert scan_time_ratio(1) == pytest.approx(2.313834563223532, rel=1e-12)
    assert scan_time_ratio(50) == pytest.approx(2.009853327219269, rel=1e-12)
    assert scan_time_ratio(100) == pytest.approx(2.0049629214117397, rel=1e-12)
    assert scan_time_ratio(200) == pytest.approx(2.0024906780283143, rel=1e-12)


def test_scan_time_ratio_tends_to_two_from_above():
    values = [scan_time_ratio(n) for n in (10, 50, 100, 200, 1000, 10**6)]
    for earlier, later in zip(values, values[1:]):
        assert 2.0 < later < earlier
    assert values[-1] == pytest.approx(2.0, abs=1e-3)
