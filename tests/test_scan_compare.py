"""Exact-versus-bounds comparison reports and the mixing demos."""

import dataclasses
import itertools
import json
import math
import re
import sys

import numpy as np
import pytest

from gibbsrates import (
    BetaBinomialFamily,
    ComparisonRow,
    NoSolutionError,
    ParameterError,
    PoissonGammaFamily,
    ValidityThresholdError,
    bb_xchain,
    chisq_min_steps_pg,
    compare,
    exact_tv_curve,
    first_crossing,
    gram_basis,
    pg_log_stationary,
    pg_mixing_demo,
    random_scan_lower,
    random_scan_upper,
    random_scan_validity_threshold,
    rebuild_random_scan_upper,
    rosenthal_min_steps,
    scan_time_ratio,
    systematic_upper,
    systematic_validity_threshold,
    worst_start_search,
)
from gibbsrates import cli, families, numerics, scan_compare
from gibbsrates.bounds import random_scan_upper_bound
from gibbsrates.errors import TruncationError
from gibbsrates.families import pg_xchain
from gibbsrates.scan_compare import (
    CSV_COLUMNS,
    DECAY_CHECK_STEPS,
    MAX_COMPARE_STEPS,
    _pg_certified_crossings,
)


# ---------------------------------------------------------------------------
# exact_tv_curve / first_crossing
# ---------------------------------------------------------------------------


def test_exact_tv_curve_n1_closed_form():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=1))
    curve = exact_tv_curve(matrix, stationary, 0, 12)
    assert curve.shape == (13,)
    assert curve[0] == pytest.approx(0.5, rel=1e-15)
    expected = 0.5 * (1.0 / 3.0) ** np.arange(13)
    np.testing.assert_allclose(curve, expected, rtol=1e-9, atol=1e-15)


def test_exact_tv_curve_validation():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=1))
    with pytest.raises(ParameterError):
        exact_tv_curve(matrix, stationary, 5, 10)  # start out of range
    with pytest.raises(ParameterError):
        exact_tv_curve(matrix, stationary, 0, -1)


def test_point_starts_must_be_integers():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=4))
    for start in (2.5, 2.0, True):
        with pytest.raises(ParameterError, match="start state must be an integer"):
            exact_tv_curve(matrix, stationary, start, 3)
    np.testing.assert_array_equal(
        exact_tv_curve(matrix, stationary, np.int64(2), 3),
        exact_tv_curve(matrix, stationary, 2, 3),
    )
    for starts in ([8.7], [True], [0, 8.0]):
        with pytest.raises(ParameterError, match="start state must be an integer"):
            pg_mixing_demo(starts)
    assert pg_mixing_demo([np.int64(8)]).rows == pg_mixing_demo([8]).rows


@pytest.mark.parametrize(
    "n, max_steps",
    # (50, 3000) runs past the step where one level is left and the curve is its closed form.
    [(1, 40), (2, 40), (3, 40), (50, 150), (50, 3000), (600, 1800), (2000, 600)],
)
def test_spectral_curve_matches_the_dense_loop(n, max_steps):
    # From start n/2 (n even) p_1 = 0, so the level cut must not key on level 1.
    fam = BetaBinomialFamily(n=n)
    matrix, stationary = bb_xchain(fam)
    basis = gram_basis(fam)
    starts = [0, n // 2, n]
    dense = np.concatenate(list(numerics.iterate_tv(matrix, stationary, starts, max_steps)))
    for i, start in enumerate(starts):
        curve = exact_tv_curve(matrix, stationary, start, max_steps, basis=basis)
        assert curve.shape == (max_steps + 1,)
        assert curve[0] == pytest.approx(n / (n + 1.0), rel=1e-15)
        np.testing.assert_allclose(curve, dense[:, i], rtol=0, atol=1e-12)


def test_spectral_curve_is_no_further_from_the_exact_kernel_than_the_dense_loop():
    # Reference: the exact kernel (n + 1) C(n, x) C(n, y) (x + y)! (2n - x - y)! / (2n + 1)!
    # in 128-bit fixed point (38 digits), iterated in integer arithmetic.
    n, max_steps, bits = 100, 300, 128
    fact = [math.factorial(i) for i in range(2 * n + 2)]
    kernel = np.empty((n + 1, n + 1), dtype=object)
    for x in range(n + 1):
        for y in range(n + 1):
            num = (n + 1) * math.comb(n, x) * math.comb(n, y) * fact[x + y] * fact[2 * n - x - y]
            kernel[x, y] = (num << bits) // fact[2 * n + 1]
    one = 1 << bits
    law = np.array([one] + [0] * n, dtype=object)
    truth = []
    for t in range(max_steps + 1):
        if t:
            law = np.array([v >> bits for v in law @ kernel], dtype=object)
        truth.append(sum(abs(v * (n + 1) - one) for v in law) / (2 * (n + 1) * one))
    fam = BetaBinomialFamily(n=n)
    matrix, stationary = bb_xchain(fam)
    spectral = exact_tv_curve(matrix, stationary, 0, max_steps, basis=gram_basis(fam))
    dense = exact_tv_curve(matrix, stationary, 0, max_steps)
    spectral_error = np.abs(spectral - truth).max()
    assert spectral_error <= np.abs(dense - truth).max()
    assert spectral_error <= 2e-15


def _single_level_tv(n: int, start: int, level: int, steps) -> list:
    """1/2 lambda_k^t |p_k(x)| sum_y m(y) |p_k(y)| at each step, in 40 digits,
    for level k = 1 or 2 of the flat beta-binomial on 0..n: m is uniform, p_k
    the Gram polynomials, lambda_1 = n/(n + 2), lambda_2 = lambda_1 (n - 1)/(n + 3)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        centred = [mpmath.mpf(y) - mpmath.mpf(n) / 2 for y in range(n + 1)]
        if level == 1:
            poly = [c / mpmath.sqrt((mpmath.mpf(n + 1) ** 2 - 1) / 12) for c in centred]
            rate = mpmath.mpf(n) / (n + 2)
        else:
            spread = mpmath.fsum(c**2 for c in centred) / (n + 1)
            square = [c**2 - spread for c in centred]
            norm = mpmath.sqrt(mpmath.fsum(q**2 for q in square) / (n + 1))
            poly = [q / norm for q in square]
            rate = mpmath.mpf(n * (n - 1)) / ((n + 2) * (n + 3))
        weight = abs(poly[start]) * mpmath.fsum(abs(p) for p in poly) / (2 * (n + 1))
        return [weight * rate ** int(t) for t in steps]


@pytest.mark.parametrize(
    "n, start, level, max_steps",
    [(50, 0, 1, 20_000), (200, 0, 1, 40_000), (2000, 0, 1, 40_000),
     # From the centre of an even n, p_1 = 0 and level 2 is the one left.
     (50, 25, 2, 6_000), (200, 100, 2, 20_000)],
)
def test_late_curve_is_the_single_level_closed_form(n, start, level, max_steps):
    # From 10 n steps on, the levels above ``level`` add under 1e-17
    # relative; the curve's own error is that of exp(t log lambda).
    curve = exact_tv_curve(None, None, start, max_steps, basis=gram_basis(BetaBinomialFamily(n)))
    late = np.unique(np.geomspace(10 * n, max_steps, 40).astype(np.int64))
    exact = _single_level_tv(n, start, level, late)
    normal = np.array([value >= sys.float_info.min for value in exact])
    np.testing.assert_allclose(curve[late][normal], np.array(exact, dtype=float)[normal], rtol=1e-11)
    # Where the closed form is far below float64's range (from about 19 300
    # steps at n = 50), the curve is exact zeros.
    gone = np.array([value * 10**330 < 1 for value in exact])
    assert not curve[late][gone].any()
    assert gone.any() == ((n, level) == (50, 1))


@pytest.mark.parametrize("n, start", [(50, 0), (50, 25), (200, 7), (2000, 0)])
def test_single_level_tail_matches_the_full_expansion(n, start):
    # The expansion over every level the basis keeps, at steps from n up
    # to the cap.
    basis = gram_basis(BetaBinomialFamily(n))
    curve = exact_tv_curve(None, None, start, MAX_COMPARE_STEPS, basis=basis)
    steps = np.unique(np.geomspace(n, MAX_COMPARE_STEPS, 60).astype(np.int64))
    coeff = np.exp(steps[:, None] * basis.log_eigenvalues[1:-1]) * basis.polynomials([start])[1:, 0]
    expansion = 0.5 * (np.abs(coeff @ basis.phi[1:]) @ basis.phi[0])
    normal = expansion >= sys.float_info.min
    assert normal.sum() >= 10
    np.testing.assert_allclose(curve[steps][normal], expansion[normal], rtol=1e-14)


@pytest.mark.parametrize("n", [*range(1, 61), 100, 723, 2000])
def test_the_gram_basis_keeps_every_level_the_curve_cut_keeps(n):
    # Twenty more difference-equation levels leave every curve unchanged,
    # bit for bit: the cut of _basis_tv can never keep a level above K.
    basis = gram_basis(BetaBinomialFamily(n))
    more = min(n, basis.levels + 20)
    with np.errstate(divide="ignore"):  # lambda_{n+1} = 0
        log_eigenvalues = np.log(np.r_[1.0, families._hahn_eigenvalues(n, more + 1)])
    wider = dataclasses.replace(
        basis,
        phi=np.vstack([basis.phi, families._hahn_rows(n, np.arange(basis.levels + 1, more + 1))]),
        log_eigenvalues=log_eigenvalues[: more + 2],
    )
    for start in sorted({0, 1, n // 3, n // 2, n}):
        np.testing.assert_array_equal(
            scan_compare._basis_tv(basis, start, 20_000),
            scan_compare._basis_tv(wider, start, 20_000),
        )


def test_exact_curve_at_the_dense_state_cap():
    # n = 10 000 is the largest chain gram_basis builds: 709 levels, not
    # 10 001.  The curve lies between the eigenfunction lower bound
    # lambda_1^t / 2 (p_1 is largest at the ends) and the chi-square upper
    # bound 1/2 sqrt(sum_k lambda_k^2t p_k(0)^2), with the Gram polynomials'
    # p_k(0)^2 = (n + 1)(2k + 1) n!^2 / ((n + k + 1)! (n - k)!) (Koekoek,
    # Lesky & Swarttouw 2010, (9.5.2)).
    n = families.MAX_DENSE_STATES - 1
    basis = gram_basis(BetaBinomialFamily(n))
    assert basis.phi.shape == (709, n + 1)
    curve = exact_tv_curve(None, None, 0, 20_000, basis=basis)
    assert curve[0] == 1.0 - 1.0 / (n + 1)
    assert (np.diff(curve) <= 0.0).all()
    k = np.arange(1, n + 1)
    log_lambda = np.cumsum(np.log((n - k + 1.0) / (n + k + 1.0)))
    log_p0 = 0.5 * (
        math.log(n + 1.0) + np.log(2.0 * k + 1.0) + 2.0 * math.lgamma(n + 1.0)
        - np.array([math.lgamma(n + j + 2.0) + math.lgamma(n - j + 1.0) for j in k])
    )
    steps = np.unique(np.geomspace(1, 20_000, 40).astype(np.int64))
    lower = 0.5 * np.exp(steps * log_lambda[0])
    upper = 0.5 * np.sqrt(np.exp(2.0 * (steps[:, None] * log_lambda + log_p0)).sum(axis=1))
    assert (lower <= curve[steps]).all() and (curve[steps] <= upper).all()
    # The two bounds pin the curve within a factor 2.1 from step 2000 on
    # (sqrt(3) as t grows).
    late = steps >= 2000
    assert (upper[late] <= 2.1 * lower[late]).all()


def test_spectral_curve_validation():
    fam = BetaBinomialFamily(n=4)
    matrix, stationary = bb_xchain(fam)
    basis = gram_basis(fam)
    for start in (5, -1, 2.0):
        with pytest.raises(ParameterError):
            exact_tv_curve(matrix, stationary, start, 3, basis=basis)
    with pytest.raises(ParameterError):
        exact_tv_curve(matrix, stationary, 0, MAX_COMPARE_STEPS + 1, basis=basis)
    np.testing.assert_array_equal(
        exact_tv_curve(matrix, stationary, np.int64(2), 3, basis=basis),
        exact_tv_curve(matrix, stationary, 2, 3, basis=basis),
    )


def test_first_crossing():
    curve = np.array([0.5, 0.2, 0.09, 0.01, 0.001])
    assert first_crossing(curve, 0.25) == 1
    assert first_crossing(curve, 0.09) == 2
    assert first_crossing(curve, 0.6) == 0
    assert first_crossing(curve, 1e-9) is None


# ---------------------------------------------------------------------------
# worst_start_search
# ---------------------------------------------------------------------------


def test_worst_start_search_matches_manual_scan():
    fam = BetaBinomialFamily(n=10)
    matrix, stationary = bb_xchain(fam)
    target = 0.05
    crossings = []
    for start in range(11):
        curve = exact_tv_curve(matrix, stationary, start, 100)
        crossings.append(first_crossing(curve, target))
    worst = worst_start_search(gram_basis(fam), target, max_steps=100)
    assert worst.min_steps == max(crossings)
    assert crossings[worst.start] == worst.min_steps
    assert worst.start == crossings.index(max(crossings))


# Targets from one met at step 0 (n = 1, where every start has TV 1/2) down
# to 0.001; for each, max_steps runs T - 1, T, T + 1 and 2T + 3 around the
# worst crossing T found by iterating every start step by step.
SEARCH_TARGETS = (0.6, 0.25, 0.1, 0.03, 0.01, 0.001)


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return refuse


def _spy_curves(monkeypatch):
    """The starts whose full basis curve ``_basis_tv`` evaluates, in call order."""
    starts = []
    spectral = scan_compare._basis_tv

    def spy(basis, start, steps, *buffers):
        starts.append(start)
        return spectral(basis, start, steps, *buffers)

    monkeypatch.setattr(scan_compare, "_basis_tv", spy)
    return starts


def _refuse_dense_products(monkeypatch):
    """Make building a dense chain or iterating one raise."""
    monkeypatch.setattr(families, "bb_xchain", _refuse("bb_xchain"))
    monkeypatch.setattr(numerics.StochasticMatrix, "__post_init__", _refuse("a dense chain build"))
    for module in (numerics, scan_compare):
        monkeypatch.setattr(module, "iterate_tv", _refuse("the dense loop"))


@pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 100, 233])
def test_worst_start_search_matches_iteration(n):
    fam = BetaBinomialFamily(n=n)
    matrix, stationary = bb_xchain(fam)
    curves = [exact_tv_curve(matrix, stationary, x, 4 * n + 40) for x in range(n + 1)]
    basis = gram_basis(fam)
    for target in SEARCH_TARGETS:
        crossings = [first_crossing(curve, target) for curve in curves]
        worst_steps = max(crossings)
        worst_start = crossings.index(worst_steps)
        for max_steps in (worst_steps - 1, worst_steps, worst_steps + 1, 2 * worst_steps + 3):
            if max_steps < 0:
                continue
            if max_steps < worst_steps:
                with pytest.raises(NoSolutionError, match="target-not-reached"):
                    worst_start_search(basis, target, max_steps=max_steps)
                continue
            worst = worst_start_search(basis, target, max_steps=max_steps)
            assert (worst.start, worst.min_steps) == (worst_start, worst_steps)


@pytest.mark.parametrize("n, max_steps, expected", [(723, 2169, (0, 1563)), (2000, 6000, (0, 4320))])
def test_certified_worst_start_evaluates_one_curve(monkeypatch, n, max_steps, expected):
    # The certificate proves every other start no slower, so the search
    # evaluates the candidate's curve alone and builds no dense chain.
    basis = gram_basis(BetaBinomialFamily(n=n))
    _refuse_dense_products(monkeypatch)
    curves = _spy_curves(monkeypatch)
    worst = worst_start_search(basis, 0.01, max_steps=max_steps)
    assert (worst.start, worst.min_steps) == expected
    assert curves == [0]
    message = f"target-not-reached: some starts still exceed TV 0.01 after {expected[1] - 1} steps"
    with pytest.raises(NoSolutionError, match=message):
        worst_start_search(basis, 0.01, max_steps=expected[1] - 1)


def _assert_compare_answers_the_tie(monkeypatch, n, max_steps, target, starts):
    """At a target the certificate cannot decide, ``compare`` answers with the
    first maximum of the basis-curve crossings over ``starts``, prints that
    curve bit for bit, and builds and iterates no dense chain."""
    basis = gram_basis(BetaBinomialFamily(n=n))
    curves = {x: exact_tv_curve(None, None, x, max_steps, basis=basis) for x in starts}
    crossings = {x: first_crossing(curve, target) for x, curve in curves.items()}
    expected = max(crossings.values())
    expected_start = min(x for x, t in crossings.items() if t == expected)
    curve = curves[expected_start]
    _refuse_dense_products(monkeypatch)
    evaluated = _spy_curves(monkeypatch)
    worst = worst_start_search(basis, target, max_steps=max_steps)
    assert (worst.start, worst.min_steps) == (expected_start, expected)
    # The candidate is start 0; the certificate failed some other start,
    # which got its own curve.
    assert evaluated[0] == 0
    assert set(evaluated) - {0}, "the certificate decided every start; the target is no tie"
    report = compare(n=n, max_steps=max_steps, target=target)
    assert (report.worst_start, report.min_steps["exact"]) == (expected_start, expected)
    np.testing.assert_array_equal(report.curves.columns[1], curve[1:])


@pytest.mark.parametrize("n", [10, 100, 723, 2000])
def test_compare_answers_a_tie_on_its_own_curve(monkeypatch, n):
    # The target is the printed curve's own value at the worst crossing.
    # At n = 100 that is 218 steps from start 0; the dense chain, which used
    # to answer ties, put the crossing at 219.
    max_steps = 3 * n
    basis = gram_basis(BetaBinomialFamily(n=n))
    plain = worst_start_search(basis, 0.01, max_steps=max_steps)
    curve = exact_tv_curve(None, None, plain.start, max_steps, basis=basis)
    target = float(curve[plain.min_steps])
    starts = range(n + 1) if n <= 100 else (0, n)
    _assert_compare_answers_the_tie(monkeypatch, n, max_steps, target, starts)


@pytest.mark.parametrize("t", [150, 217, 218])
def test_compare_answers_a_dense_loop_tie_from_the_basis(monkeypatch, t):
    # At the dense loop's own TV from start 0 the certificate cannot decide;
    # the basis curves answer.
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=100))
    target = float(exact_tv_curve(matrix, stationary, 0, 400)[t])
    _assert_compare_answers_the_tie(monkeypatch, 100, 400, target, range(101))


def test_compare_takes_a_certified_curve_from_the_basis(monkeypatch):
    # The certificate decides every start, so the one curve is the printed one.
    _refuse_dense_products(monkeypatch)
    curves = _spy_curves(monkeypatch)
    report = compare(n=100, max_steps=400)
    assert (report.worst_start, report.min_steps["exact"]) == (0, 218)
    assert curves == [0]


def test_worst_start_search_n600_crossing():
    # The reported crossing must be the worst start's own on the dense chain,
    # and both extreme starts must be mixed.
    fam = BetaBinomialFamily(n=600)
    matrix, stationary = bb_xchain(fam)
    target = 0.05
    worst = worst_start_search(gram_basis(fam), target, max_steps=1800)
    t = worst.min_steps
    curve = exact_tv_curve(matrix, stationary, worst.start, t)
    assert curve[t - 1] > target >= curve[t]
    for start in (0, 600):
        assert exact_tv_curve(matrix, stationary, start, t)[t] <= target


@pytest.mark.parametrize("target", [math.nan, 0.0, 1.0, 2.0, -0.5])
def test_worst_start_search_rejects_targets_outside_unit_interval(target):
    with pytest.raises(ParameterError, match="target must lie in"):
        worst_start_search(gram_basis(BetaBinomialFamily(n=10)), target, max_steps=100)


def test_worst_start_search_unreached_target():
    with pytest.raises(NoSolutionError, match="target-not-reached"):
        worst_start_search(gram_basis(BetaBinomialFamily(n=10)), 1e-12, max_steps=2)


# ---------------------------------------------------------------------------
# compare: tiny model with closed-form answers
# ---------------------------------------------------------------------------


def test_compare_n1_exact_equals_eigen_curve():
    report = compare(n=1, max_steps=30)
    assert report.worst_start == 0
    for row in report.rows:
        assert row.eigen_lower == pytest.approx(row.exact_tv_systematic, rel=1e-9)
    assert report.min_steps["exact"] == 4
    assert report.min_steps["eigen_lower_at_least"] == 4


# ---------------------------------------------------------------------------
# compare: the n = 100 headline report
# ---------------------------------------------------------------------------


def test_compare100_min_steps(compare100):
    report = compare100
    assert report.n == 100
    assert report.worst_start == 0
    assert report.min_steps["exact"] == 218
    assert report.min_steps["systematic_upper"] == 349
    assert report.min_steps["random_scan_upper"] == 1402
    assert report.min_steps["random_scan_lower_at_least"] == 356
    assert report.min_steps["eigen_lower_at_least"] == 198


def test_compare100_work_ratio(compare100):
    report = compare100
    # 1402 random-scan draws against 2 * 349 systematic conditional draws.
    assert report.work_ratio_random_vs_systematic == pytest.approx(
        1402.0 / 698.0, rel=1e-12
    )
    assert report.work_ratio_random_vs_systematic == pytest.approx(
        2.008595988538682, rel=1e-12
    )
    assert report.scan_time_ratio == pytest.approx(scan_time_ratio(100), rel=1e-15)


def test_compare100_rosenthal_entry(compare100):
    entry = compare100.min_steps["rosenthal"]
    assert entry["status"] == "ok"
    assert entry["d"] == 1000.0 and entry["r"] == 0.001
    assert entry["log10_steps"] == pytest.approx(33.766245250761564, abs=1e-9)
    from gibbsrates import bb_drift_minorization, RosenthalParams

    cert = bb_drift_minorization(BetaBinomialFamily(n=100), x0=0)
    direct = rosenthal_min_steps(cert, RosenthalParams(d=1000.0, r=0.001), 0.01)
    assert entry["steps"] == direct


def test_compare100_crossing_row(compare100):
    rows = compare100.rows
    assert rows[217].steps == 218
    assert rows[217].exact_tv_systematic == pytest.approx(
        0.009906122517128559, rel=1e-9
    )
    assert rows[217].exact_tv_systematic <= 0.01
    assert rows[216].exact_tv_systematic > 0.01


def test_compare100_validity_gates(compare100):
    rows = compare100.rows
    assert rows[17].systematic_bound is None  # steps 18 < gate 19
    assert rows[18].systematic_bound is not None
    assert rows[73].random_scan_upper is None  # steps 74 < gate 75
    assert rows[74].random_scan_upper is not None
    assert all(row.random_scan_lower is not None for row in rows)


def test_compare100_row_invariants(compare100):
    for row in compare100.rows:
        assert row.eigen_lower <= row.exact_tv_systematic + 1e-9
        if row.systematic_bound is not None:
            assert row.exact_tv_systematic <= row.systematic_bound + 1e-9
        if row.random_scan_upper is not None and row.random_scan_lower is not None:
            assert row.random_scan_lower <= row.random_scan_upper + 1e-9


# The eigenvalue reference q**s and the report's exp(s * ln q) differ by about
# |s ln q| ulps; the horizons below keep |s ln q| <= 40, so 45 float64 eps
# (1.0e-14) bounds the disagreement.  The other columns share the scalar
# functions' representation and agree to an ulp or two.
REFERENCE_RTOL = 45 * np.finfo(np.float64).eps


@pytest.mark.parametrize("n, max_steps", [(1, 36), (16, 330), (100, 2000), (233, 1000)])
def test_compare_bounds_match_scalar_reference(n, max_steps):
    report = compare(n, max_steps=max_steps)
    q = n / (n + 2.0)
    weight = abs(report.worst_start - n / 2.0) / (n / 2.0)
    # row column -> (min_steps key, first valid step, reference curve)
    reference = {
        "systematic_bound": (
            "systematic_upper",
            systematic_validity_threshold(n),
            lambda s: systematic_upper(n, s),
        ),
        "random_scan_lower": (
            "random_scan_lower_at_least",
            1,
            lambda s: random_scan_lower(n, s),
        ),
        "random_scan_upper": (
            "random_scan_upper",
            random_scan_validity_threshold(n),
            lambda s: random_scan_upper(n, s),
        ),
        "eigen_lower": ("eigen_lower_at_least", 0, lambda s: 0.5 * weight * q**s),
    }
    for column, (key, gate, curve) in reference.items():
        cells = [getattr(row, column) for row in report.rows]
        below = max(gate - 1, 0)  # rows start at step 1
        assert cells[:below] == [None] * below, column
        expected = [curve(s) for s in range(below + 1, max_steps + 1)]
        np.testing.assert_allclose(cells[below:], expected, rtol=REFERENCE_RTOL, atol=0)
        crossing = gate
        while curve(crossing) > report.target:
            crossing += 1
        assert report.min_steps[key] == crossing, column
        assert type(report.min_steps[key]) is int
    assert all(type(row.steps) is int for row in report.rows)


def test_report_rows_are_built_once_from_the_curves():
    # perfbench's size-sweep worker reads ``rows`` twice per compare query.
    report = compare(16, max_steps=48)
    first, second = report.rows, report.rows
    assert isinstance(first, tuple) and first == second and first is second
    assert all(type(row) is ComparisonRow and type(row.steps) is int for row in first)
    assert [row.steps for row in first] == list(range(1, 49))
    assert report.curves.header == CSV_COLUMNS


def test_compare_n50_work_ratio_near_two():
    report = compare(n=50, max_steps=400)
    assert 1.8 <= report.work_ratio_random_vs_systematic <= 2.2


@pytest.mark.parametrize(
    "n, max_steps, exact", [(100, 10**5, 218), (200, 2 * 10**4, 434), (700, 2 * 10**4, 1513)]
)
def test_compare_long_horizon_answers(n, max_steps, exact):
    # Row sums exact to rounding keep the iterated TV from drifting onto a
    # floor above the systematic bound, so the row invariants hold.
    report = compare(n=n, max_steps=max_steps)
    assert report.min_steps["exact"] == exact
    assert len(report.rows) == max_steps
    assert report.rows[-1].exact_tv_systematic < 1e-12


@pytest.mark.parametrize(
    "n, worst_start, exact", [(16, 0, 37), (100, 0, 218), (233, 0, 505), (600, 0, 1297)]
)
def test_compare_worst_start_and_crossing_are_pinned(n, worst_start, exact):
    # The scipy-free Gram basis (numerics.gammaln in its step error)
    # answers as scipy's gammaln margin did.
    report = compare(n=n, max_steps=3 * n)
    assert (report.worst_start, report.min_steps["exact"]) == (worst_start, exact)


@pytest.mark.parametrize("n", [1, 2, 16, 100, 233])
def test_compare_prints_the_searched_curve(n):
    # The exact answer is the first crossing of the printed curve, which is
    # the worst start's own basis curve from the search, bit for bit.
    basis = gram_basis(BetaBinomialFamily(n=n))
    max_steps = 4 * n + 40
    for target in SEARCH_TARGETS:
        worst = worst_start_search(basis, target, max_steps=max_steps)
        own = exact_tv_curve(None, None, worst.start, max_steps, basis=basis)
        np.testing.assert_array_equal(worst.curve, own)
        report = compare(n=n, max_steps=max_steps, target=target)
        assert report.worst_start == worst.start
        assert report.min_steps["exact"] == first_crossing(worst.curve, target) == worst.min_steps
        np.testing.assert_array_equal(report.curves.columns[1], worst.curve[1:])


def test_compare_validation():
    with pytest.raises(ParameterError, match="compare-n-out-of-range"):
        compare(n=0)
    with pytest.raises(ParameterError, match="compare-n-out-of-range"):
        compare(n=2001)
    with pytest.raises(ParameterError, match="compare-n-out-of-range"):
        compare(n=1.5)
    with pytest.raises(ParameterError):
        compare(n=5, max_steps=0)
    with pytest.raises(ParameterError):
        compare(n=5, target=1.5)


def test_compare_decay_check_rows():
    report = compare(n=10, max_steps=200, decay_samples=2000, seed=3)
    assert tuple(row.steps for row in report.decay_check) == DECAY_CHECK_STEPS
    for row in report.decay_check:
        assert row.std_error > 0.0
        z = (row.observed - row.predicted) / row.std_error
        assert abs(z) < 4.0


def test_compare_decay_check_draws_once_per_run_of_letters(monkeypatch):
    # One set of paths serves all four horizons, and a replica draws only
    # when its letter changes: about 1 + 9/2 = 5.5 conditional draws per
    # replica, against 1 + 2 + 5 + 10 = 18 for a fresh run per horizon.
    drawn = []
    for name in ("draw_theta", "draw_x"):
        original = getattr(families.BetaBinomialFamily, name)

        def draw(self, rng, values, original=original):
            drawn.append(np.size(values))
            return original(self, rng, values)

        monkeypatch.setattr(families.BetaBinomialFamily, name, draw)
    report = compare(n=100, decay_samples=100_000)
    assert len(report.decay_check) == len(DECAY_CHECK_STEPS)
    assert sum(drawn) <= 650_000


def test_compare_refuses_decay_replicas_over_the_cap_before_the_comparison(monkeypatch):
    def build(fam):
        raise AssertionError("built a basis for a query it refuses")

    monkeypatch.setattr(scan_compare, "gram_basis", build)
    with pytest.raises(ParameterError, match=r"^decay_samples must be an integer in 1000\.\.1000000"):
        compare(n=100, decay_samples=10**12)


def test_compare_without_decay_has_no_rows(compare100):
    assert compare100.decay_check == ()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_to_csv_layout():
    report = compare(n=16, max_steps=100)
    lines = report.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 101
    # Below both validity gates the bound cells are empty, not zero.
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == ""  # systematic gate is 3
    assert first[4] == ""  # random-scan gate is 12
    third = lines[3].split(",")
    assert third[2] != ""
    assert report.to_csv().endswith("\n")


def test_to_csv_golden_first_row():
    report = compare(n=1, max_steps=5)
    lines = report.to_csv().splitlines()
    assert lines[1] == (
        "1,0.166666666667,3.33333333333,0.222222222222,20.3205080757,0.166666666667"
    )


def test_to_jsonable_round_trip(compare100):
    payload = compare100.to_jsonable()
    assert set(payload) == {
        "n",
        "target",
        "worst_start",
        "min_steps",
        "work_ratio_random_vs_systematic",
        "scan_time_ratio",
        "rows",
        "decay_check",
        "notes",
    }
    assert payload["n"] == 100
    assert payload["min_steps"]["rosenthal"]["status"] == "ok"
    assert len(payload["rows"]) == 400
    text = compare100.to_json()
    assert json.loads(text) == payload
    assert text.endswith("\n")


def test_compare_is_deterministic():
    first = compare(n=5, max_steps=50, decay_samples=1000, seed=7)
    second = compare(n=5, max_steps=50, decay_samples=1000, seed=7)
    assert first.to_json() == second.to_json()


# ---------------------------------------------------------------------------
# rebuild_random_scan_upper
# ---------------------------------------------------------------------------


def test_rebuild_matches_closed_form_small():
    assert rebuild_random_scan_upper(4, 3) == pytest.approx(
        random_scan_upper(4, 3), rel=1e-12
    )


def test_rebuild_matches_closed_form_both_paths():
    # Length 20 runs the exhaustive census path, 21 the log-sum path.
    for steps in (20, 21):
        assert rebuild_random_scan_upper(20, steps) == pytest.approx(
            random_scan_upper(20, steps), rel=1e-9
        )


def test_rebuild_n1_first_step():
    assert rebuild_random_scan_upper(1, 1) == pytest.approx(
        3.0 + 10.0 * math.sqrt(3.0), rel=1e-12
    )


@pytest.mark.parametrize("steps", range(5, 41, 5))
def test_rebuild_grid_n6(steps):
    assert rebuild_random_scan_upper(6, steps) == pytest.approx(
        random_scan_upper(6, steps), rel=1e-9
    )


def test_rebuild_validation():
    with pytest.raises(ParameterError):
        rebuild_random_scan_upper(0, 5)
    with pytest.raises(ParameterError):
        rebuild_random_scan_upper(4, 10_001)
    with pytest.raises(ValidityThresholdError):
        rebuild_random_scan_upper(4, 2)


@pytest.mark.parametrize("n", [0, 2.5, True])
def test_rebuild_refuses_n_with_the_bounds_message(n):
    with pytest.raises(ParameterError) as refused:
        random_scan_upper_bound(n)
    with pytest.raises(ParameterError, match="n must be a positive integer") as rebuilt:
        rebuild_random_scan_upper(n, 5)
    assert str(rebuilt.value) == str(refused.value)


# ---------------------------------------------------------------------------
# pg_mixing_demo
# ---------------------------------------------------------------------------


def test_pg_demo_frozen_table():
    demo = pg_mixing_demo([0, 8, 16, 32, 64, 128])
    assert [row.start for row in demo.rows] == [0, 8, 16, 32, 64, 128]
    assert [row.exact_min_steps for row in demo.rows] == [5, 8, 9, 10, 11, 12]
    assert [row.chisq_min_steps for row in demo.rows] == [8, 12, 16, 24, 40, 72]
    assert "contrast" in demo.notes
    assert demo.decay_rate == pytest.approx(0.5, abs=1e-6)


def test_pg_demo_growth_rates():
    demo = pg_mixing_demo([8, 16, 32, 64, 128])
    exact = [row.exact_min_steps for row in demo.rows]
    chisq = [row.chisq_min_steps for row in demo.rows]
    for a, b in zip(exact, exact[1:]):
        assert b - a <= 3
    for a, b in zip(chisq, chisq[1:]):
        assert b - a >= 4


@pytest.mark.parametrize("shape", [1.0, 2.0])
def test_pg_demo_rows_do_not_depend_on_a_deep_truncation(shape):
    starts = [0, 8, 16, 32, 64, 128]
    reference = pg_mixing_demo(starts, shape=shape).rows
    for x_max in (747, 1600, 3000):
        assert pg_mixing_demo(starts, shape=shape, x_max=x_max).rows == reference


def test_pg_dense_crossings_give_the_certified_rows():
    # The rows are certified without a chain; the dense fallback must give
    # them too, each start at its own row.
    starts = [128, 0, 64, 8, 32, 16]
    reference = {shape: pg_mixing_demo(starts, shape=shape).rows for shape in (1.0, 2.0)}
    for shape, rows in reference.items():
        dense = scan_compare._pg_dense_crossings(PoissonGammaFamily(shape=shape), starts, 0.01)
        assert list(dense) == [row.exact_min_steps for row in rows]


def _smallest_x_max(shape, rate):
    """The smallest truncation the Poisson-gamma constructor accepts."""
    low, high = 1, 64
    while True:
        try:
            PoissonGammaFamily(shape=shape, rate=rate, x_max=high)
            break
        except TruncationError:
            low, high = high, 2 * high
    while low + 1 < high:
        middle = (low + high) // 2
        try:
            PoissonGammaFamily(shape=shape, rate=rate, x_max=middle)
            high = middle
        except TruncationError:
            low = middle
    return high


def _dense_crossings(fam, starts, targets):
    """Per target, each start's first step at or below it on the dense chain."""
    matrix, stationary = pg_xchain(fam)
    chunks = []
    for chunk in numerics.iterate_tv(matrix, stationary, starts, MAX_COMPARE_STEPS):
        chunks.append(chunk)
        if (chunk <= min(targets)).all():
            break
    curve = np.concatenate(chunks)
    return {
        target: [first_crossing(curve[:, i], target) for i in range(len(starts))]
        for target in targets
    }


def test_pg_dense_loop_stops_across_the_advertised_range(stepwise_tv):
    # Each prior at its smallest valid truncation, with three starts run
    # together so that their laws repeat at different steps.  The loop must
    # stop, and its curve, through the stop and 16 steps of the repeat that
    # fills the rest, is the unstopped loop's bit for bit; the pg-demo
    # fallback crosses 0.01 where the unstopped loop does.
    stops = {}
    for shape, rate in [*itertools.product((0.001, 0.5, 1.0, 2.0, 50.0), (1.0, 5.0)), (1.0, 0.2)]:
        fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=_smallest_x_max(shape, rate))
        starts = [0, fam.x_max // 4, fam.x_max // 2]
        matrix, stationary = pg_xchain(fam)
        chunks = list(numerics.iterate_tv(matrix, stationary, starts, MAX_COMPARE_STEPS))
        stop = len(chunks) - 1
        assert [len(chunk) for chunk in chunks[:-1]] == [1] * stop, (shape, rate)
        assert len(chunks[-1]) == MAX_COMPARE_STEPS + 1 - stop > 1, (shape, rate)
        tvs, _ = stepwise_tv(matrix, stationary, starts, stop + 16)
        np.testing.assert_array_equal(np.concatenate(chunks)[: stop + 17], tvs)
        crossings = [first_crossing(tvs[:, i], 0.01) for i in range(len(starts))]
        assert list(scan_compare._pg_dense_crossings(fam, starts, 0.01)) == crossings
        stops[shape, rate] = stop
    # The search compares each step with the last power of two, so a stop
    # lands just past one: 513 at rate 0.2 (2982 states), 33 to 36 or 129 to
    # 133 for the rest, with the BLAS kernels measured.
    assert max(stops.values()) <= 1024


@pytest.mark.parametrize("rate", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("shape", [0.5, 1.0, 2.0, 3.0])
def test_pg_certified_crossings_match_the_dense_chain(shape, rate):
    # Every crossing the Meixner certificate decides is the dense one, from
    # the smallest valid truncation up to 1600, with starts up to x_max/2.
    # At the second target, 1 - m(0)/2, start 0 crosses at step 0.
    smallest = _smallest_x_max(shape, rate)
    if smallest < 1600:
        x_maxes = [smallest, round(math.sqrt(smallest * 1600)), 1600]
    else:  # rate 0.2 needs about 3000 states
        x_maxes = [smallest]
    step0 = 1.0 - 0.5 * (rate / (1.0 + rate)) ** shape
    for x_max in x_maxes:
        fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
        margin = x_max // 2
        starts = [j for j in (0, 1, 2, 3, 5, 8, 16, 32, 64, 128) if j < margin // 2]
        starts += [margin // 2, margin]
        dense = _dense_crossings(fam, starts, (0.01, step0))
        for target, reference in dense.items():
            certified = _pg_certified_crossings(fam, starts, target)
            for start, steps, expected in zip(starts, certified, reference):
                assert steps in (-1, expected), (x_max, target, start)
            if target == 0.01:
                # Starts near the bulk of m are always decided.
                assert all(steps >= 0 for start, steps in zip(starts, certified) if start <= 64)
        assert _pg_certified_crossings(fam, [0], step0)[0] == 0 == dense[step0][0]


def test_pg_demo_builds_no_chain_for_certified_starts(monkeypatch, capsys):
    def refuse(fam):
        raise AssertionError("pg_xchain called")

    monkeypatch.setattr(scan_compare, "pg_xchain", refuse)
    demo = pg_mixing_demo([0, 8, 16, 32, 64, 128])
    assert [row.exact_min_steps for row in demo.rows] == [5, 8, 9, 10, 11, 12]
    assert cli.main(["pg-demo"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == demo.to_jsonable()
    for x_max in (437, 747, 1001, 1600):
        for shape in (1.0, 2.0):
            assert pg_mixing_demo([0, 8, 16, 32, 64, 128], shape=shape, x_max=x_max).rows


@pytest.mark.parametrize(
    "shape, rate, x_max, starts, expected",
    [
        (0.5, 3.0, 1200, [0, 500, 560], [(0, 2, 4), (500, 8, 255), (560, 8, 285)]),
        (3.0, 2.0, 1488, [0, 703, 744], [(0, 4, 5), (703, 9, 351), (744, 9, 372)]),
    ],
)
def test_pg_demo_far_starts_take_the_dense_fallback(monkeypatch, shape, rate, x_max, starts,
                                                    expected):
    # Their stationary mass underflows a float, so the Christoffel tail is
    # astronomically large and only start 0 is certified.
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    assert list(_pg_certified_crossings(fam, starts, 0.01)) == [expected[0][1], -1, -1]
    dense = _dense_crossings(fam, starts, (0.01,))[0.01]
    assert dense == [steps for _, steps, _ in expected]
    fallback = []
    dense_crossings = scan_compare._pg_dense_crossings

    def spy(fam, starts, target):
        fallback.append(list(starts))
        return dense_crossings(fam, starts, target)

    monkeypatch.setattr(scan_compare, "_pg_dense_crossings", spy)
    rows = pg_mixing_demo(starts, shape=shape, rate=rate, x_max=x_max).rows
    assert [tuple(dataclasses.astuple(row)) for row in rows] == expected
    assert fallback == [starts[1:]]


def test_pg_demo_validation():
    with pytest.raises(ParameterError, match="start-too-deep"):
        pg_mixing_demo([201])
    with pytest.raises(ParameterError):
        pg_mixing_demo([])
    with pytest.raises(ParameterError, match="start-too-deep"):
        pg_mixing_demo([-1])
    for start in (None, "8", 8.0, True):
        with pytest.raises(ParameterError, match="start state must be an integer"):
            pg_mixing_demo([0, start])


def test_pg_demo_names_the_value_its_dense_curve_stays_at(monkeypatch, count_products, capsys):
    # At 1e-20 the certificate decides no start, and the scaled laws of
    # both starts repeat within a few hundred steps, the curves near 1e-16:
    # the refusal names the lowest value start 0 repeats, not the horizon.
    build = scan_compare.pg_xchain

    def counted(fam):
        matrix, stationary = build(fam)
        return count_products(matrix), stationary

    monkeypatch.setattr(scan_compare, "pg_xchain", counted)
    message = (r"target-not-reached: the exact TV from start 0 never reaches the target 1e-20: "
               r"from step \d+ on it repeats values no lower than \d\.\d\de-1[67]")
    with pytest.raises(NoSolutionError, match=f"^{message}$"):
        pg_mixing_demo([0, 8], target=1e-20)
    assert 0 < len(count_products.shapes) < 1000
    assert cli.main(["pg-demo", "--j-list", "0,8", "--target", "1e-20"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {message}\n", err), err


def test_pg_demo_chisq_reads_the_meixner_rate_and_log_stationary():
    fam = PoissonGammaFamily(shape=0.5, rate=3.0)
    demo = pg_mixing_demo([0, 8, 100], shape=0.5, rate=3.0)
    assert demo.decay_rate == fam.meixner_eigenvalue(1)
    for row in demo.rows:
        assert row.chisq_min_steps == chisq_min_steps_pg(
            row.start, pg_log_stationary(fam), 0.01, 0.25
        )


def test_pg_demo_nonflat_rate_resolves_decay_rate():
    # The second eigenvalue is 1/(rate + 1) for every shape: doubling the
    # prior rate shrinks it to 1/3, which the demo must pick up automatically.
    assert pg_mixing_demo([0, 4], rate=2.0).decay_rate == 1.0 / 3.0
    assert pg_mixing_demo([0, 4], shape=2.0).decay_rate == 0.5


def test_pg_demo_serialization():
    demo = pg_mixing_demo([0, 8])
    lines = demo.to_csv().splitlines()
    assert lines[0] == "start,exact_min_steps,chisq_min_steps"
    assert lines[1] == "0,5,8"
    payload = demo.to_jsonable()
    assert payload["rows"][1] == {"start": 8, "exact_min_steps": 8, "chisq_min_steps": 12}
    assert json.loads(demo.to_json()) == payload


def test_report_to_json_is_json_dumps_of_to_jsonable(compare100):
    # The row tables are written by one %-template per row; the bytes must be
    # those of json.dumps over the whole rounded payload.
    with_decay = compare(n=16, max_steps=300, decay_samples=1000, seed=3)
    for report in (compare100, with_decay, pg_mixing_demo([0, 8, 64])):
        text = report.to_json()
        assert text.splitlines() == json.dumps(report.to_jsonable(), indent=2).splitlines()
        assert text.endswith("}\n")
    assert len(with_decay.to_jsonable()["decay_check"]) == len(DECAY_CHECK_STEPS)
