"""End-to-end acceptance checks, one per headline claim.

Each test prints one PASS/FAIL line through the ``acceptance`` fixture
before asserting, so the terminal summary carries the whole scoreboard
even on partial failure.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from gibbsrates import (
    BetaBinomialFamily,
    JointState,
    RosenthalParams,
    ScanStrategy,
    alpha_multipliers,
    argmax_gap,
    bb_drift_minorization,
    bb_eigenfunction_phi,
    bb_xchain,
    binomial_tail_le,
    collapse_census,
    eigenfunction_decay,
    pg_geometric_reference,
    pg_mixing_demo,
    random_scan_rate,
    random_scan_upper,
    rebuild_random_scan_upper,
    reversible_spectrum,
    rosenthal_min_steps,
    scan_eigenvalue_pair,
    scan_time_ratio,
)


@pytest.fixture(scope="module")
def headline_solution():
    """Timed drift/minorization minimal step count for the n=100 chain."""
    cert = bb_drift_minorization(BetaBinomialFamily(n=100), x0=0)
    params = RosenthalParams(d=1000.0, r=0.001)
    begin = time.perf_counter()
    steps = rosenthal_min_steps(cert, params, 0.01)
    elapsed = time.perf_counter() - begin
    return steps, elapsed


def test_c01_drift_minorization_headline(acceptance, headline_solution):
    steps, elapsed = headline_solution
    log10_steps = math.log10(steps)
    ok = 33.0 <= log10_steps <= 34.5 and elapsed < 1.0
    acceptance(
        f"C01 {'PASS' if ok else 'FAIL'}: drift/minorization needs 10^"
        f"{log10_steps:.4f} sweeps (window [33.0, 34.5]), solved in {elapsed:.3f} s"
    )
    assert 33.0 <= log10_steps <= 34.5
    assert elapsed < 1.0


def test_c02_two_term_crossing(acceptance):
    from gibbsrates import two_term_bound, two_term_min_steps

    steps = two_term_min_steps(0.99986, 0.998497, 2.0, 0.01)
    value_at_34000 = two_term_bound(0.99986, 0.998497, 2.0, 34000)
    ok = 32850 <= steps <= 32950 and value_at_34000 <= 0.01
    acceptance(
        f"C02 {'PASS' if ok else 'FAIL'}: two-term bound crosses 0.01 at "
        f"{steps} steps (window [32850, 32950]); value at 34000 steps = "
        f"{value_at_34000:.6f} <= 0.01"
    )
    assert 32850 <= steps <= 32950
    assert value_at_34000 <= 0.01


def test_c03_bound_versus_exact_contrast(acceptance, compare100, headline_solution):
    exact_steps = compare100.min_steps["exact"]
    bound_steps, _ = headline_solution
    ratio = bound_steps / exact_steps
    ok = 150 <= exact_steps <= 400 and ratio >= 1e30
    acceptance(
        f"C03 {'PASS' if ok else 'FAIL'}: exact worst-start mixing takes "
        f"{exact_steps} sweeps (window [150, 400]); generic bound overshoots "
        f"by a factor 10^{math.log10(ratio):.1f} (>= 10^30)"
    )
    assert 150 <= exact_steps <= 400
    assert ratio >= 1e30


def test_c04_second_eigenpair_all_n(acceptance):
    worst_gap = 0.0
    worst_residual = 0.0
    for n in range(1, 51):
        matrix, stationary = bb_xchain(BetaBinomialFamily(n=n))
        eigs = reversible_spectrum(matrix, stationary)
        worst_gap = max(worst_gap, abs(eigs[1] - n / (n + 2.0)))
        phi = np.arange(n + 1) - n / 2.0
        residual = matrix.entries @ phi - (n / (n + 2.0)) * phi
        worst_residual = max(worst_residual, float(np.max(np.abs(residual))))
    matrix2, stationary2 = bb_xchain(BetaBinomialFamily(n=2))
    spectrum2 = reversible_spectrum(matrix2, stationary2)
    spectrum_err = float(np.max(np.abs(spectrum2 - np.array([1.0, 0.5, 0.1]))))
    ok = worst_gap <= 1e-10 and worst_residual <= 1e-10 and spectrum_err <= 1e-10
    acceptance(
        f"C04 {'PASS' if ok else 'FAIL'}: second eigenvalue equals n/(n+2) "
        f"for n=1..50 (max error {worst_gap:.1e}), eigenvector residual "
        f"{worst_residual:.1e}, n=2 spectrum (1, 0.5, 0.1) error {spectrum_err:.1e}"
    )
    assert worst_gap <= 1e-10
    assert worst_residual <= 1e-10
    assert spectrum_err <= 1e-10


def test_c05_scan_weight_spectrum(acceptance):
    alphas = np.linspace(0.0, 1.0, 100)
    qs = np.linspace(0.0, 0.99, 100)
    worst_sum = 0.0
    worst_product = 0.0
    for alpha in alphas:
        for q in qs:
            plus, minus = scan_eigenvalue_pair(float(alpha), float(q))
            worst_sum = max(worst_sum, abs(plus + minus - 1.0))
            worst_product = max(
                worst_product,
                abs(plus * minus - float(alpha) * (1.0 - float(alpha)) * (1.0 - float(q))),
            )
    argmax_err = max(abs(argmax_gap(q).alpha_star - 0.5) for q in (0.1, 0.5, 0.98))
    top = scan_eigenvalue_pair(0.5, 100.0 / 102.0)[0]
    top_err = abs(top - 0.995074)
    ok = (
        worst_sum <= 1e-12
        and worst_product <= 1e-12
        and argmax_err <= 1e-6
        and top_err <= 1e-6
    )
    acceptance(
        f"C05 {'PASS' if ok else 'FAIL'}: eigenvalue pair identities hold on a "
        f"100x100 grid (sum error {worst_sum:.1e}, product error "
        f"{worst_product:.1e}); gap argmax at 0.5 +/- {argmax_err:.1e}; "
        f"balanced n=100 top eigenvalue off by {top_err:.1e}"
    )
    assert worst_sum <= 1e-12
    assert worst_product <= 1e-12
    assert argmax_err <= 1e-6
    assert top_err <= 1e-6


def test_c06_word_census_combinatorics(acceptance):
    count_ok = True
    total_ok = True
    multiplier_ok = True
    for length in range(1, 15):
        census = collapse_census(length)
        for word, count in census.counts.items():
            if count != math.comb(length - 1, len(word) - 1):
                count_ok = False
        if census.total != 2**length:
            total_ok = False
        for multiplier in alpha_multipliers(length):
            expected = Fraction(census.counts[multiplier.word], 2**length)
            if multiplier.evaluate_exact(Fraction(1, 2)) != expected:
                multiplier_ok = False
    branch = collapse_census(3).by_name()
    branch_ok = (
        [branch["P1"], branch["P1P2"], branch["P1P2P1"]] == [1, 2, 1]
        and [branch["P2"], branch["P2P1"], branch["P2P1P2"]] == [1, 2, 1]
    )
    ok = count_ok and total_ok and multiplier_ok and branch_ok
    acceptance(
        f"C06 {'PASS' if ok else 'FAIL'}: exhaustive census to length 14 "
        f"matches binomial run counts exactly, totals 2^l, length-3 branches "
        f"are (1, 2, 1), and balanced multipliers equal census/2^l in exact "
        f"rational arithmetic"
    )
    assert count_ok and total_ok and multiplier_ok and branch_ok


def test_c07_quarter_tail_inequality(acceptance):
    worst_ratio = 0.0
    holds = True
    for flips in range(1, 65):
        tail = binomial_tail_le(flips, flips // 4)
        bound = math.exp(-flips / 8.0)
        if float(tail) > bound:
            holds = False
        worst_ratio = max(worst_ratio, float(tail) / bound)
    acceptance(
        f"C07 {'PASS' if holds else 'FAIL'}: exact quarter-tail probability "
        f"stays below e^(-l/8) for l = 1..64 (worst tail/bound ratio "
        f"{worst_ratio:.3f})"
    )
    assert holds


def test_c08_bound_reconstruction_and_validity(acceptance):
    # Part 1: the census-sum form of the random-scan bound equals the
    # closed form wherever the bound is valid.
    worst_rel = 0.0
    for n in range(2, 41):
        gate = math.ceil(3 * n / 4)
        for steps in range(gate, 201):
            rebuilt = rebuild_random_scan_upper(n, steps)
            closed = random_scan_upper(n, steps)
            worst_rel = max(worst_rel, abs(rebuilt - closed) / abs(closed))
    # Part 2: the systematic-sweep bound dominates the exact worst-row TV
    # on its entire validity range.
    worst_slack = -math.inf
    for n in range(4, 61):
        matrix, stationary = bb_xchain(BetaBinomialFamily(n=n))
        kernel = matrix.entries
        pi = stationary.weights
        gate = math.ceil(3 * n / 16)
        q = 1.0 - 2.0 / (n + 2.0)
        powers = np.eye(n + 1)
        for steps in range(1, 201):
            powers = powers @ kernel
            if steps < gate:
                continue
            tv = 0.5 * float(np.abs(powers - pi).sum(axis=1).max())
            worst_slack = max(worst_slack, tv - 10.0 * q**steps)
    ok = worst_rel <= 1e-9 and worst_slack <= 1e-9
    acceptance(
        f"C08 {'PASS' if ok else 'FAIL'}: census-sum bound matches the closed "
        f"form within rel {worst_rel:.1e} for n=2..40; systematic bound "
        f"dominates exact TV for n=4..60 (worst excess {worst_slack:.1e})"
    )
    assert worst_rel <= 1e-9
    assert worst_slack <= 1e-9


def test_c09_random_scan_needs_twice_the_time(acceptance):
    ratios = {n: scan_time_ratio(n) for n in (50, 100, 200)}
    ok = all(1.9 <= value <= 2.1 for value in ratios.values())
    formatted = ", ".join(f"n={n}: {value:.4f}" for n, value in ratios.items())
    acceptance(
        f"C09 {'PASS' if ok else 'FAIL'}: work-adjusted random-to-systematic "
        f"time ratio sits in [1.9, 2.1] ({formatted})"
    )
    for value in ratios.values():
        assert 1.9 <= value <= 2.1


def test_c10_poisson_gamma_demo(acceptance, pg_default):
    fam, matrix, stationary = pg_default
    reference = pg_geometric_reference(fam)
    stationary_tv = 0.5 * float(np.abs(stationary.weights - reference.weights).sum())
    eigs = reversible_spectrum(matrix, stationary)
    eig_err = abs(eigs[1] - 0.5)
    demo = pg_mixing_demo([8, 16, 32, 64, 128])
    exact = [row.exact_min_steps for row in demo.rows]
    chisq = [row.chisq_min_steps for row in demo.rows]
    exact_increments = [b - a for a, b in zip(exact, exact[1:])]
    chisq_increments = [b - a for a, b in zip(chisq, chisq[1:])]
    ok = (
        stationary_tv <= 1e-8
        and eig_err <= 1e-6
        and all(inc <= 3 for inc in exact_increments)
        and all(inc >= 4 for inc in chisq_increments)
    )
    acceptance(
        f"C10 {'PASS' if ok else 'FAIL'}: stationary law within {stationary_tv:.1e} "
        f"TV of the geometric, second eigenvalue 0.5 +/- {eig_err:.1e}; per "
        f"doubling of the start, exact steps grow by {exact_increments} (<= 3) "
        f"and chi-square steps by {chisq_increments} (>= 4)"
    )
    assert stationary_tv <= 1e-8
    assert eig_err <= 1e-6
    assert all(inc <= 3 for inc in exact_increments)
    assert all(inc >= 4 for inc in chisq_increments)


def test_c11_monte_carlo_eigenfunction_decay(acceptance):
    begin = time.perf_counter()
    cells = 0
    misses = []
    for n in (1, 10):
        fam = BetaBinomialFamily(n=n)
        start = JointState(x=n, theta=1.0)
        phi0 = bb_eigenfunction_phi(fam, n, 1.0)
        rate = random_scan_rate(n)
        for steps in range(1, 21):
            estimate, std_error = eigenfunction_decay(
                fam,
                start,
                ScanStrategy.random_scan(0.5),
                steps,
                samples=100_000,
                seed=7000 + 100 * n + steps,
            )
            cells += 1
            predicted = rate**steps * phi0
            if abs(estimate - predicted) > 3.0 * std_error:
                misses.append((n, steps))
    elapsed = time.perf_counter() - begin
    ok = cells == 40 and len(misses) <= 2 and elapsed < 120.0
    acceptance(
        f"C11 {'PASS' if ok else 'FAIL'}: Monte Carlo eigenfunction decay "
        f"matches the spectral prediction within 3 standard errors in "
        f"{cells - len(misses)}/{cells} cells (need >= 38/40; misses: "
        f"{misses or 'none'}) in {elapsed:.1f} s"
    )
    assert cells == 40
    assert len(misses) <= 2
    assert elapsed < 120.0
