"""Conjugate-family chain builders, certificates, and spectral data."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import betabinom

import gibbsrates
from gibbsrates import cli, families
from gibbsrates import (
    BetaBinomialFamily,
    ConvergenceError,
    LogMagnitude,
    ParameterError,
    PoissonGammaFamily,
    SpectralData,
    TruncationError,
    UnsupportedPriorError,
    bb_drift_minorization,
    bb_eigenfunction_phi,
    bb_spectral_data,
    bb_xchain,
    gram_basis,
    meixner_basis,
    pg_geometric_reference,
    pg_log_stationary,
    pg_mixing_demo,
    pg_spectral_data,
    pg_xchain,
    reversible_spectrum,
    stationary_distribution,
)


# ---------------------------------------------------------------------------
# BetaBinomialFamily
# ---------------------------------------------------------------------------


def test_bb_validation():
    with pytest.raises(ParameterError):
        BetaBinomialFamily(n=0)
    with pytest.raises(ParameterError):
        BetaBinomialFamily(n=2.5)
    with pytest.raises(ParameterError):
        BetaBinomialFamily(n=2, a=0.0)
    with pytest.raises(ParameterError):
        BetaBinomialFamily(n=2, b=-1.0)
    fam = BetaBinomialFamily(n=3)
    assert fam.has_flat_prior
    assert not BetaBinomialFamily(n=3, a=2.0).has_flat_prior


@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_bb_rejects_a_non_finite_prior_shape(name, value):
    with pytest.raises(ParameterError) as info:
        BetaBinomialFamily(n=3, **{name: value})
    assert str(info.value) == f"prior shape {name} must be a positive finite number, got {value}"


def test_bb_require_flat_prior():
    fam = BetaBinomialFamily(n=3, a=2.0)
    with pytest.raises(UnsupportedPriorError, match="unsupported-prior"):
        fam.require_flat_prior("certificate")


def test_bb_check_methods():
    fam = BetaBinomialFamily(n=3)
    fam.check_x(np.array([0, 3, 1]))
    fam.check_theta(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ParameterError):
        fam.check_x(np.array([0.5]))
    with pytest.raises(ParameterError):
        fam.check_x(np.array([4]))
    with pytest.raises(ParameterError):
        fam.check_x(np.array([-1]))
    with pytest.raises(ParameterError):
        fam.check_x(np.array([], dtype=int))
    with pytest.raises(ParameterError):
        fam.check_theta(np.array([1.5]))
    with pytest.raises(ParameterError):
        fam.check_theta(np.array([]))


def test_bb_draws_respect_domains():
    fam = BetaBinomialFamily(n=5)
    rng = np.random.default_rng(11)
    theta = fam.draw_theta(rng, np.arange(6))
    assert theta.shape == (6,)
    assert np.all((theta >= 0.0) & (theta <= 1.0))
    x = fam.draw_x(rng, theta)
    assert x.shape == (6,)
    fam.check_x(x)


# ---------------------------------------------------------------------------
# bb_xchain
# ---------------------------------------------------------------------------


def test_bb_xchain_n1_closed_form():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=1))
    expected = np.array([[2.0 / 3.0, 1.0 / 3.0], [1.0 / 3.0, 2.0 / 3.0]])
    np.testing.assert_allclose(matrix.entries, expected, rtol=1e-12)
    np.testing.assert_allclose(stationary.weights, [0.5, 0.5], rtol=1e-12)


def test_bb_xchain_n2_closed_form():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=2))
    expected = np.array(
        [
            [0.6, 0.3, 0.1],
            [0.3, 0.4, 0.3],
            [0.1, 0.3, 0.6],
        ]
    )
    np.testing.assert_allclose(matrix.entries, expected, rtol=1e-12)
    np.testing.assert_allclose(stationary.weights, [1 / 3] * 3, rtol=1e-12)


@pytest.mark.parametrize("n, a, b", [(1, 1.0, 1.0), (300, 0.5, 2.5), (300, 3.0, 0.7), (2000, 1.0, 1.0)])
def test_bb_xchain_entries_match_the_entrywise_formula_bit_for_bit(n, a, b):
    # The Hankel build evaluates betaln once per sum x + x'; entry by entry
    # it is the same floating-point formula.
    from scipy.special import betaln, gammaln

    x = np.arange(n + 1, dtype=float)
    xc, xp = x[:, None], x[None, :]
    rows = gammaln(n + 1) - gammaln(xp + 1) - gammaln(n - xp + 1)
    rows = rows + betaln(xc + xp + a, 2 * n - xc - xp + b)
    rows = np.exp(rows - rows.max(axis=1, keepdims=True))
    rows /= rows.sum(axis=1, keepdims=True)
    np.testing.assert_array_equal(bb_xchain(BetaBinomialFamily(n=n, a=a, b=b))[0].entries, rows)


@pytest.mark.parametrize("n", [235, 511, 724, 2000])
def test_bb_xchain_matches_betabinomial_rows(n):
    # Row x is the beta-binomial(n, 1 + x, 1 + n - x) law of the next state.
    matrix, _ = bb_xchain(BetaBinomialFamily(n=n))
    x = np.arange(n + 1)
    rows = betabinom.pmf(x[None, :], n, 1.0 + x[:, None], 1.0 + n - x[:, None])
    rows /= rows.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(matrix.entries, rows, rtol=1e-11, atol=1e-15)


def test_bb_xchain_nonflat_prior_invariance():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=7, a=2.0, b=3.0))
    pi = stationary.weights
    np.testing.assert_allclose(pi @ matrix.entries, pi, atol=1e-13)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_bb_xchain_second_eigenpair(n):
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=n))
    eigs = reversible_spectrum(matrix, stationary)
    assert eigs[1] == pytest.approx(n / (n + 2.0), abs=1e-10)
    # (x - n/2) is the exact eigenfunction at that eigenvalue.
    phi = np.arange(n + 1) - n / 2.0
    residual = matrix.entries @ phi - (n / (n + 2.0)) * phi
    assert np.max(np.abs(residual)) <= 1e-10


def test_bb_xchain_n2_full_spectrum():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=2))
    eigs = reversible_spectrum(matrix, stationary)
    np.testing.assert_allclose(eigs, [1.0, 0.5, 0.1], atol=1e-12)


# ---------------------------------------------------------------------------
# bb_drift_minorization
# ---------------------------------------------------------------------------


def test_bb_certificate_fields():
    cert = bb_drift_minorization(BetaBinomialFamily(n=100), x0=0)
    assert cert.lam == 100.0 / 102.0
    assert cert.b == 100.0 / 102.0
    assert isinstance(cert.epsilon, LogMagnitude)
    assert cert.epsilon.log_value == -100.0 * math.log(2.0)
    assert cert.v_x0 == 0.0
    assert bb_drift_minorization(BetaBinomialFamily(n=100), x0=40).v_x0 == 40.0


def test_bb_certificate_guards():
    with pytest.raises(UnsupportedPriorError, match="unsupported-prior"):
        bb_drift_minorization(BetaBinomialFamily(n=10, a=2.0), x0=0)
    with pytest.raises(ParameterError):
        bb_drift_minorization(BetaBinomialFamily(n=10), x0=11)
    with pytest.raises(ParameterError):
        bb_drift_minorization(BetaBinomialFamily(n=10), x0=-1)


# ---------------------------------------------------------------------------
# bb_spectral_data
# ---------------------------------------------------------------------------


def test_bb_spectral_data_small():
    data = bb_spectral_data(BetaBinomialFamily(n=5))
    assert len(data.levels) == 5
    mu, eta = data.factors
    assert mu == pytest.approx(5.0)
    assert eta == pytest.approx(1.0 / 7.0)
    assert data.levels[0].product == pytest.approx(5.0 / 7.0, rel=1e-12)
    assert data.cutoff == 6
    assert "p1(x) = x - n/2" in data.basis_note
    assert np.all(np.diff(data.levels.product) <= 0.0)
    # The levels are a read-only record array; each item still has .product.
    assert [level.product for level in data.levels] == data.levels.product.tolist()
    with pytest.raises(ValueError):
        data.levels.product[0] = 0.5


# The closed-form products must reproduce the numeric spectrum of the built
# chain on every level.
REFERENCE_SPECTRUM_TOL = 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 13, 100, 234, 235, 600])
def test_bb_spectral_data_matches_numeric_spectrum(n):
    fam = BetaBinomialFamily(n=n)
    products = bb_spectral_data(fam).levels.product
    eigs = reversible_spectrum(*bb_xchain(fam))
    np.testing.assert_allclose(products, eigs[1:], rtol=0.0, atol=REFERENCE_SPECTRUM_TOL)


@pytest.mark.parametrize("n", [235, 600, 1000, 2000])
def test_bb_spectral_data_answers_beyond_the_built_chain(n):
    # The closed form needs no chain, so it answers at sizes where building
    # and eigensolving one would be slow.
    data = bb_spectral_data(BetaBinomialFamily(n=n))
    assert len(data.levels) == n
    assert data.cutoff == n + 1
    assert data.levels[0].product == n / (n + 2.0)
    assert data.factors == (n, 1.0 / (n + 2.0))


def _hahn_reference(n: int) -> list[float]:
    """prod_{i<k} (n - i)/(n + 2 + i), k = 1..n, multiplied out one float at a time."""
    products, running = [], 1.0
    for i in range(n):
        running *= (n - i) / (n + 2.0 + i)
        products.append(running)
    return products


def test_bb_spectral_data_matches_the_closed_form_at_the_top_of_the_range():
    # n = 2000 is the largest compare accepts; the products underflow to 0
    # well before level n, and stay non-increasing throughout.
    n = 2000
    products = bb_spectral_data(BetaBinomialFamily(n=n)).levels.product
    assert products.shape == (n,)
    assert products.tolist() == _hahn_reference(n)
    assert np.all(np.diff(products) <= 0.0)
    assert products[-1] == 0.0 < products[0]


def test_pg_spectral_data_matches_the_closed_form_at_a_large_truncation():
    # Near the smallest rate this truncation admits, so the products run
    # through the subnormal range (to within 2 of its ulps) down to 0.
    fam = PoissonGammaFamily(shape=1.0, rate=0.2, x_max=5000)
    data = pg_spectral_data(fam)
    products = data.levels.product
    assert products.shape == (fam.x_max,)
    assert data.cutoff is None and data.factors is None
    reference = [1.2**-k for k in range(1, fam.x_max + 1)]
    np.testing.assert_allclose(products, reference, rtol=2 * families.EPS, atol=1e-323)
    assert products[-1] == 0.0
    assert np.all(np.diff(products) <= 0.0)
    assert products[0] == fam.meixner_eigenvalue(1)


def test_bb_spectral_data_flat_only():
    with pytest.raises(UnsupportedPriorError):
        bb_spectral_data(BetaBinomialFamily(n=5, b=2.0))


# ---------------------------------------------------------------------------
# bb_eigenfunction_phi
# ---------------------------------------------------------------------------


def test_phi_frozen_corner_value():
    fam = BetaBinomialFamily(n=1)
    value = bb_eigenfunction_phi(fam, 1, 1.0)
    assert isinstance(value, float)
    assert value == pytest.approx(1.3660254037844386, rel=1e-15)
    # Explicit form: (x - n/2) + sqrt(n(n+2)) (theta - 1/2).
    assert value == pytest.approx(0.5 + math.sqrt(3.0) / 2.0, rel=1e-15)


def test_phi_broadcasts():
    fam = BetaBinomialFamily(n=4)
    x = np.array([0, 2, 4])
    theta = np.array([0.25, 0.5, 0.75])
    values = bb_eigenfunction_phi(fam, x, theta)
    expected = (x - 2.0) + math.sqrt(24.0) * (theta - 0.5)
    np.testing.assert_allclose(values, expected, rtol=1e-14)


def test_phi_domain_errors():
    fam = BetaBinomialFamily(n=4)
    with pytest.raises(ParameterError):
        bb_eigenfunction_phi(fam, 5, 0.5)
    with pytest.raises(ParameterError):
        bb_eigenfunction_phi(fam, 2, 1.5)
    with pytest.raises(UnsupportedPriorError):
        bb_eigenfunction_phi(BetaBinomialFamily(n=4, a=3.0), 2, 0.5)


# ---------------------------------------------------------------------------
# PoissonGammaFamily
# ---------------------------------------------------------------------------


def test_pg_validation():
    with pytest.raises(ParameterError):
        PoissonGammaFamily(shape=0.0)
    with pytest.raises(ParameterError):
        PoissonGammaFamily(rate=-1.0)
    with pytest.raises(ParameterError):
        PoissonGammaFamily(x_max=0)
    with pytest.raises(TruncationError, match="truncation-too-small"):
        PoissonGammaFamily(x_max=10)
    fam = PoissonGammaFamily()
    assert fam.x_max == 400
    assert fam.has_flat_shape
    assert not PoissonGammaFamily(shape=2.0).has_flat_shape


@pytest.mark.parametrize("name", ["shape", "rate"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_pg_rejects_a_non_finite_gamma_parameter(name, value):
    with pytest.raises(ParameterError) as info:
        PoissonGammaFamily(**{name: value})
    assert str(info.value) == f"gamma {name} must be a positive finite number, got {value}"


def test_pg_check_methods():
    fam = PoissonGammaFamily()
    fam.check_x(np.array([0, 17, 400]))
    fam.check_theta(np.array([0.1, 5.0]))
    # Simulation states are untruncated: anything nonnegative passes.
    fam.check_x(np.array([401]))
    with pytest.raises(ParameterError):
        fam.check_x(np.array([-1]))
    with pytest.raises(ParameterError):
        fam.check_x(np.array([1.5]))
    with pytest.raises(ParameterError):
        fam.check_theta(np.array([0.0]))


def test_pg_xchain_row_zero_closed_form(pg_default):
    # From x = 0 the next x is geometric: P(x') = (2/3) (1/3)^x'.
    _, matrix, _ = pg_default
    x_prime = np.arange(31)
    expected = (2.0 / 3.0) * (1.0 / 3.0) ** x_prime
    np.testing.assert_allclose(matrix.entries[0, :31], expected, rtol=1e-9)


@pytest.mark.parametrize("shape", [0.001, 0.3, 1.0, 2.0, 3.7])
def test_pg_xchain_entries_match_the_entrywise_formula_bit_for_bit(shape):
    # One log-gamma per distinct sum (shape + x) + x' gives the bits of
    # scipy's gammaln over the whole matrix; at shape 0.001, 684 of those
    # sums differ from shape + (x + x').
    from scipy.special import gammaln

    fam = PoissonGammaFamily(shape=shape, x_max=400)
    sigma = shape + np.arange(401.0)[:, None]
    xp = np.arange(401.0)[None, :]
    rows = gammaln(sigma + xp) - gammaln(sigma) - gammaln(xp + 1)
    rows += sigma * (math.log(2.0) - math.log(3.0))
    rows += xp * -math.log(3.0)
    rows = np.exp(rows)
    rows /= rows.sum(axis=1, keepdims=True)
    odd = np.count_nonzero(sigma + xp != shape + (np.arange(401.0)[:, None] + xp))
    assert odd == (684 if shape == 0.001 else 0)
    np.testing.assert_array_equal(pg_xchain(fam)[0].entries, rows)


def _truncation_grid():
    """(x_max, shape, p) of both tails the constructor checks, on a grid of
    priors and truncations, with the smallest truncation each prior's law
    admits (by betainc) and its two neighbours."""
    from scipy.special import betainc

    cases = []
    for shape in (0.001, 0.3, 1.0, 2.0, 3.7, 10.0, 50.0):
        for rate in (0.05, 0.2, 1.0, 3.0):
            lo, hi = 1, 1 << 20
            while lo < hi:
                mid = (lo + hi) // 2
                if betainc(mid + 1, shape, 1.0 / (rate + 1.0)) < families.TRUNCATION_TOL:
                    hi = mid
                else:
                    lo = mid + 1
            for x_max in sorted({1, 5, 20, 100, 400, 1600, 5000, max(lo - 1, 1), lo, lo + 1}):
                cases.append((x_max, shape, rate / (rate + 1.0)))
                cases.append((x_max, x_max + shape, (rate + 1.0) / (rate + 2.0)))
    return cases


def test_truncation_tails_decide_as_betainc_does():
    from scipy.special import betainc

    decided, refused = 0, 0
    for x_max, shape, p in _truncation_grid():
        tail = families._nbinom_tail(x_max, shape, p)
        reference = float(betainc(x_max + 1, shape, 1.0 - p))
        assert (tail < families.TRUNCATION_TOL) == (reference < families.TRUNCATION_TOL)
        assert tail == pytest.approx(reference, rel=1e-10, abs=1e-300)
        decided += 1
        refused += reference >= families.TRUNCATION_TOL
    assert decided > 500 and 100 < refused < decided - 100


@pytest.mark.parametrize(
    "x_max, shape, p",
    [(400, 0.3, 1e-8), (10**5, 0.5, 1e-5), (400, 2.0, 5e-324), (400, 1.0, 1.0), (400, 1e6, 0.5),
     (10**6, 10**6 + 1.0, 0.5)],
)
def test_truncation_tails_at_extreme_priors(x_max, shape, p):
    # Slow decays, tails that hold the mode (taken as 1 - I_p(shape, x_max + 1))
    # and p at both ends of (0, 1].
    from scipy.special import betainc

    tail = families._nbinom_tail(x_max, shape, p)
    assert tail == pytest.approx(float(betainc(x_max + 1, shape, 1.0 - p)), rel=1e-8)


@pytest.mark.parametrize("x_max, rate", [(10**7, 1e-6), (10**8, 1e-7), (10**9, 1e-8)])
@pytest.mark.parametrize("shape", [0.5, 1.0])
def test_huge_truncations_are_refused_from_a_short_fraction(x_max, rate, shape):
    # A sum over the masses would take about x_max terms here.  The
    # fraction takes at most a few thousand steps; its prefactor's log-gammas
    # near x_max log x_max limit the agreement with betainc.
    from scipy.special import betainc

    with pytest.raises(TruncationError, match="truncation-too-small"):
        PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    for b, p in [(shape, rate / (rate + 1.0)), (x_max + shape, (rate + 1.0) / (rate + 2.0))]:
        reference = float(betainc(x_max + 1, b, 1.0 - p))
        assert families._nbinom_tail(x_max, b, p) == pytest.approx(reference, rel=1e-5)


@pytest.mark.parametrize("x_max", [1, 40, 5000])
@pytest.mark.parametrize("shape", [0.3, 2.0, None])
def test_truncation_tails_converge_across_the_symmetry_switch(x_max, shape):
    # At q = (a + 1) / (a + b + 2) the tail switches to 1 - I_p(b, a); it
    # must converge on both sides and stay continuous across the switch.
    # None stands for a row tail's shape, x_max + 1.5.
    from scipy.special import betainc

    a = x_max + 1.0
    b = a + 0.5 if shape is None else shape
    switch = (a + 1.0) / (a + b + 2.0)
    for q in (switch * (1.0 - 1e-9), math.nextafter(switch, 0.0), switch,
              math.nextafter(switch, 1.0), switch * (1.0 + 1e-9)):
        tail = families._nbinom_tail(x_max, b, 1.0 - q)
        assert tail == pytest.approx(float(betainc(a, b, q)), rel=1e-10)


def test_tiny_shapes_decide_as_betainc_does():
    # For a shape far below 1, the stationary tail past the symmetry switch
    # is a small 1 - I_p(b, a) and loses its relative accuracy.  The switch
    # needs rate < (shape + 1) / (x_max + 2), where the row tail holds about
    # half the mass, so the family's decision does not depend on it.
    from scipy.special import betainc

    for x_max, shape, rate in itertools.product(
        (3, 1000, 10**5), (1e-13, 1e-9, 1e-3), np.geomspace(1e-8, 10.0, 19)
    ):
        tails = [
            betainc(x_max + 1, shape, 1.0 / (rate + 1.0)),
            betainc(x_max + 1, x_max + shape, 1.0 / (rate + 2.0)),
        ]
        if max(tails) < families.TRUNCATION_TOL:
            PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
        else:
            with pytest.raises(TruncationError):
                PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)


def test_truncation_tail_past_its_step_cap_raises(monkeypatch):
    # With the sqrt(max(a, b)) part of the cap gone, 99 steps remain, and
    # this tail needs about 500.
    monkeypatch.setattr(families.math, "sqrt", lambda value: 0.0)
    with pytest.raises(ConvergenceError, match="did not converge in 99 steps"):
        families._nbinom_tail(10**6, 10**6 + 1.0, 0.5)


def test_pg_log_weights_are_computed_once_per_family():
    fam = PoissonGammaFamily(shape=0.3, x_max=600)
    weights = fam.log_weights
    meixner_basis(fam), pg_log_stationary(fam)
    assert fam.log_weights is weights and not weights.flags.writeable
    from scipy.special import gammaln

    x = np.arange(601.0)
    reference = gammaln(0.3 + x) - gammaln(x + 1.0) - x * math.log1p(1.0)
    assert weights.tobytes() == reference.tobytes()


def test_pg_stationary_matches_geometric_reference(pg_default):
    fam, _, stationary = pg_default
    reference = pg_geometric_reference(fam)
    assert 0.5 * np.abs(stationary.weights - reference.weights).sum() <= 1e-8
    assert reference.weights[0] == pytest.approx(0.5, abs=1e-12)
    ratios = reference.weights[1:10] / reference.weights[:9]
    np.testing.assert_allclose(ratios, 0.5, rtol=1e-12)


PG_RANGE = [
    (1.0, 1.0, 400),
    (2.0, 1.0, 700),
    (0.5, 1.0, 400),
    (0.5, 3.0, 400),
    (0.5, 3.0, 1200),
    (3.0, 2.0, 1600),
    (1.0, 1.0, 1600),
    (2.0, 1.0, 1600),
]


@pytest.mark.parametrize("shape, rate, x_max", PG_RANGE)
def test_pg_closed_form_stationary_law(shape, rate, x_max):
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    matrix, stationary = pg_xchain(fam)
    pi, entries = stationary.weights, matrix.entries
    np.testing.assert_array_equal(pi, np.exp(pg_log_stationary(fam)))
    assert np.abs(pi @ entries - pi).max() <= 1e-15
    flux = pi[:, None] * entries
    assert np.abs(flux - flux.T).max() <= 1e-15
    # Power iteration is the independent reference.
    reference = stationary_distribution(matrix).weights
    assert 0.5 * np.abs(pi - reference).sum() <= 1e-12


def test_pg_paths_run_no_iterative_solver(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("stationary_distribution called")

    for module in (gibbsrates, *vars(gibbsrates).values()):
        if getattr(module, "stationary_distribution", None) is stationary_distribution:
            monkeypatch.setattr(module, "stationary_distribution", refuse)
    assert pg_mixing_demo([0, 8, 16], shape=2.0, rate=3.0).rows
    out = str(tmp_path / "out.json")
    assert cli.main(["exact-tv", "--family", "pg", "--start", "8", "--steps-max", "40",
                     "--out", out]) == 0
    assert cli.main(["spectral", "--levels", "--family", "pg", "--out", out]) == 0


def test_pg_geometric_reference_flat_only():
    with pytest.raises(UnsupportedPriorError):
        pg_geometric_reference(PoissonGammaFamily(shape=2.0))


def test_pg_spectrum_is_dyadic(pg_default):
    fam, matrix, stationary = pg_default
    eigs = reversible_spectrum(matrix, stationary)
    for k in range(11):
        assert eigs[k] == pytest.approx(2.0**-k, abs=1e-9)


def test_pg_spectral_data(pg_default):
    fam, _, _ = pg_default
    data = pg_spectral_data(fam)
    assert data.cutoff is None
    assert "Meixner eigenvalues (1 + rate)^-k" in data.basis_note
    assert data.levels[0].product == pytest.approx(0.5, abs=1e-6)
    products = data.levels.product
    assert np.all(np.diff(products) <= 1e-12)
    assert np.all((products >= 0.0) & (products <= 1.0))


@pytest.mark.parametrize(
    "shape, rate", [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
)
def test_pg_spectral_data_matches_numeric_spectrum(shape, rate):
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=300)
    products = pg_spectral_data(fam).levels.product
    eigs = reversible_spectrum(*pg_xchain(fam))
    assert len(products) == fam.x_max
    np.testing.assert_allclose(products, eigs[1:], rtol=0.0, atol=REFERENCE_SPECTRUM_TOL)


def test_pg_nonflat_spectral_data_still_works():
    fam = PoissonGammaFamily(shape=2.0)
    data = pg_spectral_data(fam)
    assert 0.0 < data.levels[0].product < 1.0


# ---------------------------------------------------------------------------
# meixner_basis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape, rate, x_max", [*PG_RANGE, (1.0, 0.2, 2981), (3.0, 3.0, 57)])
def test_meixner_basis_gram_residual_within_tolerance(shape, rate, x_max):
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    basis = meixner_basis(fam)
    levels = basis.levels
    assert 8 <= levels <= families.BASIS_MAX_LEVEL
    assert basis.phi.shape == (levels + 1, x_max + 1)
    assert basis.gram_residual <= families.BASIS_GRAM_TOL
    gram = basis.phi @ basis.phi.T
    assert np.abs(gram - np.eye(levels + 1)).max() <= families.BASIS_GRAM_TOL
    # m is the untruncated law, log(1 - tail) below the truncated one.
    np.testing.assert_allclose(basis.log_mass, pg_log_stationary(fam), rtol=1e-14, atol=1e-12)
    np.testing.assert_array_equal(basis.phi[0], np.exp(0.5 * basis.log_mass))


@pytest.mark.parametrize("shape, rate, x_max", [(1.0, 1.0, 400), (2.0, 1.0, 700), (0.5, 3.0, 400)])
def test_meixner_polynomials_are_eigenfunctions_of_the_dense_chain(shape, rate, x_max):
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    poly = meixner_basis(fam).polynomials(np.arange(x_max + 1))
    entries = pg_xchain(fam)[0].entries
    for k in range(4):
        residual = entries @ poly[k] - fam.meixner_eigenvalue(k) * poly[k]
        assert np.abs(residual).max() <= 1e-13 * np.abs(poly[k]).max()


# ---------------------------------------------------------------------------
# gram_basis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 16, 100, 723, 2000])
def test_gram_basis_gram_residual_within_tolerance(n):
    basis = gram_basis(BetaBinomialFamily(n=n))
    levels = basis.levels
    assert basis.phi.shape == (levels + 1, n + 1)
    assert basis.gram_residual <= families.BASIS_GRAM_TOL
    gram = basis.phi @ basis.phi.T
    assert np.abs(gram - np.eye(levels + 1)).max() <= families.BASIS_GRAM_TOL
    np.testing.assert_allclose(basis.phi[0], 1.0 / math.sqrt(n + 1), rtol=1e-15)
    # log lambda_0..lambda_{K+1}, the Hahn products of bb_spectral_data.
    assert basis.log_eigenvalues.shape == (levels + 2,)
    assert basis.log_eigenvalues[0] == 0.0
    products = bb_spectral_data(BetaBinomialFamily(n=n)).levels.product
    known = min(levels + 1, n)
    np.testing.assert_allclose(
        np.exp(basis.log_eigenvalues[1 : known + 1]), products[:known], rtol=1e-13
    )


def _certified_levels(n: int) -> int:
    # The smallest K with lambda_{K+1} sqrt(n + 1) <= EPS / (n + 1) times
    # min_x max(lambda_1 |p_1(x)|, lambda_2 |p_2(x)|), at least min(n, 60),
    # with p_1 and p_2 in closed form and the Hahn eigenvalues as products.
    y = np.arange(n + 1, dtype=float) - n / 2.0
    p1 = y / math.sqrt(n * (n + 2.0) / 12.0)
    p2 = y**2 - n * (n + 2.0) / 12.0
    p2 /= math.sqrt(np.mean(p2**2)) if n > 1 else 1.0
    lam = [1.0]
    for i in range(n):
        lam.append(lam[-1] * (n - i) / (n + 2.0 + i))
    lam.append(0.0)
    floor = np.maximum(lam[1] * np.abs(p1), lam[min(2, n + 1)] * np.abs(p2)).min()
    cut = families.EPS / (n + 1) * floor
    levels = next(k for k in range(n + 1) if lam[k + 1] * math.sqrt(n + 1.0) <= cut)
    return max(levels, min(n, families.BASIS_MAX_LEVEL))


def test_gram_basis_levels():
    # Every n keeps levels 0..K: the forward recurrence's levels and the
    # Hahn difference equation's above them, up to the last level the TV
    # curve's cut can keep, so the polynomials are read from the columns.
    # ``gram_residual`` covers only the levels the certificate sums, so the
    # whole basis's orthogonality is checked here.
    for n in [*range(1, 301), 723, 2000]:
        basis = gram_basis(BetaBinomialFamily(n=n))
        levels = _certified_levels(n)
        assert basis.levels == levels
        assert basis.phi.shape == (levels + 1, n + 1)
        assert basis.gram_residual <= families.BASIS_GRAM_TOL
        gram = basis.phi @ basis.phi.T
        assert np.abs(gram - np.eye(levels + 1)).max() <= families.BASIS_GRAM_TOL
        assert basis.log_eigenvalues.shape == (levels + 2,)
        # lambda_{n+1} = 0: no tail is left out while K = n.
        assert (basis.log_eigenvalues[-1] == -math.inf) == (levels == n)
    assert [gram_basis(BetaBinomialFamily(n=n)).levels for n in (60, 100, 700, 2000)] == [
        60, 63, 178, 308,
    ]
    with pytest.raises(UnsupportedPriorError):
        gram_basis(BetaBinomialFamily(n=10, a=2.0))


@pytest.mark.parametrize("n", [16, 17, 100, 723])
def test_gram_basis_levels_agree_with_the_recurrence(n):
    # The difference equation's rows alone, against the forward recurrence
    # on the levels where its Gram block holds, and the symmetry
    # phi_k(n - y) = (-1)^k phi_k(y) of the Gram polynomials.
    basis = gram_basis(BetaBinomialFamily(n=n))
    np.testing.assert_allclose(
        families._hahn_rows(n, np.arange(basis.levels + 1)), basis.phi, rtol=0, atol=1e-11
    )
    signs = (-1.0) ** np.arange(basis.levels + 1)
    np.testing.assert_allclose(
        basis.phi[:, ::-1], signs[:, None] * basis.phi, rtol=0, atol=1e-11
    )


# The forward recurrence's top level in the Gram basis (K_head).
GRAM_HEAD = {50: 32, 700: 60, 723: 60, 2000: 60}


def _exact_kernel_rows(mpmath, n: int, starts) -> list[list]:
    """Rows ``starts`` of the flat beta-binomial x-chain in 30 digits:
    C(n, y) B(x + y + 1, 2n - x - y + 1) / B(x + 1, n - x + 1)."""
    with mpmath.workdps(30):
        lf = [mpmath.mpf(0)]
        for m in range(1, 2 * n + 2):
            lf.append(lf[-1] + mpmath.log(m))
        return [
            [
                mpmath.exp(
                    lf[n] - lf[y] - lf[n - y] + lf[x + y] + lf[2 * n - x - y] - lf[2 * n + 1]
                    - lf[x] - lf[n - x] + lf[n + 1]
                )
                for y in range(n + 1)
            ]
            for x in starts
        ]


@pytest.mark.parametrize("n", [50, 723, 2000])
def test_gram_polynomials_are_eigenfunctions_of_bb_xchain(n):
    # Levels 0..K_head are the forward recurrence's, bit for bit.  The low
    # levels are checked against bb_xchain's rows.  At n = 2000 those rows
    # carry up to 2.7e-12 of rounding in L1 (within their step error),
    # which alone puts the residual at 1.0e-12 to 2.3e-12 of max |p_k| on
    # levels 32..154, so the seam (K_head, K_head + 1), K // 2 and K are
    # checked against 30-digit rows of the same kernel.  At n = 50,
    # K_head = 32 is the last level the recurrence keeps under
    # BASIS_GRAM_TOL and is an eigenfunction only to 1.9e-12, so there the
    # seam is level K_head + 1 alone.
    mpmath = pytest.importorskip("mpmath")
    fam = BetaBinomialFamily(n=n)
    basis = gram_basis(fam)
    head, top = GRAM_HEAD[n], basis.levels
    j = np.arange(1, n + 1, dtype=float)
    b = np.r_[0.0, 0.5 * j * np.sqrt(((n + 1.0) ** 2 - j**2) / (4.0 * j**2 - 1.0))]
    np.testing.assert_array_equal(
        families._three_term(basis.phi[0], np.arange(n + 1.0), np.full(n + 1, n / 2.0), b, head),
        basis.phi[: head + 1],
    )
    poly = basis.polynomials(np.arange(n + 1))
    entries = bb_xchain(fam)[0].entries
    for k in (0, 1, 2, 3):
        residual = entries @ poly[k] - math.exp(basis.log_eigenvalues[k]) * poly[k]
        assert np.abs(residual).max() <= 1e-12 * np.abs(poly[k]).max()
    starts = [0, 1, n // 3, n // 2, n - 1, n]
    rows = _exact_kernel_rows(mpmath, n, starts)
    levels = [head + 1, top // 2, top] if n == 50 else [head, head + 1, top // 2, top]
    with mpmath.workdps(30):
        for k in levels:
            column = [mpmath.mpf(value) for value in poly[k]]
            lam = mpmath.exp(mpmath.mpf(basis.log_eigenvalues[k]))
            residual = max(
                abs(float(mpmath.fdot(row, column) - lam * column[x]))
                for row, x in zip(rows, starts)
            )
            assert residual <= 1e-12 * np.abs(poly[k]).max(), k


@pytest.mark.parametrize("n", [700, 2000])
def test_gram_rows_match_a_40_digit_recurrence(n):
    # Against the orthonormal three-term recurrence run in 40 digits, which
    # keeps about 30 of them at these levels, on about 60 spread states: the
    # seam between the forward recurrence and the difference equation
    # (K_head, K_head + 1) and the top level K.
    mpmath = pytest.importorskip("mpmath")
    basis = gram_basis(BetaBinomialFamily(n=n))
    head, top = GRAM_HEAD[n], basis.levels
    states = sorted({*range(0, n + 1, n // 57), 1, 2, n // 2, n - 1, n})
    levels = [head, head + 1, top]
    reference = np.empty((len(levels), len(states)))
    with mpmath.workdps(40):
        b = [mpmath.mpf(0)] + [
            k * mpmath.sqrt(((n + 1) ** 2 - mpmath.mpf(k) ** 2) / (4 * mpmath.mpf(k) ** 2 - 1)) / 2
            for k in range(1, top + 1)
        ]
        scale = 1 / mpmath.sqrt(n + 1)
        for j, y in enumerate(states):
            previous, current = mpmath.mpf(0), scale
            for k in range(top):
                if k in levels:
                    reference[levels.index(k), j] = float(current)
                x = y - mpmath.mpf(n) / 2
                previous, current = current, (x * current - b[k] * previous) / b[k + 1]
            reference[-1, j] = float(current)
    np.testing.assert_allclose(basis.phi[levels][:, states], reference, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# SpectralData container
# ---------------------------------------------------------------------------


def test_spectral_data_validation():
    data = SpectralData(levels=[0.5, 0.25], cutoff=3, factors=(2.0, 0.25))
    assert data.cutoff == 3
    assert data.factors == (2.0, 0.25)
    assert data.levels.product.tolist() == [0.5, 0.25]
    # Products within 1e-10 of [0, 1] are clamped into it.
    clamped = SpectralData(levels=[1.0 + 1e-11, -1e-11], cutoff=None)
    assert clamped.levels.product.tolist() == [1.0, 0.0]
    with pytest.raises(ParameterError):
        SpectralData(levels=[], cutoff=None)  # at least one level
    with pytest.raises(ParameterError, match="level 2"):
        SpectralData(levels=[0.5, 1.5], cutoff=None)  # outside [0, 1]
    with pytest.raises(ParameterError):
        SpectralData(levels=[0.5, float("nan")], cutoff=None)
    with pytest.raises(ParameterError, match="non-increasing"):
        SpectralData(levels=[0.2, 0.25], cutoff=None)
    with pytest.raises(ParameterError):
        SpectralData(levels=[0.5, 0.25], cutoff=1)
    with pytest.raises(ParameterError, match="mu\\*eta"):
        SpectralData(levels=[0.5], cutoff=None, factors=(2.0, 0.5))  # mu*eta != product


def test_pg_draws_respect_domains():
    fam = PoissonGammaFamily()
    rng = np.random.default_rng(5)
    theta = fam.draw_theta(rng, np.array([0, 3, 10]))
    assert theta.shape == (3,)
    assert np.all(theta > 0.0)
    x = fam.draw_x(rng, theta)
    assert x.shape == (3,)
    assert np.all(x >= 0)


def test_dense_chains_refuse_more_states_than_the_cap(monkeypatch):
    # The cap is checked before anything is allocated; a lowered cap shows
    # where the line falls without building an 800 MB matrix.
    too_many = families.MAX_DENSE_STATES
    assert too_many >= 10_001
    for build, fam in (
        (bb_xchain, BetaBinomialFamily(n=too_many)),
        (gram_basis, BetaBinomialFamily(n=too_many)),
        (pg_xchain, PoissonGammaFamily(x_max=too_many)),
    ):
        with pytest.raises(ParameterError, match=f"above the cap of {too_many}"):
            build(fam)
    monkeypatch.setattr(families, "MAX_DENSE_STATES", 11)
    assert bb_xchain(BetaBinomialFamily(n=10))[0].dim == 11
    assert gram_basis(BetaBinomialFamily(n=10)).dim == 11
    assert pg_xchain(PoissonGammaFamily(x_max=10, rate=50.0))[0].dim == 11
    with pytest.raises(ParameterError, match="12 states, above the cap of 11"):
        bb_xchain(BetaBinomialFamily(n=11))
    with pytest.raises(ParameterError, match="12 states, above the cap of 11"):
        gram_basis(BetaBinomialFamily(n=11))
    with pytest.raises(ParameterError, match="12 states, above the cap of 11"):
        pg_xchain(PoissonGammaFamily(x_max=11, rate=50.0))
