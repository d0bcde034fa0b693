"""Conjugate-family chain builders, certificates, and spectral data."""

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
    SpectralLevel,
    TruncationError,
    UnsupportedPriorError,
    bb_drift_minorization,
    bb_eigenfunction_phi,
    bb_spectral_data,
    bb_xchain,
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
    lvl1 = data.levels[0]
    assert lvl1.k == 1
    assert lvl1.mu == pytest.approx(5.0)
    assert lvl1.eta == pytest.approx(1.0 / 7.0)
    assert lvl1.product == pytest.approx(5.0 / 7.0, rel=1e-12)
    assert lvl1.factors_known
    assert not data.levels[1].factors_known
    assert data.cutoff == 6
    assert "p1(x) = x - n/2" in data.basis_note
    products = [level.product for level in data.levels]
    assert all(b <= a + 1e-10 for a, b in zip(products, products[1:]))


# The closed-form products must reproduce the numeric spectrum of the built
# chain on every level.
REFERENCE_SPECTRUM_TOL = 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 13, 100, 234, 235, 600])
def test_bb_spectral_data_matches_numeric_spectrum(n):
    fam = BetaBinomialFamily(n=n)
    products = [level.product for level in bb_spectral_data(fam).levels]
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
    assert data.levels[0].mu == n
    assert data.levels[0].eta == 1.0 / (n + 2.0)


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
    products = [level.product for level in data.levels]
    assert all(b <= a + 1e-12 for a, b in zip(products, products[1:]))
    assert all(0.0 <= p <= 1.0 for p in products)


@pytest.mark.parametrize(
    "shape, rate", [(0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
)
def test_pg_spectral_data_matches_numeric_spectrum(shape, rate):
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=300)
    products = [level.product for level in pg_spectral_data(fam).levels]
    eigs = reversible_spectrum(*pg_xchain(fam))
    assert len(products) == fam.x_max
    np.testing.assert_allclose(products, eigs[1:], rtol=0.0, atol=REFERENCE_SPECTRUM_TOL)


def test_pg_nonflat_spectral_data_still_works():
    fam = PoissonGammaFamily(shape=2.0)
    data = pg_spectral_data(fam)
    assert 0.0 < data.levels[0].product < 1.0


# ---------------------------------------------------------------------------
# SpectralLevel / SpectralData containers
# ---------------------------------------------------------------------------


def test_spectral_level_validation():
    level = SpectralLevel(k=1, product=0.5, mu=2.0, eta=0.25)
    assert level.factors_known
    assert SpectralLevel(k=2, product=0.3).factors_known is False
    with pytest.raises(ParameterError):
        SpectralLevel(k=0, product=0.5)
    with pytest.raises(ParameterError):
        SpectralLevel(k=1, product=0.5, mu=2.0)  # eta missing
    with pytest.raises(ParameterError):
        SpectralLevel(k=1, product=0.5, mu=2.0, eta=0.5)  # mu*eta != product


def test_spectral_data_validation():
    lvl1 = SpectralLevel(k=1, product=0.5)
    lvl2 = SpectralLevel(k=2, product=0.25)
    data = SpectralData(levels=(lvl1, lvl2), cutoff=3)
    assert data.cutoff == 3
    with pytest.raises(ParameterError):
        SpectralData(levels=(lvl2,), cutoff=None)  # must start at k = 1
    with pytest.raises(ParameterError):
        SpectralData(levels=(lvl1, SpectralLevel(k=3, product=0.1)), cutoff=None)
    with pytest.raises(ParameterError):
        SpectralData(levels=(SpectralLevel(k=1, product=0.2), lvl2), cutoff=None)
    with pytest.raises(ParameterError):
        SpectralData(levels=(lvl1, lvl2), cutoff=1)


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
        (pg_xchain, PoissonGammaFamily(x_max=too_many)),
    ):
        with pytest.raises(ParameterError, match=f"above the cap of {too_many}"):
            build(fam)
    monkeypatch.setattr(families, "MAX_DENSE_STATES", 11)
    assert bb_xchain(BetaBinomialFamily(n=10))[0].dim == 11
    assert pg_xchain(PoissonGammaFamily(x_max=10, rate=50.0))[0].dim == 11
    with pytest.raises(ParameterError, match="12 states, above the cap of 11"):
        bb_xchain(BetaBinomialFamily(n=11))
    with pytest.raises(ParameterError, match="12 states, above the cap of 11"):
        pg_xchain(PoissonGammaFamily(x_max=11, rate=50.0))
