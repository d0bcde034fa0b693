"""Scan-weight spectra: coupling roots, eigenvalue pairs, gap maximization."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibbsrates import (
    BetaBinomialFamily,
    ConvergenceError,
    ParameterError,
    PoissonGammaFamily,
    alpha_scan_eigenvalues,
    argmax_gap,
    bb_eigenfunction_phi,
    bb_spectral_data,
    coupling_u,
    pg_spectral_data,
    scan_eigenvalue_pair,
    spectral_gap,
)


# ---------------------------------------------------------------------------
# coupling_u
# ---------------------------------------------------------------------------


def test_coupling_balanced_scan_frozen_roots():
    roots = coupling_u(0.5, 1.0, 1.0 / 3.0)
    assert roots.u_plus == pytest.approx(0.5773502691896257, rel=1e-12)
    assert roots.u_minus == pytest.approx(-0.5773502691896257, rel=1e-12)
    assert roots.u_plus == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
    assert roots.residual <= 1e-10


def test_coupling_boundary_weight_rejected():
    with pytest.raises(ParameterError, match="alpha-boundary"):
        coupling_u(0.0, 1.0, 0.5)
    with pytest.raises(ParameterError, match="alpha-boundary"):
        coupling_u(1.0, 1.0, 0.5)


def test_coupling_zero_mu_rejected():
    # With mu = 0 the quadratic has no u^2 term; no level of either family
    # has a zero factor, so such a level is refused at any scan weight.
    for alpha in (0.25, 0.5):
        with pytest.raises(ParameterError, match="mu > 0"):
            coupling_u(alpha, 0.0, 0.5)


def test_coupling_negative_factors_rejected():
    with pytest.raises(ParameterError):
        coupling_u(0.5, -1.0, 0.5)
    with pytest.raises(ParameterError):
        coupling_u(0.5, 1.0, -0.5)


@pytest.mark.parametrize("n", [1, 4, 5])
def test_coupling_reproduces_eigenfunction(n):
    # At the balanced scan the level-1 root is 1/sqrt(n(n+2)); combining the
    # basis pair with that weight gives exactly the additive eigenfunction.
    fam = BetaBinomialFamily(n=n)
    roots = coupling_u(0.5, float(n), 1.0 / (n + 2.0))
    assert roots.u_plus == pytest.approx(1.0 / math.sqrt(n * (n + 2.0)), rel=1e-12)
    x = np.arange(n + 1, dtype=float)
    theta = np.linspace(0.0, 1.0, 7)
    xs, ts = np.meshgrid(x, theta)
    combined = (xs - n / 2.0) + roots.u_plus * n * (n + 2.0) * (ts - 0.5)
    expected = bb_eigenfunction_phi(fam, xs.astype(int), ts)
    np.testing.assert_allclose(combined, expected, rtol=1e-12, atol=1e-12)


def test_coupling_n4_frozen():
    roots = coupling_u(0.5, 4.0, 1.0 / 6.0)
    assert roots.u_plus == pytest.approx(0.2041241452319315, rel=1e-12)
    pair = scan_eigenvalue_pair(0.5, 4.0 / 6.0)
    assert pair[0] == pytest.approx(0.9082482904638631, rel=1e-12)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=1e-3, max_value=50.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_coupling_roots_solve_quadratic(alpha, mu, eta):
    roots = coupling_u(alpha, mu, eta)
    assert roots.residual <= 1e-10
    for u in (roots.u_plus, roots.u_minus):
        value = alpha * mu * u * u + (2.0 * alpha - 1.0) * u - (1.0 - alpha) * eta
        scale = max(1.0, abs(alpha * mu * u * u), abs((2.0 * alpha - 1.0) * u))
        assert abs(value) <= 1e-9 * scale
    if roots.u_minus is not None:
        assert roots.u_plus >= roots.u_minus


# ---------------------------------------------------------------------------
# scan_eigenvalue_pair
# ---------------------------------------------------------------------------


def test_pair_frozen_headline_values():
    pair = scan_eigenvalue_pair(0.5, 100.0 / 102.0)
    assert pair[0] == pytest.approx(0.9950737714883371, rel=1e-12)
    assert pair[1] == pytest.approx(0.004926228511662856, rel=1e-12)
    assert pair[0] == pytest.approx(0.5 + 0.5 * math.sqrt(100.0 / 102.0), rel=1e-15)


def test_pair_rejects_unit_product():
    with pytest.raises(ParameterError):
        scan_eigenvalue_pair(0.5, 1.0)
    with pytest.raises(ParameterError):
        scan_eigenvalue_pair(1.5, 0.5)


def test_pair_boundary_weights():
    assert scan_eigenvalue_pair(0.0, 0.7) == (1.0, 0.0)
    assert scan_eigenvalue_pair(1.0, 0.7) == (1.0, 0.0)


@given(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=0.999999),
)
def test_pair_sum_and_product_identities(alpha, q):
    plus, minus = scan_eigenvalue_pair(alpha, q)
    assert plus + minus == pytest.approx(1.0, abs=1e-12)
    assert plus * minus == pytest.approx(alpha * (1.0 - alpha) * (1.0 - q), abs=1e-12)
    assert 0.0 <= minus <= plus <= 1.0


# ---------------------------------------------------------------------------
# alpha_scan_eigenvalues
# ---------------------------------------------------------------------------


def test_scan_spectrum_bb5():
    data = bb_spectral_data(BetaBinomialFamily(n=5))
    spectrum = alpha_scan_eigenvalues(0.5, data)
    assert spectrum.scan_weight == 0.5
    lvl1 = spectrum.levels[0]
    assert lvl1.lambda_plus == pytest.approx(0.9225771273642582, rel=1e-12)
    assert lvl1.u_plus is not None and lvl1.u_minus is not None
    # Only level 1 ships factor information, so only it carries roots.
    assert all(level.u_plus is None for level in spectrum.levels[1:])
    assert spectrum.tail_eigenvalue == pytest.approx(0.5)
    assert spectrum.dominant_eigenvalue == pytest.approx(lvl1.lambda_plus)


def test_scan_spectrum_pg_has_no_tail():
    data = pg_spectral_data(PoissonGammaFamily())
    spectrum = alpha_scan_eigenvalues(0.5, data)
    assert spectrum.tail_eigenvalue is None
    assert spectrum.dominant_eigenvalue == pytest.approx(
        (1.0 + math.sqrt(0.5)) / 2.0, abs=1e-6
    )


def test_scan_spectrum_boundary_weight():
    data = bb_spectral_data(BetaBinomialFamily(n=5))
    spectrum = alpha_scan_eigenvalues(0.0, data)
    assert spectrum.tail_eigenvalue == pytest.approx(1.0)
    assert spectrum.dominant_eigenvalue == pytest.approx(1.0)
    # Boundary weights cannot produce coupling roots.
    assert all(level.u_plus is None for level in spectrum.levels)


def test_scan_spectrum_validation():
    data = bb_spectral_data(BetaBinomialFamily(n=3))
    with pytest.raises(ParameterError):
        alpha_scan_eigenvalues(-0.1, data)
    with pytest.raises(ParameterError):
        alpha_scan_eigenvalues(1.1, data)


# ---------------------------------------------------------------------------
# spectral_gap / argmax_gap
# ---------------------------------------------------------------------------


def test_gap_frozen_values():
    assert spectral_gap(0.5, 1.0 / 3.0) == pytest.approx(0.21132486540518713, rel=1e-12)
    assert spectral_gap(0.5, 0.5) == pytest.approx(0.14644660940672627, rel=1e-12)
    assert spectral_gap(0.5, 0.5) == pytest.approx((1.0 - math.sqrt(0.5)) / 2.0, rel=1e-15)


def test_gap_symmetry_is_exact():
    for k in range(0, 257):
        alpha = k / 256.0
        assert spectral_gap(alpha, 0.37) == spectral_gap(1.0 - alpha, 0.37)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.98])
def test_gap_maximal_at_balanced_scan(q):
    balanced = spectral_gap(0.5, q)
    for alpha in np.linspace(0.0, 1.0, 401):
        assert spectral_gap(float(alpha), q) <= balanced + 1e-15


@pytest.mark.parametrize("q", [0.1, 0.5, 0.98])
def test_argmax_gap_locates_balanced_scan(q):
    result = argmax_gap(q)
    assert result.alpha_star == pytest.approx(0.5, abs=1e-6)
    assert result.alpha_analytic == 0.5
    assert result.gap_analytic == pytest.approx((1.0 - math.sqrt(q)) / 2.0, rel=1e-12)
    assert result.gap_star == pytest.approx(result.gap_analytic, rel=1e-8)


def test_argmax_gap_frozen_value():
    result = argmax_gap(0.98)
    assert result.gap_star == pytest.approx(0.00502525316941671, rel=1e-9)


def test_argmax_gap_independent_chain():
    # q = 0 makes the two coordinates independent: gap is 1/2.
    result = argmax_gap(0.0)
    assert result.gap_star == pytest.approx(0.5, rel=1e-9)


def test_gap_validation():
    with pytest.raises(ParameterError):
        spectral_gap(0.5, 1.0)
    with pytest.raises(ParameterError):
        argmax_gap(-0.1)
