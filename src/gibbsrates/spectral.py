"""Random-scan spectral analysis: per-level eigenvalue pairs and the gap.

A random scan refreshes theta with probability alpha (the scan weight) and
x otherwise.  On each polynomial level with contraction product
q = mu * eta, the scan operator acts on a two-dimensional space and its
eigenvalue pair solves a quadratic with

    lambda_{+/-} = (1 +/- sqrt((1 - 2 alpha)^2 + 4 alpha (1 - alpha) q)) / 2.

The matching eigenfunctions are p + u * q-polynomial combinations whose
coefficient u solves alpha * u * (1 + mu u) = (1 - alpha) * (eta + u); the
roots need the basis-dependent factors mu, eta, not just their product.

The per-level spectral gap 1 - lambda_+ = (1 - sqrt(disc)) / 2 is maximized
in alpha at the balanced scan alpha = 1/2, where it equals (1 - sqrt(q))/2.

Levels are held as arrays, not as one object each: the eigenvalue pair and
the gap take arrays of products or scan weights, and ``ScanSpectrum`` keeps
the products and both eigenvalues as columns, with coupling roots for level
1 alone, the one level whose factors are known.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .families import SpectralData
from .numerics import check_all

# Floating slack when clamping a barely negative discriminant.
DISCRIMINANT_CLIP = -1e-15
# Residual tolerance when substituting coupling roots back into the quadratic.
COUPLING_RESIDUAL_TOL = 1e-10
# Structural invariants of an eigenvalue pair (sum and product identities).
PAIR_IDENTITY_TOL = 1e-12
# Golden-section stopping width for the gap argmax search.
ARGMAX_TOL = 1e-9

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _floats(value):
    """``value`` as a float, or as a float array if it is an array."""
    values = np.asarray(value, dtype=float)
    return float(values) if values.ndim == 0 else values


def _check_scan_weight(scan_weight, *, allow_boundary: bool):
    weight = _floats(scan_weight)
    check_all(np.isfinite(weight), "scan weight must be finite, got {value}", value=weight)
    if allow_boundary:
        inside = (weight >= 0.0) & (weight <= 1.0)
        check_all(inside, "scan weight must lie in [0, 1], got {value}", value=weight)
    else:
        check_all(
            (weight > 0.0) & (weight < 1.0),
            "alpha-boundary: scan weight must lie strictly inside (0, 1) "
            "for eigenfunction coupling, got {value}",
            value=weight,
        )
    return weight


def _check_product(product):
    q = _floats(product)
    check_all((q >= 0.0) & (q < 1.0), "contraction product must lie in [0, 1), got {value}", value=q)
    return q


@dataclass(frozen=True)
class CouplingRoots:
    """Roots u of the eigenfunction-coupling quadratic on one level.

    ``u_plus`` pairs with the larger eigenvalue.  ``residual`` is the largest absolute error of the roots substituted
    back into alpha*u*(1+mu*u) - (1-alpha)*(eta+u).
    """

    u_plus: float
    u_minus: float
    residual: float


def _coupling_residual(scan_weight: float, mu: float, eta: float, u: float) -> float:
    return abs(scan_weight * u * (1.0 + mu * u) - (1.0 - scan_weight) * (eta + u))


def coupling_u(scan_weight: float, mu: float, eta: float) -> CouplingRoots:
    """Solve alpha*u*(1 + mu*u) = (1 - alpha)*(eta + u) for the mixing coefficient u.

    Requires the factors mu > 0 (theta-level contraction onto x) and
    eta >= 0 (the reverse); the scan weight must be strictly interior — at
    the boundary one coordinate is never refreshed and no coupled
    eigenfunction exists.
    """
    alpha = _check_scan_weight(scan_weight, allow_boundary=False)
    mu = float(mu)
    eta = float(eta)
    if not (math.isfinite(mu) and math.isfinite(eta)) or mu <= 0.0 or eta < 0.0:
        raise ParameterError(
            f"factors must be finite with mu > 0 and eta >= 0, got mu = {mu}, eta = {eta}"
        )
    # alpha*mu*u^2 + (2*alpha - 1)*u - (1 - alpha)*eta = 0
    half_b = (2.0 * alpha - 1.0) / 2.0
    a_coef = alpha * mu
    c_coef = -(1.0 - alpha) * eta
    disc = half_b * half_b - a_coef * c_coef
    if disc < 0.0:
        if disc < DISCRIMINANT_CLIP:
            raise ConvergenceError(f"coupling discriminant went negative: {disc}")
        disc = 0.0
    sqrt_disc = math.sqrt(disc)
    # u_plus corresponds to lambda_plus: the root with + sqrt.
    u_plus = (-half_b + sqrt_disc) / a_coef
    u_minus = (-half_b - sqrt_disc) / a_coef
    residual = max(
        _coupling_residual(alpha, mu, eta, u_plus),
        _coupling_residual(alpha, mu, eta, u_minus),
    )
    if residual > COUPLING_RESIDUAL_TOL:
        raise ConvergenceError(f"coupling roots failed their residual check: {residual}")
    return CouplingRoots(u_plus=u_plus, u_minus=u_minus, residual=residual)


def scan_eigenvalue_pair(scan_weight, product):
    """The eigenvalue pair of the scan operator on a level with product q.

    Either argument may be an array; the pair is then two arrays of their
    broadcast shape.
    """
    alpha = _check_scan_weight(scan_weight, allow_boundary=True)
    q = _check_product(product)
    disc = (1.0 - 2.0 * alpha) ** 2 + 4.0 * alpha * (1.0 - alpha) * q
    sqrt_disc = np.sqrt(disc)
    return (1.0 + sqrt_disc) / 2.0, (1.0 - sqrt_disc) / 2.0


@dataclass(frozen=True, eq=False)
class ScanSpectrum:
    """Per-level eigenvalue decomposition of a random scan, as arrays.

    ``product``, ``lambda_plus`` and ``lambda_minus`` hold levels
    k = 1, 2, ... in order.  ``coupling`` holds level 1's coupling roots
    when its factors are known and the scan weight is interior, else None;
    no other level has known factors.  ``tail_eigenvalue`` is the common
    eigenvalue 1 - alpha carried by every level at or above a finite cutoff
    (where the product is zero on the theta side but the unrefreshed
    coordinate still lingers); it is None when the level set has no finite
    cutoff.
    """

    scan_weight: float
    product: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    tail_eigenvalue: float | None
    coupling: CouplingRoots | None = None

    def __post_init__(self) -> None:
        alpha = _check_scan_weight(self.scan_weight, allow_boundary=True)
        plus, minus = self.lambda_plus, self.lambda_minus
        pair_sum = plus + minus
        check_all(
            np.abs(pair_sum - 1.0) <= PAIR_IDENTITY_TOL,
            "eigenvalue pair at level {k} must sum to 1, got {value}",
            value=pair_sum,
        )
        pair_product = plus * minus
        expected = alpha * (1.0 - alpha) * (1.0 - self.product)
        check_all(
            np.abs(pair_product - expected) <= PAIR_IDENTITY_TOL,
            "eigenvalue pair at level {k} must multiply to "
            "alpha(1-alpha)(1-q) = {expected}, got {value}",
            expected=expected,
            value=pair_product,
        )
        for values in (plus, minus):
            check_all(
                (values >= -PAIR_IDENTITY_TOL) & (values <= 1.0 + PAIR_IDENTITY_TOL),
                "eigenvalue {value} at level {k} escapes [0, 1]",
                value=values,
            )

    @property
    def dominant_eigenvalue(self) -> float:
        top = float(self.lambda_plus.max())
        return top if self.tail_eigenvalue is None else max(top, self.tail_eigenvalue)


def alpha_scan_eigenvalues(scan_weight: float, data: SpectralData) -> ScanSpectrum:
    """Assemble the scan spectrum of a model from its contraction levels.

    Coupling roots are attached to level 1 only, when its mu/eta factors
    are known, mu > 0 and the scan weight is interior.
    """
    alpha = _check_scan_weight(scan_weight, allow_boundary=True)
    product = data.levels.product
    lam_plus, lam_minus = scan_eigenvalue_pair(alpha, product)
    coupling = None
    if data.factors is not None and 0.0 < alpha < 1.0 and data.factors[0] > 0.0:
        coupling = coupling_u(alpha, *data.factors)
    return ScanSpectrum(
        scan_weight=alpha,
        product=product,
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        tail_eigenvalue=(1.0 - alpha) if data.cutoff is not None else None,
        coupling=coupling,
    )


def spectral_gap(scan_weight, product):
    """Per-level gap 1 - lambda_plus = (1 - sqrt(disc)) / 2; arrays broadcast."""
    lam_plus, _ = scan_eigenvalue_pair(scan_weight, product)
    return 1.0 - lam_plus


@dataclass(frozen=True)
class GapMaximum:
    """Numerically maximized per-level gap, with its closed form alongside."""

    alpha_star: float
    gap_star: float
    alpha_analytic: float
    gap_analytic: float


def argmax_gap(product: float) -> GapMaximum:
    """Maximize the per-level gap over the scan weight by golden-section search.

    The analytic answer is the balanced scan: alpha* = 1/2 with gap
    (1 - sqrt(q))/2.  The search is still run (tolerance 1e-9) and
    cross-checked against the closed form to 1e-6 as a guard on both.
    """
    q = _check_product(product)
    lo, hi = 0.0, 1.0
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1 = spectral_gap(x1, q)
    f2 = spectral_gap(x2, q)
    while hi - lo > ARGMAX_TOL:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = spectral_gap(x2, q)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = spectral_gap(x1, q)
    alpha_star = (lo + hi) / 2.0
    gap_star = spectral_gap(alpha_star, q)
    gap_analytic = (1.0 - math.sqrt(q)) / 2.0
    if abs(alpha_star - 0.5) > 1e-6:
        raise ConvergenceError(
            f"gap argmax {alpha_star} strayed from the balanced scan 1/2"
        )
    return GapMaximum(
        alpha_star=alpha_star,
        gap_star=gap_star,
        alpha_analytic=0.5,
        gap_analytic=gap_analytic,
    )

