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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, ParameterError
from .families import SpectralData

# Floating slack when clamping a barely negative discriminant.
DISCRIMINANT_CLIP = -1e-15
# Residual tolerance when substituting coupling roots back into the quadratic.
COUPLING_RESIDUAL_TOL = 1e-10
# Structural invariants of an eigenvalue pair (sum and product identities).
PAIR_IDENTITY_TOL = 1e-12
# Golden-section stopping width for the gap argmax search.
ARGMAX_TOL = 1e-9

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _check_scan_weight(scan_weight: float, *, allow_boundary: bool) -> float:
    weight = float(scan_weight)
    if not math.isfinite(weight):
        raise ParameterError(f"scan weight must be finite, got {weight}")
    if allow_boundary:
        if not 0.0 <= weight <= 1.0:
            raise ParameterError(f"scan weight must lie in [0, 1], got {weight}")
    elif not 0.0 < weight < 1.0:
        raise ParameterError(
            f"alpha-boundary: scan weight must lie strictly inside (0, 1) "
            f"for eigenfunction coupling, got {weight}"
        )
    return weight


def _check_product(product: float) -> float:
    q = float(product)
    if not 0.0 <= q < 1.0:
        raise ParameterError(f"contraction product must lie in [0, 1), got {q}")
    return q


@dataclass(frozen=True)
class CouplingRoots:
    """Roots u of the eigenfunction-coupling quadratic on one level.

    ``u_plus`` pairs with the larger eigenvalue.  When the quadratic
    degenerates to a linear equation (mu = 0 with alpha != 1/2) there is a
    single root, stored as ``u_plus`` with ``degenerate_linear`` set.
    ``residual`` is the largest absolute error of the roots substituted
    back into alpha*u*(1+mu*u) - (1-alpha)*(eta+u).
    """

    u_plus: float
    u_minus: float | None
    degenerate_linear: bool
    residual: float


def _coupling_residual(scan_weight: float, mu: float, eta: float, u: float) -> float:
    return abs(scan_weight * u * (1.0 + mu * u) - (1.0 - scan_weight) * (eta + u))


def coupling_u(scan_weight: float, mu: float, eta: float) -> CouplingRoots:
    """Solve alpha*u*(1 + mu*u) = (1 - alpha)*(eta + u) for the mixing coefficient u.

    Requires the factors mu (theta-level contraction onto x) and eta (the
    reverse); the scan weight must be strictly interior — at the boundary
    one coordinate is never refreshed and no coupled eigenfunction exists.
    """
    alpha = _check_scan_weight(scan_weight, allow_boundary=False)
    mu = float(mu)
    eta = float(eta)
    if not (math.isfinite(mu) and math.isfinite(eta)) or mu < 0.0 or eta < 0.0:
        raise ParameterError(f"factors mu, eta must be finite and nonnegative, got {mu}, {eta}")
    if mu == 0.0:
        # Quadratic coefficient alpha*mu vanishes: a single linear root,
        # (2 alpha - 1) u = (1 - alpha) eta.
        if alpha == 0.5:
            raise ParameterError(
                "alpha-boundary: with mu = 0 the balanced scan leaves the "
                "coupling equation with no finite root"
            )
        root = (1.0 - alpha) * eta / (2.0 * alpha - 1.0)
        residual = _coupling_residual(alpha, mu, eta, root)
        if residual > COUPLING_RESIDUAL_TOL:
            raise ConvergenceError(f"coupling root failed its residual check: {residual}")
        return CouplingRoots(u_plus=root, u_minus=None, degenerate_linear=True, residual=residual)
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
    return CouplingRoots(u_plus=u_plus, u_minus=u_minus, degenerate_linear=False, residual=residual)


def scan_eigenvalue_pair(scan_weight: float, product: float) -> tuple[float, float]:
    """The eigenvalue pair of the scan operator on a level with product q."""
    alpha = _check_scan_weight(scan_weight, allow_boundary=True)
    q = _check_product(product)
    disc = (1.0 - 2.0 * alpha) ** 2 + 4.0 * alpha * (1.0 - alpha) * q
    sqrt_disc = math.sqrt(disc)
    return (1.0 + sqrt_disc) / 2.0, (1.0 - sqrt_disc) / 2.0


@dataclass(frozen=True)
class ScanLevel:
    """Eigenvalue pair (and coupling roots when resolvable) on one level."""

    k: int
    product: float
    lambda_plus: float
    lambda_minus: float
    u_plus: float | None = None
    u_minus: float | None = None


@dataclass(frozen=True)
class ScanSpectrum:
    """Full per-level eigenvalue decomposition of a random scan.

    ``tail_eigenvalue`` is the common eigenvalue 1 - alpha carried by every
    level at or above a finite cutoff (where the product is zero on the
    theta side but the unrefreshed coordinate still lingers); it is None
    when the level set has no finite cutoff.
    """

    scan_weight: float
    levels: tuple[ScanLevel, ...]
    tail_eigenvalue: float | None

    def __post_init__(self) -> None:
        alpha = _check_scan_weight(self.scan_weight, allow_boundary=True)
        levels = tuple(self.levels)
        for level in levels:
            pair_sum = level.lambda_plus + level.lambda_minus
            if abs(pair_sum - 1.0) > PAIR_IDENTITY_TOL:
                raise ParameterError(
                    f"eigenvalue pair at level {level.k} must sum to 1, got {pair_sum}"
                )
            pair_product = level.lambda_plus * level.lambda_minus
            expected = alpha * (1.0 - alpha) * (1.0 - level.product)
            if abs(pair_product - expected) > PAIR_IDENTITY_TOL:
                raise ParameterError(
                    f"eigenvalue pair at level {level.k} must multiply to "
                    f"alpha(1-alpha)(1-q) = {expected}, got {pair_product}"
                )
            for value in (level.lambda_plus, level.lambda_minus):
                if not -PAIR_IDENTITY_TOL <= value <= 1.0 + PAIR_IDENTITY_TOL:
                    raise ParameterError(
                        f"eigenvalue {value} at level {level.k} escapes [0, 1]"
                    )
        object.__setattr__(self, "levels", levels)

    @property
    def dominant_eigenvalue(self) -> float:
        candidates = [level.lambda_plus for level in self.levels]
        if self.tail_eigenvalue is not None:
            candidates.append(self.tail_eigenvalue)
        return max(candidates)


def alpha_scan_eigenvalues(scan_weight: float, data: SpectralData) -> ScanSpectrum:
    """Assemble the scan spectrum of a model from its contraction levels.

    Coupling roots are attached only on levels whose mu/eta factors are
    known and only for an interior scan weight.
    """
    alpha = _check_scan_weight(scan_weight, allow_boundary=True)
    levels = []
    for level in data.levels:
        lam_plus, lam_minus = scan_eigenvalue_pair(alpha, level.product)
        u_plus = u_minus = None
        if level.factors_known and 0.0 < alpha < 1.0 and level.mu > 0.0:
            roots = coupling_u(alpha, level.mu, level.eta)
            u_plus, u_minus = roots.u_plus, roots.u_minus
        levels.append(
            ScanLevel(
                k=level.k,
                product=level.product,
                lambda_plus=lam_plus,
                lambda_minus=lam_minus,
                u_plus=u_plus,
                u_minus=u_minus,
            )
        )
    tail = (1.0 - alpha) if data.cutoff is not None else None
    return ScanSpectrum(scan_weight=alpha, levels=tuple(levels), tail_eigenvalue=tail)


def spectral_gap(scan_weight: float, product: float) -> float:
    """Per-level gap 1 - lambda_plus = (1 - sqrt(disc)) / 2."""
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

