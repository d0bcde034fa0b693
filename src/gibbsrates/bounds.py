"""Analytic total-variation convergence bounds for two-component Gibbs chains.

Every bound here is a sum of geometric terms ``coeff * ratio^(steps + offset)``
and is written once as a ``GeometricBound``: a label, a validity gate and
``numerics.GeometricTerm``s.  The same object gives the value at one step
count (``at``, or ``log_at`` for values beyond a float), the values over a
numpy step array, and the first crossing of a target, so each evaluate/solve
pair of functions below reads one object.  The families:

* the drift/minorization (Rosenthal-type) bound with its tuning knobs
  ``(d, r)`` (``RosenthalIngredients.bound``), a minimal-step solver, and a
  grid optimizer — the generic certificate that can demand ~10^34 steps from
  a chain that actually converges in a few hundred;
* the generic two-term geometric bound ``A^l + weight * B^l``;
* the four bounds of the scan comparison (systematic upper, random-scan
  upper and lower, eigenvalue lower); the scalar functions
  ``systematic_upper``, ``random_scan_upper`` and ``random_scan_lower`` are
  thin evaluations of them;
* the chi-square bound for the Poisson-gamma marginal chain, and the
  scan-order rate comparison (systematic versus random, per unit work).

Closed-form constants for the beta-binomial certificate itself (lambda, b,
epsilon) are constructed in :mod:`gibbsrates.families`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyFeasibleGridError,
    NoSolutionError,
    NonContractingError,
    NonContractingWarning,
    ParameterError,
    ValidityThresholdError,
)
from .numerics import (
    LOG_ZERO,
    GeometricTerm,
    LogMagnitude,
    StepCount,
    is_integer,
    log1mexp,
    log_sum_terms,
    min_steps_geometric,
)

# Log decay rate of the Azuma-style tail term in the random-scan upper bound:
# 3 * exp(-(steps - 1)/8).
_AZUMA_LOG_RATE = -0.125


def _check_steps(steps: int, minimum: int = 0) -> int:
    if not is_integer(steps):
        raise ParameterError(f"step count must be an integer, got {steps!r}")
    steps = int(steps)
    if steps < minimum:
        raise ParameterError(f"step count must be at least {minimum}, got {steps}")
    return steps


def check_target(target: float) -> float:
    """A total-variation target as a float; it must lie in (0, 1)."""
    target = float(target)
    if not 0.0 < target < 1.0:
        raise ParameterError(f"target must lie in (0, 1), got {target}")
    return target


def _check_n(n: int) -> int:
    if not is_integer(n) or int(n) < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class GeometricBound:
    """A labeled sum of ``GeometricTerm``s, stated only for steps >= ``gate``.

    This is the one representation of every analytic bound here: ``values``
    evaluates it (vectorized over a step array), ``at`` evaluates it at one
    validated step count, ``log_at`` gives the log of that value for bounds
    too large or too small for a float, and ``min_steps`` solves for its
    first gated crossing of a target.
    """

    label: str
    gate: int
    terms: tuple[GeometricTerm, ...]

    def values(self, steps):
        """The summed terms at a step count or a numpy step array (no gate)."""
        return sum(term.at(steps) for term in self.terms)

    def check_steps(self, steps: StepCount) -> int:
        """Validate a step count against the gate and return it as an int."""
        steps = _check_steps(steps)
        if steps < self.gate:
            raise ValidityThresholdError(
                f"below-validity-threshold: {self.label} needs steps >= "
                f"{self.gate}, got {steps}"
            )
        return steps

    def at(self, steps: StepCount) -> float:
        return float(self.values(self.check_steps(steps)))

    def log_at(self, steps: StepCount) -> float:
        """ln of the bound at one validated step count, summed in the log domain."""
        return log_sum_terms(self.terms, self.check_steps(steps))

    def min_steps(self, target: float) -> StepCount:
        """First step count at or above the gate where the bound <= target."""
        return max(min_steps_geometric(self.terms, target), self.gate)


@dataclass(frozen=True)
class DriftMinorization:
    """A drift-and-minorization certificate (lambda, b, epsilon, V(x0)).

    ``lam`` and ``b`` are the drift constants in
    E[V(next) | current] <= lam * V(current) + b, ``epsilon`` is the
    minorization mass on the small set (stored as a LogMagnitude because
    values like 2^-100 round to zero in linear space), and ``v_x0`` is the
    drift function evaluated at the starting state.
    """

    lam: float
    b: float
    epsilon: LogMagnitude
    v_x0: float = 0.0

    def __post_init__(self) -> None:
        eps = self.epsilon
        if not isinstance(eps, LogMagnitude):
            eps = LogMagnitude.from_linear(float(eps))
            object.__setattr__(self, "epsilon", eps)
        lam = float(self.lam)
        b = float(self.b)
        v = float(self.v_x0)
        if not 0.0 <= lam < 1.0:
            raise ParameterError(f"drift factor lambda must lie in [0, 1), got {lam}")
        if b < 0.0:
            raise ParameterError(f"drift constant b must be nonnegative, got {b}")
        if not eps.log_value <= 0.0 or eps.log_value == LOG_ZERO:
            raise ParameterError(
                "minorization mass epsilon must lie in (0, 1], got "
                f"log epsilon = {eps.log_value}"
            )
        if v < 0.0:
            raise ParameterError(f"V(x0) must be nonnegative, got {v}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v_x0", v)

    @property
    def small_set_threshold(self) -> float:
        """Smallest admissible small-set radius d: 2b/(1 - lambda)."""
        return 2.0 * self.b / (1.0 - self.lam)

    @property
    def coefficient(self) -> float:
        """The constant 1 + b/(1 - lambda) + V(x0) multiplying the drift term."""
        return 1.0 + self.b / (1.0 - self.lam) + self.v_x0


@dataclass(frozen=True)
class RosenthalParams:
    """Tuning knobs of the drift/minorization bound.

    ``d`` is the small-set radius ({V <= d}); ``r`` in (0, 1) splits the
    step budget between the minorization and drift terms.  The constraint
    d >= 2b/(1 - lambda) depends on the certificate and is validated where
    the two meet.
    """

    d: float
    r: float

    def __post_init__(self) -> None:
        d = float(self.d)
        r = float(self.r)
        if not math.isfinite(d) or d < 0.0:
            raise ParameterError(f"invalid-d: small-set radius must be >= 0, got {d}")
        if not 0.0 < r < 1.0:
            raise ParameterError(f"invalid-r: exponent split must lie in (0, 1), got {r}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class RosenthalIngredients:
    """Derived quantities of the bound: alpha, u, and both decay ratios (logs).

    ``rosenthal_alpha`` is the bound's internal (1+d)/(1+2b+lambda*d) — a
    different animal from any scan weight, hence the prefixed name.
    """

    rosenthal_alpha: float
    u: float
    log_ratio_minorization: float
    log_ratio_drift: float
    coefficient: float

    @property
    def bound(self) -> GeometricBound:
        """(1-eps)^(r*steps) + coefficient * (u^r / alpha^(1-r))^steps.

        Defined only for a drift ratio of at most 1; the callers check it first.
        """
        return GeometricBound(
            "the drift/minorization bound",
            0,
            (
                GeometricTerm(1.0, self.log_ratio_minorization),
                GeometricTerm(self.coefficient, self.log_ratio_drift),
            ),
        )


def rosenthal_ingredients(
    cert: DriftMinorization, params: RosenthalParams
) -> RosenthalIngredients:
    """Resolve (alpha, u, decay ratios) and validate d against the certificate."""
    threshold = cert.small_set_threshold
    if params.d < threshold:
        raise ValidityThresholdError(
            f"invalid-d: d={params.d} is below the small-set threshold "
            f"2b/(1-lambda)={threshold}"
        )
    alpha = (1.0 + params.d) / (1.0 + 2.0 * cert.b + cert.lam * params.d)
    u = 1.0 + 2.0 * (cert.lam * params.d + cert.b)
    log_ratio_drift = params.r * math.log(u) - (1.0 - params.r) * math.log(alpha)
    log_ratio_minorization = params.r * log1mexp(cert.epsilon.log_value)
    return RosenthalIngredients(
        rosenthal_alpha=alpha,
        u=u,
        log_ratio_minorization=log_ratio_minorization,
        log_ratio_drift=log_ratio_drift,
        coefficient=cert.coefficient,
    )


def rosenthal_bound(
    cert: DriftMinorization, params: RosenthalParams, steps: StepCount
) -> LogMagnitude:
    """Evaluate (1-eps)^(r*steps) + (u^r / alpha^(1-r))^steps * coefficient.

    Raises ``NonContractingError`` when the drift ratio exceeds 1 (the
    formula then grows and certifies nothing); a ratio of exactly 1 is
    degenerate but well defined, so the value is returned with a
    ``NonContractingWarning``.
    """
    steps = _check_steps(steps)
    ing = rosenthal_ingredients(cert, params)
    if ing.log_ratio_drift > 0.0:
        raise NonContractingError(
            "non-contracting-parameters: u^r/alpha^(1-r) = "
            f"{math.exp(ing.log_ratio_drift)} exceeds 1 for d={params.d}, r={params.r}"
        )
    if ing.log_ratio_drift == 0.0:
        warnings.warn(
            "non-contracting-parameters: u^r/alpha^(1-r) equals 1; the bound "
            "never decays below its coefficient",
            NonContractingWarning,
            stacklevel=2,
        )
    return LogMagnitude(ing.bound.log_at(steps))


def rosenthal_min_steps(
    cert: DriftMinorization,
    params: RosenthalParams,
    target: float,
) -> StepCount:
    """Minimal step count at which the drift/minorization bound <= target."""
    target = check_target(target)
    ing = rosenthal_ingredients(cert, params)
    if ing.log_ratio_drift >= 0.0:
        raise NonContractingError(
            "non-contracting-parameters: the drift term never decays "
            f"(u^r/alpha^(1-r) = {math.exp(ing.log_ratio_drift)}), so the bound "
            f"stays above its coefficient {ing.coefficient} >= 1 > {target}"
        )
    return ing.bound.min_steps(target)


@dataclass(frozen=True)
class RosenthalGridCell:
    """Outcome of one (d, r) grid point: solved steps or the failure kind."""

    params: RosenthalParams
    min_steps: StepCount | None
    status: str  # "ok" | "infeasible" | "non-contracting" | "no-solution"
    detail: str = ""

    @property
    def log10_steps(self) -> float | None:
        return math.log10(self.min_steps) if self.min_steps else None


def rosenthal_cell(
    cert: DriftMinorization, params: RosenthalParams, target: float
) -> RosenthalGridCell:
    """Solve one (d, r) point, or record why it has no answer ("infeasible",
    "non-contracting" or "no-solution"); any other error propagates."""
    try:
        steps = rosenthal_min_steps(cert, params, target)
    except ValidityThresholdError as exc:
        status, failure = "infeasible", exc
    except NonContractingError as exc:
        status, failure = "non-contracting", exc
    except NoSolutionError as exc:
        status, failure = "no-solution", exc
    else:
        return RosenthalGridCell(params, steps, "ok")
    return RosenthalGridCell(params, None, status, str(failure))


@dataclass(frozen=True)
class RosenthalGridResult:
    best_params: RosenthalParams
    min_steps: StepCount
    cells: tuple[RosenthalGridCell, ...]


def rosenthal_grid_optimize(
    cert: DriftMinorization,
    target: float,
    d_grid: Sequence[float],
    r_grid: Sequence[float],
) -> RosenthalGridResult:
    """Minimize the solved step count over a (d, r) grid.

    Infeasible and non-contracting cells are recorded and skipped; ties on
    step count are broken by smaller d, then smaller r.  Raises
    ``EmptyFeasibleGridError`` when no cell survives.
    """
    if not d_grid or not r_grid:
        raise ParameterError("empty-feasible-grid: d and r grids must be non-empty")
    cells = [
        rosenthal_cell(cert, RosenthalParams(d=d, r=r), target) for d in d_grid for r in r_grid
    ]
    feasible = [c for c in cells if c.status == "ok"]
    if not feasible:
        raise EmptyFeasibleGridError(
            "empty-feasible-grid: no (d, r) grid point satisfies the constraints"
        )
    best = min(feasible, key=lambda c: (c.min_steps, c.params.d, c.params.r))
    return RosenthalGridResult(
        best_params=best.params, min_steps=best.min_steps, cells=tuple(cells)
    )


def _two_term(ratio_a: float, ratio_b: float, weight: float) -> GeometricBound:
    for name, ratio in (("A", ratio_a), ("B", ratio_b)):
        if not 0.0 <= float(ratio) < 1.0:
            raise ParameterError(f"invalid ratio: {name} must lie in [0, 1), got {ratio}")
    if float(weight) < 0.0:
        raise ParameterError(f"weight must be nonnegative, got {weight}")
    return GeometricBound(
        "the two-term bound",
        0,
        (
            GeometricTerm(1.0, LogMagnitude.from_linear(float(ratio_a)).log_value),
            GeometricTerm(float(weight), LogMagnitude.from_linear(float(ratio_b)).log_value),
        ),
    )


def two_term_bound(
    ratio_a: float, ratio_b: float, weight: float, steps: StepCount
) -> float:
    """Evaluate A^steps + weight * B^steps (both ratios in [0, 1))."""
    steps = _check_steps(steps)
    return math.exp(_two_term(ratio_a, ratio_b, weight).log_at(steps))


def two_term_min_steps(
    ratio_a: float, ratio_b: float, weight: float, target: float
) -> StepCount:
    """Minimal step count with A^steps + weight * B^steps <= target."""
    return _two_term(ratio_a, ratio_b, weight).min_steps(target)


def random_scan_validity_threshold(n: int) -> int:
    """Smallest step count where the random-scan upper bound is stated: ceil(3n/4)."""
    return -((-3 * _check_n(n)) // 4)


def systematic_validity_threshold(n: int) -> int:
    """Smallest step count where the systematic upper bound is stated: ceil(3n/16)."""
    return -((-3 * _check_n(n)) // 16)


def random_scan_rate(n: int) -> float:
    """Per-step geometric rate of the balanced random scan: (1 + sqrt(n/(n+2)))/2."""
    n = _check_n(n)
    return 0.5 + 0.5 * math.sqrt(n / (n + 2.0))


def systematic_rate(n: int) -> float:
    """Per-sweep geometric rate of the systematic scan: n/(n+2) = 1 - 2/(n+2)."""
    n = _check_n(n)
    return n / (n + 2.0)


SYSTEMATIC_ORDERS = ("x_theta", "theta_x")


def systematic_upper_bound(n: int, order: str = "x_theta") -> GeometricBound:
    """10 * (1 - 2/(n+2))^e on systematic-scan TV, for steps >= ceil(3n/16).

    The exponent depends on the sweep order: e = steps for the x-then-theta
    sweep and e = steps - 1/2 for the theta-then-x sweep (that chain is half
    a sweep ahead when watched on the x coordinate).
    """
    n = _check_n(n)
    if order not in SYSTEMATIC_ORDERS:
        raise ParameterError(
            f"unknown sweep order {order!r}; expected one of {SYSTEMATIC_ORDERS}"
        )
    offset = 0.0 if order == "x_theta" else -0.5
    return GeometricBound(
        "the systematic upper bound",
        systematic_validity_threshold(n),
        (GeometricTerm(10.0, math.log(systematic_rate(n)), offset),),
    )


def random_scan_upper_bound(n: int) -> GeometricBound:
    """3 e^{-(steps-1)/8} + 10 sqrt((n+2)/n) * rate^(steps-1), steps >= ceil(3n/4).

    ``rate`` is (1 + sqrt(n/(n+2)))/2.  Values above 1 are vacuous but kept
    as-is so curves stay smooth.
    """
    n = _check_n(n)
    return GeometricBound(
        "the random-scan upper bound",
        random_scan_validity_threshold(n),
        (
            GeometricTerm(3.0, _AZUMA_LOG_RATE, -1.0),
            GeometricTerm(10.0 * math.sqrt((n + 2.0) / n), math.log(random_scan_rate(n)), -1.0),
        ),
    )


def random_scan_lower_bound(n: int) -> GeometricBound:
    """(1/3) * (1 - 1/(n+2))^steps on random-scan TV.

    Applicability note: the derivation assumes the chain starts in the upper
    half of the parameter range (theta0 >= 1/2); the formula is evaluated
    regardless and that condition travels as report metadata.
    """
    n = _check_n(n)
    return GeometricBound(
        "the random-scan lower bound",
        0,
        (GeometricTerm(1.0 / 3.0, math.log1p(-1.0 / (n + 2.0))),),
    )


def eigen_witness_bound(n: int, witness_weight: float) -> GeometricBound:
    """(witness_weight / 2) * (n/(n+2))^steps on systematic-scan TV.

    The x-chain eigenfunction x - n/2 has eigenvalue n/(n+2); from a start
    x0 with ``witness_weight`` = |x0 - n/2| / (n/2) it witnesses this lower
    bound at every step.
    """
    return GeometricBound(
        "the eigenvalue lower bound",
        0,
        (GeometricTerm(0.5 * witness_weight, math.log(systematic_rate(n))),),
    )


def random_scan_lower(n: int, steps: StepCount) -> float:
    """``random_scan_lower_bound(n)`` at one step count, steps >= 1."""
    return random_scan_lower_bound(n).at(_check_steps(steps, minimum=1))


def random_scan_upper(n: int, steps: StepCount) -> float:
    """``random_scan_upper_bound(n)`` at one step count at or above its gate."""
    return random_scan_upper_bound(n).at(steps)


def systematic_upper(n: int, steps: StepCount, order: str = "x_theta") -> float:
    """``systematic_upper_bound(n, order)`` at one step count at or above its gate."""
    return systematic_upper_bound(n, order).at(steps)


def chisq_min_steps_pg(
    j: int,
    log_stationary,
    target: float,
    decay_rate: float,
) -> StepCount:
    """First step count at which the chi-square bound from a start at j,
    sqrt(1/m(j)) * decay_rate^steps, drops to the target.

    ``log_stationary`` holds the log weights of the (truncated) stationary
    law m.  The constant -1/2 log m(j) is carried as the term's offset, so a
    mass below the smallest float still has a crossing.  Sharp in rate, poor in
    constant for far-out starts: at the flat-shape decay rate 1/2 the
    constant costs (j+1)/2 extra halving steps.
    """
    if not is_integer(j) or int(j) < 0:
        raise ParameterError(f"start state j must be a nonnegative integer, got {j!r}")
    log_weights = np.asarray(log_stationary, dtype=float)
    if int(j) >= log_weights.shape[0]:
        raise ParameterError(
            f"j beyond truncation: start {j} outside the {log_weights.shape[0]}-state law"
        )
    log_mass = float(log_weights[int(j)])
    if not -math.inf < log_mass <= 0.0:
        raise ParameterError(
            f"stationary log mass at j={j} must be finite and at most 0, got {log_mass}"
        )
    if not 0.0 < float(decay_rate) < 1.0:
        raise ParameterError(f"decay rate must lie in (0, 1), got {decay_rate}")
    log_rate = math.log(decay_rate)
    return GeometricBound(
        "the chi-square bound", 0, (GeometricTerm(1.0, log_rate, -0.5 * log_mass / log_rate),)
    ).min_steps(target)


def scan_time_ratio(n: int) -> float:
    """Work-normalized rate ratio of systematic over random scan; tends to 2.

    One systematic sweep performs two conditional refreshes while one
    random-scan step performs one, so comparable units are conditional
    draws.  The ratio returned is ln(systematic per-sweep rate) divided by
    2 ln(random per-step rate) — the factor by which random scan needs more
    conditional draws for the same accuracy.  As n grows this tends to 2:
    the balanced random scan takes about twice the work.
    """
    return math.log(systematic_rate(n)) / (2.0 * math.log(random_scan_rate(n)))
