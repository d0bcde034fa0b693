"""Side-by-side comparison of exact mixing against every analytic bound.

The centerpiece experiment: for the flat-prior beta-binomial sampler the
exact total-variation distance from the worst start is a closed
eigen-expansion over the Gram basis (Hahn eigenvalues, Gram polynomials),
so each analytic certificate can be graded against the truth.  The
outcome is stark — the drift/minorization machinery certifies ~10^34
steps for a chain whose exact mixing takes a couple of hundred, while the
eigenvalue-based bounds land within an order of magnitude.

Also here: an exhaustive-word reconstruction of the random-scan upper
bound (the binomial coefficients in that bound are exactly the collapse
census of update words, and the two computations must agree), and the
Poisson-gamma demo showing exact mixing in log(start) steps against the
chi-square bound's linear-in-start prediction.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
# Log-gamma values come from ``numerics.gammaln`` (scipy's bits); nothing
# here imports scipy.

from .bounds import (
    RosenthalParams,
    check_target,
    chisq_min_steps_pg,
    eigen_witness_bound,
    random_scan_lower_bound,
    random_scan_rate,
    random_scan_upper_bound,
    rosenthal_cell,
    scan_time_ratio,
    systematic_upper_bound,
)
from .errors import ConvergenceError, NoSolutionError, ParameterError
from .families import (
    BASIS_MAX_LEVEL,
    EPS,
    BetaBinomialFamily,
    OrthonormalBasis,
    PoissonGammaFamily,
    bb_drift_minorization,
    bb_eigenfunction_phi,
    check_dense_states,
    gram_basis,
    meixner_basis,
    pg_log_stationary,
    pg_xchain,
)
from .numerics import (
    LN2,
    Distribution,
    GatedColumn,
    RowTable,
    StepCount,
    StochasticMatrix,
    check_start,
    gammaln,
    is_integer,
    iterate_tv,
    json_text,
    jsonable,
    logsumexp,
)
from .operators import (
    MAX_WORD_LENGTH,
    THETA_LETTER,
    JointState,
    ScanStrategy,
    check_decay_samples,
    collapse_census,
    eigenfunction_decay,
)

# Unused by the program: only the benchmark's tracer (perfbench/tracing.py,
# _worst_start_counts) reads it, to estimate dense products the search no
# longer runs; tests/test_bench_contract.py guards that import.  It goes
# when the tracer stops reading it.
FULL_SCAN_LIMIT = 512
# Exact matrix work in `compare` is capped at this n.
MAX_COMPARE_N = 2000
# And at this many exact steps.
MAX_COMPARE_STEPS = 10**5
# The word-by-word bound reconstruction is capped here.
REBUILD_MAX_STEPS = 10**4
# Agreement demanded between the reconstructed and closed-form sums.
REBUILD_SELF_CHECK_TOL = 1e-9
# Slack allowed when asserting provable orderings between computed curves.
ROW_INVARIANT_SLACK = 1e-9
# Step counts at which the Monte Carlo decay cross-check is evaluated.
DECAY_CHECK_STEPS = (1, 2, 5, 10)
# The certified TV evaluator holds at most this many (start, step, state)
# values at once, and the certified crossing search probes this many steps
# per start in each round.
CERTIFY_BLOCK = 1 << 22
CERTIFY_PROBES = 16
# The spectral TV curve evaluates at most this many (step, state) values at once.
CURVE_BLOCK = 1 << 20

def exact_tv_curve(
    matrix: StochasticMatrix | None,
    stationary: Distribution | None,
    start: int,
    max_steps: StepCount,
    *,
    basis: OrthonormalBasis | None = None,
) -> np.ndarray:
    """TV to stationarity at steps 0..max_steps (at most 10^5) from a point start.

    Given the chain's eigenbasis (``gram_basis``, which holds every level
    the expansion's cut can keep), the curve is the chain's eigen-expansion
    (``_basis_tv``); pass None for ``matrix`` and ``stationary``, which are
    not read.  Without ``basis`` it is the dense loop's, ``iterate_tv`` on
    ``matrix`` (``exact-tv --family pg``), which repeats its last few
    values once the laws, scaled to their mass, repeat.
    """
    start, max_steps = check_tv_query(start, max_steps, (matrix if basis is None else basis).dim)
    if basis is not None:
        return _basis_tv(basis, start, max_steps)
    return np.concatenate(list(iterate_tv(matrix, stationary, [start], max_steps)))[:, 0]


def check_tv_query(start, max_steps, dim: int) -> tuple[int, int]:
    """The start and step count of ``exact_tv_curve`` on ``dim`` states as
    ints, or a ``ParameterError``; cheap, so a caller can run it before it
    builds the chain or basis."""
    if not is_integer(max_steps) or int(max_steps) < 0:
        raise ParameterError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    steps = int(max_steps)
    if steps > MAX_COMPARE_STEPS:
        raise ParameterError(
            f"max_steps {steps} exceeds the exact-iteration cap {MAX_COMPARE_STEPS}"
        )
    check_start(start, dim)
    return int(start), steps


def _curve_buffers(basis: OrthonormalBasis, max_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The chunk buffers of ``_basis_tv`` on ``basis`` up to ``max_steps``:
    room for a chunk's (steps, states) values and its (steps, levels)
    coefficients.  A search allocates them once for all its curves, so a
    fresh process does not page-fault megabytes of new temporaries per
    chunk."""
    rows = min(max(1, CURVE_BLOCK // basis.dim), max_steps)
    return np.empty(rows * basis.dim), np.empty(rows * (basis.log_eigenvalues.size - 2))


def _basis_tv(
    basis: OrthonormalBasis, start: int, max_steps: int, buffers: tuple | None = None
) -> np.ndarray:
    """TV at steps 0..max_steps from ``start`` by the expansion of ``basis``.

    K^t(x, y) - m(y) = sqrt(m(y)) sum_{k>=1} lambda_k^t p_k(x) phi_k(y), so
    TV(t) = 1/2 sum_y sqrt(m(y)) |sum_{k>=1} lambda_k^t p_k(x) phi_k(y)|;
    step 0 is 1 - m(x) exactly.  The steps run in chunks of 1, 2, 4, ...
    steps, at most ``CURVE_BLOCK`` values each.  A chunk keeps the levels up
    to the last one whose term |lambda_k^t p_k(x)| at its first step exceeds
    EPS / dim of the largest: with t, the ratio of a higher level's term to
    a lower one's only falls, so the terms dropped in the whole chunk add up
    to at most EPS times the largest, below the rounding of the sum kept.

    Once a chunk keeps one level k and every level below it has a zero
    coefficient (level 1 from most starts; level 2 from the centre of an
    even n, where the recurrence makes p_1 exactly 0), the levels above k
    stay below the cut and those below stay 0, so the rest of the curve is
    that level's closed form (Diaconis, Khare & Saloff-Coste 2008),
    1/2 |lambda_k^t p_k(x)| sum_y |phi_k(y)| phi_0(y), filled in one vector
    expression.  Once a chunk keeps none, the rest is 0.0, as the
    expansion gives.  Each chunk works in ``buffers`` (``_curve_buffers``)
    through ``out=``.
    """
    values, coeffs = _curve_buffers(basis, max_steps) if buffers is None else buffers
    curve = np.empty(max_steps + 1)
    curve[0] = -math.expm1(basis.log_mass[start])
    poly = basis.polynomials([start])[1:, 0]
    log_levels = basis.log_eigenvalues[1:-1]
    cap = max(1, CURVE_BLOCK // basis.dim)
    first, size = 1, 1
    while first <= max_steps:
        lead = np.exp(first * log_levels) * np.abs(poly)
        kept = np.flatnonzero(lead > EPS / basis.dim * lead.max())
        top = int(kept[-1]) + 1 if kept.size else 0
        if top == 0:
            curve[first:] = 0.0
            break
        if not lead[: top - 1].any():
            tail = np.exp(np.arange(first, max_steps + 1) * log_levels[top - 1]) * poly[top - 1]
            curve[first:] = 0.5 * np.abs(tail) * (np.abs(basis.phi[top]) @ basis.phi[0])
            break
        steps = np.arange(first, min(first + size, max_steps + 1))
        coeff = coeffs[: steps.size * top].reshape(steps.size, top)
        np.multiply(steps[:, None], log_levels[:top], out=coeff)
        np.exp(coeff, out=coeff)
        coeff *= poly[:top]
        terms = values[: steps.size * basis.dim].reshape(steps.size, basis.dim)
        np.abs(np.matmul(coeff, basis.phi[1 : top + 1], out=terms), out=terms)
        chunk = curve[first : first + steps.size]
        np.matmul(terms, basis.phi[0], out=chunk)
        chunk *= 0.5
        first += steps.size
        size = min(2 * size, cap)
    return curve


def first_crossing(curve: np.ndarray, target: float) -> StepCount | None:
    """First index at which the curve drops to the target, or None."""
    hits = np.nonzero(curve <= target)[0]
    return int(hits[0]) if hits.size else None


class _StartTerms(NamedTuple):
    """The factors of ``_certified_tv`` that depend on the start alone, one
    row per start: log m(x), the coefficients p_0..p_K(x) with level 0 set
    to 0 (it is m itself, which K^t - m has lost), the log of the
    Christoffel tail's coefficient sqrt(1/m(x) - sum_{k<=K} p_k(x)^2), and
    whether any of them overflowed."""

    log_mass: np.ndarray
    poly: np.ndarray
    log_christoffel: np.ndarray
    unknown: np.ndarray

    def take(self, index) -> "_StartTerms":
        return _StartTerms(*(column[index] for column in self))


def _start_terms(basis: OrthonormalBasis, starts) -> _StartTerms:
    """``_StartTerms`` of ``starts``; the Christoffel coefficient is taken in
    the log domain, with the subtraction's rounding added."""
    x = np.asarray(starts, dtype=np.int64)
    log_m = basis.log_mass[x]
    poly = basis.polynomials(x)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_sum = logsumexp(2.0 * np.log(np.abs(poly)), axis=0)
        share = np.exp(log_sum + log_m)  # m(x) sum_{k<=K} p_k(x)^2, at most 1
        rest = np.maximum(1.0 - share, 0.0) + 4 * (basis.levels + 2) * EPS * share
        log_christoffel = 0.5 * (np.log(rest) - log_m)
    unknown = ~(np.isfinite(log_christoffel) & np.isfinite(poly).all(axis=0))
    poly[0] = 0.0
    return _StartTerms(log_m, poly.T, log_christoffel, unknown)


def _certified_tv(
    basis: OrthonormalBasis, terms: _StartTerms, steps
) -> tuple[np.ndarray, np.ndarray]:
    """TV_K from each start at its row of ``steps``, and a bound on its distance
    to the dense TV, both of the shape of ``steps`` (one row per start).

    From a start x the chain ``basis`` diagonalizes has
    K^t(x, y) - m(y) = sqrt(m(y)) sum_{k>=1} lambda_k^t p_k(x) phi_k(y), so
    TV_K(t) = 1/2 sum_y sqrt(m(y)) |sum_{1<=k<=K} lambda_k^t p_k(x) phi_k(y)|,
    one (pairs x K)(K x dim) product.  Its distance to the TV the dense loop
    prints is at most the sum of:

    * the Christoffel tail 1/2 lambda_{K+1}^t sqrt(1/m(x) - sum_{k<=K} p_k(x)^2)
      (Cauchy-Schwarz over the levels above K, whose p_k(x)^2 sum to the
      rest of 1/m(x));
    * (t + 1) times the basis's ``step_error``: one per step of the dense
      chain, and one for its stationary law;
    * rounding: the basis's Gram residual plus 4 (K + 2) ulps, times
      1/2 sum_k |lambda_k^t p_k(x)|.

    Step 0 is read exactly as 1 - m(x), within one ``step_error``.  A start
    whose polynomials or Christoffel tail overflow gets an infinite bound.
    """
    t = np.asarray(steps, dtype=np.int64).reshape(terms.log_mass.size, -1)
    rounding = 0.5 * (basis.gram_residual + 4 * (basis.levels + 2) * EPS)
    log_levels, log_tail = basis.log_eigenvalues[:-1], basis.log_eigenvalues[-1]
    tv = np.empty(t.shape)
    error = (t + 1) * basis.step_error
    chunk = max(1, CERTIFY_BLOCK // (t.shape[1] * basis.dim))
    # Step 0 makes 0 * -inf of a zero tail rate; its entries are replaced below.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, t.shape[0], chunk):
            part = slice(first, first + chunk)
            # coeff[s, p, k] = lambda_k^t[s, p] p_k(x_s)
            coeff = np.exp(t[part, :, None] * log_levels) * terms.poly[part, None, :]
            flat = coeff.reshape(-1, basis.levels + 1)
            tv[part] = (0.5 * (np.abs(flat @ basis.phi) @ basis.phi[0])).reshape(coeff.shape[:2])
            error[part] += (
                0.5 * np.exp(t[part] * log_tail + terms.log_christoffel[part, None])
                + rounding * np.abs(coeff).sum(axis=2)
            )
    at_zero = t == 0
    tv[at_zero] = -np.expm1(np.broadcast_to(terms.log_mass[:, None], t.shape)[at_zero])
    error[at_zero] = basis.step_error
    error[terms.unknown] = np.inf
    return tv, error


def _certified_crossings(
    basis: OrthonormalBasis, terms: _StartTerms, target: float, last: int
) -> np.ndarray:
    """Each start's crossing of the target where ``_certified_tv`` decides it.

    A decided start gets its crossing in 0..``last``, or ``last`` + 1 if it
    is certified above the target at step ``last``; an undecided one gets
    -1.  TV never rises with t (Levin, Peres & Wilmer, ch. 4), so a start
    crosses at t if its bounds put TV(t) at or below the target and
    TV(t - 1) above it.  Each round probes ``CERTIFY_PROBES`` steps of
    every open start: until one is certified at or below the target, the
    steps after the last probe at a stride of one more than it (0..15,
    then 16..256, ...), and after that steps spread over the gap down to
    the last probe that was not.  A probe that decides neither way only
    moves the search: early steps, where the Christoffel tail can exceed
    1, settle nothing, and only the step just before the crossing must be
    certified above.  Only ``pg_mixing_demo`` searches this way; the
    beta-binomial search reads its crossings from the printed curves.
    """
    size = terms.log_mass.size
    low = np.full(size, -1)  # the last step probed and not certified below
    low_above = np.zeros(size, dtype=bool)  # whether it was certified above
    high = np.full(size, last + 1)  # the first step certified below
    probes = np.arange(CERTIFY_PROBES)
    index = np.arange(size)
    while index.size:
        low_i, high_i = low[index, None], high[index, None]
        stride = np.where(high_i <= last, 0, np.maximum(low_i + 1, 1))
        spread = (high_i - low_i - 1) * probes // CERTIFY_PROBES
        steps = np.minimum(low_i + 1 + np.where(stride > 0, stride * probes, spread), last)
        tv, error = _certified_tv(basis, terms.take(index), steps)
        below = tv + error <= target
        hit = below.any(axis=1)
        first = np.where(hit, np.argmax(below, axis=1), CERTIFY_PROBES)
        high[index[hit]] = steps[hit, first[hit]]
        moved = first > 0
        before = first[moved] - 1
        low[index[moved]] = steps[moved, before]
        low_above[index[moved]] = (tv - error > target)[moved, before]
        index = index[high[index] - low[index] > 1]
    return np.where((low < 0) | low_above, high, -1)


@dataclass(frozen=True)
class WorstStart:
    """Outcome of the worst-start search: which start, how slow, and its TV
    curve at steps 0..max_steps (``_basis_tv``), whose first crossing of the
    target is ``min_steps``."""

    start: int
    min_steps: StepCount
    curve: np.ndarray = field(compare=False, repr=False)


def _not_reached(target: float, max_steps: int) -> NoSolutionError:
    return NoSolutionError(
        f"target-not-reached: some starts still exceed TV {target} "
        f"after {max_steps} steps; raise max_steps"
    )


def worst_start_search(
    basis: OrthonormalBasis, target: float, *, max_steps: StepCount
) -> WorstStart:
    """Find the start needing the most steps to bring TV down to the target.

    ``basis`` is the eigenbasis of the chain (``gram_basis`` for the flat
    beta-binomial, every level the expansion's cut can keep), and every
    start is searched with no chain power.  A start's crossing is always
    the first crossing of its own curve from the expansion (``_basis_tv``),
    the curve ``compare`` prints.  The candidate is the first start
    maximizing |p_1(x)|, the start the slowest eigenfunction weighs most;
    its curve gives its crossing t*.  The certificate (``_certified_tv`` on
    levels 0..``BASIS_MAX_LEVEL``, the Christoffel tail covering the rest)
    only proves that no other start is slower: that every later start is
    at or below the target at t* and every earlier one at t* - 1.  Each
    start that fails this gets the crossing of its own curve, and the worst
    is the first maximum over the candidate and those starts.  Only the
    current worst curve is held.
    """
    target = check_target(target)
    max_steps = int(max_steps)
    head = dataclasses.replace(
        basis,
        phi=basis.phi[: BASIS_MAX_LEVEL + 1],
        log_eigenvalues=basis.log_eigenvalues[: BASIS_MAX_LEVEL + 2],
    )
    states = np.arange(basis.dim)
    terms = _start_terms(head, states)

    buffers = _curve_buffers(basis, max_steps)

    def own_crossing(start: int) -> tuple[int, np.ndarray]:
        curve = _basis_tv(basis, start, max_steps, buffers)
        hit = first_crossing(curve, target)
        if hit is None:
            raise _not_reached(target, max_steps)
        return hit, curve

    candidate = int(np.argmax(np.abs(terms.poly[:, 1])))
    worst, curve = own_crossing(candidate)
    # The step at which each other start must be certified at or below the
    # target for the candidate to be the first start to need ``worst`` steps.
    bound = np.where(states < candidate, worst - 1, worst)
    others = np.flatnonzero((states != candidate) & (bound >= 0))
    tv, error = _certified_tv(head, terms.take(others), bound[others])
    start = candidate
    for x in others[(tv + error > target)[:, 0]]:
        hit, own = own_crossing(int(x))
        if hit > worst or (hit == worst and x < start):
            start, worst, curve = int(x), hit, own
    return WorstStart(start=start, min_steps=worst, curve=curve)


@dataclass(frozen=True)
class ComparisonRow:
    """All curves at one step count; None marks a bound below its validity gate."""

    steps: StepCount
    exact_tv_systematic: float
    systematic_bound: float | None
    random_scan_lower: float | None
    random_scan_upper: float | None
    eigen_lower: float


def _columns(row_type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(row_type))


CSV_COLUMNS = _columns(ComparisonRow)


@dataclass(frozen=True)
class DecayCheckRow:
    """Monte Carlo eigenfunction mean against its exact geometric prediction."""

    steps: StepCount
    observed: float
    std_error: float
    predicted: float


DECAY_CHECK_COLUMNS = _columns(DecayCheckRow)


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Exact mixing of the flat-prior beta-binomial model versus its bounds.

    ``curves`` holds the per-step columns, in ``ComparisonRow`` order: the
    step array, the exact TV of the systematic chain, its analytic upper
    bound, the balanced random scan's lower and upper bounds and the
    eigenvalue lower bound, each bound a ``GatedColumn``.  ``rows`` gives
    the same numbers as ``ComparisonRow``s, built on first access.
    ``min_steps`` summarizes each curve's first crossing of the target,
    including the drift/minorization answer, which is the headline
    contrast.  ``work_ratio_random_vs_systematic`` divides random-scan
    steps by systematic conditional draws (two per sweep) at the target.
    """

    n: int
    target: float
    worst_start: int
    curves: RowTable
    min_steps: dict
    work_ratio_random_vs_systematic: float
    scan_time_ratio: float
    notes: dict = field(default_factory=dict)
    decay_check: tuple[DecayCheckRow, ...] = ()

    @functools.cached_property
    def rows(self) -> tuple[ComparisonRow, ...]:
        """One ``ComparisonRow`` per step, None where a bound is below its gate."""
        return tuple(itertools.starmap(ComparisonRow, self.curves.iter_rows()))

    @property
    def table(self) -> RowTable:
        """The CSV table: ``curves``, which is also the JSON ``rows``."""
        return self.curves

    def payload(self) -> dict:
        """The JSON result before rounding."""
        return {
            "n": self.n,
            "target": self.target,
            "worst_start": self.worst_start,
            "min_steps": self.min_steps,
            "work_ratio_random_vs_systematic": self.work_ratio_random_vs_systematic,
            "scan_time_ratio": self.scan_time_ratio,
            "rows": self.curves,
            "decay_check": RowTable.from_rows(
                DECAY_CHECK_COLUMNS, map(dataclasses.astuple, self.decay_check)
            ),
            "notes": self.notes,
        }

    def to_jsonable(self) -> dict:
        return jsonable(self.payload())

    def to_json(self) -> str:
        return json_text(self.payload())

    def to_csv(self) -> str:
        return self.curves.to_csv()


def _check_row_invariants(steps, exact, bounds, values) -> None:
    """Raise at the first step where the tabulated curves break a provable order.

    Eigenvalue lower <= exact <= systematic upper, and random-scan lower <=
    random-scan upper where the latter is valid and informative (below 1).
    ``bounds`` are the four row bounds in ``ComparisonRow`` order and
    ``values`` their values at ``steps``, gates not applied.
    """
    systematic, _, upper, _ = bounds
    syst, low, up, eig = values
    slack = ROW_INVARIANT_SLACK
    # Message fields: {0} exact, {1} systematic, {2} eigen, {3} lower, {4} upper.
    checks = (
        (eig > exact + slack, "eigenvalue lower bound {2} exceeds the exact TV {0}"),
        (
            (steps >= systematic.gate) & (exact > syst + slack),
            "exact TV {0} exceeds the systematic upper bound {1}",
        ),
        (
            (steps >= upper.gate) & (up < 1.0) & (low > up + slack),
            "random-scan lower bound {3} exceeds the upper bound {4}",
        ),
    )
    broken = np.array([violated for violated, _ in checks])
    failing = np.flatnonzero(broken.any(axis=0))
    if failing.size:
        i = int(failing[0])
        message = checks[int(np.argmax(broken[:, i]))][1]
        fields = (float(curve[i]) for curve in (exact, syst, eig, low, up))
        raise ConvergenceError(
            f"internal-invariant: {message.format(*fields)} at step {steps[i]}"
        )


def compare(
    n: int,
    max_steps: StepCount = 400,
    target: float = 0.01,
    d: float = 1000.0,
    r: float = 0.001,
    v_x0: float = 0.0,
    decay_samples: int = 0,
    seed: int = 0,
) -> ComparisonReport:
    """Run the full exact-versus-bounds comparison for a flat-prior model.

    The Gram basis of the chain (``gram_basis``) answers the exact
    part, and no dense chain is built: ``worst_start_search`` gives the
    worst start, its curve, the basis's eigen-expansion, which is printed,
    and that curve's first crossing of the target.  ``d``, ``r`` and
    ``v_x0`` parameterize the drift/minorization summary entry;
    ``decay_samples > 0`` additionally runs the Monte Carlo eigenfunction
    cross-check with that many replicas, one set of paths seeded by ``seed``
    and read at each horizon of ``DECAY_CHECK_STEPS``.
    """
    if not is_integer(n) or not 1 <= int(n) <= MAX_COMPARE_N:
        raise ParameterError(
            f"compare-n-out-of-range: n must be an integer in 1..{MAX_COMPARE_N} "
            f"(dense exact computation), got {n!r}"
        )
    n = int(n)
    if not is_integer(max_steps) or not 1 <= int(max_steps) <= MAX_COMPARE_STEPS:
        raise ParameterError(
            f"max_steps must be an integer in 1..{MAX_COMPARE_STEPS}, got {max_steps!r}"
        )
    max_steps = int(max_steps)
    target = check_target(target)
    if decay_samples:
        check_decay_samples(decay_samples, "decay_samples")

    fam = BetaBinomialFamily(n=n)
    basis = gram_basis(fam)
    worst = worst_start_search(basis, target, max_steps=max_steps)

    witness_weight = abs(worst.start - n / 2.0) / (n / 2.0)
    # In ComparisonRow column order after the exact curve.
    systematic, lower, upper, eigen = bounds = (
        systematic_upper_bound(n),
        random_scan_lower_bound(n),
        random_scan_upper_bound(n),
        eigen_witness_bound(n, witness_weight),
    )
    steps = np.arange(1, max_steps + 1)
    exact = worst.curve[1:]
    values = [bound.values(steps) for bound in bounds]
    _check_row_invariants(steps, exact, bounds, values)
    gated = []
    for bound, column in zip(bounds, values):
        below = int(np.searchsorted(steps, bound.gate))
        gated.append(GatedColumn(below, column[below:]))
    curves = RowTable(CSV_COLUMNS, (steps, exact, *gated))
    systematic_steps = systematic.min_steps(target)
    random_upper_steps = upper.min_steps(target)

    cert = bb_drift_minorization(fam, x0=0)
    if v_x0:
        cert = dataclasses.replace(cert, v_x0=float(v_x0))
    cell = rosenthal_cell(cert, RosenthalParams(d=d, r=r), target)
    rosenthal_entry = {
        "d": cell.params.d,
        "r": cell.params.r,
        "status": cell.status,
        "steps": cell.min_steps,
        "log10_steps": cell.log10_steps,
    }
    if cell.status != "ok":
        rosenthal_entry["detail"] = cell.detail

    min_steps = {
        "exact": worst.min_steps,
        "systematic_upper": systematic_steps,
        "random_scan_upper": random_upper_steps,
        "random_scan_lower_at_least": lower.min_steps(target),
        "eigen_lower_at_least": eigen.min_steps(target),
        "rosenthal": rosenthal_entry,
    }

    decay_rows: list[DecayCheckRow] = []
    if decay_samples:
        rate = random_scan_rate(n)
        theta0 = 0.0 if worst.start <= n / 2 else 1.0
        start_state = JointState(x=worst.start, theta=theta0)
        phi0 = float(bb_eigenfunction_phi(fam, worst.start, theta0))
        estimates = eigenfunction_decay(
            fam,
            start_state,
            ScanStrategy.random_scan(0.5),
            DECAY_CHECK_STEPS,
            samples=decay_samples,
            seed=seed,
        )
        for length, (observed, std_error) in zip(DECAY_CHECK_STEPS, estimates):
            decay_rows.append(
                DecayCheckRow(
                    steps=length,
                    observed=observed,
                    std_error=std_error,
                    predicted=phi0 * rate**length,
                )
            )

    notes = {
        "worst_start": f"exhaustive scan over all {basis.dim} starts",
        "exact_chain": (
            "x-marginal of the theta-then-x sweep; one step equals one full sweep"
        ),
        "work_units": (
            "one systematic sweep performs two conditional draws, one random-scan "
            "step performs one; the work ratio divides random-scan steps by "
            "2 * systematic sweeps"
        ),
        "random_scan_lower_condition": (
            "the random-scan lower bound assumes the theta coordinate starts in "
            "its upper half; it is tabulated for the worst x start regardless"
        ),
        "vacuous_policy": "upper-bound values above 1 are tabulated as-is",
    }

    return ComparisonReport(
        n=n,
        target=target,
        worst_start=worst.start,
        curves=curves,
        min_steps=min_steps,
        work_ratio_random_vs_systematic=random_upper_steps / (2.0 * systematic_steps),
        scan_time_ratio=scan_time_ratio(n),
        notes=notes,
        decay_check=tuple(decay_rows),
    )


def rebuild_random_scan_upper(n: int, steps: StepCount) -> float:
    """Reassemble the random-scan upper bound from first principles.

    The bound's main term is a sum over reduced update words: a word with
    j runs carries weight C(steps-1, j-1) / 2^(steps-1) under the balanced
    scan and contracts like x^(j-1) with x = sqrt(n/(n+2)).  For
    steps <= 20 the binomial weights are taken from the exhaustive collapse
    census; beyond that they are evaluated by log-gamma.  Either way the
    sum must reproduce the closed form ((1+x)/2)^(steps-1) to 1e-9, and the
    Azuma tail 3 e^{-(steps-1)/8} is added back on top.
    """
    bound = random_scan_upper_bound(n)  # validates n
    n = int(n)
    if not is_integer(steps) or int(steps) < 1:
        raise ParameterError(f"steps must be a positive integer, got {steps!r}")
    steps = int(steps)
    if steps > REBUILD_MAX_STEPS:
        raise ParameterError(
            f"word-by-word reconstruction is capped at {REBUILD_MAX_STEPS} steps, "
            f"got {steps}"
        )
    bound.check_steps(steps)
    x = math.sqrt(n / (n + 2.0))
    if steps <= MAX_WORD_LENGTH:
        census = collapse_census(steps)
        weighted = 0.0
        for word, count in census.counts.items():
            if word.letters[0] == THETA_LETTER:
                weighted += count * x ** (len(word) - 1)
        main_sum = weighted / 2.0 ** (steps - 1)
    else:
        j = np.arange(1, steps + 1, dtype=float)
        log_terms = (
            gammaln(float(steps))
            - gammaln(j)
            - gammaln(steps - j + 1.0)
            + (j - 1.0) * math.log(x)
            - (steps - 1.0) * LN2
        )
        main_sum = float(np.exp(logsumexp(log_terms)))
    closed = random_scan_rate(n) ** (steps - 1)
    if abs(main_sum - closed) > REBUILD_SELF_CHECK_TOL * closed:
        raise ConvergenceError(
            f"word-by-word sum {main_sum} disagrees with its closed form {closed}"
        )
    azuma, main = bound.terms
    return float(azuma.at(steps)) + main.coeff * main_sum


@dataclass(frozen=True)
class PgDemoRow:
    """Exact crossing versus the chi-square prediction for one start."""

    start: int
    exact_min_steps: StepCount
    chisq_min_steps: StepCount


PG_DEMO_COLUMNS = _columns(PgDemoRow)


@dataclass(frozen=True)
class PgMixingDemo:
    """Poisson-gamma mixing from far-out starts: log(start) versus start/2.

    The exact chain forgets a start at j in about log2(j) extra steps; the
    chi-square bound charges (j+1)/2 extra steps because its constant pays
    the full 1/sqrt(stationary mass at j).  Same decay rate, wildly
    different predictions — rows make that contrast concrete.  An exact
    crossing is the one the truncated dense chain would give: certified
    from the Meixner expansion, or read from the dense chain where that
    certificate cannot decide.
    """

    shape: float
    rate: float
    x_max: int
    target: float
    decay_rate: float
    rows: tuple[PgDemoRow, ...]
    notes: dict = field(default_factory=dict)

    @property
    def table(self) -> RowTable:
        """``rows`` as a table: the JSON ``rows`` and the CSV table."""
        return RowTable.from_rows(PG_DEMO_COLUMNS, map(dataclasses.astuple, self.rows))

    def payload(self) -> dict:
        """The JSON result before rounding."""
        return {
            "shape": self.shape,
            "rate": self.rate,
            "x_max": self.x_max,
            "target": self.target,
            "decay_rate": self.decay_rate,
            "rows": self.table,
            "notes": self.notes,
        }

    def to_jsonable(self) -> dict:
        return jsonable(self.payload())

    def to_json(self) -> str:
        return json_text(self.payload())

    def to_csv(self) -> str:
        return self.table.to_csv()


def _pg_certified_crossings(fam: PoissonGammaFamily, starts, target: float) -> np.ndarray:
    """Each start's crossing where the Meixner expansion certifies it, else -1.

    ``_certified_crossings`` on ``meixner_basis(fam)``, whose step error
    holds the truncation: the untruncated chain the basis diagonalizes and
    the truncated dense one differ by a row tail below ``TRUNCATION_TOL``
    per step.  A start not settled within ``MAX_COMPARE_STEPS`` steps, or
    before the (t + 1) step terms alone reach the target, is left at -1.
    """
    basis = meixner_basis(fam)
    last = min(MAX_COMPARE_STEPS, int(target / basis.step_error))
    crossing = _certified_crossings(basis, _start_terms(basis, starts), target, last)
    crossing[crossing > last] = -1
    return crossing


def _pg_dense_crossings(fam: PoissonGammaFamily, starts, target: float) -> np.ndarray:
    """Each start's first step at or below the target on the dense chain.

    A start whose curve stays above the target through ``MAX_COMPARE_STEPS``
    is refused.  If the loop stopped because its scaled laws repeat, the
    curve repeats its last chunk for ever, and the refusal names the lowest
    value that start repeats.
    """
    matrix, stationary = pg_xchain(fam)
    crossed = np.full(len(starts), -1)
    first = 0  # the step of the chunk's first row
    for chunk in iterate_tv(matrix, stationary, starts, MAX_COMPARE_STEPS):
        below = chunk <= target
        hit = (crossed < 0) & below.any(axis=0)
        crossed[hit] = first + below[:, hit].argmax(axis=0)
        first += len(chunk)
        if crossed.min() >= 0:
            return crossed
    i = int(np.argmin(crossed))
    if len(chunk) == 1:
        raise NoSolutionError(
            f"target-not-reached: start {starts[i]} needs more than {MAX_COMPARE_STEPS} exact steps"
        )
    raise NoSolutionError(
        f"target-not-reached: the exact TV from start {starts[i]} never reaches the target "
        f"{target}: from step {first - len(chunk)} on it repeats values no lower than "
        f"{chunk[:, i].min():.3g}"
    )


def pg_mixing_demo(
    j_list,
    target: float = 0.01,
    shape: float = 1.0,
    rate: float = 1.0,
    x_max: int = 400,
) -> PgMixingDemo:
    """Exact versus chi-square mixing times for Poisson-gamma far starts.

    Starts must stay at or below x_max/2 so truncation never touches the
    answer.  The exact column is the crossing of the truncated dense chain:
    certified from the Meixner expansion (``_pg_certified_crossings``) where
    it can decide, and otherwise read from that chain, built once for the
    starts left.  The chain's ``MAX_DENSE_STATES`` cap applies either way.
    The chi-square column decays at the x-chain's second eigenvalue, the
    Meixner closed form 1/(1 + rate) for every shape (1/2 in the flat case
    shape = rate = 1), from the log stationary mass at the start, so a
    start whose mass underflows a float still gets its row.
    """
    target = check_target(target)
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    starts = list(j_list)
    if not starts:
        raise ParameterError("at least one start state is required")
    margin = fam.x_max // 2
    for j in starts:
        if is_integer(j) and not 0 <= j <= margin:
            raise ParameterError(
                f"start-too-deep: start {j} must lie in 0..{margin} "
                f"(half of x_max={fam.x_max}) to keep truncation error away"
            )
        check_start(j, fam.x_max + 1)
    check_dense_states(fam.x_max + 1)
    crossed = _pg_certified_crossings(fam, starts, target)
    undecided = np.flatnonzero(crossed < 0)
    if undecided.size:
        crossed[undecided] = _pg_dense_crossings(fam, [starts[i] for i in undecided], target)
    log_stationary = pg_log_stationary(fam)
    decay_rate = fam.meixner_eigenvalue(1)
    rows = [
        PgDemoRow(
            start=int(j),
            exact_min_steps=int(steps),
            chisq_min_steps=chisq_min_steps_pg(j, log_stationary, target, decay_rate),
        )
        for j, steps in zip(starts, crossed)
    ]
    notes = {
        "contrast": (
            "exact crossings grow like log2(start); chi-square crossings grow "
            "like start/2 because the bound pays 1/sqrt(stationary mass at the start)"
        ),
    }
    return PgMixingDemo(
        shape=fam.shape,
        rate=fam.rate,
        x_max=fam.x_max,
        target=target,
        decay_rate=decay_rate,
        rows=tuple(rows),
        notes=notes,
    )
