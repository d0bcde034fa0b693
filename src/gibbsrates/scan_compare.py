"""Side-by-side comparison of exact mixing against every analytic bound.

The centerpiece experiment: for the flat-prior beta-binomial sampler the
exact total-variation distance from the worst start is computable by dense
linear algebra, so each analytic certificate can be graded against the
truth.  The outcome is stark — the drift/minorization machinery certifies
~10^34 steps for a chain whose exact mixing takes a couple of hundred,
while the eigenvalue-based bounds land within an order of magnitude.

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

import numpy as np
from scipy.special import gammaln, logsumexp

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
    BetaBinomialFamily,
    PoissonGammaFamily,
    bb_drift_minorization,
    bb_eigenfunction_phi,
    bb_xchain,
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
    is_integer,
    iterate_tv,
    json_text,
    jsonable,
)
from .operators import (
    MAX_WORD_LENGTH,
    THETA_LETTER,
    JointState,
    ScanStrategy,
    collapse_census,
    eigenfunction_decay,
)

# Kept for importers; the worst-start search no longer depends on it.
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

def exact_tv_curve(
    matrix: StochasticMatrix,
    stationary: Distribution,
    start: int,
    max_steps: StepCount,
) -> np.ndarray:
    """TV to stationarity at steps 0..max_steps (at most 10^5) from a point start."""
    if not is_integer(max_steps) or int(max_steps) < 0:
        raise ParameterError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    max_steps = int(max_steps)
    if max_steps > MAX_COMPARE_STEPS:
        raise ParameterError(
            f"max_steps {max_steps} exceeds the exact-iteration cap {MAX_COMPARE_STEPS}"
        )
    return np.concatenate(list(iterate_tv(matrix, stationary, [start], max_steps)))[:, 0]


def first_crossing(curve: np.ndarray, target: float) -> StepCount | None:
    """First index at which the curve drops to the target, or None."""
    hits = np.nonzero(curve <= target)[0]
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class WorstStart:
    """Outcome of the worst-start search: which start, and how slow."""

    start: int
    min_steps: StepCount


def worst_start_search(
    matrix: StochasticMatrix,
    stationary: Distribution,
    target: float,
    max_steps: StepCount,
) -> WorstStart:
    """Find the start needing the most steps to bring TV down to the target.

    Every start is searched, by binary lifting over the powers K^(2^j).  TV
    from a fixed start never increases with the step count (Levin, Peres &
    Wilmer, ch. 4), so each start's last step above the target is the sum
    of the powers, largest first, that keep it above; one more product
    confirms every crossing.  The cost is about 2 log2(max_steps) dense
    products instead of one per step.  Ties break toward the smaller start.
    """
    target = check_target(target)
    pi = stationary.weights
    max_steps = int(max_steps)

    def tv_rows(laws: np.ndarray) -> np.ndarray:
        return 0.5 * np.abs(laws - pi).sum(axis=1)

    powers = [matrix.entries]  # powers[j] = K^(2^j)
    while np.any(tv_rows(powers[-1]) > target) and 2 ** len(powers) <= max_steps:
        powers.append(powers[-1] @ powers[-1])
    # The starts above the target at step 0 (a point mass at i is at TV
    # 1 - pi_i), their last step known to be above it, and their laws at
    # that step.  A start still at step 0 is a point mass, so its law after
    # a power is that power's row, read off rather than multiplied.
    active = np.flatnonzero(1.0 - pi > target)
    last = np.zeros(active.size, dtype=np.int64)
    laws = np.empty((active.size, matrix.dim))

    def advance(rows: np.ndarray, power: np.ndarray) -> np.ndarray:
        moved = power[active[rows]]
        walked = last[rows] > 0
        moved[walked] = laws[rows[walked]] @ power
        return moved

    for j in reversed(range(len(powers))):
        trying = np.flatnonzero(last + 2**j <= max_steps)
        moved = advance(trying, powers[j])
        above = tv_rows(moved) > target
        laws[trying[above]] = moved[above]
        last[trying[above]] += 2**j
    everyone = np.arange(active.size)
    if np.any(last >= max_steps) or np.any(tv_rows(advance(everyone, matrix.entries)) > target):
        raise NoSolutionError(
            f"target-not-reached: some starts still exceed TV {target} "
            f"after {max_steps} steps; raise max_steps"
        )
    crossing = np.zeros(matrix.dim, dtype=np.int64)
    crossing[active] = last + 1
    worst = int(np.argmax(crossing))  # argmax returns the first (smallest) tie
    return WorstStart(start=worst, min_steps=int(crossing[worst]))


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

    def payload(self) -> dict:
        """The JSON result before rounding; ``curves`` is also the CSV table."""
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

    ``d``, ``r`` and ``v_x0`` parameterize the drift/minorization summary
    entry; ``decay_samples > 0`` additionally runs the Monte Carlo
    eigenfunction cross-check with that many replicas.
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

    fam = BetaBinomialFamily(n=n)
    matrix, stationary = bb_xchain(fam)
    worst = worst_start_search(matrix, stationary, target, max_steps)
    curve = exact_tv_curve(matrix, stationary, worst.start, max_steps)
    t = worst.min_steps
    if curve[t] > target or (t > 0 and curve[t - 1] <= target):
        raise ConvergenceError(
            f"internal-invariant: the search puts the crossing of start {worst.start} "
            f"at step {t}, but its TV curve first reaches {target} at step "
            f"{first_crossing(curve, target)}"
        )

    witness_weight = abs(worst.start - n / 2.0) / (n / 2.0)
    # In ComparisonRow column order after the exact curve.
    systematic, lower, upper, eigen = bounds = (
        systematic_upper_bound(n),
        random_scan_lower_bound(n),
        random_scan_upper_bound(n),
        eigen_witness_bound(n, witness_weight),
    )
    steps = np.arange(1, max_steps + 1)
    exact = curve[1:]
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
        strategy = ScanStrategy.random_scan(0.5)
        for index, length in enumerate(DECAY_CHECK_STEPS):
            observed, std_error = eigenfunction_decay(
                fam, start_state, strategy, length, samples=decay_samples, seed=seed + index
            )
            decay_rows.append(
                DecayCheckRow(
                    steps=length,
                    observed=observed,
                    std_error=std_error,
                    predicted=phi0 * rate**length,
                )
            )

    notes = {
        "worst_start": f"exhaustive scan over all {matrix.dim} starts",
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
    if not is_integer(n) or int(n) < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    if not is_integer(steps) or int(steps) < 1:
        raise ParameterError(f"steps must be a positive integer, got {steps!r}")
    steps = int(steps)
    if steps > REBUILD_MAX_STEPS:
        raise ParameterError(
            f"word-by-word reconstruction is capped at {REBUILD_MAX_STEPS} steps, "
            f"got {steps}"
        )
    bound = random_scan_upper_bound(n)
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
    different predictions — rows make that contrast concrete.
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


def pg_mixing_demo(
    j_list,
    target: float = 0.01,
    shape: float = 1.0,
    rate: float = 1.0,
    x_max: int = 400,
) -> PgMixingDemo:
    """Exact versus chi-square mixing times for Poisson-gamma far starts.

    Starts must stay at or below x_max/2 so truncation never touches the
    answer.  The chi-square column decays at the x-chain's second
    eigenvalue, the Meixner closed form 1/(1 + rate) for every shape (1/2 in
    the flat case shape = rate = 1), from the log stationary mass at the
    start, so a start whose mass underflows a float still gets its row.
    """
    target = check_target(target)
    fam = PoissonGammaFamily(shape=shape, rate=rate, x_max=x_max)
    starts = list(j_list)
    if not starts:
        raise ParameterError("at least one start state is required")
    margin = fam.x_max // 2
    for j in starts:
        if not 0 <= j <= margin:
            raise ParameterError(
                f"start-too-deep: start {j} must lie in 0..{margin} "
                f"(half of x_max={fam.x_max}) to keep truncation error away"
            )
    matrix, stationary = pg_xchain(fam)
    log_stationary = pg_log_stationary(fam)
    decay_rate = fam.meixner_eigenvalue(1)
    crossed = np.full(len(starts), -1)
    first = 0  # the step of the chunk's first row
    for chunk in iterate_tv(matrix, stationary, starts, MAX_COMPARE_STEPS):
        below = chunk <= target
        hit = (crossed < 0) & below.any(axis=0)
        crossed[hit] = first + below[:, hit].argmax(axis=0)
        first += len(chunk)
        if crossed.min() >= 0:
            break
    else:
        raise NoSolutionError(
            f"target-not-reached: start {starts[int(np.argmin(crossed))]} needs more "
            f"than {MAX_COMPARE_STEPS} exact steps"
        )
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
