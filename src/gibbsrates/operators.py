"""Simulation of scan strategies and the combinatorics of update words.

Two views of the same object live here.  The stochastic view runs the
actual two-component sampler: a *step* refreshes theta from its
conditional, x from its conditional, or one of the two at random, and a
Monte Carlo estimator tracks how the exact joint eigenfunction decays
under the random scan.

The algebraic view treats each step as a letter — P1 refreshes theta, P2
refreshes x — so an l-step random scan is a length-l word in {P1, P2}.
Conditional refreshes are idempotent projections (P1 P1 = P1), so every
raw word collapses to an alternating reduced word.  ``collapse_census``
counts, exhaustively, how many of the 2^l raw words collapse to each
reduced word, and ``alpha_multipliers`` refines the count into the exact
polynomial weight alpha^i (1-alpha)^(l-i) each reduced word receives when
P1 is chosen with probability alpha.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .families import BetaBinomialFamily, PoissonGammaFamily, bb_eigenfunction_phi
from .numerics import StepCount, is_integer

# Exhaustive word enumeration is capped at 2^20 raw words.
MAX_WORD_LENGTH = 20
# Monte Carlo decay estimates below this sample count are too noisy to report.
MIN_DECAY_SAMPLES = 1000

THETA_LETTER = "P1"
X_LETTER = "P2"
LETTERS = (THETA_LETTER, X_LETTER)

SCAN_KINDS = ("systematic_theta_x", "systematic_x_theta", "random")


@dataclass(frozen=True)
class JointState:
    """One joint configuration (x, theta) of the sampler."""

    x: int
    theta: float

    def __post_init__(self) -> None:
        if not is_integer(self.x):
            raise ParameterError(f"state x must be an integer, got {self.x!r}")
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ParameterError(f"state theta must be finite, got {self.theta!r}")
        object.__setattr__(self, "x", int(self.x))
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class ScanStrategy:
    """Which coordinate(s) a step refreshes, and in what order.

    ``systematic_theta_x`` refreshes theta then x each step (one full
    sweep); ``systematic_x_theta`` is the opposite sweep; ``random``
    refreshes theta with probability ``scan_weight`` and x otherwise.
    """

    kind: str
    scan_weight: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise ParameterError(
                f"unknown-scan-kind: {self.kind!r} is not one of {SCAN_KINDS}"
            )
        if self.kind == "random":
            if self.scan_weight is None:
                raise ParameterError("a random scan needs a scan_weight")
            weight = float(self.scan_weight)
            if not 0.0 <= weight <= 1.0:
                raise ParameterError(f"scan weight must lie in [0, 1], got {weight}")
            object.__setattr__(self, "scan_weight", weight)
        elif self.scan_weight is not None:
            raise ParameterError("scan_weight applies only to the random scan")

    @classmethod
    def random_scan(cls, scan_weight: float = 0.5) -> "ScanStrategy":
        return cls(kind="random", scan_weight=scan_weight)


Family = BetaBinomialFamily | PoissonGammaFamily


def step(
    fam: Family, state: JointState, strategy: ScanStrategy, rng: np.random.Generator
) -> JointState:
    """Advance one step; the draw order within a step is part of the contract."""
    fam.check_x(state.x)
    fam.check_theta(state.theta)
    if strategy.kind == "systematic_theta_x":
        theta = float(fam.draw_theta(rng, state.x))
        x = int(fam.draw_x(rng, theta))
        return JointState(x=x, theta=theta)
    if strategy.kind == "systematic_x_theta":
        x = int(fam.draw_x(rng, state.theta))
        theta = float(fam.draw_theta(rng, x))
        return JointState(x=x, theta=theta)
    # random scan: one uniform decides the coordinate, then one conditional draw
    if rng.random() < strategy.scan_weight:
        return JointState(x=state.x, theta=float(fam.draw_theta(rng, state.x)))
    return JointState(x=int(fam.draw_x(rng, state.theta)), theta=state.theta)


def _seeded_generator(seed: int) -> np.random.Generator:
    """A generator for a nonnegative integer seed; anything else is refused."""
    if not is_integer(seed) or seed < 0:
        raise ParameterError(f"seed must be a nonnegative integer, got {seed!r}")
    return np.random.default_rng(seed)


def run_trajectory(
    fam: Family,
    start: JointState,
    strategy: ScanStrategy,
    n_steps: StepCount,
    seed: int = 0,
) -> list[JointState]:
    """Simulate ``n_steps`` steps from ``start``; returns n_steps + 1 states."""
    if not is_integer(n_steps) or int(n_steps) < 0:
        raise ParameterError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    rng = _seeded_generator(seed)
    states = [start]
    for _ in range(int(n_steps)):
        states.append(step(fam, states[-1], strategy, rng))
    return states


def eigenfunction_decay(
    fam: BetaBinomialFamily,
    start: JointState,
    strategy: ScanStrategy,
    n_steps: StepCount,
    samples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[phi(state after n_steps)] under a random scan.

    Returns (estimate, standard error) from ``samples`` independent
    replicas advanced in lockstep off a single generator.  The exact
    answer is phi(start) * lambda^n_steps with lambda the level-1 scan
    eigenvalue, so this is the simulation cross-check of the spectral
    machinery.  At n_steps = 0 the estimate is exact: (phi(start), 0.0).
    """
    if not isinstance(fam, BetaBinomialFamily):
        raise ParameterError("the decay diagnostic is defined for the beta-binomial family")
    fam.require_flat_prior("the decay diagnostic")
    if strategy.kind != "random":
        raise ParameterError("the decay diagnostic tracks the random scan; "
                             f"got strategy kind {strategy.kind!r}")
    if not is_integer(n_steps) or int(n_steps) < 0:
        raise ParameterError(f"n_steps must be a nonnegative integer, got {n_steps!r}")
    if not is_integer(samples) or int(samples) < MIN_DECAY_SAMPLES:
        raise ParameterError(
            f"samples must be an integer >= {MIN_DECAY_SAMPLES} for a stable "
            f"standard error, got {samples!r}"
        )
    rng = _seeded_generator(seed)
    n_steps = int(n_steps)
    samples = int(samples)
    start_value = float(bb_eigenfunction_phi(fam, start.x, start.theta))
    if n_steps == 0:
        return start_value, 0.0
    x = np.full(samples, start.x, dtype=np.int64)
    theta = np.full(samples, start.theta, dtype=float)
    for _ in range(n_steps):
        pick_theta = rng.random(samples) < strategy.scan_weight
        if np.any(pick_theta):
            theta[pick_theta] = fam.draw_theta(rng, x[pick_theta])
        pick_x = ~pick_theta
        if np.any(pick_x):
            x[pick_x] = fam.draw_x(rng, theta[pick_x])
    values = bb_eigenfunction_phi(fam, x, theta)
    estimate = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(samples))
    return estimate, std_error


@dataclass(frozen=True)
class Word:
    """A word in the update letters P1 (refresh theta) and P2 (refresh x)."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        letters = tuple(self.letters)
        if not letters:
            raise ParameterError("a word needs at least one letter")
        for letter in letters:
            if letter not in LETTERS:
                raise ParameterError(f"unknown letter {letter!r}; use one of {LETTERS}")
        object.__setattr__(self, "letters", letters)

    @property
    def name(self) -> str:
        return "".join(self.letters)

    def __len__(self) -> int:
        return len(self.letters)


def _alternating_word(first_is_theta: bool, runs: int) -> Word:
    letters = []
    current = THETA_LETTER if first_is_theta else X_LETTER
    for _ in range(runs):
        letters.append(current)
        current = X_LETTER if current == THETA_LETTER else THETA_LETTER
    return Word(letters=tuple(letters))


_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount(values: np.ndarray) -> np.ndarray:
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values).astype(np.int64)
    total = np.zeros(values.shape, dtype=np.int64)
    work = values.copy()
    for _ in range(4):  # 32 bits cover lengths up to MAX_WORD_LENGTH
        total += _POPCOUNT_TABLE[work & 0xFF]
        work >>= 8
    return total


def _check_word_length(length: int) -> int:
    if not is_integer(length) or not 1 <= int(length) <= MAX_WORD_LENGTH:
        raise ParameterError(
            f"word length must be an integer in 1..{MAX_WORD_LENGTH} "
            f"(exhaustive enumeration of 2^length words), got {length!r}"
        )
    return int(length)


@lru_cache(maxsize=None)
def _word_stats(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(first_is_theta, runs, theta_count) for every raw word of a length.

    Raw words are bit masks: bit (length - 1) is the first letter and a set
    bit means P1 (refresh theta).
    """
    masks = np.arange(1 << length, dtype=np.int64)
    first = (masks >> (length - 1)) & 1
    transitions = (masks ^ (masks >> 1)) & ((1 << (length - 1)) - 1)
    runs = 1 + _popcount(transitions)
    theta_count = _popcount(masks)
    return first, runs, theta_count


@dataclass(frozen=True)
class CollapseCensus:
    """How many of the 2^length raw words collapse to each reduced word."""

    length: int
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def by_name(self) -> dict[str, int]:
        return {word.name: count for word, count in self.counts.items()}


def collapse_census(length: int) -> CollapseCensus:
    """Exhaustively reduce all 2^length raw words and tally the outcomes.

    The counts follow a closed form — a reduced word with L runs absorbs
    C(length - 1, L - 1) raw words — but the census is computed by brute
    enumeration precisely so that closed form can be tested against it.
    """
    length = _check_word_length(length)
    first, runs, _ = _word_stats(length)
    keys = first * length + (runs - 1)
    tallies = np.bincount(keys, minlength=2 * length)
    counts: dict[Word, int] = {}
    for first_bit in (1, 0):  # P1-first words, then P2-first
        for run_count in range(1, length + 1):
            tally = int(tallies[first_bit * length + (run_count - 1)])
            if tally:
                counts[_alternating_word(first_bit == 1, run_count)] = tally
    return CollapseCensus(length=length, counts=counts)


@dataclass(frozen=True)
class AlphaMultiplier:
    """Scan-weight polynomial attached to one reduced word.

    ``coeffs[i]`` counts raw words with exactly i theta-refreshes that
    collapse to ``word``; the word's probability under scan weight alpha is
    sum_i coeffs[i] * alpha^i * (1 - alpha)^(length - i).
    """

    length: int
    word: Word
    coeffs: tuple[int, ...]

    def evaluate_exact(self, scan_weight: Fraction) -> Fraction:
        alpha = Fraction(scan_weight)
        if not 0 <= alpha <= 1:
            raise ParameterError(f"scan weight must lie in [0, 1], got {alpha}")
        return sum(
            (
                c * alpha**i * (1 - alpha) ** (self.length - i)
                for i, c in enumerate(self.coeffs)
                if c
            ),
            Fraction(0),
        )


def alpha_multipliers(length: int) -> tuple[AlphaMultiplier, ...]:
    """The exact scan-weight polynomial of every reduced word of a length."""
    length = _check_word_length(length)
    first, runs, theta_count = _word_stats(length)
    keys = (first * length + (runs - 1)) * (length + 1) + theta_count
    tallies = np.bincount(keys, minlength=2 * length * (length + 1))
    multipliers = []
    for first_bit in (1, 0):
        for run_count in range(1, length + 1):
            base = (first_bit * length + (run_count - 1)) * (length + 1)
            coeffs = tuple(int(tallies[base + i]) for i in range(length + 1))
            if any(coeffs):
                multipliers.append(
                    AlphaMultiplier(
                        length=length,
                        word=_alternating_word(first_bit == 1, run_count),
                        coeffs=coeffs,
                    )
                )
    return tuple(multipliers)
