"""Scan simulation, update words, collapse census, and alpha multipliers."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from gibbsrates import (
    BetaBinomialFamily,
    JointState,
    ParameterError,
    PoissonGammaFamily,
    ScanStrategy,
    UnsupportedPriorError,
    Word,
    alpha_multipliers,
    bb_eigenfunction_phi,
    bb_xchain,
    collapse_census,
    eigenfunction_decay,
    random_scan_rate,
    run_trajectory,
    step,
)
from gibbsrates import operators
from gibbsrates.operators import MAX_WORD_LENGTH


# ---------------------------------------------------------------------------
# JointState / ScanStrategy
# ---------------------------------------------------------------------------


def test_joint_state_coerces_and_validates():
    state = JointState(x=np.int64(3), theta=0.25)
    assert state.x == 3 and isinstance(state.x, int)
    assert state.theta == 0.25
    with pytest.raises(ParameterError):
        JointState(x=1.5, theta=0.25)
    with pytest.raises(ParameterError):
        JointState(x=1, theta=math.inf)
    with pytest.raises(ParameterError):
        JointState(x=1, theta=math.nan)


def test_scan_strategy_validation():
    with pytest.raises(ParameterError, match="unknown-scan-kind"):
        ScanStrategy(kind="diagonal")
    with pytest.raises(ParameterError):
        ScanStrategy(kind="random")  # weight required
    with pytest.raises(ParameterError):
        ScanStrategy(kind="random", scan_weight=1.5)
    with pytest.raises(ParameterError):
        ScanStrategy(kind="systematic_theta_x", scan_weight=0.5)
    assert ScanStrategy.random_scan().scan_weight == 0.5


# ---------------------------------------------------------------------------
# step: the draw order is part of the contract
# ---------------------------------------------------------------------------


def test_step_theta_then_x_replicates_manual_draws():
    fam = BetaBinomialFamily(n=6)
    start = JointState(x=2, theta=0.9)
    got = step(fam, start, ScanStrategy(kind="systematic_theta_x"), np.random.default_rng(42))
    rng = np.random.default_rng(42)
    theta = float(fam.draw_theta(rng, start.x))
    x = int(fam.draw_x(rng, theta))
    assert got == JointState(x=x, theta=theta)
    # theta is refreshed from the *old* x, then x from the *new* theta.
    assert got.theta != start.theta


def test_step_x_then_theta_replicates_manual_draws():
    fam = BetaBinomialFamily(n=6)
    start = JointState(x=2, theta=0.9)
    got = step(fam, start, ScanStrategy(kind="systematic_x_theta"), np.random.default_rng(42))
    rng = np.random.default_rng(42)
    x = int(fam.draw_x(rng, start.theta))
    theta = float(fam.draw_theta(rng, x))
    assert got == JointState(x=x, theta=theta)


def test_step_random_scan_replicates_branching():
    fam = BetaBinomialFamily(n=6)
    start = JointState(x=2, theta=0.9)
    strategy = ScanStrategy.random_scan(0.5)
    for seed in range(8):
        got = step(fam, start, strategy, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            expected = JointState(x=start.x, theta=float(fam.draw_theta(rng, start.x)))
        else:
            expected = JointState(x=int(fam.draw_x(rng, start.theta)), theta=start.theta)
        assert got == expected
    # Both branches must occur across these seeds.
    results = [
        step(fam, start, strategy, np.random.default_rng(seed)) for seed in range(8)
    ]
    assert any(r.x == start.x for r in results)
    assert any(r.theta == start.theta for r in results)


def test_step_extreme_weights_freeze_a_coordinate():
    fam = BetaBinomialFamily(n=6)
    always_theta = run_trajectory(
        fam, JointState(x=3, theta=0.5), ScanStrategy.random_scan(1.0), 5, seed=9
    )
    assert all(state.x == 3 for state in always_theta)
    always_x = run_trajectory(
        fam, JointState(x=3, theta=0.5), ScanStrategy.random_scan(0.0), 5, seed=9
    )
    assert all(state.theta == 0.5 for state in always_x)


def test_step_validates_state_against_family():
    fam = BetaBinomialFamily(n=4)
    with pytest.raises(ParameterError):
        step(fam, JointState(x=9, theta=0.5), ScanStrategy(kind="systematic_theta_x"),
             np.random.default_rng(0))


def test_step_poisson_gamma():
    fam = PoissonGammaFamily()
    out = step(fam, JointState(x=3, theta=1.0), ScanStrategy(kind="systematic_theta_x"),
               np.random.default_rng(1))
    assert out.x >= 0 and out.theta > 0.0


# ---------------------------------------------------------------------------
# run_trajectory
# ---------------------------------------------------------------------------


def test_run_trajectory_shape_and_determinism():
    fam = BetaBinomialFamily(n=5)
    start = JointState(x=0, theta=0.5)
    strategy = ScanStrategy.random_scan(0.5)
    first = run_trajectory(fam, start, strategy, 20, seed=3)
    second = run_trajectory(fam, start, strategy, 20, seed=3)
    assert len(first) == 21
    assert first[0] == start
    assert first == second
    other = run_trajectory(fam, start, strategy, 20, seed=4)
    assert other != first
    with pytest.raises(ParameterError):
        run_trajectory(fam, start, strategy, -1)
    with pytest.raises(ParameterError):
        run_trajectory(fam, start, strategy, 2.5)


@pytest.mark.parametrize("seed", [-1, np.int64(-5), 1.5, 2.0, True, "3", None])
def test_seed_must_be_a_nonnegative_integer(seed):
    # numpy alone raises ValueError for a negative seed and TypeError for a
    # float or string, takes a bool as 0 or 1, and draws fresh entropy for None.
    fam = BetaBinomialFamily(n=4)
    start = JointState(x=2, theta=0.5)
    with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
        run_trajectory(fam, start, ScanStrategy(kind="systematic_theta_x"), 3, seed=seed)
    for steps in (0, 1):
        with pytest.raises(ParameterError, match="seed must be a nonnegative integer"):
            eigenfunction_decay(
                fam, start, ScanStrategy.random_scan(0.5), steps, samples=1000, seed=seed
            )


def test_single_step_frequencies_match_kernel_row():
    # ~4000 one-step draws from a fixed state against the exact transition row.
    scipy_stats = pytest.importorskip("scipy.stats")
    fam = BetaBinomialFamily(n=5)
    matrix, _ = bb_xchain(fam)
    start = JointState(x=2, theta=0.5)
    rng = np.random.default_rng(2024)
    draws = 4000
    counts = np.zeros(6, dtype=int)
    for _ in range(draws):
        counts[step(fam, start, ScanStrategy(kind="systematic_theta_x"), rng).x] += 1
    expected = draws * matrix.entries[2]
    result = scipy_stats.chisquare(counts, expected)
    assert result.pvalue > 1e-4


# ---------------------------------------------------------------------------
# eigenfunction_decay
# ---------------------------------------------------------------------------


def test_decay_zero_steps_is_exact():
    fam = BetaBinomialFamily(n=10)
    start = JointState(x=10, theta=1.0)
    estimate, std_error = eigenfunction_decay(
        fam, start, ScanStrategy.random_scan(0.5), 0, samples=1000
    )
    assert estimate == bb_eigenfunction_phi(fam, 10, 1.0)
    assert std_error == 0.0


def test_decay_tracks_spectral_prediction():
    fam = BetaBinomialFamily(n=10)
    start = JointState(x=10, theta=1.0)
    phi0 = bb_eigenfunction_phi(fam, 10, 1.0)
    rate = random_scan_rate(10)
    for steps in (1, 3, 5):
        estimate, std_error = eigenfunction_decay(
            fam, start, ScanStrategy.random_scan(0.5), steps, samples=20000, seed=1
        )
        assert std_error > 0.0
        assert abs(estimate - rate**steps * phi0) <= 5.0 * std_error


def test_decay_validation():
    fam = BetaBinomialFamily(n=4)
    start = JointState(x=2, theta=0.5)
    random = ScanStrategy.random_scan(0.5)
    with pytest.raises(ParameterError):
        eigenfunction_decay(PoissonGammaFamily(), JointState(x=2, theta=0.5), random, 1)
    with pytest.raises(UnsupportedPriorError):
        eigenfunction_decay(BetaBinomialFamily(n=4, a=2.0), start, random, 1)
    with pytest.raises(ParameterError, match="decay diagnostic"):
        eigenfunction_decay(fam, start, ScanStrategy(kind="systematic_theta_x"), 1)
    with pytest.raises(ParameterError):
        eigenfunction_decay(fam, start, random, 1, samples=999)
    with pytest.raises(ParameterError):
        eigenfunction_decay(fam, start, random, -1)


# ---------------------------------------------------------------------------
# Word / word_reduce
# ---------------------------------------------------------------------------


def test_word_round_trip():
    word = Word(letters=("P1", "P2", "P1"))
    assert word.letters == ("P1", "P2", "P1")
    assert word.name == "P1P2P1"
    assert len(word) == 3


def test_word_validation():
    with pytest.raises(ParameterError):
        Word(letters=())
    with pytest.raises(ParameterError):
        Word(letters=("P3",))


# ---------------------------------------------------------------------------
# collapse_census
# ---------------------------------------------------------------------------


def test_census_length_one():
    assert collapse_census(1).by_name() == {"P1": 1, "P2": 1}


def test_census_length_three():
    census = collapse_census(3)
    assert census.by_name() == {
        "P1": 1,
        "P1P2": 2,
        "P1P2P1": 1,
        "P2": 1,
        "P2P1": 2,
        "P2P1P2": 1,
    }
    # Reduced words come theta-first then x-first, shortest first.
    assert list(census.by_name()) == [
        "P1", "P1P2", "P1P2P1", "P2", "P2P1", "P2P1P2",
    ]
    assert census.total == 8


def test_census_matches_groupby_reduction():
    # Reference: collapse every raw word's adjacent repeats with groupby
    # (conditional refreshes are idempotent) and tally the reduced names.
    for length in range(1, 11):
        expected = {}
        for letters in itertools.product(("P1", "P2"), repeat=length):
            name = "".join(letter for letter, _ in itertools.groupby(letters))
            expected[name] = expected.get(name, 0) + 1
        assert collapse_census(length).by_name() == expected


def test_census_length_five_single_word():
    assert collapse_census(5).by_name()["P1P2"] == math.comb(4, 1)


@pytest.mark.parametrize("length", range(1, 15))
def test_census_matches_binomial_closed_form(length):
    census = collapse_census(length)
    for word, count in census.counts.items():
        assert count == math.comb(length - 1, len(word) - 1)
    assert census.total == 2**length
    assert sum(census.counts.values()) == 2**length


def test_census_validation():
    with pytest.raises(ParameterError):
        collapse_census(0)
    with pytest.raises(ParameterError):
        collapse_census(MAX_WORD_LENGTH + 1)
    with pytest.raises(ParameterError):
        collapse_census(2.5)


# ---------------------------------------------------------------------------
# alpha_multipliers
# ---------------------------------------------------------------------------


def _composition_count(total: int, parts: int) -> int:
    """Compositions of ``total`` into ``parts`` positive integers."""
    if parts == 0:
        return 1 if total == 0 else 0
    if total < parts:
        return 0
    return math.comb(total - 1, parts - 1)


def test_multipliers_length_three_coefficients():
    table = {m.word.name: m.coeffs for m in alpha_multipliers(3)}
    assert table == {
        "P1": (0, 0, 0, 1),
        "P1P2": (0, 1, 1, 0),
        "P1P2P1": (0, 0, 1, 0),
        "P2": (1, 0, 0, 0),
        "P2P1": (0, 1, 1, 0),
        "P2P1P2": (0, 1, 0, 0),
    }


@pytest.mark.parametrize("length", range(1, 11))
def test_multiplier_coefficients_match_composition_oracle(length):
    # coeffs[i] counts raw words with i theta-letters collapsing to the word;
    # splitting the word into its theta-runs and x-runs, that is a product of
    # two composition counts.
    for multiplier in alpha_multipliers(length):
        word = multiplier.word
        runs = len(word)
        first_is_theta = word.letters[0] == "P1"
        theta_runs = (runs + 1) // 2 if first_is_theta else runs // 2
        x_runs = runs - theta_runs
        for i, coeff in enumerate(multiplier.coeffs):
            expected = _composition_count(i, theta_runs) * _composition_count(
                length - i, x_runs
            )
            assert coeff == expected


@pytest.mark.parametrize("length", range(1, 13))
def test_multipliers_at_half_equal_census(length):
    census = collapse_census(length).by_name()
    for multiplier in alpha_multipliers(length):
        exact = multiplier.evaluate_exact(Fraction(1, 2)) * 2**length
        assert exact == census[multiplier.word.name]


def test_multipliers_sum_to_one():
    multipliers = alpha_multipliers(9)
    alpha = Fraction(3, 10)
    assert sum(m.evaluate_exact(alpha) for m in multipliers) == 1


def test_multiplier_evaluate_domain():
    multiplier = alpha_multipliers(2)[0]
    with pytest.raises(ParameterError):
        multiplier.evaluate_exact(Fraction(3, 2))
    with pytest.raises(ParameterError):
        multiplier.evaluate_exact(Fraction(-1, 10))


@pytest.mark.skipif(not hasattr(np, "bitwise_count"), reason="needs numpy >= 2")
def test_popcount_table_fallback_matches_bitwise_count(monkeypatch):
    # On numpy < 2 ``_popcount`` counts bits through its byte table; run that
    # path here with ``np.bitwise_count`` removed.
    values = np.arange(1 << MAX_WORD_LENGTH, dtype=np.int64)
    expected = np.bitwise_count(values).astype(np.int64)
    lengths = range(1, MAX_WORD_LENGTH + 1)
    censuses = [collapse_census(length) for length in lengths]
    multipliers = [alpha_multipliers(length) for length in lengths]
    monkeypatch.delattr(np, "bitwise_count")
    operators._word_stats.cache_clear()
    try:
        np.testing.assert_array_equal(operators._popcount(values), expected)
        assert [collapse_census(length) for length in lengths] == censuses
        assert [alpha_multipliers(length) for length in lengths] == multipliers
    finally:
        operators._word_stats.cache_clear()
