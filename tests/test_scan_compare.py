"""Exact-versus-bounds comparison reports and the mixing demos."""

import json
import math

import numpy as np
import pytest

from gibbsrates import (
    BetaBinomialFamily,
    ComparisonRow,
    ConvergenceError,
    NoSolutionError,
    ParameterError,
    PoissonGammaFamily,
    ValidityThresholdError,
    WorstStart,
    bb_xchain,
    chisq_min_steps_pg,
    compare,
    exact_tv_curve,
    first_crossing,
    pg_log_stationary,
    pg_mixing_demo,
    random_scan_lower,
    random_scan_upper,
    random_scan_validity_threshold,
    rebuild_random_scan_upper,
    rosenthal_min_steps,
    scan_time_ratio,
    systematic_upper,
    systematic_validity_threshold,
    worst_start_search,
)
from gibbsrates import numerics
from gibbsrates.scan_compare import CSV_COLUMNS, DECAY_CHECK_STEPS


# ---------------------------------------------------------------------------
# exact_tv_curve / first_crossing
# ---------------------------------------------------------------------------


def test_exact_tv_curve_n1_closed_form():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=1))
    curve = exact_tv_curve(matrix, stationary, 0, 12)
    assert curve.shape == (13,)
    assert curve[0] == pytest.approx(0.5, rel=1e-15)
    expected = 0.5 * (1.0 / 3.0) ** np.arange(13)
    np.testing.assert_allclose(curve, expected, rtol=1e-9, atol=1e-15)


def test_exact_tv_curve_validation():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=1))
    with pytest.raises(ParameterError):
        exact_tv_curve(matrix, stationary, 5, 10)  # start out of range
    with pytest.raises(ParameterError):
        exact_tv_curve(matrix, stationary, 0, -1)


def test_point_starts_must_be_integers():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=4))
    for start in (2.5, 2.0, True):
        with pytest.raises(ParameterError, match="start state must be an integer"):
            exact_tv_curve(matrix, stationary, start, 3)
    np.testing.assert_array_equal(
        exact_tv_curve(matrix, stationary, np.int64(2), 3),
        exact_tv_curve(matrix, stationary, 2, 3),
    )
    for starts in ([8.7], [True], [0, 8.0]):
        with pytest.raises(ParameterError, match="start state must be an integer"):
            pg_mixing_demo(starts)
    assert pg_mixing_demo([np.int64(8)]).rows == pg_mixing_demo([8]).rows


def test_first_crossing():
    curve = np.array([0.5, 0.2, 0.09, 0.01, 0.001])
    assert first_crossing(curve, 0.25) == 1
    assert first_crossing(curve, 0.09) == 2
    assert first_crossing(curve, 0.6) == 0
    assert first_crossing(curve, 1e-9) is None


# ---------------------------------------------------------------------------
# worst_start_search
# ---------------------------------------------------------------------------


def test_worst_start_search_matches_manual_scan():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=10))
    target = 0.05
    crossings = []
    for start in range(11):
        curve = exact_tv_curve(matrix, stationary, start, 100)
        crossings.append(first_crossing(curve, target))
    worst = worst_start_search(matrix, stationary, target, 100)
    assert worst.min_steps == max(crossings)
    assert crossings[worst.start] == worst.min_steps
    assert worst.start == crossings.index(max(crossings))


# Targets from one met at step 0 (n = 1, where every start has TV 1/2) down
# to 0.001; for each, max_steps runs T - 1, T, T + 1 and 2T + 3 around the
# worst crossing T found by iterating every start step by step.
LIFTING_TARGETS = (0.6, 0.25, 0.1, 0.03, 0.01, 0.001)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 37, 100, 233])
def test_worst_start_search_matches_iteration(n):
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=n))
    curves = [exact_tv_curve(matrix, stationary, x, 4 * n + 40) for x in range(n + 1)]
    for target in LIFTING_TARGETS:
        crossings = [first_crossing(curve, target) for curve in curves]
        worst_steps = max(crossings)
        worst_start = crossings.index(worst_steps)
        for max_steps in (worst_steps - 1, worst_steps, worst_steps + 1, 2 * worst_steps + 3):
            if max_steps < 0:
                continue
            if max_steps < worst_steps:
                with pytest.raises(NoSolutionError, match="target-not-reached"):
                    worst_start_search(matrix, stationary, target, max_steps)
                continue
            worst = worst_start_search(matrix, stationary, target, max_steps)
            assert (worst.start, worst.min_steps) == (worst_start, worst_steps)


def test_worst_start_search_n600_crossing():
    # Beyond 512 states every start is searched too; the reported crossing
    # must be the worst start's own, and both extreme starts must be mixed.
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=600))
    target = 0.05
    worst = worst_start_search(matrix, stationary, target, 1800)
    t = worst.min_steps
    curve = exact_tv_curve(matrix, stationary, worst.start, t)
    assert curve[t - 1] > target >= curve[t]
    for start in (0, 600):
        assert exact_tv_curve(matrix, stationary, start, t)[t] <= target


@pytest.mark.parametrize("target", [math.nan, 0.0, 1.0, 2.0, -0.5])
def test_worst_start_search_rejects_targets_outside_unit_interval(target):
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=10))
    with pytest.raises(ParameterError, match="target must lie in"):
        worst_start_search(matrix, stationary, target, 100)


def test_worst_start_search_unreached_target():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=10))
    with pytest.raises(NoSolutionError, match="target-not-reached"):
        worst_start_search(matrix, stationary, 1e-12, 2)


# ---------------------------------------------------------------------------
# compare: tiny model with closed-form answers
# ---------------------------------------------------------------------------


def test_compare_n1_exact_equals_eigen_curve():
    report = compare(n=1, max_steps=30)
    assert report.worst_start == 0
    for row in report.rows:
        assert row.eigen_lower == pytest.approx(row.exact_tv_systematic, rel=1e-9)
    assert report.min_steps["exact"] == 4
    assert report.min_steps["eigen_lower_at_least"] == 4


# ---------------------------------------------------------------------------
# compare: the n = 100 headline report
# ---------------------------------------------------------------------------


def test_compare100_min_steps(compare100):
    report = compare100
    assert report.n == 100
    assert report.worst_start == 0
    assert report.min_steps["exact"] == 218
    assert report.min_steps["systematic_upper"] == 349
    assert report.min_steps["random_scan_upper"] == 1402
    assert report.min_steps["random_scan_lower_at_least"] == 356
    assert report.min_steps["eigen_lower_at_least"] == 198


def test_compare100_work_ratio(compare100):
    report = compare100
    # 1402 random-scan draws against 2 * 349 systematic conditional draws.
    assert report.work_ratio_random_vs_systematic == pytest.approx(
        1402.0 / 698.0, rel=1e-12
    )
    assert report.work_ratio_random_vs_systematic == pytest.approx(
        2.008595988538682, rel=1e-12
    )
    assert report.scan_time_ratio == pytest.approx(scan_time_ratio(100), rel=1e-15)


def test_compare100_rosenthal_entry(compare100):
    entry = compare100.min_steps["rosenthal"]
    assert entry["status"] == "ok"
    assert entry["d"] == 1000.0 and entry["r"] == 0.001
    assert entry["log10_steps"] == pytest.approx(33.766245250761564, abs=1e-9)
    from gibbsrates import bb_drift_minorization, RosenthalParams

    cert = bb_drift_minorization(BetaBinomialFamily(n=100), x0=0)
    direct = rosenthal_min_steps(cert, RosenthalParams(d=1000.0, r=0.001), 0.01)
    assert entry["steps"] == direct


def test_compare100_crossing_row(compare100):
    rows = compare100.rows
    assert rows[217].steps == 218
    assert rows[217].exact_tv_systematic == pytest.approx(
        0.009906122517128559, rel=1e-9
    )
    assert rows[217].exact_tv_systematic <= 0.01
    assert rows[216].exact_tv_systematic > 0.01


def test_compare100_validity_gates(compare100):
    rows = compare100.rows
    assert rows[17].systematic_bound is None  # steps 18 < gate 19
    assert rows[18].systematic_bound is not None
    assert rows[73].random_scan_upper is None  # steps 74 < gate 75
    assert rows[74].random_scan_upper is not None
    assert all(row.random_scan_lower is not None for row in rows)


def test_compare100_row_invariants(compare100):
    for row in compare100.rows:
        assert row.eigen_lower <= row.exact_tv_systematic + 1e-9
        if row.systematic_bound is not None:
            assert row.exact_tv_systematic <= row.systematic_bound + 1e-9
        if row.random_scan_upper is not None and row.random_scan_lower is not None:
            assert row.random_scan_lower <= row.random_scan_upper + 1e-9


# The eigenvalue reference q**s and the report's exp(s * ln q) differ by about
# |s ln q| ulps; the horizons below keep |s ln q| <= 40, so 45 float64 eps
# (1.0e-14) bounds the disagreement.  The other columns share the scalar
# functions' representation and agree to an ulp or two.
REFERENCE_RTOL = 45 * np.finfo(np.float64).eps


@pytest.mark.parametrize("n, max_steps", [(1, 36), (16, 330), (100, 2000), (233, 1000)])
def test_compare_bounds_match_scalar_reference(n, max_steps):
    report = compare(n, max_steps=max_steps)
    q = n / (n + 2.0)
    weight = abs(report.worst_start - n / 2.0) / (n / 2.0)
    # row column -> (min_steps key, first valid step, reference curve)
    reference = {
        "systematic_bound": (
            "systematic_upper",
            systematic_validity_threshold(n),
            lambda s: systematic_upper(n, s),
        ),
        "random_scan_lower": (
            "random_scan_lower_at_least",
            1,
            lambda s: random_scan_lower(n, s),
        ),
        "random_scan_upper": (
            "random_scan_upper",
            random_scan_validity_threshold(n),
            lambda s: random_scan_upper(n, s),
        ),
        "eigen_lower": ("eigen_lower_at_least", 0, lambda s: 0.5 * weight * q**s),
    }
    for column, (key, gate, curve) in reference.items():
        cells = [getattr(row, column) for row in report.rows]
        below = max(gate - 1, 0)  # rows start at step 1
        assert cells[:below] == [None] * below, column
        expected = [curve(s) for s in range(below + 1, max_steps + 1)]
        np.testing.assert_allclose(cells[below:], expected, rtol=REFERENCE_RTOL, atol=0)
        crossing = gate
        while curve(crossing) > report.target:
            crossing += 1
        assert report.min_steps[key] == crossing, column
        assert type(report.min_steps[key]) is int
    assert all(type(row.steps) is int for row in report.rows)


def test_report_rows_are_built_once_from_the_curves():
    # perfbench's size-sweep worker reads ``rows`` twice per compare query.
    report = compare(16, max_steps=48)
    first, second = report.rows, report.rows
    assert isinstance(first, tuple) and first == second and first is second
    assert all(type(row) is ComparisonRow and type(row.steps) is int for row in first)
    assert [row.steps for row in first] == list(range(1, 49))
    assert report.curves.header == CSV_COLUMNS


def test_compare_n50_work_ratio_near_two():
    report = compare(n=50, max_steps=400)
    assert 1.8 <= report.work_ratio_random_vs_systematic <= 2.2


@pytest.mark.parametrize(
    "n, max_steps, exact", [(100, 10**5, 218), (200, 2 * 10**4, 434), (700, 2 * 10**4, 1513)]
)
def test_compare_long_horizon_answers(n, max_steps, exact):
    # Row sums exact to rounding keep the iterated TV from drifting onto a
    # floor above the systematic bound, so the row invariants hold.
    report = compare(n=n, max_steps=max_steps)
    assert report.min_steps["exact"] == exact
    assert len(report.rows) == max_steps
    assert report.rows[-1].exact_tv_systematic < 1e-12


def test_compare_rechecks_the_searched_crossing(monkeypatch):
    from gibbsrates import scan_compare

    def one_step_late(matrix, stationary, target, max_steps):
        return WorstStart(start=0, min_steps=219)

    monkeypatch.setattr(scan_compare, "worst_start_search", one_step_late)
    with pytest.raises(ConvergenceError, match="internal-invariant.*step 218"):
        compare(n=100, max_steps=400)


def test_compare_validation():
    with pytest.raises(ParameterError, match="compare-n-out-of-range"):
        compare(n=0)
    with pytest.raises(ParameterError, match="compare-n-out-of-range"):
        compare(n=2001)
    with pytest.raises(ParameterError, match="compare-n-out-of-range"):
        compare(n=1.5)
    with pytest.raises(ParameterError):
        compare(n=5, max_steps=0)
    with pytest.raises(ParameterError):
        compare(n=5, target=1.5)


def test_compare_decay_check_rows():
    report = compare(n=10, max_steps=200, decay_samples=2000, seed=3)
    assert tuple(row.steps for row in report.decay_check) == DECAY_CHECK_STEPS
    for row in report.decay_check:
        assert row.std_error > 0.0
        z = (row.observed - row.predicted) / row.std_error
        assert abs(z) < 4.0


def test_compare_without_decay_has_no_rows(compare100):
    assert compare100.decay_check == ()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_to_csv_layout():
    report = compare(n=16, max_steps=100)
    lines = report.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 101
    # Below both validity gates the bound cells are empty, not zero.
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == ""  # systematic gate is 3
    assert first[4] == ""  # random-scan gate is 12
    third = lines[3].split(",")
    assert third[2] != ""
    assert report.to_csv().endswith("\n")


def test_to_csv_golden_first_row():
    report = compare(n=1, max_steps=5)
    lines = report.to_csv().splitlines()
    assert lines[1] == (
        "1,0.166666666667,3.33333333333,0.222222222222,20.3205080757,0.166666666667"
    )


def test_to_jsonable_round_trip(compare100):
    payload = compare100.to_jsonable()
    assert set(payload) == {
        "n",
        "target",
        "worst_start",
        "min_steps",
        "work_ratio_random_vs_systematic",
        "scan_time_ratio",
        "rows",
        "decay_check",
        "notes",
    }
    assert payload["n"] == 100
    assert payload["min_steps"]["rosenthal"]["status"] == "ok"
    assert len(payload["rows"]) == 400
    text = compare100.to_json()
    assert json.loads(text) == payload
    assert text.endswith("\n")


def test_compare_is_deterministic():
    first = compare(n=5, max_steps=50, decay_samples=1000, seed=7)
    second = compare(n=5, max_steps=50, decay_samples=1000, seed=7)
    assert first.to_json() == second.to_json()


# ---------------------------------------------------------------------------
# rebuild_random_scan_upper
# ---------------------------------------------------------------------------


def test_rebuild_matches_closed_form_small():
    assert rebuild_random_scan_upper(4, 3) == pytest.approx(
        random_scan_upper(4, 3), rel=1e-12
    )


def test_rebuild_matches_closed_form_both_paths():
    # Length 20 runs the exhaustive census path, 21 the log-sum path.
    for steps in (20, 21):
        assert rebuild_random_scan_upper(20, steps) == pytest.approx(
            random_scan_upper(20, steps), rel=1e-9
        )


def test_rebuild_n1_first_step():
    assert rebuild_random_scan_upper(1, 1) == pytest.approx(
        3.0 + 10.0 * math.sqrt(3.0), rel=1e-12
    )


@pytest.mark.parametrize("steps", range(5, 41, 5))
def test_rebuild_grid_n6(steps):
    assert rebuild_random_scan_upper(6, steps) == pytest.approx(
        random_scan_upper(6, steps), rel=1e-9
    )


def test_rebuild_validation():
    with pytest.raises(ParameterError):
        rebuild_random_scan_upper(0, 5)
    with pytest.raises(ParameterError):
        rebuild_random_scan_upper(4, 10_001)
    with pytest.raises(ValidityThresholdError):
        rebuild_random_scan_upper(4, 2)


# ---------------------------------------------------------------------------
# pg_mixing_demo
# ---------------------------------------------------------------------------


def test_pg_demo_frozen_table():
    demo = pg_mixing_demo([0, 8, 16, 32, 64, 128])
    assert [row.start for row in demo.rows] == [0, 8, 16, 32, 64, 128]
    assert [row.exact_min_steps for row in demo.rows] == [5, 8, 9, 10, 11, 12]
    assert [row.chisq_min_steps for row in demo.rows] == [8, 12, 16, 24, 40, 72]
    assert "contrast" in demo.notes
    assert demo.decay_rate == pytest.approx(0.5, abs=1e-6)


def test_pg_demo_growth_rates():
    demo = pg_mixing_demo([8, 16, 32, 64, 128])
    exact = [row.exact_min_steps for row in demo.rows]
    chisq = [row.chisq_min_steps for row in demo.rows]
    for a, b in zip(exact, exact[1:]):
        assert b - a <= 3
    for a, b in zip(chisq, chisq[1:]):
        assert b - a >= 4


@pytest.mark.parametrize("shape", [1.0, 2.0])
def test_pg_demo_rows_do_not_depend_on_a_deep_truncation(shape):
    starts = [0, 8, 16, 32, 64, 128]
    reference = pg_mixing_demo(starts, shape=shape).rows
    for x_max in (747, 1600, 3000):
        assert pg_mixing_demo(starts, shape=shape, x_max=x_max).rows == reference


@pytest.mark.parametrize("block", [2, 4, 8])
def test_pg_demo_rows_do_not_depend_on_the_block(monkeypatch, block):
    # With a small block the crossings (5 to 12 steps) fall inside blocked
    # chunks of several steps, each start at its own row of the chunk.
    starts = [128, 0, 64, 8, 32, 16]
    reference = {shape: pg_mixing_demo(starts, shape=shape).rows for shape in (1.0, 2.0)}
    monkeypatch.setattr(numerics, "TV_BLOCK", block)
    for shape, rows in reference.items():
        assert pg_mixing_demo(starts, shape=shape).rows == rows


def test_pg_demo_validation():
    with pytest.raises(ParameterError, match="start-too-deep"):
        pg_mixing_demo([201])
    with pytest.raises(ParameterError):
        pg_mixing_demo([])
    with pytest.raises(ParameterError, match="start-too-deep"):
        pg_mixing_demo([-1])


def test_pg_demo_chisq_reads_the_meixner_rate_and_log_stationary():
    fam = PoissonGammaFamily(shape=0.5, rate=3.0)
    demo = pg_mixing_demo([0, 8, 100], shape=0.5, rate=3.0)
    assert demo.decay_rate == fam.meixner_eigenvalue(1)
    for row in demo.rows:
        assert row.chisq_min_steps == chisq_min_steps_pg(
            row.start, pg_log_stationary(fam), 0.01, 0.25
        )


def test_pg_demo_nonflat_rate_resolves_decay_rate():
    # The second eigenvalue is 1/(rate + 1) for every shape: doubling the
    # prior rate shrinks it to 1/3, which the demo must pick up automatically.
    assert pg_mixing_demo([0, 4], rate=2.0).decay_rate == 1.0 / 3.0
    assert pg_mixing_demo([0, 4], shape=2.0).decay_rate == 0.5


def test_pg_demo_serialization():
    demo = pg_mixing_demo([0, 8])
    lines = demo.to_csv().splitlines()
    assert lines[0] == "start,exact_min_steps,chisq_min_steps"
    assert lines[1] == "0,5,8"
    payload = demo.to_jsonable()
    assert payload["rows"][1] == {"start": 8, "exact_min_steps": 8, "chisq_min_steps": 12}
    assert json.loads(demo.to_json()) == payload


def test_report_to_json_is_json_dumps_of_to_jsonable(compare100):
    # The row tables are written by one %-template per row; the bytes must be
    # those of json.dumps over the whole rounded payload.
    with_decay = compare(n=16, max_steps=300, decay_samples=1000, seed=3)
    for report in (compare100, with_decay, pg_mixing_demo([0, 8, 64])):
        text = report.to_json()
        assert text.splitlines() == json.dumps(report.to_jsonable(), indent=2).splitlines()
        assert text.endswith("}\n")
    assert len(with_decay.to_jsonable()["decay_check"]) == len(DECAY_CHECK_STEPS)
