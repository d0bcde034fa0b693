"""Censoring and tail-rank rules, and how verdicts become end-to-end metrics."""
import pytest

import run
import stats


def test_answer_within_limit_counts_its_latency():
    assert stats.charge(0.4, True, 10.0) == 0.4


def test_slow_answer_is_censored_at_the_limit():
    assert stats.charge(12.0, True, 10.0) == 10.0


def test_failure_counts_as_the_limit_plus_its_time():
    assert stats.charge(0.02, False, 10.0) == pytest.approx(10.02)


def test_failure_always_reads_worse_than_any_answer():
    # A fix that turns a fast failure into a slow answer cannot read as a slowdown.
    assert stats.charge(0.001, False, 10.0) > stats.charge(50.0, True, 10.0)


@pytest.mark.parametrize(
    "count, rank",
    [(1, 1), (10, 1), (11, 1), (12, 2), (20, 10), (100, 90), (200, 190), (1000, 990)],
)
def test_tail_rank_leaves_ten_samples_beyond(count, rank):
    value, got_rank, samples = stats.tail(list(range(count, 0, -1)))
    assert (got_rank, samples) == (rank, count)
    assert value == rank
    if count > 10:
        assert count - got_rank == 10


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.tail([])


def test_unanswered_query_is_failed_and_charged_at_the_limit():
    plan = {"limit_s": 10.0}
    result = {
        "passes": [{"traced": False, "latencies": [0.5, 0.25, 0.125]},
                   {"traced": False, "latencies": [0.5, 0.25, 0.125]}],
        "peak_rss_mb": 100.0,
    }
    # Answered, wrong, failed.
    values, info = run.end_to_end(plan, result, [True, False, False], setup=[1.0, 2.0, 3.0])
    assert info["attempted"] == 6 and info["failed"] == 4
    assert values["answered_share"] == pytest.approx(2 / 6)
    assert values["sweep_s"] == pytest.approx(0.5 + 10.25 + 10.125)
    assert values["setup_s"] == 2.0
