"""The oracle accepts the program's answers and rejects tampered ones."""
import copy
import sys
from pathlib import Path

import pytest

from oracle import FAILED, OK, WRONG, Oracle

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def gibbsrates():
    sys.path.insert(0, str(SRC))
    import gibbsrates as module

    return module


@pytest.fixture(scope="module")
def report(gibbsrates):
    result = gibbsrates.compare(100, max_steps=300)
    return {
        "worst_start": result.worst_start,
        "min_steps": result.min_steps,
        "exact_tv": [row.exact_tv_systematic for row in result.rows],
    }


def test_headline_report_verified(report):
    assert Oracle().check_compare(100, 300, 0.01, report, report["exact_tv"])[0] == OK


@pytest.mark.parametrize("key", ["exact", "systematic_upper", "random_scan_upper",
                                 "random_scan_lower_at_least", "eigen_lower_at_least"])
def test_off_by_one_crossing_is_wrong(report, key):
    tampered = copy.deepcopy(report)
    tampered["min_steps"][key] += 1
    assert Oracle().check_compare(100, 300, 0.01, tampered, tampered["exact_tv"])[0] == WRONG


def test_tabulated_tv_must_match(report):
    tampered = copy.deepcopy(report)
    tampered["exact_tv"][0] *= 1.001
    assert Oracle().check_compare(100, 300, 0.01, tampered, tampered["exact_tv"])[0] == WRONG


def test_spectral_products_follow_the_closed_form(gibbsrates):
    data = gibbsrates.bb_spectral_data(gibbsrates.BetaBinomialFamily(60))
    products = [level.product for level in data.levels]
    assert Oracle().check_spectral(60, products)[0] == OK
    products[3] += 1e-6
    assert Oracle().check_spectral(60, products)[0] == WRONG


def test_pg_rows_verified_and_tampering_caught(gibbsrates):
    starts = [0, 8, 16, 32, 64, 128]
    for shape in (1.0, 2.0):
        demo = gibbsrates.pg_mixing_demo(starts, shape=shape, x_max=400)
        rows = [[r.start, r.exact_min_steps, r.chisq_min_steps] for r in demo.rows]
        assert Oracle().check_pg(shape, 1.0, 400, starts, rows)[0] == OK
        rows[2][1] -= 1
        assert Oracle().check_pg(shape, 1.0, 400, starts, rows)[0] == WRONG


def test_refusals_are_judged_by_the_horizon():
    oracle = Oracle()
    short = {"error": "NoSolutionError", "message": "target-not-reached: raise max_steps"}
    assert oracle.check({"kind": "compare", "n": 100, "max_steps": 100}, short)[0] == OK
    assert oracle.check({"kind": "compare", "n": 100, "max_steps": 300}, short)[0] == FAILED
    leak = {"error": "TruncationError", "message": "truncation-too-small"}
    query = {"kind": "pg_demo", "shape": 1.0, "rate": 1.0, "x_max": 800, "starts": [0]}
    assert oracle.check(query, leak)[0] == FAILED
    query["x_max"] = 20
    assert oracle.check(query, leak)[0] == OK
