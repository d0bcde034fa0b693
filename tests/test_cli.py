"""Command-line interface: outputs, schema conformance, and exit codes."""

import argparse
import copy
import hashlib
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from gibbsrates import cli, round_sig
from gibbsrates.cli import _HANDLERS, build_parser, main, resolve_config
from gibbsrates.numerics import jsonable
from gibbsrates.scan_compare import CSV_COLUMNS, PG_DEMO_COLUMNS, ComparisonReport, PgMixingDemo

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "schemas" / "cli-output.schema.json"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


@pytest.fixture
def run_cli(capsys):
    def run(args):
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


def check_json(schema, out):
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    return payload


# ---------------------------------------------------------------------------
# rosenthal
# ---------------------------------------------------------------------------


def test_rosenthal_single(run_cli, schema):
    code, out, err = run_cli(["rosenthal", "--n", "100"])
    assert code == 0 and err == ""
    payload = check_json(schema, out)
    assert payload["command"] == "rosenthal"
    result = payload["result"]
    assert result["mode"] == "single"
    ing = result["ingredients"]
    assert set(ing) == {
        "rosenthal_alpha",
        "u",
        "coefficient",
        "drift_ratio",
        "minorization_ratio_log10",
    }
    assert ing["rosenthal_alpha"] == pytest.approx(1.0179458036729079, rel=1e-9)
    assert ing["u"] == pytest.approx(1963.7450980392157, rel=1e-9)
    assert ing["drift_ratio"] == pytest.approx(0.9898654211791701, rel=1e-9)
    min_steps = result["min_steps"]
    assert min_steps["log10"] == pytest.approx(33.766245250761564, abs=1e-6)
    assert min_steps["exp10"] == 33
    assert 1.0 <= min_steps["mantissa"] < 10.0
    assert isinstance(min_steps["steps"], int)
    # The bound value at the crossing is rendered as mantissa/exp10.
    assert set(result["bound_at_min_steps"]) == {"mantissa", "exp10"}
    assert result["curve"][0]["steps"] == 0
    assert result["curve"][-1]["steps"] >= min_steps["steps"]


def test_rosenthal_grid(run_cli, schema):
    code, out, err = run_cli(
        [
            "rosenthal",
            "--n", "100",
            "--d-grid", "10,100,1000,10000",
            "--r-grid", "0.0001,0.001,0.01,0.1",
        ]
    )
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["mode"] == "grid"
    assert result["best"]["d"] == 1000.0
    assert result["best"]["r"] == 0.001
    assert result["best"]["log10_steps"] == pytest.approx(33.766245, abs=1e-4)
    statuses = [cell["status"] for cell in result["cells"]]
    assert len(statuses) == 16
    assert statuses.count("infeasible") == 4
    assert statuses.count("non-contracting") == 8
    assert statuses.count("ok") == 4


def test_rosenthal_csv_curve(run_cli):
    code, out, err = run_cli(["rosenthal", "--n", "100", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# config: ")
    config = json.loads(lines[0][len("# config: "):])
    assert config["command"] == "rosenthal" and config["n"] == 100
    assert lines[1] == "steps,log10_bound,bound_mantissa,bound_exp10"
    assert len(lines) > 30  # 0 then powers of ten up past 10^33
    # Each bound cell pair matches the JSON curve's rounded mantissa/exp10.
    code, out, _ = run_cli(["rosenthal", "--n", "100"])
    curve = json.loads(out)["result"]["curve"]
    cells = [line.split(",") for line in lines[2:]]
    assert [(float(m), int(e)) for _, _, m, e in cells] == [
        (entry["bound"]["mantissa"], entry["bound"]["exp10"]) for entry in curve
    ]


# ---------------------------------------------------------------------------
# two-term
# ---------------------------------------------------------------------------


def test_two_term(run_cli, schema):
    code, out, err = run_cli(
        [
            "two-term",
            "--ratio-a", "0.99986",
            "--ratio-b", "0.998497",
            "--weight", "2",
            "--steps", "34000",
        ]
    )
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["min_steps"] == 32892
    assert result["value_at_min_steps"] <= 0.01
    assert result["value_just_before"] > 0.01
    assert result["value_at"]["steps"] == 34000
    assert result["value_at"]["value"] == pytest.approx(0.008562755545553887, rel=1e-9)


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def test_spectral_levels(run_cli, schema):
    code, out, err = run_cli(["spectral", "--levels", "--family", "bb", "--n", "5"])
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["mode"] == "levels"
    assert result["cutoff"] == 6
    assert result["tail_eigenvalue"] == pytest.approx(0.5)
    lvl1 = result["levels"][0]
    assert lvl1["k"] == 1
    assert lvl1["lambda_plus"] == pytest.approx(0.9225771273642582, rel=1e-9)
    assert lvl1["u_plus"] is not None
    assert result["dominant_eigenvalue"] == pytest.approx(lvl1["lambda_plus"])
    assert "p1(x) = x - n/2" in result["basis_note"]


def test_spectral_gap_curve_csv(run_cli):
    code, out, err = run_cli(
        ["spectral", "--gap-curve", "--product", "0.5", "--grid", "101",
         "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 103  # config comment, header, 101 grid rows
    assert lines[1] == "alpha,gap"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    mid = lines[2 + 50].split(",")
    assert float(mid[0]) == pytest.approx(0.5)
    assert float(mid[1]) == pytest.approx((1.0 - math.sqrt(0.5)) / 2.0, rel=1e-9)


def test_spectral_argmax(run_cli, schema):
    code, out, err = run_cli(["spectral", "--argmax", "--product", "0.98"])
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["alpha_star"] == pytest.approx(0.5, abs=1e-6)
    assert result["gap_star"] == pytest.approx(0.00502525316941671, rel=1e-6)
    assert result["alpha_analytic"] == 0.5


def test_spectral_mode_selection_errors(run_cli):
    assert run_cli(["spectral", "--family", "bb", "--n", "5"])[0] == 2
    assert (
        run_cli(
            ["spectral", "--levels", "--argmax", "--product", "0.5",
             "--family", "bb", "--n", "5"]
        )[0]
        == 2
    )
    code, out, err = run_cli(["spectral", "--gap-curve"])
    assert code == 2
    assert "missing-required-option" in err


def test_spectral_count_option_errors(run_cli):
    levels = ["spectral", "--levels", "--family", "bb", "--n", "5"]
    code, out, err = run_cli(levels + ["--max-levels", "-3"])
    assert code == 2 and out == ""
    assert err.startswith("error: --max-levels must be an integer >= 0")
    code, out, err = run_cli(levels + ["--max-levels", "0"])
    assert code == 0 and json.loads(out)["result"]["levels"] == []
    code, out, err = run_cli(["spectral", "--gap-curve", "--product", "0.5", "--grid", "1"])
    assert code == 2 and "grid must be an integer >= 2" in err


# ---------------------------------------------------------------------------
# scan-compare / exact-tv
# ---------------------------------------------------------------------------


def test_scan_compare(run_cli, schema):
    code, out, err = run_cli(["scan-compare", "--n", "10", "--steps-max", "200"])
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["n"] == 10
    assert isinstance(result["min_steps"]["exact"], int)
    assert result["min_steps"]["rosenthal"]["status"] in (
        "ok", "infeasible", "non-contracting", "no-solution",
    )
    assert len(result["rows"]) == 200


def test_exact_tv_bb(run_cli, schema):
    code, out, err = run_cli(
        ["exact-tv", "--family", "bb", "--n", "4", "--start", "0",
         "--steps-max", "50", "--target", "0.01"]
    )
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["family"] == "bb"
    assert len(result["rows"]) == 51
    assert result["rows"][0]["steps"] == 0
    assert result["rows"][0]["tv"] == pytest.approx(0.8, rel=1e-12)
    assert isinstance(result["min_steps"], int)
    crossing = result["min_steps"]
    assert result["rows"][crossing]["tv"] <= 0.01
    assert result["rows"][crossing - 1]["tv"] > 0.01


def test_exact_tv_pg(run_cli, schema):
    code, out, err = run_cli(
        ["exact-tv", "--family", "pg", "--start", "0", "--steps-max", "10"]
    )
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["family"] == "pg"
    assert len(result["rows"]) == 11
    assert result["rows"][0]["tv"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("target", ["2", "0", "nan"])
def test_exact_tv_rejects_target_outside_unit_interval(run_cli, target):
    code, out, err = run_cli(
        ["exact-tv", "--family", "bb", "--n", "4", "--start", "0", "--steps-max", "10",
         "--target", target]
    )
    assert code == 2
    assert out == ""
    assert "target must lie in (0, 1)" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--family", "bb", "--n", "3000", "--start", "5000", "--steps-max", "10"],
         "start state 5000 outside 0..3000"),
        (["--family", "bb", "--n", "3000", "--start", "0", "--steps-max", "200000"],
         "max_steps 200000 exceeds the exact-iteration cap 100000"),
        (["--family", "bb", "--n", "3000", "--start", "-1", "--steps-max", "200000"],
         "max_steps 200000 exceeds the exact-iteration cap 100000"),
        (["--family", "pg", "--x-max", "8000", "--start", "9000", "--steps-max", "10"],
         "start state 9000 outside 0..8000"),
        (["--family", "pg", "--start", "5", "--steps-max", "-1"],
         "max_steps must be a nonnegative integer, got -1"),
    ],
)
def test_exact_tv_refuses_a_bad_query_before_it_builds(run_cli, monkeypatch, argv, message):
    def build(fam):
        raise AssertionError("built a chain or basis for a query it refuses")

    monkeypatch.setattr(cli, "gram_basis", build)
    monkeypatch.setattr(cli, "pg_xchain", build)
    code, out, err = run_cli(["exact-tv", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# words / simulate / pg-demo
# ---------------------------------------------------------------------------


def test_words(run_cli, schema):
    code, out, err = run_cli(["words", "--len", "3"])
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["length"] == 3
    assert result["total"] == 8
    by_name = {entry["word"]: entry for entry in result["words"]}
    assert by_name["P1P2"]["count"] == 2
    assert by_name["P1P2"]["multiplier_coeffs"] == [0, 1, 1, 0]
    assert by_name["P2"]["multiplier_coeffs"] == [1, 0, 0, 0]


def test_simulate_trajectory_deterministic(run_cli, schema):
    args = [
        "simulate", "--family", "bb", "--n", "5", "--steps", "10",
        "--start-x", "2", "--start-theta", "0.5", "--seed", "1",
    ]
    code1, out1, _ = run_cli(args)
    code2, out2, _ = run_cli(args)
    assert code1 == code2 == 0
    assert out1 == out2
    result = check_json(schema, out1)["result"]
    assert result["mode"] == "trajectory"
    assert result["scan"] == "systematic_theta_x"
    assert len(result["rows"]) == 11
    assert result["rows"][0] == {"step": 0, "x": 2, "theta": 0.5}


def test_simulate_decay(run_cli, schema):
    code, out, err = run_cli(
        [
            "simulate", "--family", "bb", "--n", "10", "--scan", "random",
            "--scan-weight", "0.5", "--decay", "--steps", "3",
            "--samples", "2000", "--start-x", "10", "--start-theta", "1.0",
        ]
    )
    assert code == 0
    result = check_json(schema, out)["result"]
    assert result["mode"] == "decay"
    assert result["std_error"] > 0.0
    assert result["predicted"] is not None
    assert abs(result["z_score"]) < 4.0


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--n", "10", "--steps", "3", "--start-x", "1", "--start-theta", "0.5",
         "--seed", "-1"],
        ["simulate", "--decay", "--n", "10", "--scan", "random", "--steps", "3",
         "--samples", "1000", "--start-x", "1", "--start-theta", "0.5", "--seed", "-1"],
        ["scan-compare", "--n", "5", "--decay-samples", "1000", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_2(run_cli, argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: seed must be a nonnegative integer, got -1")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", "--decay", "--n", "10", "--scan", "random", "--steps", "3",
          "--start-x", "1", "--start-theta", "0.5", "--samples", "1000000000000"], "samples"),
        (["scan-compare", "--n", "100", "--decay-samples", "1000000000000"], "decay_samples"),
        (["simulate", "--decay", "--n", "10", "--scan", "random", "--steps", "100001",
          "--start-x", "1", "--start-theta", "0.5", "--samples", "1000"], "steps"),
    ],
)
def test_decay_replicas_over_the_cap_exit_2(run_cli, argv, name):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    if name == "steps":
        assert err == (
            "error: samples x steps = 1000 x 100001 exceeds the cap of 100000000 "
            "replica-steps of a decay estimate\n"
        )
        return
    assert err == (
        f"error: {name} must be an integer in 1000..1000000 (at least 1000 replicas "
        "for a stable standard error, at most 1000000 held in memory), got 1000000000000\n"
    )


def test_simulate_weight_with_systematic_scan_fails(run_cli):
    code, out, err = run_cli(
        ["simulate", "--family", "bb", "--n", "5", "--scan-weight", "0.5",
         "--steps", "5", "--start-x", "2", "--start-theta", "0.5"]
    )
    assert code == 2
    assert err == "error: scan_weight applies only to the random scan\n"


def test_simulate_random_scan_weight_defaults_to_one_half(run_cli):
    argv = ["simulate", "--family", "bb", "--n", "5", "--scan", "random", "--steps", "20",
            "--start-x", "2", "--start-theta", "0.5", "--seed", "4"]
    rows = [json.loads(run_cli(args)[1])["result"]["rows"]
            for args in (argv, [*argv, "--scan-weight", "0.5"])]
    assert rows[0] == rows[1]


def test_pg_demo(run_cli, schema):
    code, out, err = run_cli(["pg-demo"])
    assert code == 0
    result = check_json(schema, out)["result"]
    starts = [row["start"] for row in result["rows"]]
    assert starts == [0, 8, 16, 32, 64, 128]
    assert [row["exact_min_steps"] for row in result["rows"]] == [5, 8, 9, 10, 11, 12]
    assert [row["chisq_min_steps"] for row in result["rows"]] == [8, 12, 16, 24, 40, 72]


@pytest.mark.parametrize(
    "shape, rate, x_max, j_list, expected",
    [
        (0.5, 3.0, 1200, "0,500,560", [(0, 2, 4), (500, 8, 255), (560, 8, 285)]),
        (3.0, 2.0, 1488, "0,703,744", [(0, 4, 5), (703, 9, 351), (744, 9, 372)]),
    ],
)
def test_pg_demo_answers_starts_whose_mass_underflows(
    run_cli, schema, shape, rate, x_max, j_list, expected
):
    # The stationary mass of the deepest start is below the smallest float
    # (from j = 533 and j = 703); the chi-square column reads its log.
    code, out, err = run_cli(
        ["pg-demo", "--shape", str(shape), "--rate", str(rate), "--x-max", str(x_max),
         "--j-list", j_list]
    )
    assert code == 0 and err == ""
    rows = check_json(schema, out)["result"]["rows"]
    x = np.arange(x_max + 1, dtype=float)
    log_pi = gammaln(shape + x) - gammaln(x + 1.0) - x * math.log1p(rate)
    log_pi -= logsumexp(log_pi)
    assert math.exp(log_pi[rows[-1]["start"]]) == 0.0
    log_rate = math.log(1.0 / (1.0 + rate))
    for row in rows:
        j = row["start"]
        # The smallest t with -log(pi(j))/2 + t log(1/(1 + rate)) <= log(0.01).
        steps = max(0, math.ceil((math.log(0.01) + 0.5 * log_pi[j]) / log_rate))
        assert row["chisq_min_steps"] == steps
    assert [tuple(row.values()) for row in rows] == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["exact-tv", "--family", "pg", "--start", "0", "--steps-max", "10", "--x-max", "100000"],
        ["exact-tv", "--family", "bb", "--n", "100000", "--start", "0", "--steps-max", "10"],
        ["pg-demo", "--x-max", "100000"],
    ],
)
def test_dense_chain_over_the_state_cap_exits_2(run_cli, argv):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: too-many-states: the dense x-chain would have 100001 states")


def test_pg_demo_truncation_failure_exits_3(run_cli):
    code, out, err = run_cli(["pg-demo", "--x-max", "10"])
    assert code == 3
    assert err.startswith("error: truncation-too-small")


# ---------------------------------------------------------------------------
# exit codes / config / output file
# ---------------------------------------------------------------------------


def test_parameter_error_exits_2(run_cli):
    code, out, err = run_cli(["rosenthal", "--n", "100", "--d", "10"])
    assert code == 2
    assert err.startswith("error: invalid-d")


@pytest.mark.parametrize("option", ["shape", "rate"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_pg_demo_non_finite_gamma_parameter_exits_2(run_cli, option, value):
    code, out, err = run_cli(["pg-demo", f"--{option}", value])
    assert code == 2 and out == ""
    assert err == f"error: gamma {option} must be a positive finite number, got {value}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rosenthal", "--n", "10", "--v-x0", "nan"], "V(x0) must be a finite number, got nan"),
        (["rosenthal", "--n", "10", "--v-x0", "inf"], "V(x0) must be a finite number, got inf"),
        (["scan-compare", "--n", "10", "--v-x0", "nan"], "V(x0) must be a finite number, got nan"),
        (["scan-compare", "--n", "10", "--v-x0", "inf"], "V(x0) must be a finite number, got inf"),
        (["two-term", "--ratio-a", "0.5", "--ratio-b", "0.5", "--weight", "inf"],
         "weight must be a finite number, got inf"),
        (["two-term", "--ratio-a", "0.5", "--ratio-b", "0.5", "--weight", "nan"],
         "weight must be a finite number, got nan"),
        (["rosenthal", "--n", "10", "--d", "inf"],
         "invalid-d: small-set radius must be a finite number, got inf"),
    ],
)
def test_non_finite_option_values_are_refused_by_name(run_cli, argv, message):
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_TRAJECTORY = ["simulate", "--family", "bb", "--n", "5", "--start-x", "2", "--start-theta", "0.5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectral", "--gap-curve", "--product", "0.5", "--grid", "100000000"],
         "--grid must be at most 100000 rows, got 100000000"),
        (["spectral", "--gap-curve", "--product", "0.5", "--grid", "100001"],
         "--grid must be at most 100000 rows, got 100001"),
        (_TRAJECTORY + ["--steps", "100001"],
         "--steps must be at most 100000 for a trajectory, got 100001"),
    ],
)
def test_tables_longer_than_the_row_cap_are_refused(run_cli, argv, message):
    # One row per grid point or trajectory step, capped as --steps-max is.
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_the_row_cap_itself_is_answered(run_cli):
    code, out, _ = run_cli(
        ["spectral", "--gap-curve", "--product", "0.5", "--grid", "100000", "--format", "csv"]
    )
    assert code == 0 and out.count("\n") == 2 + 100_000


def test_unknown_flag_exits_2(capsys):
    assert main(["words", "--bogus", "3"]) == 2
    capsys.readouterr()


def test_missing_required_option(run_cli):
    code, out, err = run_cli(["words"])
    assert code == 2
    assert "missing-required-option" in err


def test_config_file_errors(run_cli, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(["words", "--config", str(missing)])
    assert code == 2 and "config-unreadable" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(["words", "--config", str(bad)])
    assert code == 2 and "config-not-json" in err

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"length": 3, "bogus": 1}))
    code, _, err = run_cli(["words", "--config", str(unknown)])
    assert code == 2 and "unknown-config-key" in err

    # JSON's Infinity for an int or int-list option is a bad value, not a crash.
    for command, values in (("rosenthal", {"n": math.inf}), ("pg-demo", {"j_list": [math.inf]})):
        infinite = tmp_path / f"{command}-infinite.json"
        infinite.write_text(json.dumps(values))
        code, _, err = run_cli([command, "--config", str(infinite)])
        assert code == 2 and "invalid-config-value" in err

    # Each element of an int list passes the scalar int check, and a list
    # must be a JSON array (a string would be read digit by digit).
    for index, (command, values) in enumerate(
        (
            ("pg-demo", {"j_list": [8.7, 16]}),
            ("pg-demo", {"j_list": "128"}),
            ("pg-demo", {"j_list": [True]}),
            ("rosenthal", {"n": 100, "d_grid": "12"}),
        )
    ):
        bad_list = tmp_path / f"bad-list-{index}.json"
        bad_list.write_text(json.dumps(values))
        code, out, err = run_cli([command, "--config", str(bad_list)])
        assert code == 2 and out == "" and "invalid-config-value" in err


def test_config_precedence(run_cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 3}))
    code, out, _ = run_cli(["words", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["result"]["length"] == 3
    code, out, _ = run_cli(["words", "--config", str(cfg), "--len", "4"])
    assert code == 0
    assert json.loads(out)["result"]["length"] == 4


def test_out_file_matches_stdout(run_cli, tmp_path):
    out_file = tmp_path / "report"
    for argv in (
        ["words", "--len", "4"],
        # Longer than two formatting blocks (8193 rows or more), so the text
        # reaches stdout and --out in several pieces.
        ["scan-compare", "--n", "50", "--steps-max", "10000"],
        ["scan-compare", "--n", "50", "--steps-max", "10000", "--format", "csv"],
        ["exact-tv", "--family", "bb", "--n", "50", "--start", "0", "--steps-max", "10000"],
    ):
        code, out, _ = run_cli(argv)
        assert code == 0
        code2, out2, _ = run_cli(argv + ["--out", str(out_file)])
        assert code2 == 0
        assert out2 == ""  # --out suppresses stdout
        assert out_file.read_bytes() == out.encode("utf-8"), argv


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["scan-compare", "--n", "200"], 3),  # target-not-reached at 400 steps
        (["scan-compare", "--n", "0"], 2),
    ],
)
def test_a_refused_query_writes_no_out_file(run_cli, tmp_path, argv, exit_code):
    out_file = tmp_path / "report.json"
    code, out, err = run_cli(argv + ["--out", str(out_file)])
    assert code == exit_code and out == "" and err.startswith("error: ")
    assert not out_file.exists()


def test_an_unwritable_out_file_exits_2(run_cli, tmp_path):
    code, out, err = run_cli(["words", "--len", "4", "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert f"cannot write {tmp_path}" in err


def test_a_long_report_renders_in_a_fraction_of_its_size(tmp_path):
    # The report streams to its sink one block of rows at a time, so the
    # render's peak allocation stays a small part of the text it writes
    # (about 4 MiB against 22 MiB here; the text held whole would be more
    # than the output itself).
    argv = ["scan-compare", "--n", "50", "--steps-max", "100000"]
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args.command, args)
    report = _HANDLERS[args.command](cfg)
    out_file = tmp_path / "report.json"
    with open(out_file, "w", encoding="utf-8") as sink:
        tracemalloc.start()
        try:
            assert cli.render(args.command, cfg, report, sink) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    size = out_file.stat().st_size
    assert size > 100_000 * 150
    assert peak < size / 4


def _parser_defaults(parser) -> list:
    """Every action's default in the parser and its subparsers."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, action.dest, copy.deepcopy(action.default))
        for name, sub in subparsers.choices.items()
        for action in sub._actions
    ]


def test_main_builds_its_parser_once_and_parsing_leaves_it_unchanged(run_cli, tmp_path):
    parser = cli._parser()
    assert cli._parser() is parser
    defaults = _parser_defaults(parser)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"j_list": [0, 4], "target": 0.02}))
    argvs = [
        ["pg-demo", "--j-list", "0,8", "--target", "0.02"],
        ["pg-demo", "--config", str(config)],
        ["rosenthal", "--n", "50", "--d-grid", "10,1000", "--r-grid", "0.001,0.5"],
        ["scan-compare", "--n", "-1"],
        ["no-such-command"],
        ["pg-demo", "--j-list", "0,8", "--target", "0.02"],
    ]
    outputs = [run_cli(argv) for argv in argvs]
    assert outputs[0] == outputs[-1] and outputs[0][0] == 0
    assert [code for code, _, _ in outputs] == [0, 0, 0, 2, 2, 0]
    assert cli._parser() is parser and _parser_defaults(parser) == defaults
    first = parser.parse_args(["pg-demo", "--j-list", "0,8"])
    first.j_list.append(99)
    assert parser.parse_args(["pg-demo", "--j-list", "0,8"]).j_list == [0, 8]
    assert _parser_defaults(parser) == defaults
    assert all(default is None for _, dest, default in defaults if dest != "help")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gibbsrates", "words", "--len", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"]["total"] == 4


def test_a_closed_stdout_pipe_exits_quietly():
    # The reader takes one line and closes its end, as `| head -1` does; a
    # 20 000-row report is far more than a pipe buffer, so the writer meets
    # the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "gibbsrates", "scan-compare", "--n", "100",
         "--steps-max", "20000", "--format", "csv"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.startswith(b"# config: ")
    assert (code, err) == (cli.EXIT_CLOSED_STDOUT, b"")
    assert cli.EXIT_CLOSED_STDOUT == 141


# ---------------------------------------------------------------------------
# byte identity with the plain jsonable / json.dumps and csv_cell rendering
# ---------------------------------------------------------------------------


def _plain_csv_cell(value) -> str:
    """A CSV cell as the row-by-row policy writes it: repr of the rounded float."""
    if isinstance(value, float):
        return repr(round_sig(float(value)))
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _plain_render(argv) -> str:
    """What ``main`` must print: JSON from ``json.dumps(jsonable(...), indent=2)``
    over the whole payload, CSV from one ``_plain_csv_cell`` join per row."""
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args.command, args)
    output = _HANDLERS[args.command](cfg)
    if cfg["format"] == "json":
        payload = {"command": args.command, "config": cfg, "result": output.payload()}
        return json.dumps(jsonable(payload), indent=2) + "\n"
    if isinstance(output, (ComparisonReport, PgMixingDemo)):
        header = CSV_COLUMNS if isinstance(output, ComparisonReport) else PG_DEMO_COLUMNS
        rows = [vars(row).values() for row in output.rows]
    else:
        header, rows = output.table.header, output.table.iter_rows()
    config = json.dumps(jsonable({**cfg, "command": args.command}), sort_keys=True)
    lines = ["# config: " + config, ",".join(header)]
    lines.extend(",".join(map(_plain_csv_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-compare", "--n", "50", "--steps-max", "2000"],
        ["scan-compare", "--n", "50", "--steps-max", "2000", "--format", "csv"],
        # Longer than one formatting block; the flags are ordered so that
        # every id (the command and its last two arguments) stays unique.
        ["scan-compare", "--steps-max", "10000", "--n", "50"],
        ["scan-compare", "--n", "50", "--format", "csv", "--steps-max", "10000"],
        ["exact-tv", "--family", "bb", "--n", "100", "--start", "0", "--steps-max", "400",
         "--target", "0.01"],
        ["exact-tv", "--family", "pg", "--start", "64", "--steps-max", "60", "--format", "csv"],
        ["exact-tv", "--family", "bb", "--n", "50", "--start", "0", "--format", "csv",
         "--steps-max", "10000"],
        ["pg-demo"],
        ["pg-demo", "--format", "csv"],
        ["rosenthal", "--n", "100"],
        ["rosenthal", "--n", "50", "--d-grid", "10,1000", "--r-grid", "0.001,0.5"],
        ["spectral", "--levels", "--family", "bb", "--n", "100"],
        ["spectral", "--gap-curve", "--product", "0.7", "--format", "csv"],
        ["simulate", "--family", "bb", "--n", "20", "--start-x", "0", "--start-theta", "0.3",
         "--steps", "50"],
        ["words", "--len", "5"],
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
)
def test_output_is_byte_identical_to_plain_rendering(run_cli, argv):
    code, out, err = run_cli(argv)
    assert code == 0 and err == ""
    # Compared as line lists: pytest reports the first differing line, where
    # a text diff of two 2000-row reports takes minutes.
    assert out.splitlines() == _plain_render(argv).splitlines()
    assert out.endswith("\n")


# sha256 of the spectral command's stdout, recorded before its levels became
# arrays.  The plain-rendering test above compares the code with itself, so
# only fixed digests catch a drift in the printed spectrum.  No BLAS call
# touches these outputs, so the digests do not depend on the thread count.
SPECTRAL_DIGESTS = {
    "--levels --family bb --n 5":
        "5efb251941d5e79fb617684f3385ea7e3c8b12fdefe6887d6f8343c711ff0106",
    "--levels --family bb --n 100":
        "870f1e2386dd4e8706c34aaf38708a71239a26e28337dc4e21ec2ab5c65017f3",
    "--levels --family bb --n 2000":
        "681ecaa2579eede64d831ddb7eda3150a3d3e8a2b4e8d886fa89e20df0b35edf",
    "--levels --family bb --n 5 --scan-weight 0":
        "4b290ae09556d8138c4a7e14c5da4e6cee986a7160a61c37dd29f616aa51c90d",
    "--levels --family bb --n 100 --scan-weight 0":
        "5b74fe862f5bcc5d9800d985340978eff7d7f014eac8ab8d961b6162be3f3cdb",
    "--levels --family bb --n 2000 --scan-weight 0":
        "607bb0b76c36e7b14deb3bcb0caafb6fd042f3fd714b89ff1d9100dc92093179",
    "--levels --family bb --n 5 --scan-weight 0.3":
        "0292a641d30ac51d5433572620ca6a56108e26751dcca2ec0aebaa8d483b3ccc",
    "--levels --family bb --n 100 --scan-weight 0.3":
        "ac1f036f03d423b3b50560652c3085a1d51356d3cd57650b15cd3e053f108d24",
    "--levels --family bb --n 2000 --scan-weight 0.3":
        "d8cfd914e02e3270445cd28d4393aabd2b2c4c42a9f4d5181667ea2e15fc6831",
    "--levels --family bb --n 2000 --max-levels 2000":
        "726229f2fd5be304ff778daf3eb088e9c7339181cdf72180966d73b6a63ea792",
    "--levels --family pg":
        "bcc5bae4fa6dd9fc6b1b325a74b962c59dceefadc541aba2ad24a3ea453cf3d5",
    "--levels --family pg --shape 2 --rate 0.5 --x-max 700":
        "2be7c0b1819caac74324a481935d403abbee20171996e988bf41e6f9c082e18f",
    "--levels --family pg --max-levels 400 --scan-weight 0.3":
        "551e5cc3aaccb4449be67ee4b8411b53f4db52cd4ba43059c0b7b5aa6bd15c04",
    "--levels --family bb --n 100 --scan-weight 0.3 --format csv":
        "613297e173e2649f3947cc15553afec435844167abb72f4fea9d63b017fc9fed",
    "--gap-curve --product 0.7":
        "5bde6533680db4a4082c27ff5092de1fad07e8e7ef409c54284cafa994a1b420",
    "--gap-curve --product 0.98 --grid 1001 --format csv":
        "3f7f9e5cdc443c76d9d89eed00b2f423e9eb3d0d3ba8ff40961a976f7c44e5ea",
    "--argmax --product 0.7":
        "e17d0d2444b3801f225c2baf03f4e4c865418350021f6f4bb26fb02de011bdd6",
}


@pytest.mark.parametrize("args", sorted(SPECTRAL_DIGESTS))
def test_spectral_output_matches_its_pinned_digest(run_cli, args):
    code, out, err = run_cli(["spectral", *args.split()])
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRAL_DIGESTS[args]
