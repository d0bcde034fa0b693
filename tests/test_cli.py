"""Command-line interface: outputs, schema conformance, and exit codes."""

import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from gibbsrates import round_sig
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


def test_simulate_weight_with_systematic_scan_fails(run_cli):
    code, out, err = run_cli(
        ["simulate", "--family", "bb", "--n", "5", "--scan-weight", "0.5",
         "--steps", "5", "--start-x", "2", "--start-theta", "0.5"]
    )
    assert code == 2
    assert err.startswith("error:")


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
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(["words", "--len", "4"])
    assert code == 0
    code2, out2, _ = run_cli(["words", "--len", "4", "--out", str(out_file)])
    assert code2 == 0
    assert out2 == ""  # --out suppresses stdout
    assert out_file.read_text() == out


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
