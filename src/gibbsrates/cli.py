"""Command-line interface: every experiment as a deterministic subcommand.

Output contract, shared by all subcommands:

* ``--format json`` (default) prints one object
  ``{"command": ..., "config": ..., "result": ...}`` where ``config`` echoes
  every resolved option (flags beat config-file values beat defaults);
* ``--format csv`` prints a ``# config: {...}`` comment line, a header, and
  data rows;
* all floats are rounded to 12 significant digits and printed by the one
  cell formatter ``numerics.float_cell`` (``repr`` of the rounded value),
  so repeated runs are byte-identical; only the requested format is built,
  and row lists are columnar ``numerics.RowTable``s, each column formatted
  once and each JSON row written by one template, in the same bytes as
  ``json.dumps(..., indent=2)``;
* log-scale magnitudes appear as ``{"mantissa": m, "exp10": e}`` pairs
  (value = m * 10^e), the loss-free way to print a 10^-10000-scale bound;
* exit code 0 on success, 2 for parameter/usage errors, 3 for numerical
  failures (non-convergence, truncation, no solution in range).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .bounds import (
    RosenthalParams,
    check_target,
    random_scan_rate,
    rosenthal_bound,
    rosenthal_grid_optimize,
    rosenthal_ingredients,
    rosenthal_min_steps,
    two_term_bound,
    two_term_min_steps,
)
from .errors import NumericsError, ParameterError
from .families import (
    BetaBinomialFamily,
    PoissonGammaFamily,
    bb_drift_minorization,
    bb_eigenfunction_phi,
    bb_spectral_data,
    bb_xchain,
    pg_spectral_data,
    pg_xchain,
)
from .numerics import LogMagnitude, RowTable, json_text, jsonable, rounded_decompose
from .operators import (
    SCAN_KINDS,
    JointState,
    ScanStrategy,
    alpha_multipliers,
    collapse_census,
    eigenfunction_decay,
    run_trajectory,
)
from .scan_compare import compare, exact_tv_curve, first_crossing, pg_mixing_demo
from .spectral import alpha_scan_eigenvalues, argmax_gap, spectral_gap

COMMANDS = (
    "rosenthal",
    "two-term",
    "spectral",
    "scan-compare",
    "exact-tv",
    "words",
    "simulate",
    "pg-demo",
)


@dataclasses.dataclass(frozen=True)
class Opt:
    """One resolvable option: a flag, a config-file key, and a default."""

    key: str
    flags: tuple[str, ...]
    kind: str  # int | float | str | flag | int_list | float_list
    default: object = None
    required: bool = False
    choices: tuple | None = None
    help: str = ""


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {exc}")


_COMMON_OPTS = (
    Opt("seed", ("--seed",), "int", default=0, help="random seed (any nonnegative integer)"),
    Opt(
        "format",
        ("--format",),
        "str",
        default="json",
        choices=("json", "csv"),
        help="output format",
    ),
)

_BB_PG_OPTS = (
    Opt(
        "family",
        ("--family",),
        "str",
        default="bb",
        choices=("bb", "pg"),
        help="model family: beta-binomial (bb) or Poisson-gamma (pg)",
    ),
    Opt("n", ("--n",), "int", help="beta-binomial trial count"),
    Opt("shape", ("--shape",), "float", default=1.0, help="gamma shape"),
    Opt("rate", ("--rate",), "float", default=1.0, help="gamma rate"),
    Opt("x_max", ("--x-max",), "int", default=400, help="Poisson-gamma truncation point"),
)

OPTIONS: dict[str, tuple[Opt, ...]] = {
    "rosenthal": (
        Opt("n", ("--n",), "int", required=True, help="beta-binomial trial count"),
        Opt("v_x0", ("--v-x0",), "float", default=0.0, help="drift function at the start"),
        Opt("d", ("--d",), "float", default=1000.0, help="small-set radius"),
        Opt("r", ("--r",), "float", default=0.001, help="step-budget split in (0, 1)"),
        Opt("target", ("--target",), "float", default=0.01, help="TV target"),
        Opt("d_grid", ("--d-grid",), "float_list", help="optimize over these d values"),
        Opt("r_grid", ("--r-grid",), "float_list", help="optimize over these r values"),
    ),
    "two-term": (
        Opt("ratio_a", ("--ratio-a",), "float", required=True, help="first decay ratio"),
        Opt("ratio_b", ("--ratio-b",), "float", required=True, help="second decay ratio"),
        Opt("weight", ("--weight",), "float", default=1.0, help="weight of the second term"),
        Opt("target", ("--target",), "float", default=0.01, help="TV target"),
        Opt("steps", ("--steps",), "int", help="also evaluate the bound here"),
    ),
    "spectral": (
        Opt("levels", ("--levels",), "flag", help="emit the per-level scan spectrum"),
        Opt("gap_curve", ("--gap-curve",), "flag", help="tabulate gap(alpha) on a grid"),
        Opt("argmax", ("--argmax",), "flag", help="maximize the gap over alpha"),
        *_BB_PG_OPTS,
        Opt("scan_weight", ("--scan-weight",), "float", default=0.5, help="P(refresh theta)"),
        Opt("max_levels", ("--max-levels",), "int", default=10, help="levels to print"),
        Opt("product", ("--product",), "float", help="level contraction product q"),
        Opt("grid", ("--grid",), "int", default=101, help="grid points for --gap-curve"),
    ),
    "scan-compare": (
        Opt("n", ("--n",), "int", required=True, help="beta-binomial trial count"),
        Opt("steps_max", ("--steps-max",), "int", default=400, help="exact steps to tabulate"),
        Opt("target", ("--target",), "float", default=0.01, help="TV target"),
        Opt("d", ("--d",), "float", default=1000.0, help="drift/minorization d"),
        Opt("r", ("--r",), "float", default=0.001, help="drift/minorization r"),
        Opt("v_x0", ("--v-x0",), "float", default=0.0, help="drift function at the start"),
        Opt(
            "decay_samples",
            ("--decay-samples",),
            "int",
            default=0,
            help="Monte Carlo replicas for the decay cross-check (0 = skip)",
        ),
    ),
    "exact-tv": (
        *_BB_PG_OPTS,
        Opt("start", ("--start",), "int", required=True, help="start state"),
        Opt("steps_max", ("--steps-max",), "int", required=True, help="steps to tabulate"),
        Opt("target", ("--target",), "float", help="also report the first crossing"),
    ),
    "words": (
        Opt("length", ("--len",), "int", required=True, help="word length (1..20)"),
    ),
    "simulate": (
        *_BB_PG_OPTS,
        Opt(
            "scan",
            ("--scan",),
            "str",
            default="systematic_theta_x",
            choices=SCAN_KINDS,
            help="scan strategy",
        ),
        Opt("scan_weight", ("--scan-weight",), "float", help="P(refresh theta), random scan"),
        Opt("steps", ("--steps",), "int", required=True, help="steps to simulate"),
        Opt("start_x", ("--start-x",), "int", required=True, help="initial x"),
        Opt("start_theta", ("--start-theta",), "float", required=True, help="initial theta"),
        Opt("decay", ("--decay",), "flag", help="estimate the eigenfunction decay instead"),
        Opt("samples", ("--samples",), "int", default=10_000, help="replicas for --decay"),
    ),
    "pg-demo": (
        Opt(
            "j_list",
            ("--j-list",),
            "int_list",
            default=(0, 8, 16, 32, 64, 128),
            help="start states",
        ),
        Opt("target", ("--target",), "float", default=0.01, help="TV target"),
        Opt("shape", ("--shape",), "float", default=1.0, help="gamma shape"),
        Opt("rate", ("--rate",), "float", default=1.0, help="gamma rate"),
        Opt("x_max", ("--x-max",), "int", default=400, help="truncation point"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gibbsrates",
        description=(
            "Convergence-rate laboratory for two-component Gibbs samplers: "
            "exact mixing, drift/minorization certificates, and spectral bounds."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subparsers.add_parser(command)
        for opt in OPTIONS[command] + _COMMON_OPTS:
            kwargs: dict = {"dest": opt.key, "default": None, "help": opt.help}
            if opt.kind == "flag":
                kwargs.update(action="store_const", const=True)
            else:
                kwargs["type"] = {
                    "int": int,
                    "float": float,
                    "str": str,
                    "int_list": _parse_int_list,
                    "float_list": _parse_float_list,
                }[opt.kind]
                if opt.choices:
                    kwargs["choices"] = opt.choices
            sub.add_argument(*opt.flags, **kwargs)
        sub.add_argument("--out", dest="out", default=None, help="write output to this file")
        sub.add_argument(
            "--config", dest="config", default=None, help="JSON file with option values"
        )
    return parser


def _config_int(value) -> int:
    if isinstance(value, bool) or not float(value) == int(value):
        raise ValueError("not an integer")
    return int(value)


def _convert_config_value(opt: Opt, value):
    """Validate and coerce one config-file value to the option's type."""
    try:
        if opt.kind.endswith("_list") and not isinstance(value, list):
            raise ValueError("expected a JSON array")
        if opt.kind == "int":
            return _config_int(value)
        if opt.kind == "float":
            if isinstance(value, bool) or not math.isfinite(float(value)):
                raise ValueError("not a finite number")
            return float(value)
        if opt.kind == "flag":
            if not isinstance(value, bool):
                raise ValueError("expected true/false")
            return value
        if opt.kind == "str":
            value = str(value)
            if opt.choices and value not in opt.choices:
                raise ValueError(f"must be one of {opt.choices}")
            return value
        if opt.kind == "int_list":
            return [_config_int(v) for v in value]
        if opt.kind == "float_list":
            if not all(math.isfinite(float(v)) for v in value):
                raise ValueError("not all finite numbers")
            return [float(v) for v in value]
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(
            f"invalid-config-value: key {opt.key!r} = {value!r} ({exc})"
        ) from exc
    raise ParameterError(f"invalid-config-value: unhandled option kind {opt.kind}")


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge flag values, config-file values, and defaults (in that order)."""
    opts = OPTIONS[command] + _COMMON_OPTS
    file_values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except OSError as exc:
            raise ParameterError(f"config-unreadable: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config-not-json: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ParameterError("config-not-json: the config file must hold a JSON object")
        known = {opt.key for opt in opts}
        unknown = sorted(set(file_values) - known)
        if unknown:
            raise ParameterError(
                f"unknown-config-key: {unknown} not recognized for command {command!r}"
            )
    resolved = {}
    for opt in opts:
        flag_value = getattr(args, opt.key, None)
        if flag_value is not None:
            value = flag_value
        elif opt.key in file_values:
            value = _convert_config_value(opt, file_values[opt.key])
        else:
            value = opt.default
        if value is None and opt.required:
            raise ParameterError(
                f"missing-required-option: {opt.flags[0]} (config key {opt.key!r}) "
                f"is required for command {command!r}"
            )
        if isinstance(value, tuple):
            value = list(value)
        resolved[opt.key] = value
    return resolved


@dataclasses.dataclass(frozen=True)
class _Output:
    """A handler's answer: the JSON result and the CSV table, rounded on demand.

    Like the report classes, it builds only the format that is asked for; a
    row list of the result is usually the CSV table itself.
    """

    result: dict
    table: RowTable

    def payload(self) -> dict:
        return self.result

    def to_csv(self) -> str:
        return self.table.to_csv()


def _family_from_config(cfg: dict):
    if cfg["family"] == "bb":
        if cfg.get("n") is None:
            raise ParameterError(
                "missing-required-option: --n is required for the beta-binomial family"
            )
        return BetaBinomialFamily(n=cfg["n"])
    return PoissonGammaFamily(shape=cfg["shape"], rate=cfg["rate"], x_max=cfg["x_max"])


def _magnitude_fields(value: LogMagnitude) -> dict:
    mantissa, exp10 = rounded_decompose(value)
    return {
        "mantissa": mantissa,
        "exp10": exp10,
        "log10": value.log10,
    }


def _run_rosenthal(cfg: dict):
    fam = BetaBinomialFamily(n=cfg["n"])
    cert = bb_drift_minorization(fam, x0=0)
    if cfg["v_x0"]:
        cert = dataclasses.replace(cert, v_x0=float(cfg["v_x0"]))
    target = cfg["target"]
    if cfg["d_grid"] is not None or cfg["r_grid"] is not None:
        d_grid = cfg["d_grid"] if cfg["d_grid"] is not None else [cfg["d"]]
        r_grid = cfg["r_grid"] if cfg["r_grid"] is not None else [cfg["r"]]
        grid = rosenthal_grid_optimize(cert, target, d_grid, r_grid)
        cells = RowTable.from_rows(
            ("d", "r", "status", "steps", "log10_steps"),
            [
                (cell.params.d, cell.params.r, cell.status, cell.min_steps, cell.log10_steps)
                for cell in grid.cells
            ],
        )
        result = {
            "mode": "grid",
            "best": {
                "d": grid.best_params.d,
                "r": grid.best_params.r,
                "steps": grid.min_steps,
                "log10_steps": math.log10(grid.min_steps) if grid.min_steps else None,
            },
            "cells": cells,
        }
        return _Output(result, cells)
    params = RosenthalParams(d=cfg["d"], r=cfg["r"])
    steps = rosenthal_min_steps(cert, params, target)
    ing = rosenthal_ingredients(cert, params)
    points = [0]
    exponent = 0
    while 10**exponent < steps:
        points.append(10**exponent)
        exponent += 1
    points.append(10**exponent)
    curve = []
    for point in points:
        bound = rosenthal_bound(cert, params, point)
        entry = {"steps": point, "bound": bound, "log10_bound": bound.log10}
        curve.append(entry)
    result = {
        "mode": "single",
        "ingredients": {
            "rosenthal_alpha": ing.rosenthal_alpha,
            "u": ing.u,
            "coefficient": ing.coefficient,
            "drift_ratio": math.exp(ing.log_ratio_drift),
            "minorization_ratio_log10": ing.log_ratio_minorization / math.log(10.0),
        },
        "min_steps": {"steps": steps, **_magnitude_fields(LogMagnitude.from_linear(float(steps)))},
        "bound_at_min_steps": rosenthal_bound(cert, params, steps),
        "bound_just_before": rosenthal_bound(cert, params, steps - 1) if steps else None,
        "curve": curve,
    }
    return _Output(
        result,
        RowTable.from_rows(
            ("steps", "log10_bound", "bound_mantissa", "bound_exp10"),
            [
                (entry["steps"], entry["log10_bound"], *rounded_decompose(entry["bound"]))
                for entry in curve
            ],
        ),
    )


def _run_two_term(cfg: dict):
    ratio_a, ratio_b, weight = cfg["ratio_a"], cfg["ratio_b"], cfg["weight"]
    steps = two_term_min_steps(ratio_a, ratio_b, weight, cfg["target"])
    value_at_min = two_term_bound(ratio_a, ratio_b, weight, steps)
    value_before = (
        two_term_bound(ratio_a, ratio_b, weight, steps - 1) if steps > 0 else None
    )
    result = {
        "min_steps": steps,
        "value_at_min_steps": value_at_min,
        "value_just_before": value_before,
    }
    if cfg["steps"] is not None:
        result["value_at"] = {
            "steps": cfg["steps"],
            "value": two_term_bound(ratio_a, ratio_b, weight, cfg["steps"]),
        }
    return _Output(
        result,
        RowTable.from_rows(
            ("min_steps", "value_at_min_steps", "value_just_before"),
            [(steps, value_at_min, value_before)],
        ),
    )


def _run_spectral(cfg: dict):
    modes = [name for name in ("levels", "gap_curve", "argmax") if cfg[name]]
    if len(modes) != 1:
        raise ParameterError(
            "choose exactly one of --levels, --gap-curve, --argmax "
            f"(got {modes or 'none'})"
        )
    mode = modes[0]
    if mode == "levels":
        max_levels = cfg["max_levels"]
        if not isinstance(max_levels, int) or max_levels < 0:
            raise ParameterError(f"--max-levels must be an integer >= 0, got {max_levels!r}")
        fam = _family_from_config(cfg)
        data = (
            bb_spectral_data(fam)
            if isinstance(fam, BetaBinomialFamily)
            else pg_spectral_data(fam)
        )
        spectrum = alpha_scan_eigenvalues(cfg["scan_weight"], data)
        shown = spectrum.levels[:max_levels]
        rows = RowTable.from_rows(
            ("k", "product", "lambda_plus", "lambda_minus", "u_plus", "u_minus"),
            [
                (
                    level.k,
                    level.product,
                    level.lambda_plus,
                    level.lambda_minus,
                    level.u_plus,
                    level.u_minus,
                )
                for level in shown
            ],
        )
        result = {
            "mode": "levels",
            "scan_weight": spectrum.scan_weight,
            "level_count": len(spectrum.levels),
            "cutoff": data.cutoff,
            "tail_eigenvalue": spectrum.tail_eigenvalue,
            "dominant_eigenvalue": spectrum.dominant_eigenvalue,
            "basis_note": data.basis_note,
            "levels": rows,
        }
        return _Output(result, rows)
    if cfg["product"] is None:
        raise ParameterError(
            "missing-required-option: --product is required for "
            "--gap-curve and --argmax"
        )
    if mode == "gap_curve":
        grid = cfg["grid"]
        if not isinstance(grid, int) or grid < 2:
            raise ParameterError(f"grid must be an integer >= 2, got {grid!r}")
        alphas = np.linspace(0.0, 1.0, grid)
        rows = RowTable.from_rows(
            ("alpha", "gap"),
            [(alpha, spectral_gap(alpha, cfg["product"])) for alpha in alphas.tolist()],
        )
        result = {"mode": "gap_curve", "product": cfg["product"], "grid": grid, "rows": rows}
        return _Output(result, rows)
    maximum = argmax_gap(cfg["product"])
    result = {
        "mode": "argmax",
        "product": cfg["product"],
        "alpha_star": maximum.alpha_star,
        "gap_star": maximum.gap_star,
        "alpha_analytic": maximum.alpha_analytic,
        "gap_analytic": maximum.gap_analytic,
    }
    return _Output(
        result,
        RowTable.from_rows(
            ("alpha_star", "gap_star", "alpha_analytic", "gap_analytic"),
            [(maximum.alpha_star, maximum.gap_star, maximum.alpha_analytic, maximum.gap_analytic)],
        ),
    )


def _run_scan_compare(cfg: dict):
    return compare(
        n=cfg["n"],
        max_steps=cfg["steps_max"],
        target=cfg["target"],
        d=cfg["d"],
        r=cfg["r"],
        v_x0=cfg["v_x0"],
        decay_samples=cfg["decay_samples"],
        seed=cfg["seed"],
    )


def _run_exact_tv(cfg: dict):
    target = None if cfg["target"] is None else check_target(cfg["target"])
    fam = _family_from_config(cfg)
    matrix, stationary = (
        bb_xchain(fam) if isinstance(fam, BetaBinomialFamily) else pg_xchain(fam)
    )
    curve = exact_tv_curve(matrix, stationary, cfg["start"], cfg["steps_max"])
    rows = RowTable(("steps", "tv"), (np.arange(curve.size), curve))
    result = {
        "family": cfg["family"],
        "start": cfg["start"],
        "rows": rows,
    }
    if target is not None:
        result["target"] = target
        result["min_steps"] = first_crossing(curve, target)
    return _Output(result, rows)


def _run_words(cfg: dict):
    census = collapse_census(cfg["length"])
    multipliers = {mult.word: mult for mult in alpha_multipliers(cfg["length"])}
    words = [
        {
            "word": word.name,
            "count": count,
            "multiplier_coeffs": list(multipliers[word].coeffs),
        }
        for word, count in census.counts.items()
    ]
    result = {"length": census.length, "total": census.total, "words": words}
    return _Output(
        result,
        RowTable.from_rows(("word", "count"), [(entry["word"], entry["count"]) for entry in words]),
    )


def _run_simulate(cfg: dict):
    fam = _family_from_config(cfg)
    if cfg["scan"] == "random":
        weight = 0.5 if cfg["scan_weight"] is None else cfg["scan_weight"]
        strategy = ScanStrategy.random_scan(weight)
    else:
        if cfg["scan_weight"] is not None:
            raise ParameterError("scan_weight applies only to the random scan")
        strategy = ScanStrategy(kind=cfg["scan"])
    start = JointState(x=cfg["start_x"], theta=cfg["start_theta"])
    if cfg["decay"]:
        estimate, std_error = eigenfunction_decay(
            fam, start, strategy, cfg["steps"], samples=cfg["samples"], seed=cfg["seed"]
        )
        result = {
            "mode": "decay",
            "steps": cfg["steps"],
            "samples": cfg["samples"],
            "estimate": estimate,
            "std_error": std_error,
        }
        predicted = None
        z_score = None
        if strategy.scan_weight == 0.5:
            predicted = float(
                bb_eigenfunction_phi(fam, start.x, start.theta)
                * random_scan_rate(fam.n) ** cfg["steps"]
            )
            if std_error > 0.0:
                z_score = (estimate - predicted) / std_error
        result["predicted"] = predicted
        result["z_score"] = z_score
        return _Output(
            result,
            RowTable.from_rows(
                ("steps", "samples", "estimate", "std_error", "predicted", "z_score"),
                [(cfg["steps"], cfg["samples"], estimate, std_error, predicted, z_score)],
            ),
        )
    states = run_trajectory(fam, start, strategy, cfg["steps"], seed=cfg["seed"])
    rows = RowTable.from_rows(
        ("step", "x", "theta"),
        [(index, state.x, state.theta) for index, state in enumerate(states)],
    )
    result = {"mode": "trajectory", "scan": cfg["scan"], "rows": rows}
    return _Output(result, rows)


def _run_pg_demo(cfg: dict):
    return pg_mixing_demo(
        cfg["j_list"],
        target=cfg["target"],
        shape=cfg["shape"],
        rate=cfg["rate"],
        x_max=cfg["x_max"],
    )


_HANDLERS = {
    "rosenthal": _run_rosenthal,
    "two-term": _run_two_term,
    "spectral": _run_spectral,
    "scan-compare": _run_scan_compare,
    "exact-tv": _run_exact_tv,
    "words": _run_words,
    "simulate": _run_simulate,
    "pg-demo": _run_pg_demo,
}


def render(command: str, cfg: dict, output) -> str:
    """The command's text in the configured format; ``output`` is a report or
    ``_Output`` and serializes only that format."""
    if cfg["format"] == "json":
        return json_text({"command": command, "config": cfg, "result": output.payload()})
    config_comment = "# config: " + json.dumps(
        jsonable({**cfg, "command": command}), sort_keys=True
    )
    return config_comment + "\n" + output.to_csv()


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors itself
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        cfg = resolve_config(args.command, args)
        output = _HANDLERS[args.command](cfg)
        text = render(args.command, cfg, output)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0
