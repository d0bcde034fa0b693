"""Workload definitions: the query list each workload runs, made from a seed.

Every workload is a closed loop with one caller: the next query starts when
the previous one returns.  The seed only picks inputs; the program under
test never sees it except as those inputs (and as the ``--seed`` of the one
Monte Carlo command, whose answer is checked statistically).

A list is run in whole passes: pass after pass while the next one is
expected to end before the deadline, and at least one.

Size-sweep sizes are drawn on a shifted geometric grid: ``count`` points
evenly spaced in log(size) over [lo, hi], all moved by one seed-drawn offset.
Every seed therefore covers the whole range with the same density, so the
total work of a list changes little from seed to seed, while each seed still
lands on different sizes (and on different members of the known failure
sets).
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("cli-cold", "size-sweep", "long-report")

# Latency limit of every workload, in seconds: above the slowest answer any
# query here gives (about 8 s).  A failed or wrong answer is charged this
# limit plus the time it took (see stats.charge).
LATENCY_LIMIT_S = 10.0

PG_STARTS = (0, 8, 16, 32, 64, 128)
# One flat and one non-flat Poisson-gamma prior for the pg-demo queries.
PG_SHAPES = ((1.0, 1.0), (2.0, 1.0))

# Size-sweep queries per pass; the short list is the self-tests'.
SIZE_SWEEP_COUNTS = {"compare": 24, "bb_spectral": 160, "pg_demo": 32}
SHORT_SIZE_SWEEP_COUNTS = {"compare": 2, "bb_spectral": 3, "pg_demo": 1}


def geometric_grid(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integer sizes spread evenly in log scale over [lo, hi]."""
    offset = rng.random()
    span = math.log(hi) - math.log(lo)
    sizes = []
    for k in range(count):
        value = round(math.exp(math.log(lo) + (k + offset) * span / count))
        sizes.append(min(hi, max(lo, value)))
    return sizes


def _cli_cold(seed: int, short: bool) -> dict:
    commands = [
        ["scan-compare", "--n", "100"],
        ["rosenthal", "--n", "100"],
        ["pg-demo"],
        ["exact-tv", "--family", "bb", "--n", "100", "--start", "0",
         "--steps-max", "400", "--target", "0.01"],
        ["spectral", "--levels", "--family", "bb", "--n", "100"],
        ["simulate", "--decay", "--family", "bb", "--n", "100", "--scan", "random",
         "--start-x", "0", "--start-theta", "0", "--steps", "10",
         "--samples", "10000", "--seed", str(seed)],
    ]
    random.Random(seed).shuffle(commands)
    if short:
        commands = commands[:2]
    queries = [{"kind": "cli", "argv": argv} for argv in commands]
    return {"queries": queries, "warmup": queries[0]}


def _size_sweep(seed: int, short: bool) -> dict:
    rng = random.Random(seed)
    counts = SHORT_SIZE_SWEEP_COUNTS if short else SIZE_SWEEP_COUNTS
    queries = []
    for n in geometric_grid(rng, 50, 600, counts["compare"]):
        queries.append({"kind": "compare", "n": n, "max_steps": 3 * n})
    for n in geometric_grid(rng, 1, 2000, counts["bb_spectral"]):
        queries.append({"kind": "bb_spectral", "n": n})
    for x_max in geometric_grid(rng, 400, 1600, counts["pg_demo"]):
        for shape, rate in PG_SHAPES:
            queries.append(
                {"kind": "pg_demo", "x_max": x_max, "shape": shape, "rate": rate,
                 "starts": list(PG_STARTS)}
            )
    rng.shuffle(queries)
    # Warm up on a dense search big enough to start the BLAS thread pool.
    warmup = {"kind": "compare", "n": 100, "max_steps": 300}
    return {"queries": queries, "warmup": warmup}


# Long reports run at the range ends and the paper's n, so each seed meets
# the same known failures (10^5 steps fail at n = 100 and 200, 2 * 10^4
# steps at n = 200); drawing n instead made the pass total and the answered
# share swing by 10-20% between seeds.  The seed draws the TV target.
LONG_REPORT_SIZES = (50, 100, 200)
LONG_REPORT_HORIZONS = (400, 20_000, 100_000)


def _long_report(seed: int, short: bool) -> dict:
    rng = random.Random(seed)
    target = f"{math.exp(rng.uniform(math.log(0.005), math.log(0.02))):.6g}"
    sizes = (100,) if short else LONG_REPORT_SIZES
    horizons = LONG_REPORT_HORIZONS[:1] if short else LONG_REPORT_HORIZONS
    argvs = []
    for n in map(str, sizes):
        for steps in map(str, horizons):
            for fmt in ("json", "csv"):
                argvs.append(["scan-compare", "--n", n, "--steps-max", steps,
                              "--target", target, "--format", fmt])
        argvs.append(["scan-compare", "--n", n, "--target", target,
                      "--decay-samples", "100000", "--seed", str(seed)])
    for steps in map(str, horizons[1:]):
        argvs.append(["exact-tv", "--family", "bb", "--n", "100", "--start", "0",
                      "--steps-max", steps, "--target", target])
    queries = [{"kind": "cli", "argv": argv} for argv in argvs]
    rng.shuffle(queries)
    warmup = {"kind": "cli", "argv": ["scan-compare", "--n", "100"]}
    return {"queries": queries, "warmup": warmup}


def build_plan(workload: str, seed: int, short: bool = False) -> dict:
    """The workload's query list and warm-up query for this seed."""
    make = {"cli-cold": _cli_cold, "size-sweep": _size_sweep, "long-report": _long_report}
    plan = make[workload](seed, short)
    plan["workload"] = workload
    plan["limit_s"] = LATENCY_LIMIT_S
    return plan
