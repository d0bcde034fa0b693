"""Reference answers for every benchmark query, computed outside the timed region.

Shares no code with ``gibbsrates``.  The beta-binomial x-chain row from x is
``scipy.stats.betabinom(n, 1 + x, 1 + n - x)``; the Poisson-gamma row from x
is ``scipy.stats.nbinom(shape + x, (rate + 1)/(rate + 2))``; spectra come from
the Diaconis-Khare-Saloff-Coste closed forms; bound crossings are evaluated
from their formulas.  A reported step count t is accepted when the curve is
above the target at t - 1 and at or below it at t, each side allowed a
relative slack of 1e-9 so that rounding in the last digits cannot fail a
correct answer.

Verdicts: ``ok`` (answer verified, or a refusal the oracle confirms),
``failed`` (the program raised or exited non-zero where an answer exists),
``wrong`` (an answer that disagrees with the reference).
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import stats

SLACK = 1e-9
# Agreement demanded of tabulated TV values and spectra.
VALUE_TOL = 1e-9
# Monte Carlo answers must sit within this many standard errors.
MC_SIGMAS = 6.0
TRUNCATION_TOL = 1e-12

# PAPER.md headline numbers at n = 100, target 0.01, default d and r.
HEADLINE_N100 = {
    "exact": 218,
    "systematic_upper": 349,
    "random_scan_upper": 1402,
    "random_scan_lower_at_least": 356,
    "eigen_lower_at_least": 198,
}
HEADLINE_ROSENTHAL_STEPS = 5837746750420959489701174696738817
# Flat Poisson-gamma demo rows: start -> chi-square steps, and the exact range.
PG_FLAT_CHISQ = {8: 12, 16: 16, 32: 24, 64: 40, 128: 72}
PG_FLAT_EXACT_RANGE = (8, 12)

OK, FAILED, WRONG = "ok", "failed", "wrong"


def first_crossing_ok(curve, t: int, target: float, gate: int = 0) -> bool:
    """curve(t) <= target < curve(t - 1), or t sits at the validity gate."""
    if t < gate or curve(t) > target * (1 + SLACK):
        return False
    return t == gate or curve(t - 1) > target * (1 - SLACK)


class Oracle:
    def __init__(self, schema: dict | None = None):
        self._bb = {}
        self._pg = {}
        self._validator = None
        if schema is not None:
            import jsonschema

            self._validator = jsonschema.Draft7Validator(schema)

    # ---------------------------------------------------------------- chains

    def bb_kernel(self, n: int) -> np.ndarray:
        if n not in self._bb:
            x = np.arange(n + 1)
            kernel = stats.betabinom.pmf(x[None, :], n, 1 + x[:, None], 1 + n - x[:, None])
            self._bb[n] = kernel / kernel.sum(axis=1, keepdims=True)
        return self._bb[n]

    def bb_tv(self, n: int, start: int, steps: int) -> np.ndarray:
        """TV to the uniform law at steps 0..steps from a point start."""
        kernel = self.bb_kernel(n)
        pi = np.full(n + 1, 1.0 / (n + 1))
        v = np.zeros(n + 1)
        v[start] = 1.0
        out = np.empty(steps + 1)
        out[0] = 0.5 * np.abs(v - pi).sum()
        for t in range(1, steps + 1):
            v = v @ kernel
            out[t] = 0.5 * np.abs(v - pi).sum()
        return out

    def bb_reachable(self, n: int, steps: int, target: float) -> bool:
        """Both extreme (slowest) starts reach the target within ``steps``."""
        kernel = self.bb_kernel(n)
        pi = np.full(n + 1, 1.0 / (n + 1))
        for start in (0, n):
            v = np.zeros(n + 1)
            v[start] = 1.0
            for _ in range(steps):
                v = v @ kernel
                if 0.5 * np.abs(v - pi).sum() <= target * (1 + SLACK):
                    break
            else:
                return False
        return True

    def pg_chain(self, shape: float, rate: float, x_max: int):
        key = (shape, rate, x_max)
        if key not in self._pg:
            x = np.arange(x_max + 1)
            rows = stats.nbinom.pmf(x[None, :], shape + x[:, None], (rate + 1) / (rate + 2))
            kernel = rows / rows.sum(axis=1, keepdims=True)
            pi = stats.nbinom.pmf(x, shape, rate / (rate + 1))
            pi /= pi.sum()
            for _ in range(10_000):
                nxt = pi @ kernel
                nxt /= nxt.sum()
                if np.abs(nxt - pi).sum() < 1e-16:
                    break
                pi = nxt
            self._pg[key] = (kernel, nxt)
        return self._pg[key]

    @staticmethod
    def pg_truncation_valid(shape: float, rate: float, x_max: int) -> bool:
        """True leak beyond x_max, from the stationary tail and the last row."""
        tail = stats.nbinom.logsf(x_max, shape, rate / (rate + 1))
        row = stats.nbinom.logsf(x_max, x_max + shape, (rate + 1) / (rate + 2))
        return max(tail, row) < math.log(TRUNCATION_TOL)

    # ------------------------------------------------------------- answers

    def check_compare(self, n: int, max_steps: int, target: float, answer: dict,
                      exact_tv: list | None) -> tuple[str, str]:
        """A comparison report: worst start, crossings, bounds, headline."""
        t = answer["min_steps"]["exact"]
        start = answer["worst_start"]
        curve = self.bb_tv(n, start, min(max_steps, max(2 * t, t + 1)))
        if not first_crossing_ok(lambda s: curve[s], t, target):
            return WRONG, f"exact crossing {t} from start {start} not confirmed"
        for extreme in (0, n):
            if self.bb_tv(n, extreme, t)[-1] > target * (1 + SLACK):
                return WRONG, f"extreme start {extreme} has not crossed by step {t}"
        if exact_tv is not None:
            if len(exact_tv) != max_steps:
                return WRONG, f"{len(exact_tv)} rows for {max_steps} steps"
            for s in sorted({1, max(1, t - 1), t, len(curve) - 1}):
                if abs(exact_tv[s - 1] - curve[s]) > VALUE_TOL:
                    return WRONG, f"exact TV at step {s}: {exact_tv[s - 1]} vs {curve[s]}"
        q = n / (n + 2.0)
        r = 0.5 + 0.5 * math.sqrt(q)
        weight = abs(start - n / 2.0) / (n / 2.0)
        bounds = {
            "systematic_upper": (lambda s: 10.0 * q**s, -(-3 * n // 16)),
            "random_scan_upper": (
                lambda s: 3.0 * math.exp(-(s - 1) / 8.0)
                + 10.0 * math.sqrt((n + 2.0) / n) * r ** (s - 1),
                -(-3 * n // 4),
            ),
            "random_scan_lower_at_least": (lambda s: (1.0 - 1.0 / (n + 2.0)) ** s / 3.0, 0),
            "eigen_lower_at_least": (lambda s: 0.5 * weight * q**s, 0),
        }
        for key, (curve_fn, gate) in bounds.items():
            if not first_crossing_ok(curve_fn, answer["min_steps"][key], target, gate):
                return WRONG, f"{key} = {answer['min_steps'][key]} not confirmed"
        if n == 100 and target == 0.01:
            for key, value in HEADLINE_N100.items():
                if answer["min_steps"][key] != value:
                    return WRONG, f"headline {key}: {answer['min_steps'][key]} != {value}"
            rosenthal = answer["min_steps"]["rosenthal"].get("steps")
            if rosenthal != HEADLINE_ROSENTHAL_STEPS:
                return WRONG, f"headline rosenthal steps {rosenthal}"
        return OK, "verified"

    def refusal(self, n: int, max_steps: int, target: float, error: dict) -> tuple[str, str]:
        """A compare that raised: fine only if the horizon really is too short."""
        if self.bb_reachable(n, max_steps, target):
            return FAILED, f"{error['error']}: {error['message'][:160]}"
        if "target-not-reached" in error["message"]:
            return OK, "refusal confirmed: horizon too short"
        return WRONG, f"horizon too short but refused with {error['message'][:160]}"

    def check_spectral(self, n: int, products: list, count: int | None = None) -> tuple[str, str]:
        """Level products against lambda_k = prod_{i<k} (n - i)/(n + 2 + i)."""
        k = np.arange(n)
        closed = np.cumprod((n - k) / (n + 2.0 + k))
        shown = len(products) if count is None else count
        if len(products) != shown or shown > n:
            return WRONG, f"{len(products)} levels for n = {n}"
        err = float(np.max(np.abs(np.asarray(products[:shown]) - closed[:shown]))) if shown else 0.0
        if err > VALUE_TOL:
            return WRONG, f"level products off the closed form by {err:.3g}"
        return OK, f"closed form within {err:.2g}"

    def check_pg(self, shape: float, rate: float, x_max: int, starts: list, rows: list,
                 target: float = 0.01) -> tuple[str, str]:
        kernel, pi = self.pg_chain(shape, rate, x_max)
        decay = 1.0 / (1.0 + rate)  # Meixner closed form for the second eigenvalue
        if [row[0] for row in rows] != list(starts):
            return WRONG, "rows do not follow the requested starts"
        for start, exact, chisq in rows:
            v = np.zeros(x_max + 1)
            v[start] = 1.0
            tv = [0.5 * np.abs(v - pi).sum()]
            while len(tv) <= exact:
                v = v @ kernel
                tv.append(0.5 * np.abs(v - pi).sum())
            if not first_crossing_ok(lambda s: tv[s], exact, target):
                return WRONG, f"exact crossing {exact} from start {start} not confirmed"
            mass = pi[start]
            if not first_crossing_ok(lambda s: mass**-0.5 * decay**s, chisq, target):
                return WRONG, f"chi-square steps {chisq} from start {start} not confirmed"
            if shape == 1.0 and rate == 1.0 and start in PG_FLAT_CHISQ:
                lo, hi = PG_FLAT_EXACT_RANGE
                if chisq != PG_FLAT_CHISQ[start] or not lo <= exact <= hi:
                    return WRONG, f"flat demo row {start}: {exact}, {chisq}"
        return OK, "verified"

    # -------------------------------------------------------- command line

    def validate_json(self, payload: dict) -> str | None:
        if self._validator is None:
            return None
        error = next(iter(self._validator.iter_errors(payload)), None)
        return None if error is None else f"schema: {error.message[:160]}"

    def check_cli(self, argv: list, path: str | None, error: dict | None) -> tuple[str, str]:
        command = argv[0]
        opts = _options(argv[1:])
        fmt = opts.get("--format", "json")
        target = float(opts.get("--target", 0.01))
        if error is not None:
            if command == "scan-compare":
                steps = int(opts.get("--steps-max", 400))
                return self.refusal(int(opts["--n"]), steps, target, error)
            return FAILED, f"{error['error']}: {error['message'][:160]}"
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if fmt == "csv":
            return self._check_csv(command, opts, text, target)
        payload = json.loads(text)
        problem = self.validate_json(payload)
        if problem:
            return WRONG, problem
        result = payload["result"]
        if command == "scan-compare":
            n, steps = int(opts["--n"]), int(opts.get("--steps-max", 400))
            exact = [row["exact_tv_systematic"] for row in result["rows"]]
            verdict = self.check_compare(n, steps, target, result, exact)
            if verdict[0] != OK or "--decay-samples" not in opts:
                return verdict
            return self._check_decay_rows(n, result)
        if command == "exact-tv":
            n, start, steps = int(opts["--n"]), int(opts["--start"]), int(opts["--steps-max"])
            t = result.get("min_steps")
            curve = self.bb_tv(n, start, steps if t is None else min(steps, max(t, 1000)))
            tv = [row["tv"] for row in result["rows"]]
            if len(tv) != steps + 1:
                return WRONG, f"{len(tv)} rows for {steps} steps"
            for s in sorted({0, 1, len(curve) - 1}):
                if abs(tv[s] - curve[s]) > VALUE_TOL:
                    return WRONG, f"TV at step {s}: {tv[s]} vs {curve[s]}"
            if t is None:
                if curve.min() <= target * (1 - SLACK):
                    return WRONG, "no crossing reported, but the target is reached"
            elif not first_crossing_ok(lambda s: curve[s], t, target):
                return WRONG, f"crossing {t} not confirmed"
            return OK, "verified"
        if command == "rosenthal":
            steps = result["min_steps"]["steps"]
            if int(opts["--n"]) == 100 and steps != HEADLINE_ROSENTHAL_STEPS:
                return WRONG, f"rosenthal steps {steps} != {HEADLINE_ROSENTHAL_STEPS}"
            return OK, "headline certificate"
        if command == "pg-demo":
            rows = [[r["start"], r["exact_min_steps"], r["chisq_min_steps"]] for r in result["rows"]]
            return self.check_pg(result["shape"], result["rate"], result["x_max"],
                                 [r[0] for r in rows], rows, target)
        if command == "spectral":
            products = [level["product"] for level in result["levels"]]
            n = int(opts["--n"])
            if result["level_count"] != n:
                return WRONG, f"level count {result['level_count']} != {n}"
            return self.check_spectral(n, products, count=min(10, n))
        if command == "simulate":
            return self._check_simulate(opts, result)
        return WRONG, f"no reference for command {command}"

    def _check_csv(self, command, opts, text, target):
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# config: "):
            return WRONG, "csv without its config comment"
        json.loads(lines[0][len("# config: "):])
        rows = list(csv.DictReader(lines[1:]))
        n, steps = int(opts["--n"]), int(opts.get("--steps-max", 400))
        if command != "scan-compare" or len(rows) != steps:
            return WRONG, f"{len(rows)} csv rows for {steps} steps"
        exact = [float(row["exact_tv_systematic"]) for row in rows]
        # The worst start of these symmetric chains is 0 (ties go to the smaller state).
        curve = self.bb_tv(n, 0, min(steps, 1000))
        t = next((s for s in range(1, len(curve)) if curve[s] <= target), len(curve) - 1)
        for s in sorted({1, max(1, t - 1), t, len(curve) - 1}):
            if abs(exact[s - 1] - curve[s]) > VALUE_TOL:
                return WRONG, f"exact TV at step {s}: {exact[s - 1]} vs {curve[s]}"
        return OK, "verified"

    @staticmethod
    def _level1_decay(n: int, x: int, theta: float, steps: int) -> float:
        phi = (x - n / 2.0) + math.sqrt(n * (n + 2.0)) * (theta - 0.5)
        return phi * (0.5 + 0.5 * math.sqrt(n / (n + 2.0))) ** steps

    def _check_decay_rows(self, n, result):
        start = result["worst_start"]
        theta = 0.0 if start <= n / 2 else 1.0
        for row in result["decay_check"]:
            predicted = self._level1_decay(n, start, theta, row["steps"])
            if abs(row["predicted"] - predicted) > VALUE_TOL * max(1.0, abs(predicted)):
                return WRONG, f"decay prediction {row['predicted']} vs {predicted}"
            if abs(row["observed"] - predicted) > MC_SIGMAS * row["std_error"]:
                return WRONG, f"decay estimate {row['observed']} off {predicted}"
        return OK, "verified"

    def _check_simulate(self, opts, result):
        predicted = self._level1_decay(int(opts["--n"]), int(opts["--start-x"]),
                                       float(opts["--start-theta"]), int(opts["--steps"]))
        if abs(result["predicted"] - predicted) > VALUE_TOL * max(1.0, abs(predicted)):
            return WRONG, f"decay prediction {result['predicted']} vs {predicted}"
        if abs(result["estimate"] - predicted) > MC_SIGMAS * result["std_error"]:
            return WRONG, f"decay estimate {result['estimate']} off {predicted}"
        return OK, "verified"

    # ------------------------------------------------------------- dispatch

    def check(self, query: dict, answer: dict) -> tuple[str, str]:
        """Verdict for one distinct query given the worker's first-pass summary."""
        error = answer if "error" in answer else None
        kind = query["kind"]
        if kind == "cli":
            return self.check_cli(query["argv"], answer.get("path"), error)
        if kind == "compare":
            n, steps = query["n"], query["max_steps"]
            if error is not None:
                return self.refusal(n, steps, 0.01, error)
            return self.check_compare(n, steps, 0.01, answer, answer["exact_tv"])
        if kind == "bb_spectral":
            if error is not None:
                return FAILED, f"{error['error']}: {error['message'][:160]}"
            if answer["cutoff"] != query["n"] + 1:
                return WRONG, f"cutoff {answer['cutoff']}"
            return self.check_spectral(query["n"], answer["products"])
        if error is not None:
            if self.pg_truncation_valid(query["shape"], query["rate"], query["x_max"]):
                return FAILED, f"{error['error']}: {error['message'][:160]}"
            return OK, "refusal confirmed: truncation leaks"
        return self.check_pg(query["shape"], query["rate"], query["x_max"],
                             query["starts"], answer["rows"])


def _options(args: list) -> dict:
    """Flag -> value for a command line (flags without a value map to True)."""
    opts = {}
    i = 0
    while i < len(args):
        if i + 1 < len(args) and not args[i + 1].startswith("--"):
            opts[args[i]] = args[i + 1]
            i += 2
        else:
            opts[args[i]] = True
            i += 1
    return opts
