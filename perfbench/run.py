"""Run one benchmark workload against the checkout's sources and print its metrics.

    python3 perfbench/run.py --workload size-sweep --seed 7 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src`` in
fresh worker interpreters (``worker.py``); this process only plans, times
set-up, checks every answer with the oracle (``oracle.py``, outside the
timed region) and reports.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  A detail file with
provenance, per-query verdicts, output digests and latencies is written to
``.perfbench/results/``.  Exit codes: 0 on a result, 2 when the checkout has
no sources to run, 1 when the harness itself fails or the run overruns.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import provenance  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import OK, WRONG, Oracle  # noqa: E402
from worker import digest, file_digest, next_pass_too_late  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("answered_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but not declared with a bound: over a
# list of queries that differ 1000-fold in cost, the median and the tail
# fall between clusters and moved 20-50% from seed to seed.
LATENCY_PERCENTILES = (("query_p50_s", "s"), ("query_tail_s", "s"))
SETUP_SAMPLES = 5
# A run that has not finished by then stops its children and exits without a result.
RUN_TIMEOUT_S = 170


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny query list, for the benchmark's self-tests")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Children:
    """Every process this run starts, so none outlives it."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.live: list[subprocess.Popen] = []
        self.count = 0

    def start(self, argv: list, stdin_text: str | None = None, pipe_stdout: bool = False,
              stdout_path: Path | None = None):
        self.count += 1
        err_path = self.workdir / f"child{self.count}.err"
        out = subprocess.PIPE if pipe_stdout else open(stdout_path or os.devnull, "wb")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin_text else subprocess.DEVNULL,
                                    stdout=out, stderr=err, cwd=ROOT, env=child_env())
        if not pipe_stdout:
            out.close()
        self.live.append(proc)
        if stdin_text:
            proc.stdin.write(stdin_text.encode())
            proc.stdin.close()
        return proc, err_path

    def reap(self, proc) -> tuple[int, float]:
        """Wait for one child; its exit code and peak resident memory in MB."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def stop_all(self) -> None:
        for proc in self.live:
            proc.kill()
        for proc in self.live:
            proc.wait()
        self.live.clear()


def run_worker(children: Children, plan: dict) -> tuple[float, dict]:
    """Start a worker, time it to READY, wait for it and load its result."""
    start = perf_counter()
    proc, err_path = children.start([sys.executable, str(HERE / "worker.py")],
                                    stdin_text=json.dumps(plan), pipe_stdout=True)
    line = proc.stdout.readline()
    ready_s = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    code, _ = children.reap(proc)
    if line.strip() != b"READY" or code != 0:
        tail = err_path.read_text(errors="replace")[-2000:]
        raise HarnessError(f"worker ({plan['mode']}) exited {code}:\n{tail}")
    with open(plan["result_path"], encoding="utf-8") as handle:
        return ready_s, json.load(handle)


def cold_call(children: Children, argv: list, out_path: Path, traced_plan: dict | None = None):
    """One cold command-line process; (latency, exit code, stderr, peak MB)."""
    if traced_plan is None:
        command, stdin_text = [sys.executable, "-m", "gibbsrates", *argv], None
    else:
        command, stdin_text = [sys.executable, str(HERE / "worker.py")], json.dumps(traced_plan)
    start = perf_counter()
    proc, err_path = children.start(command, stdin_text=stdin_text, stdout_path=out_path)
    code, peak_mb = children.reap(proc)
    latency = perf_counter() - start
    return latency, code, err_path.read_text(errors="replace"), peak_mb


def setup_samples(children: Children, plan: dict, workdir: Path, count: int) -> list[float]:
    samples = []
    for index in range(count):
        setup_plan = {"mode": "setup", "warmup": plan["warmup"], "workdir": str(workdir),
                      "result_path": str(workdir / f"setup{index}.json")}
        samples.append(run_worker(children, setup_plan)[0])
    return samples


def run_cli_cold(children: Children, plan: dict, args, workdir: Path) -> dict:
    """Round-robin of cold processes over the command list until the deadline."""
    queries = plan["queries"]
    warm_path = workdir / "warmup.out"
    first_latency = cold_call(children, plan["warmup"]["argv"], warm_path)[0]
    answers: list = [None] * len(queries)
    digests: list[list[str]] = [[] for _ in queries]
    passes, peaks, traced_runs = [], [], []
    started = perf_counter()
    done = False
    while not done:
        traced = bool(args.trace) and len(passes) % 2 == 1
        latencies = []
        for index, query in enumerate(queries):
            if passes and not args.trace:
                # Untraced, stop between processes: the next one must fit.
                elapsed = perf_counter() - started
                count = sum(len(p["latencies"]) for p in passes) + len(latencies)
                if elapsed + elapsed / count > args.seconds:
                    done = True
                    break
            first = answers[index] is None
            out_path = workdir / f"q{index}.{'out' if first else 'tmp'}"
            traced_plan = None
            if traced:
                traced_plan = {"mode": "cli-traced", "argv": query["argv"],
                               "out_path": str(out_path), "workdir": str(workdir),
                               "result_path": str(workdir / f"traced{index}.json")}
            latency, code, err, peak = cold_call(children, query["argv"], out_path, traced_plan)
            latencies.append(latency)
            if traced:
                with open(traced_plan["result_path"], encoding="utf-8") as handle:
                    traced_runs.append(json.load(handle))
            else:
                peaks.append(peak)
            if code != 0:
                error = {"error": f"exit {code}", "message": err.strip()}
                digests[index].append(digest(json.dumps(error, sort_keys=True).encode()))
            else:
                error = None
                digests[index].append(file_digest(out_path))
            if first:
                answers[index] = error or {"path": str(out_path)}
            else:
                out_path.unlink(missing_ok=True)
        if latencies:
            passes.append({"traced": traced, "latencies": latencies})
        if args.trace and next_pass_too_late(passes, perf_counter() - started, plan):
            break
    steady = [p["latencies"][0] for p in passes if not p["traced"]]
    result = {"passes": passes, "answers": answers, "digests": digests,
              "peak_rss_mb": max(peaks),
              "warmup": {"latency": first_latency, "steady": steady}}
    if traced_runs:
        totals: dict = {}
        counters: dict = {}
        for run in traced_runs:
            for name, (calls, self_s, failed) in run["totals"].items():
                total = totals.setdefault(name, [0, 0.0, 0])
                total[0] += calls
                total[1] += self_s
                total[2] += failed
            for key, value in run["counters"].items():
                counters[key] = counters.get(key, 0) + value
        imports = [run["import"] for run in traced_runs]
        result.update({
            "totals": totals, "counters": counters,
            "span_count": sum(run["span_count"] for run in traced_runs),
            "import": {key: stats.median([i[key] for i in imports]) for key in imports[0]},
            "import_total_s": sum(i["import_s"] for i in imports),
        })
    return result


def judge(plan: dict, result: dict) -> list[tuple[str, str]]:
    """Oracle verdict per distinct query; outputs must also repeat exactly."""
    schema = json.loads((ROOT / "schemas" / "cli-output.schema.json").read_text())
    oracle = Oracle(schema)
    verdicts = []
    for query, answer, digests in zip(plan["queries"], result["answers"], result["digests"]):
        if len(set(digests)) > 1:
            verdicts.append((WRONG, "output differs between passes"))
        else:
            verdicts.append(oracle.check(query, answer))
    return verdicts


def untraced_latencies(result: dict) -> list[list[float]]:
    return [p["latencies"] for p in result["passes"] if not p["traced"]]


def end_to_end(plan, result, answered, setup) -> tuple[dict, dict]:
    limit = plan["limit_s"]
    timed = untraced_latencies(result)
    # A cold run may end inside a pass, so each query has its own repeats.
    repeats = [[stats.charge(lats[i], answered[i], limit) for lats in timed if len(lats) > i]
               for i in range(len(answered))]
    flat = [value for values in repeats for value in values]
    tail_value, tail_rank, samples = stats.tail(flat)
    failed = sum(len(values) for values, ok in zip(repeats, answered) if not ok)
    values = {
        "setup_s": stats.median(setup),
        "sweep_s": sum(stats.median(values) for values in repeats),
        "answered_share": (len(flat) - failed) / len(flat),
        "peak_rss_mb": result["peak_rss_mb"],
        "query_p50_s": stats.median(flat),
        "query_tail_s": tail_value,
    }
    info = {"attempted": len(flat), "failed": failed, "tail_rank": tail_rank,
            "samples": samples, "passes": len(timed), "setup_samples": setup}
    return values, info


def per_layer(result) -> tuple[dict, dict]:
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    scale = 1.0 / len(traced)
    totals = {name: [calls * scale, self_s * scale, failed * scale]
              for name, (calls, self_s, failed) in result["totals"].items()}
    counters = {key: value * scale for key, value in result["counters"].items()}
    values = tracing.layer_metrics(totals, counters)
    imports = result["import"]
    values["import.gibbsrates_s"] = imports["import_s"]
    values["import.modules_loaded"] = imports["modules_loaded"]
    values["import.scipy_stats_loaded"] = imports["scipy_stats_loaded"]
    warm = result["warmup"]
    values["setup.first_query_excess_s"] = warm["latency"] - stats.median(warm["steady"])
    wall = stats.median([sum(p["latencies"]) for p in traced])
    untraced_wall = stats.median([sum(p["latencies"]) for p in untraced])
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = wall - untraced_wall
    # Cold processes also spend time importing, outside any span.
    imported = result.get("import_total_s", 0.0) * scale
    values["trace.harness_s"] = wall - values["trace.self_sum_s"] - imported
    values["trace.spans"] = result["span_count"] * scale
    return values, {"traced_passes": len(traced), "untraced_passes": len(untraced)}


def _overdue(*_):
    raise HarnessError(f"run exceeded {RUN_TIMEOUT_S} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gibbsrates" / "__init__.py").is_file() or \
            not (ROOT / "schemas" / "cli-output.schema.json").is_file():
        print(f"error: no gibbsrates sources under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    plan = workloads.build_plan(args.workload, args.seed, short=args.short)
    workdir = STATE / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    children = Children(workdir)
    # A terminated or overdue run still stops its children and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGALRM, _overdue)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        return _run(args, plan, workdir, children)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, plan, workdir: Path, children: Children) -> int:
    started = perf_counter()
    plan.update(workdir=str(workdir), seconds=args.seconds, trace=args.trace)
    if args.workload == "cli-cold":
        setup = setup_samples(children, plan, workdir, SETUP_SAMPLES)
        result = run_cli_cold(children, plan, args, workdir)
    else:
        setup = setup_samples(children, plan, workdir, SETUP_SAMPLES - 1)
        ready_s, result = run_worker(
            children, {**plan, "mode": "run", "result_path": str(workdir / "run.json")})
        setup.append(ready_s)
    verdicts = judge(plan, result)
    answered = [verdict == OK for verdict, _ in verdicts]
    if args.trace:
        values, info = per_layer(result)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        timed = untraced_latencies(result)
        info.update(attempted=sum(len(lats) for lats in timed),
                    failed=sum(not answered[i] for lats in timed for i in range(len(lats))))
    else:
        values, info = end_to_end(plan, result, answered, setup)
        units = dict(END_TO_END)
    correct = all(verdict != WRONG for verdict, _ in verdicts)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    stamp = provenance.stamp(ROOT, args.seed)
    problems: dict[str, int] = {}
    for verdict, reason in verdicts:
        if verdict != OK:
            key = f"{verdict}: {reason.split(':')[0]}"
            problems[key] = problems.get(key, 0) + 1
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": stamp, "limit_s": plan["limit_s"],
        "info": info, "metrics": metrics, "wall_s": perf_counter() - started,
        "queries": [
            {"query": q, "verdict": v, "reason": r, "digest": d[0] if d else None,
             "latencies": [lats[i] for lats in untraced_latencies(result) if len(lats) > i]}
            for i, (q, (v, r), d) in enumerate(zip(plan["queries"], verdicts, result["digests"]))
        ],
    }
    if args.trace:
        detail["spans"] = result.get("spans", [])
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=str))

    blas = stamp["blas"]
    print(f"# {args.workload} seed={args.seed} commit={stamp['git_commit']} "
          f"src={stamp['source_sha256'][:12]} python={stamp['python']} numpy={stamp['numpy']} "
          f"scipy={stamp['scipy']} blas={blas['name']} {blas['version']} "
          f"threads={blas['threads']} nproc={stamp['nproc']} caches={stamp['caches']}")
    for key, count in sorted(problems.items()):
        print(f"# {count} queries {key}")
    if not args.trace:
        print(f"# tail = sample {info['tail_rank']} of {info['samples']} in ascending order "
              f"({100.0 * info['tail_rank'] / info['samples']:.1f}th percentile, "
              f"{info['samples'] - info['tail_rank']} beyond); {info['passes']} passes")
    shown = dict(metrics)
    if not args.trace:
        for name, unit in LATENCY_PERCENTILES:
            shown[name] = {"value": values[name], "unit": unit}
            if args.workload == "cli-cold":
                shown[name.replace("query", "cli")] = shown[name]
    for name, metric in shown.items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"# detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
