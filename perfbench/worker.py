"""Fresh-interpreter worker: import the program, warm up, run the timed loop.

The runner starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and writes a JSON plan to its stdin.  The worker prints ``READY``
once the import and the warm-up query are done (the runner times set-up up
to that line), runs its mode, writes a result file and exits.

Modes:

* ``setup``: import and warm up only (an extra set-up sample);
* ``run``: time every query of the list, pass after pass, until the
  deadline; with ``trace`` set, untraced and traced passes alternate so the
  difference is the tracing overhead;
* ``cli-traced``: one cold command-line invocation with spans installed,
  the traced counterpart of ``python -m gibbsrates``.

Nothing is checked here: answers go to the runner, whose oracle shares no
code with the program.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

SPANS_KEPT = 2000


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()


class Queries:
    """Runs one query against the program and summarizes its answer."""

    def __init__(self, gibbsrates):
        self.g = gibbsrates

    def call(self, query: dict, out_path: str):
        """The timed part: the program call and nothing else."""
        g = self.g
        kind = query["kind"]
        if kind == "compare":
            return g.compare(query["n"], max_steps=query["max_steps"])
        if kind == "bb_spectral":
            return g.bb_spectral_data(g.BetaBinomialFamily(query["n"]))
        if kind == "pg_demo":
            return g.pg_mixing_demo(query["starts"], shape=query["shape"],
                                    rate=query["rate"], x_max=query["x_max"])
        errors = io.StringIO()
        with contextlib.redirect_stderr(errors):
            code = g.cli.main(query["argv"] + ["--out", out_path])
        return code, errors.getvalue()

    def timed(self, query: dict, out_path: str):
        """(latency, answer or None, error or None) for one execution."""
        errors = (self.g.ParameterError, self.g.NumericsError)
        start = perf_counter()
        try:
            answer, error = self.call(query, out_path), None
        except errors as exc:
            answer, error = None, {"error": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # a crash is a failed query, not a failed benchmark
            answer, error = None, {"error": "unexpected " + type(exc).__name__,
                                   "message": str(exc)}
        latency = perf_counter() - start
        if error is None and query["kind"] == "cli" and answer[0] != 0:
            error = {"error": f"exit {answer[0]}", "message": answer[1]}
        return latency, answer, error

    def summary(self, query: dict, answer, error, out_path: str) -> tuple[dict, str]:
        """Answer fields the oracle checks, and a digest of the output."""
        if error is not None:
            return error, digest(json.dumps(error, sort_keys=True).encode())
        kind = query["kind"]
        if kind == "cli":
            return {"path": out_path, "bytes": os.path.getsize(out_path)}, file_digest(out_path)
        if kind == "compare":
            summary = {
                "worst_start": answer.worst_start,
                "min_steps": answer.min_steps,
                "rows": len(answer.rows),
                "exact_tv": [row.exact_tv_systematic for row in answer.rows],
            }
        elif kind == "bb_spectral":
            summary = {
                "products": [level.product for level in answer.levels],
                "cutoff": answer.cutoff,
            }
        else:
            summary = {
                "decay_rate": answer.decay_rate,
                "rows": [[r.start, r.exact_min_steps, r.chisq_min_steps] for r in answer.rows],
            }
        text = json.dumps(summary, sort_keys=True, default=str)
        return summary, digest(text.encode())


def next_pass_too_late(passes: list, elapsed: float, plan: dict) -> bool:
    """Stop once another pass would end past the deadline; a traced run
    needs at least one untraced and one traced pass."""
    if plan["trace"] and all(p["traced"] == passes[0]["traced"] for p in passes):
        return False
    return elapsed + elapsed / len(passes) > plan["seconds"]


def _run_passes(plan: dict, queries: Queries, tracer) -> dict:
    """Closed loop over the query list until the deadline, whole passes only."""
    items = plan["queries"]
    workdir = plan["workdir"]
    started = perf_counter()
    answers: list = [None] * len(items)
    digests: list[list[str]] = [[] for _ in items]
    passes = []
    while True:
        traced = plan["trace"] and len(passes) % 2 == 1
        if traced:
            tracer.install()
        latencies = []
        for index, query in enumerate(items):
            first = answers[index] is None
            out_path = os.path.join(workdir, f"q{index}.{'out' if first else 'tmp'}")
            latency, answer, error = queries.timed(query, out_path)
            latencies.append(latency)
            summary, output_digest = queries.summary(query, answer, error, out_path)
            digests[index].append(output_digest)
            if first:
                answers[index] = summary
            elif os.path.exists(out_path):
                os.remove(out_path)
        if traced:
            tracer.uninstall()
        passes.append({"traced": traced, "latencies": latencies})
        if next_pass_too_late(passes, perf_counter() - started, plan):
            break
    return {"passes": passes, "answers": answers, "digests": digests}


def main() -> int:
    plan = json.loads(sys.stdin.read())
    loaded_before = set(sys.modules)
    start = perf_counter()
    import gibbsrates
    import gibbsrates.cli

    import_info = {
        "import_s": perf_counter() - start,
        "modules_loaded": len(set(sys.modules) - loaded_before),
        "scipy_stats_loaded": int("scipy.stats" in sys.modules),
    }
    result: dict = {"import": import_info}
    queries = Queries(gibbsrates)

    if plan["mode"] == "cli-traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        errors = io.StringIO()
        with open(plan["out_path"], "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
            code = gibbsrates.cli.main(plan["argv"])
        tracer.uninstall()
        result.update(code=code, totals=tracer.totals, counters=tracer.counters,
                      span_count=tracer.span_count())
    else:
        warm_path = os.path.join(plan["workdir"], f"warmup-{os.getpid()}.out")
        latency, _, error = queries.timed(plan["warmup"], warm_path)
        if os.path.exists(warm_path):
            os.remove(warm_path)
        result["warmup"] = {"latency": latency, "error": error}
        print("READY", flush=True)
        if plan["mode"] == "run":
            tracer = None
            if plan["trace"]:
                from tracing import Tracer

                tracer = Tracer()
            result.update(_run_passes(plan, queries, tracer))
            if tracer is not None:
                # The warm-up query once more, warm, to price its first-call excess.
                steady = [queries.timed(plan["warmup"], warm_path)[0] for _ in range(3)]
                if os.path.exists(warm_path):
                    os.remove(warm_path)
                result["warmup"]["steady"] = steady
                result.update(totals=tracer.totals, counters=tracer.counters,
                              span_count=tracer.span_count(),
                              spans=tracer.spans(SPANS_KEPT))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(plan["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle, default=str)
    return 0


if __name__ == "__main__":
    sys.exit(main())
