"""Spans around calls into the program's public functions, from outside it.

The program is not edited: ``install`` replaces selected public functions and
report methods of the ``gibbsrates`` modules with wrappers, in every module
namespace that holds them, so calls between modules are traced too.
``uninstall`` restores the originals.  A span records its name, start, end
and parent; self time is the span's duration minus the time covered by its
direct children, accumulated online so a 10^5-step report (hundreds of
thousands of per-step bound calls) needs no per-span objects.

Operation counts and bytes that are derived from array sizes rather than
observed (matrix products, flops) are named ``*_products`` / ``*_gflop`` and
documented as computed in NOTES.md.
"""
from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# Public functions wrapped per module.  Hot scalar helpers (round_sig,
# systematic_rate, ...) are left out: they are called per table cell and
# would add more tracing overhead than the work they do.
TRACED_FUNCTIONS = {
    "families": ("bb_xchain", "pg_xchain", "bb_spectral_data", "pg_spectral_data",
                 "bb_drift_minorization", "pg_geometric_reference"),
    "numerics": ("reversible_spectrum", "stationary_distribution", "min_steps_geometric",
                 "matrix_power_tv"),
    "bounds": ("systematic_upper", "random_scan_upper", "random_scan_lower",
               "rosenthal_min_steps", "rosenthal_bound", "rosenthal_ingredients",
               "rosenthal_grid_optimize", "chisq_min_steps_pg", "two_term_min_steps",
               "two_term_bound", "scan_time_ratio"),
    "spectral": ("alpha_scan_eigenvalues", "argmax_gap"),
    "operators": ("eigenfunction_decay", "run_trajectory", "collapse_census",
                  "alpha_multipliers"),
    "scan_compare": ("compare", "worst_start_search", "exact_tv_curve", "pg_mixing_demo",
                     "rebuild_random_scan_upper"),
    "cli": ("main", "render"),
}
TRACED_METHODS = {
    ("families", "PoissonGammaFamily"): ("__post_init__",),
    ("scan_compare", "ComparisonReport"): ("to_jsonable", "to_json", "to_csv"),
    ("scan_compare", "PgMixingDemo"): ("to_jsonable", "to_json", "to_csv"),
}

# Span name -> per-layer group.  The Poisson-gamma constructor holds the
# truncation check, so it counts as part of the chain build.
GROUPS = {
    "families.bb_xchain": "families.bb_xchain",
    "families.pg_xchain": "families.pg_xchain",
    "families.PoissonGammaFamily.__post_init__": "families.pg_xchain",
    "families.bb_spectral_data": "families.spectral_data",
    "families.pg_spectral_data": "families.spectral_data",
    "numerics.reversible_spectrum": "numerics.reversible_spectrum",
    "numerics.stationary_distribution": "numerics.stationary_distribution",
    "scan_compare.worst_start_search": "scan_compare.worst_start",
    "scan_compare.exact_tv_curve": "scan_compare.exact_tv_curve",
    "scan_compare.compare": "scan_compare.compare",
    "scan_compare.pg_mixing_demo": "scan_compare.pg_demo",
    "bounds.systematic_upper": "bounds.per_step",
    "bounds.random_scan_upper": "bounds.per_step",
    "bounds.random_scan_lower": "bounds.per_step",
    "operators.eigenfunction_decay": "operators.eigenfunction_decay",
    "cli.render": "cli.render",
    "cli.main": "cli.main",
}
for _name in TRACED_METHODS[("scan_compare", "ComparisonReport")]:
    GROUPS[f"scan_compare.ComparisonReport.{_name}"] = "scan_compare.report_serialize"
    GROUPS[f"scan_compare.PgMixingDemo.{_name}"] = "scan_compare.report_serialize"
for _name in TRACED_FUNCTIONS["bounds"]:
    if _name.startswith("rosenthal_"):
        GROUPS[f"bounds.{_name}"] = "bounds.rosenthal"

# (metric, unit, better).  NOTES.md maps each to its layer, the end-to-end
# metric it should move and the workload it moves on.
PER_LAYER = (
    ("import.gibbsrates_s", "s", "lower"),
    ("import.modules_loaded", "count", "lower"),
    ("import.scipy_stats_loaded", "count", "lower"),
    ("setup.first_query_excess_s", "s", "lower"),
    ("families.bb_xchain_s", "s", "lower"),
    ("families.bb_xchain_calls", "count", "lower"),
    ("families.bb_xchain_failed", "count", "lower"),
    ("families.pg_xchain_s", "s", "lower"),
    ("families.pg_xchain_calls", "count", "lower"),
    ("families.pg_xchain_failed", "count", "lower"),
    ("families.spectral_data_s", "s", "lower"),
    ("families.spectral_data_calls", "count", "lower"),
    ("numerics.reversible_spectrum_s", "s", "lower"),
    ("numerics.reversible_spectrum_calls", "count", "lower"),
    ("numerics.reversible_spectrum_gflop", "Gflop", "lower"),
    ("numerics.stationary_distribution_s", "s", "lower"),
    ("numerics.stationary_distribution_calls", "count", "lower"),
    ("scan_compare.worst_start_s", "s", "lower"),
    ("scan_compare.worst_start_calls", "count", "lower"),
    ("scan_compare.worst_start_products", "count", "lower"),
    ("scan_compare.worst_start_gflop", "Gflop", "lower"),
    ("scan_compare.exact_tv_curve_s", "s", "lower"),
    ("scan_compare.exact_tv_curve_calls", "count", "lower"),
    ("scan_compare.exact_tv_steps", "count", "lower"),
    ("scan_compare.compare_self_s", "s", "lower"),
    ("scan_compare.compare_calls", "count", "lower"),
    ("scan_compare.compare_failed", "count", "lower"),
    ("scan_compare.pg_demo_self_s", "s", "lower"),
    ("scan_compare.pg_demo_calls", "count", "lower"),
    ("scan_compare.report_serialize_s", "s", "lower"),
    ("scan_compare.report_serialize_calls", "count", "lower"),
    ("bounds.per_step_s", "s", "lower"),
    ("bounds.per_step_calls", "count", "lower"),
    ("bounds.rosenthal_s", "s", "lower"),
    ("bounds.rosenthal_calls", "count", "lower"),
    ("operators.eigenfunction_decay_s", "s", "lower"),
    ("operators.eigenfunction_decay_calls", "count", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.render_calls", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.harness_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def _worst_start_counts(counters, args, kwargs, result):
    from gibbsrates.scan_compare import FULL_SCAN_LIMIT

    matrix, max_steps = args[0], int(args[3] if len(args) > 3 else kwargs["max_steps"])
    limit = args[4] if len(args) > 4 else kwargs.get("full_scan_limit", FULL_SCAN_LIMIT)
    dim = matrix.dim
    if dim <= limit:
        # One dim x dim product per step until every start has crossed.
        products = result.min_steps if result is not None else max_steps
        flops = products * 2.0 * dim**3
    else:
        # Two point-start curves of max_steps vector-matrix products each.
        products = 2 * max_steps
        flops = products * 2.0 * dim**2
    _add(counters, "scan_compare.worst_start_products", products)
    _add(counters, "scan_compare.worst_start_gflop", flops / 1e9)


def _exact_tv_counts(counters, args, kwargs, result):
    steps = int(args[3] if len(args) > 3 else kwargs["max_steps"])
    _add(counters, "scan_compare.exact_tv_steps", steps)


def _spectrum_counts(counters, args, kwargs, result):
    # Symmetric eigenvalues only: tridiagonal reduction dominates at 4/3 d^3.
    dim = args[0].dim
    _add(counters, "numerics.reversible_spectrum_gflop", 4.0 / 3.0 * dim**3 / 1e9)


def _render_counts(counters, args, kwargs, result):
    if result is not None:
        _add(counters, "cli.output_bytes", len(result.encode("utf-8")))


ANNOTATORS = {
    "scan_compare.worst_start_search": _worst_start_counts,
    "scan_compare.exact_tv_curve": _exact_tv_counts,
    "numerics.reversible_spectrum": _spectrum_counts,
    "cli.render": _render_counts,
}


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


class Tracer:
    """In-memory span log with online self-time totals per span name."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        # name -> [calls, self seconds, failed calls]
        self.totals: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(tracer.span_start)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_end.append(0.0)
            tracer._stack.append(frame)
            result = None
            failed = True
            start = perf_counter()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.span_end[span_id] = end
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                total = tracer.totals.get(name)
                if total is None:
                    total = tracer.totals[name] = [0, 0.0, 0]
                total[0] += 1
                total[1] += duration - frame[1]
                total[2] += failed
                if annotate is not None:
                    annotate(tracer.counters, args, kwargs, result)

        return traced

    def install(self) -> None:
        """Wrap the traced functions in every loaded gibbsrates namespace."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gibbsrates" or key.startswith("gibbsrates."))]
        for short, names in TRACED_FUNCTIONS.items():
            home = sys.modules[f"gibbsrates.{short}"]
            for attr in names:
                original = getattr(home, attr)
                wrapped = self.wrap(f"{short}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapped)
        for (short, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(sys.modules[f"gibbsrates.{short}"], cls_name)
            for attr in methods:
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(f"{short}.{cls_name}.{attr}", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def span_count(self) -> int:
        return len(self.span_start)

    def spans(self, limit: int) -> list[dict]:
        """The first ``limit`` spans, for the run's detail file."""
        return [
            {
                "id": i,
                "name": self.names[self.span_name[i]],
                "start": self.span_start[i],
                "end": self.span_end[i],
                "parent": self.span_parent[i],
            }
            for i in range(min(limit, len(self.span_start)))
        ]


def layer_metrics(totals: dict, counters: dict) -> dict:
    """Fold per-name span totals into the per-layer metric values (no units)."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    self_sum = 0.0
    for name, (calls, self_s, failed) in totals.items():
        self_sum += self_s
        group = GROUPS.get(name)
        if group is None:
            values["other.self_s"] += self_s
            continue
        suffix = {"scan_compare.compare": "_self_s", "scan_compare.pg_demo": "_self_s",
                  "cli.main": "_self_s"}.get(group, "_s")
        values[group + suffix] += self_s
        calls_key = group + "_calls"
        # A Poisson-gamma chain build starts with the family constructor,
        # which holds the truncation check; count builds there, once.
        if calls_key in values and name != "families.pg_xchain":
            values[calls_key] += calls
        if group + "_failed" in values:
            values[group + "_failed"] += failed
    for key, value in counters.items():
        values[key] += value
    values["trace.self_sum_s"] = self_sum
    return values
