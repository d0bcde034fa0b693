"""The benchmark's tracer and worker must keep working against the package.

``perfbench/tracing.py`` replaces public functions and report methods of the
``gibbsrates`` modules by name; a name that disappears from the package makes
every traced benchmark run fail.  ``perfbench/worker.py`` calls the package
and reads fields of its answers; a changed field makes every query of that
kind fail.  These tests keep the benchmark and the package in step.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_traced_functions_resolve(tracing):
    for module_name, names in tracing.TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"gibbsrates.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gibbsrates.{module_name}.{name}"


def test_traced_methods_resolve(tracing):
    for (module_name, class_name), methods in tracing.TRACED_METHODS.items():
        cls = getattr(importlib.import_module(f"gibbsrates.{module_name}"), class_name)
        for method in methods:
            assert method in cls.__dict__, f"gibbsrates.{module_name}.{class_name}.{method}"


# One small query of each kind the workloads send.
WORKER_QUERIES = [
    {"kind": "compare", "n": 20, "max_steps": 60},
    {"kind": "bb_spectral", "n": 30},
    {"kind": "pg_demo", "starts": [0, 8], "shape": 1.0, "rate": 1.0, "x_max": 400},
    {"kind": "cli", "argv": ["spectral", "--levels", "--family", "bb", "--n", "10"]},
]


@pytest.mark.parametrize("query", WORKER_QUERIES, ids=lambda query: query["kind"])
def test_worker_answers_each_query_kind(query, tmp_path):
    import gibbsrates
    import gibbsrates.cli  # noqa: F401  (the worker reaches it as gibbsrates.cli)

    queries = _load("worker").Queries(gibbsrates)
    out_path = str(tmp_path / "q.out")
    latency, answer, error = queries.timed(query, out_path)
    assert error is None
    assert latency >= 0.0
    summary, output_digest = queries.summary(query, answer, error, out_path)
    assert "error" not in summary
    assert len(output_digest) == 64
    if query["kind"] == "bb_spectral":
        assert summary["products"] == gibbsrates.bb_spectral_data(
            gibbsrates.BetaBinomialFamily(30)
        ).levels.product.tolist()


def test_full_scan_limit_imports():
    from gibbsrates.scan_compare import FULL_SCAN_LIMIT

    assert isinstance(FULL_SCAN_LIMIT, int)


def test_tracer_runs_clean_around_the_traced_calls(tracing, tmp_path):
    # The annotators read call signatures and results (``args[0].dim`` and
    # ``max_steps``, passed by keyword, of the worst-start search; ``max_steps``
    # as the fourth argument of the exact curve; ``result.min_steps``); a
    # drift there makes the traced call raise, which name checks miss.  The
    # tie target (the curve's own value at the worst crossing) sends the
    # search down its undecided-start path.
    import gibbsrates
    from gibbsrates import cli

    basis = gibbsrates.gram_basis(gibbsrates.BetaBinomialFamily(n=10))
    tie = float(gibbsrates.exact_tv_curve(None, None, 0, 24, basis=basis)[24])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        gibbsrates.compare(10, 100)
        gibbsrates.compare(10, 100, target=tie)
        gibbsrates.pg_mixing_demo([0, 8])
        codes = [
            cli.main([*family, "--start", "0", "--steps-max", "50", "--out", str(tmp_path / "tv.json")])
            for family in (["exact-tv", "--family", "bb", "--n", "10"], ["exact-tv", "--family", "pg"])
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    failed = {name: total[2] for name, total in tracer.totals.items() if total[2]}
    assert not failed
    for counter in ("scan_compare.worst_start_products", "scan_compare.worst_start_gflop",
                    "scan_compare.exact_tv_steps"):
        assert counter in tracer.counters
