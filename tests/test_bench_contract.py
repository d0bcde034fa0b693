"""The names the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` replaces public functions and report methods of the
``gibbsrates`` modules by name; a name that disappears from the package makes
every traced benchmark run fail.  This test keeps the two in step.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_full_scan_limit_imports():
    from gibbsrates.scan_compare import FULL_SCAN_LIMIT

    assert isinstance(FULL_SCAN_LIMIT, int)


def test_tracer_runs_clean_around_the_traced_calls(tracing, tmp_path):
    # The annotators read call signatures and results (``max_steps`` as the
    # fourth argument of the worst-start search, ``result.min_steps``); a
    # drift there makes the traced call raise, which name checks miss.
    import gibbsrates
    from gibbsrates import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        gibbsrates.compare(10, 100)
        gibbsrates.pg_mixing_demo([0, 8])
        code = cli.main(["exact-tv", "--family", "bb", "--n", "10", "--start", "0",
                         "--steps-max", "50", "--out", str(tmp_path / "tv.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    failed = {name: total[2] for name, total in tracer.totals.items() if total[2]}
    assert not failed
    for counter in ("scan_compare.worst_start_products", "scan_compare.worst_start_gflop",
                    "scan_compare.exact_tv_steps"):
        assert counter in tracer.counters
