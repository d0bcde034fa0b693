"""Shared fixtures: hypothesis profiles, cached chains, acceptance recorder."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gibbsrates import (
    BetaBinomialFamily,
    PoissonGammaFamily,
    bb_xchain,
    compare,
    pg_xchain,
)

settings.register_profile(
    "fast", max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "thorough",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))


@pytest.fixture(scope="session")
def bb100():
    """The n=100 flat-prior model with its exact x-chain and stationary law."""
    fam = BetaBinomialFamily(n=100)
    matrix, stationary = bb_xchain(fam)
    return fam, matrix, stationary


@pytest.fixture(scope="session")
def pg_default():
    """The shape=rate=1 Poisson-gamma model truncated at the default 400."""
    fam = PoissonGammaFamily()
    matrix, stationary = pg_xchain(fam)
    return fam, matrix, stationary


@pytest.fixture(scope="session")
def compare100():
    """The headline n=100 comparison report (no Monte Carlo cross-check)."""
    return compare(n=100, max_steps=400, target=0.01, d=1000.0, r=0.001)


@pytest.fixture(scope="session")
def stepwise_tv():
    """The loop ``iterate_tv`` runs, without its stop: each step multiplies
    the laws, scaled to their mass, by K and reads the TV of the product.

    With ``scaled=False`` it is the plain loop, which never rescales: its
    mass drifts from 1 (rows of K sum to 1 only to rounding) and moves its
    TV by up to that much.  Returns the TV of each start at steps
    0..max_steps and each law's mass.
    """

    def run(matrix, stationary, starts, max_steps, scaled=True):
        half_pi = 0.5 * stationary.weights
        laws = np.zeros((len(starts), matrix.dim))
        laws[np.arange(len(starts)), starts] = 0.5
        tvs, masses = [], []
        for step in range(max_steps + 1):
            if step:
                if scaled:
                    laws = laws * (0.5 / laws.sum(axis=1, keepdims=True))
                laws = laws @ matrix.entries
            tvs.append(np.abs(laws - half_pi).sum(axis=1))
            masses.append(2.0 * laws.sum(axis=1))
        return np.array(tvs), np.array(masses)

    return run


@pytest.fixture
def count_products():
    """Make a ``StochasticMatrix`` record the operand shapes of every product
    taken with its entries, in ``count_products.shapes``."""
    shapes = []

    class CountingArray(np.ndarray):
        def __matmul__(self, other):
            shapes.append((self.shape, other.shape))
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            shapes.append((other.shape, self.shape))
            return np.asarray(other) @ np.asarray(self)

    def count(matrix):
        object.__setattr__(matrix, "entries", matrix.entries.view(CountingArray))
        return matrix

    count.shapes = shapes
    return count


def pytest_configure(config):
    config._acceptance_lines = []


@pytest.fixture
def acceptance(request):
    """Record one PASS/FAIL line per acceptance criterion for the summary."""

    def record(line: str) -> None:
        request.config._acceptance_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
