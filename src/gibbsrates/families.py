"""Concrete conjugate two-component models and their exact marginal chains.

Two families are implemented end to end:

* beta-binomial — x | theta ~ Binomial(n, theta), theta ~ Beta(a, b); the
  flat prior a = b = 1 is the analytically solved case (drift certificate,
  eigenfunction phi, spectral factors);
* Poisson-gamma — x | theta ~ Poisson(theta), theta ~ Gamma(shape, rate),
  truncated to {0, ..., x_max} for exact matrix work.

Each family exposes its conditional samplers (array-capable, driven by a
numpy Generator), its exact x-marginal transition matrix with stationary
law, and spectral data: the basis-free products mu_k * eta_k, which are
exactly the nontrivial eigenvalues of the x-chain, together with the
factors (mu_k, eta_k) where a closed form exists.  The products come from
the closed forms of Diaconis, Khare & Saloff-Coste (2008): the Hahn
eigenvalues prod_{i<k} (n - i)/(n + a + b + i) of the beta-binomial chain
and the Meixner eigenvalues (1 + rate)^-k of the Poisson-gamma chain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaln, gammaln

from .bounds import DriftMinorization
from .errors import (
    ParameterError,
    TruncationError,
    UnsupportedPriorError,
)
from .numerics import (
    Distribution,
    LogMagnitude,
    StochasticMatrix,
    is_integer,
    stationary_distribution,
)

# Tail mass allowed beyond the Poisson-gamma truncation point.
TRUNCATION_TOL = 1e-12


@dataclass(frozen=True)
class BetaBinomialFamily:
    """x | theta ~ Binomial(n, theta) with theta ~ Beta(a, b)."""

    n: int
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not is_integer(self.n) or int(self.n) < 1:
            raise ParameterError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        for name in ("a", "b"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(f"prior shape {name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    @property
    def state_count(self) -> int:
        return self.n + 1

    @property
    def has_flat_prior(self) -> bool:
        return self.a == 1.0 and self.b == 1.0

    def require_flat_prior(self, what: str) -> None:
        if not self.has_flat_prior:
            raise UnsupportedPriorError(
                f"unsupported-prior: {what} is derived only for the flat prior "
                f"a = b = 1, got a={self.a}, b={self.b}"
            )

    def check_x(self, x) -> None:
        arr = np.asarray(x)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(f"x must be integer-valued, got dtype {arr.dtype}")
        if arr.size == 0 or int(arr.min()) < 0 or int(arr.max()) > self.n:
            raise ParameterError(f"x must lie in 0..{self.n}")

    def check_theta(self, theta) -> None:
        arr = np.asarray(theta, dtype=float)
        if arr.size == 0 or not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ParameterError("theta must lie in [0, 1]")

    def draw_theta(self, rng: np.random.Generator, x):
        """Refresh theta from its conditional Beta(a + x, b + n - x)."""
        self.check_x(x)
        x_arr = np.asarray(x)
        return rng.beta(self.a + x_arr, self.b + self.n - x_arr)

    def draw_x(self, rng: np.random.Generator, theta):
        """Refresh x from its conditional Binomial(n, theta)."""
        self.check_theta(theta)
        return rng.binomial(self.n, np.asarray(theta, dtype=float))


def _nbinom_tail(x_max: int, shape: float, p: float) -> float:
    """P(X > x_max) for X ~ NB(shape, p): the regularized incomplete beta
    I_{1-p}(x_max + 1, shape), the same tail as ``scipy.stats.nbinom.sf``
    without importing ``scipy.stats``.  (``nbdtrc`` would truncate a
    non-integer shape.)"""
    return float(betainc(x_max + 1, shape, 1.0 - p))


@dataclass(frozen=True)
class PoissonGammaFamily:
    """x | theta ~ Poisson(theta) with theta ~ Gamma(shape, rate), truncated.

    ``x_max`` bounds the state space used for exact matrix work.  The
    constructor rejects truncations whose leaked mass could bias results:
    both the stationary law's tail beyond x_max and the transition row
    started from x_max itself must leak less than 1e-12.
    """

    shape: float = 1.0
    rate: float = 1.0
    x_max: int = 400

    def __post_init__(self) -> None:
        for name in ("shape", "rate"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ParameterError(f"gamma {name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if not is_integer(self.x_max) or int(self.x_max) < 1:
            raise ParameterError(f"x_max must be a positive integer, got {self.x_max!r}")
        object.__setattr__(self, "x_max", int(self.x_max))
        # Stationary law = prior predictive: negative binomial with
        # success probability rate/(rate+1) in scipy's convention.
        stationary_tail = _nbinom_tail(self.x_max, self.shape, self.rate / (self.rate + 1.0))
        # Worst transition row: from x_max, theta ~ Gamma(x_max + shape, rate + 1)
        # mixes to a negative binomial with success probability (rate+1)/(rate+2).
        row_tail = _nbinom_tail(
            self.x_max, self.x_max + self.shape, (self.rate + 1.0) / (self.rate + 2.0)
        )
        worst = max(stationary_tail, row_tail)
        if not worst < TRUNCATION_TOL:
            raise TruncationError(
                f"truncation-too-small: mass {worst} beyond x_max={self.x_max} "
                f"(needs < {TRUNCATION_TOL}); raise x_max"
            )

    @property
    def state_count(self) -> int:
        return self.x_max + 1

    @property
    def has_flat_shape(self) -> bool:
        return self.shape == 1.0 and self.rate == 1.0

    def check_x(self, x) -> None:
        arr = np.asarray(x)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ParameterError(f"x must be integer-valued, got dtype {arr.dtype}")
        if arr.size == 0 or int(arr.min()) < 0:
            raise ParameterError("x must be a nonnegative integer")

    def check_theta(self, theta) -> None:
        arr = np.asarray(theta, dtype=float)
        if arr.size == 0 or not np.all(arr > 0.0):
            raise ParameterError("theta must be positive")

    def draw_theta(self, rng: np.random.Generator, x):
        """Refresh theta from its conditional Gamma(shape + x, rate + 1)."""
        self.check_x(x)
        return rng.gamma(self.shape + np.asarray(x), 1.0 / (self.rate + 1.0))

    def draw_x(self, rng: np.random.Generator, theta):
        """Refresh x from its conditional Poisson(theta); not truncated."""
        self.check_theta(theta)
        return rng.poisson(np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class SpectralLevel:
    """One polynomial level: the product mu_k * eta_k, and the factors if known.

    ``mu`` is the contraction factor of conditioning theta's polynomial on
    x, ``eta`` the reverse; only their product is basis-free, so levels
    whose factors have no closed form carry ``mu = eta = None``.
    """

    k: int
    product: float
    mu: float | None = None
    eta: float | None = None

    def __post_init__(self) -> None:
        if not is_integer(self.k) or int(self.k) < 1:
            raise ParameterError(f"level index k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        product = float(self.product)
        if not -1e-10 <= product <= 1.0 + 1e-10:
            raise ParameterError(f"level product must lie in [0, 1], got {product}")
        object.__setattr__(self, "product", min(max(product, 0.0), 1.0))
        if (self.mu is None) != (self.eta is None):
            raise ParameterError("mu and eta must be given together or not at all")
        if self.mu is not None:
            mu = float(self.mu)
            eta = float(self.eta)
            if abs(mu * eta - self.product) > 1e-9 * max(1.0, abs(self.product)):
                raise ParameterError(
                    f"inconsistent level: mu*eta = {mu * eta} but product = {self.product}"
                )
            object.__setattr__(self, "mu", mu)
            object.__setattr__(self, "eta", eta)

    @property
    def factors_known(self) -> bool:
        return self.mu is not None


@dataclass(frozen=True)
class SpectralData:
    """Contraction levels of a two-component model.

    ``levels`` hold k = 1, 2, ... in order; ``cutoff`` is the index c from
    which every higher polynomial level contracts to zero (finite for the
    beta-binomial model: c = n + 1; None marks an unbounded level set).
    ``basis_note`` records the polynomial normalization under which any
    stated mu/eta factors hold — the products need no such note.
    """

    levels: tuple[SpectralLevel, ...]
    cutoff: int | None
    basis_note: str = ""

    def __post_init__(self) -> None:
        levels = tuple(self.levels)
        if not levels:
            raise ParameterError("spectral data needs at least one level")
        for i, level in enumerate(levels, start=1):
            if level.k != i:
                raise ParameterError("levels must be numbered consecutively from k=1")
        products = [level.product for level in levels]
        for earlier, later in zip(products, products[1:]):
            if later > earlier + 1e-10:
                raise ParameterError(
                    f"level products must be non-increasing, got {earlier} -> {later}"
                )
        if self.cutoff is not None and (
            not is_integer(self.cutoff) or int(self.cutoff) < 2
        ):
            raise ParameterError(f"cutoff must be an integer >= 2 or None, got {self.cutoff!r}")
        object.__setattr__(self, "levels", levels)
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", int(self.cutoff))


def bb_xchain(fam: BetaBinomialFamily) -> tuple[StochasticMatrix, Distribution]:
    """Exact x-marginal transition matrix and stationary law.

    One full sweep from x integrates the binomial likelihood against the
    conditional Beta(a + x, b + n - x), giving
    K(x, x') = C(n, x') * B(x + x' + a, 2n - x - x' + b) / B(x + a, n - x + b),
    evaluated via log-gamma so n in the thousands stays accurate.  Rows are
    normalized by their own sums, not by B(x + a, n - x + b), whose rounding
    left row sums 7e-12 off 1 and a mass drift that iterating accumulates.
    The stationary law is the beta-binomial(n, a, b) marginal — uniform for
    the flat prior.
    """
    n, a, b = fam.n, fam.a, fam.b
    x = np.arange(n + 1, dtype=float)
    xp = x[None, :]
    xc = x[:, None]
    log_choose = gammaln(n + 1) - gammaln(xp + 1) - gammaln(n - xp + 1)
    rows = log_choose + betaln(xc + xp + a, 2 * n - xc - xp + b)
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    matrix = StochasticMatrix(rows)
    log_marginal = (
        gammaln(n + 1)
        - gammaln(x + 1)
        - gammaln(n - x + 1)
        + betaln(x + a, n - x + b)
        - betaln(a, b)
    )
    weights = np.exp(log_marginal)
    stationary = Distribution(weights / weights.sum())
    return matrix, stationary


def bb_drift_minorization(fam: BetaBinomialFamily, x0: int) -> DriftMinorization:
    """Drift/minorization certificate of the flat-prior beta-binomial chain.

    With V(x) = x the drift holds with lambda = b = n/(n+2), and the
    whole-space minorization mass is epsilon = 2^-n — astronomically small
    for large n, which is the seed of the 10^33-step phenomenon.
    """
    fam.require_flat_prior("the drift/minorization certificate")
    if not is_integer(x0) or not 0 <= int(x0) <= fam.n:
        raise ParameterError(f"x0 must be an integer state in 0..{fam.n}, got {x0!r}")
    rate = fam.n / (fam.n + 2.0)
    return DriftMinorization(
        lam=rate,
        b=rate,
        epsilon=LogMagnitude.from_log2(-fam.n),
        v_x0=float(x0),
    )


def bb_spectral_data(fam: BetaBinomialFamily) -> SpectralData:
    """Spectral levels of the flat-prior beta-binomial pair.

    The products are the Hahn eigenvalues of the x-chain,
    prod_{i<k} (n - i)/(n + 2 + i) for k = 1..n, so level 1 is n/(n+2).
    Level 1 also has closed-form factors mu_1 = n and eta_1 = 1/(n+2) in
    the basis p_1(x) = x - n/2, q_1(theta) = n(n+2)(theta - 1/2); higher
    levels carry the products only.  Every level k >= cutoff = n + 1
    contracts to zero.
    """
    fam.require_flat_prior("closed-form spectral data")
    n = fam.n
    i = np.arange(n)
    products = np.cumprod((n - i) / (n + 2.0 + i))
    levels = [SpectralLevel(k=1, product=products[0], mu=float(n), eta=1.0 / (n + 2.0))]
    levels += [SpectralLevel(k=k, product=p) for k, p in enumerate(products[1:], start=2)]
    return SpectralData(
        levels=tuple(levels),
        cutoff=n + 1,
        basis_note=(
            "level 1 factors hold in the basis p1(x) = x - n/2, "
            "q1(theta) = n(n+2)(theta - 1/2), giving mu1 = n, eta1 = 1/(n+2); "
            "higher levels carry only the basis-free product mu_k*eta_k "
            "(the k-th nontrivial x-chain eigenvalue)"
        ),
    )


def bb_eigenfunction_phi(fam: BetaBinomialFamily, x, theta):
    """The exact joint eigenfunction (x - n/2) + sqrt(n(n+2)) (theta - 1/2).

    Under the balanced random scan its expectation decays by the factor
    1/2 + (1/2) sqrt(n/(n+2)) per step.  Array inputs broadcast.
    """
    fam.require_flat_prior("the joint eigenfunction")
    fam.check_x(x)
    fam.check_theta(theta)
    n = fam.n
    value = (np.asarray(x, dtype=float) - n / 2.0) + math.sqrt(n * (n + 2.0)) * (
        np.asarray(theta, dtype=float) - 0.5
    )
    if value.ndim == 0:
        return float(value)
    return value


def pg_xchain(fam: PoissonGammaFamily) -> tuple[StochasticMatrix, Distribution]:
    """Truncated exact x-chain of the Poisson-gamma pair, with stationary law.

    A sweep from x draws theta ~ Gamma(shape + x, rate + 1) and then
    x' ~ Poisson(theta); marginally x' follows a negative binomial row with
    stopping parameter shape + x and success probability 1/(rate + 2).
    Rows are built in place, truncated at x_max and renormalized; the
    family's constructor bounds the exact tail of the worst row below 1e-12.
    The stationary law is recovered by power iteration.  For shape = rate =
    1 it is geometric: m(x) = (1/2)^(x+1) on x >= 0.
    """
    sigma = fam.shape + np.arange(fam.x_max + 1, dtype=float)[:, None]
    xp = np.arange(fam.x_max + 1, dtype=float)[None, :]
    log_p = -math.log(fam.rate + 2.0)
    log_1mp = math.log(fam.rate + 1.0) - math.log(fam.rate + 2.0)
    rows = sigma + xp
    gammaln(rows, out=rows)
    rows -= gammaln(sigma)
    rows -= gammaln(xp + 1)
    rows += sigma * log_1mp
    rows += xp * log_p
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    matrix = StochasticMatrix(rows)
    stationary = stationary_distribution(matrix)
    return matrix, stationary


def pg_geometric_reference(fam: PoissonGammaFamily) -> Distribution:
    """The flat-shape stationary law written directly: (1/2)^(x+1), renormalized.

    Only defined for shape = rate = 1; used to cross-check the numerically
    recovered stationary law of the truncated chain.
    """
    if not fam.has_flat_shape:
        raise UnsupportedPriorError(
            "unsupported-prior: the geometric closed form holds only for shape = rate = 1"
        )
    weights = 0.5 ** (np.arange(fam.x_max + 1, dtype=float) + 1.0)
    return Distribution(weights / weights.sum())


def pg_spectral_data(fam: PoissonGammaFamily) -> SpectralData:
    """Spectral levels of the Poisson-gamma x-chain (products only).

    The products are the Meixner eigenvalues (1 + rate)^-k, one per
    nontrivial state of the truncation, k = 1..x_max; they do not depend on
    the shape.  The level set of the untruncated chain is unbounded, so
    ``cutoff`` is None.  For shape = rate = 1 the leading product is 1/2 —
    the sharp rate that makes mixing take order log(start) steps rather
    than the chi-square bound's order-start prediction.
    """
    ratio = 1.0 + fam.rate
    return SpectralData(
        levels=tuple(SpectralLevel(k=k, product=ratio**-k) for k in range(1, fam.x_max + 1)),
        cutoff=None,
        basis_note=(
            "all levels are basis-free products recovered from the truncated "
            "x-chain spectrum; individual mu_k, eta_k are not resolved"
        ),
    )
