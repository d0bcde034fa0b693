"""Concrete conjugate two-component models and their exact marginal chains.

Two families are implemented end to end:

* beta-binomial — x | theta ~ Binomial(n, theta), theta ~ Beta(a, b); the
  flat prior a = b = 1 is the analytically solved case (drift certificate,
  eigenfunction phi, spectral factors);
* Poisson-gamma — x | theta ~ Poisson(theta), theta ~ Gamma(shape, rate),
  truncated to {0, ..., x_max} for exact matrix work.

Each family exposes its conditional samplers (array-capable, driven by a
numpy Generator), its exact x-marginal transition matrix with stationary
law, and spectral data: one array of the basis-free products
mu_k * eta_k, which are exactly the nontrivial eigenvalues of the x-chain,
together with level 1's factors (mu_1, eta_1) where a closed form exists.
The stationary laws and the products are closed forms of Diaconis, Khare &
Saloff-Coste (2008): the prior predictives (beta-binomial and negative
binomial), the Hahn eigenvalues prod_{i<k} (n - i)/(n + 2 + i) of the
flat-prior beta-binomial chain (``_hahn_eigenvalues``, read by both
``bb_spectral_data`` and ``gram_basis``) and the Meixner eigenvalues
(1 + rate)^-k of the Poisson-gamma chain
(``PoissonGammaFamily.meixner_eigenvalue``).  The Poisson-gamma law is
kept as log weights (``pg_log_stationary``), so a state whose mass
underflows a float still has a finite log mass.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# Every log-gamma value is ``numerics.gammaln``, the bits of scipy's; no
# command path imports scipy.  Only ``bb_xchain``, which the tests use as a
# reference, imports ``scipy.special.betaln`` (the ``[test]`` extra).

from .bounds import DriftMinorization, systematic_rate
from .errors import (
    ConvergenceError,
    ParameterError,
    TruncationError,
    UnsupportedPriorError,
)
from .numerics import (
    Distribution,
    LogMagnitude,
    StochasticMatrix,
    check_all,
    gammaln,
    is_integer,
    logsumexp,
)

# Tail mass allowed beyond the Poisson-gamma truncation point.
TRUNCATION_TOL = 1e-12
# Most states a dense x-chain may have: its float64 matrix is then 800 MB,
# and the builders hold about two of them at once.
MAX_DENSE_STATES = 10_001
# Highest level the forward recurrence of an orthonormal basis tries (the
# Gram basis takes the levels above the recurrence's from the Hahn
# difference equation, and keeps at least min(n, this) levels), which is
# also the most levels the certified worst-start search sums; and how far
# the Gram matrix of the levels a basis keeps may stray from the identity
# on the state space.
BASIS_MAX_LEVEL = 60
BASIS_GRAM_TOL = 1e-12
# One unit in the last place of 1.0.
EPS = float(np.finfo(float).eps)


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
                raise ParameterError(
                    f"prior shape {name} must be a positive finite number, got {value}"
                )
            object.__setattr__(self, name, value)

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
    """P(X > x_max) for X ~ NB(shape, p), the tail ``scipy.stats.nbinom.sf``
    gives: the regularized incomplete beta I_q(a, b) with a = x_max + 1,
    b = shape and q = 1 - p.

    The continued fraction of DLMF 8.17.22 is evaluated by modified Lentz,
    as ``betacf`` in Numerical Recipes (section 6.4), in O(sqrt(max(a, b)))
    steps; where q > (a + 1) / (a + b + 2) it would converge slowly, so the
    tail is 1 - I_p(b, a) there.  That difference loses its relative
    accuracy when it is small, at a shape far below 1; the constructor's
    stationary tail gets there only where its row tail is large anyway.
    The step cap, 100 + 10 sqrt(max(a, b)), is about three times the most
    steps taken on a sweep of a, b and q around the switch.  The prefactor
    q^a p^b / B(a, b) takes its log-gammas from ``gammaln``, whose rounding
    near (a + b) log(a + b) bounds the relative accuracy: a few 1e-8 at
    x_max = 10^7.
    """
    if p >= 1.0:
        return 0.0
    a, b, x = x_max + 1.0, float(shape), 1.0 - p
    log_front = (float(gammaln(a + b) - gammaln(a) - gammaln(b))
                 + a * math.log1p(-p) + b * math.log(p))
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x = b, a, p
    c, d = 1.0, 1.0 / _off_zero(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 100 + int(10.0 * math.sqrt(max(a, b)))):
        a_2m = a + 2.0 * m
        even = m * (b - m) * x / ((a_2m - 1.0) * a_2m)
        d = 1.0 / _off_zero(1.0 + even * d)
        c = _off_zero(1.0 + even / c)
        fraction *= d * c
        odd = -(a + m) * (a + b + m) * x / (a_2m * (a_2m + 1.0))
        d = 1.0 / _off_zero(1.0 + odd * d)
        c = _off_zero(1.0 + odd / c)
        fraction *= d * c
        if abs(d * c - 1.0) <= EPS:
            log_tail = log_front + math.log(fraction / a)
            return -math.expm1(log_tail) if flip else math.exp(log_tail)
    raise ConvergenceError(
        f"incomplete-beta fraction for I({a}, {b}) at {x} did not converge in {m} steps"
    )


def _off_zero(value: float) -> float:
    """``value`` moved off 0 to 1e-300, so modified Lentz never divides by 0."""
    return value if abs(value) > 1e-300 else 1e-300


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
                raise ParameterError(
                    f"gamma {name} must be a positive finite number, got {value}"
                )
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
    def has_flat_shape(self) -> bool:
        return self.shape == 1.0 and self.rate == 1.0

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        """log Gamma(shape + x) - log x! - x log(1 + rate) on 0..x_max,
        unnormalized: the stationary law and the Meixner basis share it,
        computed once per family and read-only."""
        x = np.arange(self.x_max + 1, dtype=float)
        weights = gammaln(self.shape + x) - gammaln(x + 1.0) - x * math.log1p(self.rate)
        weights.flags.writeable = False
        return weights

    def meixner_eigenvalue(self, k):
        """The k-th nontrivial x-chain eigenvalue (1 + rate)^-k, for every shape;
        ``k`` may be an integer array.

        Level 1, 1/(1 + rate), is the chain's decay rate (1/2 for the flat
        shape = rate = 1).
        """
        return (1.0 + self.rate) ** -k

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


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Contraction levels of a two-component model, as arrays.

    ``levels`` is given as the products mu_k * eta_k, k = 1, 2, ..., and kept
    as a read-only record array with the one field ``product``.  ``factors``
    is (mu_1, eta_1) where level 1's factors have a closed form, else None:
    mu contracts theta's polynomial onto x, eta the reverse, and only their
    product is basis-free.  ``cutoff`` is the index c from which every
    higher level contracts to zero (c = n + 1 for the beta-binomial model;
    None marks an unbounded level set).  ``basis_note`` records the
    polynomial normalization under which the factors hold.
    """

    levels: np.recarray
    cutoff: int | None
    factors: tuple[float, float] | None = None
    basis_note: str = ""

    def __post_init__(self) -> None:
        products = np.array(self.levels, dtype=float)
        if products.ndim != 1 or products.size == 0:
            raise ParameterError("spectral data needs a nonempty 1-d array of level products")
        check_all(
            (products >= -1e-10) & (products <= 1.0 + 1e-10),
            "level product must lie in [0, 1], got {value} at level {k}",
            value=products,
        )
        np.clip(products, 0.0, 1.0, out=products)
        check_all(
            np.diff(products) <= 1e-10,
            "level products must be non-increasing, got {value} -> {next} after level {k}",
            value=products[:-1],
            next=products[1:],
        )
        if self.cutoff is not None and not (is_integer(self.cutoff) and self.cutoff >= 2):
            raise ParameterError(f"cutoff must be an integer >= 2 or None, got {self.cutoff!r}")
        if self.factors is not None:
            mu, eta = map(float, self.factors)
            if abs(mu * eta - products[0]) > 1e-9 * max(1.0, products[0]):
                raise ParameterError(
                    f"inconsistent level 1: mu*eta = {mu * eta} but product = {products[0]}"
                )
            object.__setattr__(self, "factors", (mu, eta))
        levels = np.rec.fromarrays([products], names="product")
        levels.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        if self.cutoff is not None:
            object.__setattr__(self, "cutoff", int(self.cutoff))


def check_dense_states(states: int) -> None:
    """Refuse a dense x-chain of more than ``MAX_DENSE_STATES`` states."""
    if states > MAX_DENSE_STATES:
        raise ParameterError(
            f"too-many-states: the dense x-chain would have {states} states, "
            f"above the cap of {MAX_DENSE_STATES}"
        )


def bb_xchain(fam: BetaBinomialFamily) -> tuple[StochasticMatrix, Distribution]:
    """Exact x-marginal transition matrix and stationary law.

    One full sweep from x integrates the binomial likelihood against the
    conditional Beta(a + x, b + n - x), giving
    K(x, x') = C(n, x') * B(x + x' + a, 2n - x - x' + b) / B(x + a, n - x + b),
    evaluated via log-gamma so n in the thousands stays accurate; the beta
    function is evaluated once per sum x + x', 2n + 1 values.  Rows are
    normalized by their own sums, not by B(x + a, n - x + b), whose rounding
    left row sums 7e-12 off 1 and a mass drift that iterating accumulates.
    The stationary law is the beta-binomial(n, a, b) marginal — uniform for
    the flat prior.  More than ``MAX_DENSE_STATES`` states are refused.
    No command builds this chain; it is a test reference, and its log beta
    function needs scipy, from the ``[test]`` extra.
    """
    from scipy.special import betaln
    check_dense_states(fam.n + 1)
    n, a, b = fam.n, fam.a, fam.b
    x = np.arange(n + 1, dtype=float)
    log_choose = gammaln(n + 1) - gammaln(x + 1) - gammaln(n - x + 1)
    # The log beta term depends on x + x' alone: one value per sum s = 0..2n,
    # laid out as the Hankel matrix hankel[x + x'].
    s = np.arange(2 * n + 1, dtype=float)
    hankel = betaln(s + a, 2 * n - s + b)
    rows = np.lib.stride_tricks.sliding_window_view(hankel, n + 1) + log_choose
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
    rate = systematic_rate(fam.n)
    return DriftMinorization(
        lam=rate,
        b=rate,
        epsilon=LogMagnitude.from_log2(-fam.n),
        v_x0=float(x0),
    )


def _hahn_eigenvalues(n: int, count: int) -> np.ndarray:
    """The Hahn eigenvalues prod_{i<k} (n - i)/(n + 2 + i), k = 1..count, of
    the flat-prior beta-binomial x-chain; they are 0 from k = n + 1 on."""
    i = np.arange(count)
    return np.cumprod((n - i) / (n + 2.0 + i))


def bb_spectral_data(fam: BetaBinomialFamily) -> SpectralData:
    """Spectral levels of the flat-prior beta-binomial pair.

    The products are the Hahn eigenvalues of the x-chain (``_hahn_eigenvalues``,
    k = 1..n), so level 1 is n/(n+2).  Level 1 also has closed-form factors
    mu_1 = n and eta_1 = 1/(n+2) in the basis p_1(x) = x - n/2,
    q_1(theta) = n(n+2)(theta - 1/2); higher levels carry the products
    only.  Every level k >= cutoff = n + 1 contracts to zero.
    """
    fam.require_flat_prior("closed-form spectral data")
    n = fam.n
    return SpectralData(
        levels=_hahn_eigenvalues(n, n),
        cutoff=n + 1,
        factors=(float(n), 1.0 / (n + 2.0)),
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
    """Truncated dense x-chain of the Poisson-gamma pair, with stationary law.

    A sweep from x draws theta ~ Gamma(shape + x, rate + 1) and then
    x' ~ Poisson(theta); marginally x' follows a negative binomial row with
    stopping parameter shape + x and success probability 1/(rate + 2).
    Rows are built in place, truncated at x_max and renormalized; the
    family's constructor bounds the exact tail of the worst row below 1e-12.
    The stationary law is the exponential of ``pg_log_stationary``; entries
    below the smallest float are 0.0.  More than ``MAX_DENSE_STATES`` states
    are refused.  ``pg_mixing_demo`` reads its crossings from
    ``meixner_basis`` and builds this chain only for the starts that basis
    cannot decide; ``exact-tv --family pg`` and the tests use it directly.
    ``iterate_tv`` on it stops once the laws, scaled to their mass, repeat
    an earlier step's, after at most a few hundred steps on the chains
    probed, so a long horizon costs only those products.

    The log-gamma of the sums (shape + x) + x' is evaluated once per
    distinct sum formed.  Nearly every sum equals shape + (x + x'), one
    value per x + x', laid out as the Hankel matrix hankel[x + x']; the few
    that round otherwise (684 at shape 0.001 and x_max = 400) are evaluated
    on their own.
    """
    check_dense_states(fam.x_max + 1)
    sigma = fam.shape + np.arange(fam.x_max + 1, dtype=float)[:, None]
    xp = np.arange(fam.x_max + 1, dtype=float)[None, :]
    log_p = -math.log(fam.rate + 2.0)
    log_1mp = math.log(fam.rate + 1.0) - math.log(fam.rate + 2.0)
    rows = sigma + xp
    hankel = fam.shape + np.arange(2 * fam.x_max + 1, dtype=float)
    window = np.lib.stride_tricks.sliding_window_view
    odd = rows != window(hankel, fam.x_max + 1)
    odd_values = gammaln(rows[odd])
    rows[...] = window(gammaln(hankel), fam.x_max + 1)
    rows[odd] = odd_values
    rows -= gammaln(sigma)
    rows -= gammaln(xp + 1)
    rows += sigma * log_1mp
    rows += xp * log_p
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    return StochasticMatrix(rows), Distribution(np.exp(pg_log_stationary(fam)))


def pg_log_stationary(fam: PoissonGammaFamily) -> np.ndarray:
    """Log weights of the truncated stationary law, normalized in the log domain.

    The stationary law is the prior predictive NB(shape, rate/(rate + 1)):
    log m(x) = log Gamma(shape + x) - log x! - x log(1 + rate) + const on
    0..x_max.  The untruncated x-chain is reversible with respect to it;
    truncation only renormalizes rows that leak under 1e-12 and carry almost
    no mass.  For shape = rate = 1 it is geometric: m(x) = (1/2)^(x+1).
    """
    return fam.log_weights - logsumexp(fam.log_weights)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """The orthonormal polynomial eigenbasis of an x-chain on 0..dim-1.

    ``phi[k, y]`` is phi_k(y) = sqrt(m(y)) p_k(y), where m is the law held
    as ``log_mass`` and p_0, p_1, ... are its orthonormal polynomials, the
    x-chain's eigenfunctions with eigenvalues lambda_k (Diaconis, Khare &
    Saloff-Coste 2008).  ``levels`` is the chosen K and ``gram_residual``
    the largest entry of |Phi Phi^T - I| over levels 0..min(K,
    ``BASIS_MAX_LEVEL``), the levels a certificate sums.  Every start a
    certificate or curve reads is a state, so the polynomials there are
    read from the columns (``polynomials``).  ``log_eigenvalues`` holds
    log lambda_0..lambda_{K+1}: level K + 1 is the rate of the tail the
    basis leaves out.  It holds no error against any dense chain: a
    certificate takes its per-step error from its caller.
    """

    log_mass: np.ndarray
    phi: np.ndarray
    gram_residual: float
    log_eigenvalues: np.ndarray

    @property
    def levels(self) -> int:
        return self.phi.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    def polynomials(self, x) -> np.ndarray:
        """p_0..p_K at the states ``x``, one row per level: p_k(x) is
        phi_k(x) / sqrt(m(x)), taken as phi_k(x) exp(-log m(x) / 2).

        A state whose sqrt(m(x)) is not a normal float holds phi_k(x) with
        few or no significant bits, so its column is nan: the caller must
        treat it as unknown.
        """
        x = np.asarray(x, dtype=np.int64)
        half = 0.5 * self.log_mass[x]
        with np.errstate(over="ignore", invalid="ignore"):
            poly = self.phi[:, x] * np.exp(-half)
        poly[:, np.exp(half) < np.finfo(float).tiny] = np.nan
        return poly


def _three_term(first: np.ndarray, x: np.ndarray, a, b, levels: int) -> np.ndarray:
    """Rows v_0 = first, v_{k+1} = ((x - a_k) v_k - b_k v_{k-1}) / b_{k+1}."""
    rows = np.empty((levels + 1, x.size))
    rows[0] = first
    previous = np.zeros_like(x)
    for k in range(levels):
        rows[k + 1] = ((x - a[k]) * rows[k] - b[k] * previous) / b[k + 1]
        previous = rows[k]
    return rows


def _orthonormal_basis(
    log_mass: np.ndarray, a: np.ndarray, b: np.ndarray, log_eigenvalues: np.ndarray
) -> OrthonormalBasis:
    """The basis phi_0..phi_K of m = exp(``log_mass``), K chosen by its Gram matrix.

    The three-term recurrence x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1}
    runs on phi_k = sqrt(m) p_k directly, from phi_0 = sqrt(m) in the log
    domain, so a state whose mass underflows gives phi = 0 rather than
    inf * 0.  Far levels lose accuracy (Gautschi 2004, on forward
    recurrences), so K is the largest level up to ``BASIS_MAX_LEVEL`` and
    dim - 1 whose leading Gram block is within ``BASIS_GRAM_TOL`` of the
    identity (level 0 is always kept).  ``a``, ``b`` and ``log_eigenvalues``
    cover levels 0..top and 0..top + 1, top = min(``BASIS_MAX_LEVEL``, dim - 1);
    the basis keeps the rows, not the coefficients.
    """
    top = min(BASIS_MAX_LEVEL, log_mass.size - 1)
    y = np.arange(log_mass.size, dtype=float)
    # A level the recurrence loses may overflow; its nan gap rejects it.
    with np.errstate(over="ignore", invalid="ignore"):
        phi = _three_term(np.exp(0.5 * log_mass), y, a, b, top)
        gap = np.abs(phi @ phi.T - np.eye(top + 1))
    gap = np.tril(np.maximum(gap, gap.T))
    # residual[K]: the largest gap within the leading (K + 1) x (K + 1) block.
    residual = np.maximum.accumulate(gap.max(axis=1))
    levels = max(int(np.count_nonzero(residual <= BASIS_GRAM_TOL)) - 1, 0)
    return OrthonormalBasis(
        log_mass=log_mass,
        phi=phi[: levels + 1],
        gram_residual=float(residual[levels]),
        log_eigenvalues=log_eigenvalues[: levels + 2],
    )


def meixner_basis(fam: PoissonGammaFamily) -> OrthonormalBasis:
    """Meixner basis of ``fam``'s x-chain on 0..x_max.

    With c = 1/(1 + rate) the orthonormal Meixner polynomials of
    m = NB(shape, 1 - c), the untruncated stationary law, satisfy the
    three-term recurrence with a_k = (k + (k + shape) c)/(1 - c) and
    b_k = sqrt(k (k + shape - 1) c)/(1 - c) (Koekoek, Lesky & Swarttouw,
    section 9.10); lambda_k = (1 + rate)^-k.  Beyond the forward
    recurrence, the tail cut at x_max costs the far levels accuracy.  The
    truncation's per-step error is set by ``scan_compare._pg_certified_crossings``.
    The polynomials at a start are read from the columns, so far in the
    tail, where sqrt(m) is not a normal float, they are unknown (nan).
    """
    c = 1.0 / (1.0 + fam.rate)
    k = np.arange(min(BASIS_MAX_LEVEL, fam.x_max) + 2, dtype=float)
    a = (k + (k + fam.shape) * c) / (1.0 - c)
    b = np.sqrt(k * (k + fam.shape - 1.0) * c) / (1.0 - c)
    log_mass = fam.log_weights - gammaln(fam.shape) + fam.shape * (
        math.log(fam.rate) - math.log1p(fam.rate)
    )
    log_eigenvalues = k * math.log(fam.meixner_eigenvalue(1))
    return _orthonormal_basis(log_mass, a, b, log_eigenvalues)


def _hahn_rows(n: int, levels: np.ndarray) -> np.ndarray:
    """phi_k(y), y = 0..n, of the Gram basis on 0..n for the integer ``levels``,
    one row per level, from the Hahn difference equation in y.

    At a = b = 1 the Hahn polynomial Q_k(y) = 3F2(-k, k + 1, -y; 1, -n; 1)
    satisfies k(k + 1) Q(y) = B(y) Q(y + 1) - [B(y) + D(y)] Q(y) + D(y) Q(y - 1),
    with B(y) = (y + 1)(y - n) and D(y) = y(y - n - 1) (Koekoek, Lesky &
    Swarttouw 2010, (9.5.5)), from Q(0) = 1 and Q(1) = 1 - k(k + 1)/n.  It
    runs for all the levels at once, one vector per y, up to y = n/2; the
    rest is the mirror Q_k(n - y) = (-1)^k Q_k(y), and an odd level is 0 at
    the centre of an even n.  Each row is normalized and signed (-1)^k at
    y = 0, the sign of the recurrence's p_k there.
    """
    k = np.asarray(levels, dtype=float)
    eigen = k * (k + 1.0)
    phi = np.empty((k.size, n + 1))
    phi[:, 0] = 1.0
    phi[:, 1] = 1.0 - eigen / n
    for y in range(1, n // 2):
        up, down = (y + 1.0) * (y - n), y * (y - n - 1.0)
        phi[:, y + 1] = ((eigen + up + down) * phi[:, y] - down * phi[:, y - 1]) / up
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    below = (n + 1) // 2  # the states below n/2
    np.multiply(phi[:, below - 1 :: -1], sign[:, None], out=phi[:, n + 1 - below :])
    if n % 2 == 0:
        phi[sign < 0, n // 2] = 0.0
    phi *= (sign / np.sqrt(np.einsum("ky,ky->k", phi, phi)))[:, None]
    return phi


def gram_basis(fam: BetaBinomialFamily) -> OrthonormalBasis:
    """Gram basis of the flat-prior beta-binomial x-chain on 0..n: every level
    the TV curve's cut can keep.

    Under the flat prior the stationary law is uniform, m = 1/(n + 1), and
    its orthonormal polynomials are the Gram (discrete Chebyshev)
    polynomials, the Hahn polynomials at a = b = 1: a_k = n/2 and
    b_k = (k/2) sqrt(((n + 1)^2 - k^2)/(4k^2 - 1)), with the Hahn
    eigenvalues lambda_k = prod_{i<k} (n - i)/(n + 2 + i) of
    ``_hahn_eigenvalues``, the products of ``bb_spectral_data``, held as
    their logs.  The forward recurrence keeps levels 0..K_head, with K_head
    chosen under ``BASIS_GRAM_TOL`` (all levels up to n = 17, 44 at
    n = 100, the cap ``BASIS_MAX_LEVEL`` at every n from 193); it loses
    the levels near n (Gautschi 2004).  The levels K_head + 1..K are rows
    of the Hahn difference equation in y (``_hahn_rows``); as in every
    basis, the polynomials at a state are read from the columns.

    K is the smallest level with lambda_{K+1} sqrt(n + 1) at most
    EPS / (n + 1) min_x max(lambda_1 |p_1(x)|, lambda_2 |p_2(x)|), and never
    below min(n, ``BASIS_MAX_LEVEL``): K = n up to n = 60, 63 at n = 100,
    178 at n = 700, 308 at n = 2000.  A level k > K has
    |lambda_k^t p_k(x)| <= lambda_{K+1}^t sqrt(1/m(x)) (Christoffel), so at
    every step t >= 1 from every start it lies below EPS / dim of level 1's
    or level 2's term: the cut of ``scan_compare._basis_tv`` could never
    keep it, and the curve is the one the whole n + 1-level expansion gives.
    ``gram_residual`` covers levels 0..``BASIS_MAX_LEVEL``, the ones the
    certified worst-start search sums; it bounds the curve ``_basis_tv``
    prints, so the basis carries no error against ``bb_xchain``.  More than
    ``MAX_DENSE_STATES`` states are refused.
    """
    fam.require_flat_prior("the Gram basis")
    check_dense_states(fam.n + 1)
    n = fam.n
    k = np.arange(n + 1, dtype=float)
    a = np.full(n + 1, n / 2.0)
    b = np.zeros(n + 1)
    b[1:] = 0.5 * k[1:] * np.sqrt(((n + 1.0) ** 2 - k[1:] ** 2) / (4.0 * k[1:] ** 2 - 1.0))
    with np.errstate(divide="ignore"):  # lambda_{n+1} = 0
        log_eigenvalues = np.log(np.concatenate([[1.0], _hahn_eigenvalues(n, n + 1)]))
    log_mass = np.full(n + 1, -math.log(n + 1.0))
    head = _orthonormal_basis(log_mass, a, b, log_eigenvalues)
    levels = n
    if n > BASIS_MAX_LEVEL:
        # With p_k = sqrt(n + 1) phi_k, the sqrt(n + 1) of both sides cancels.
        leading = np.exp(log_eigenvalues[1:3, None]) * np.abs(head.phi[1:3])
        cut = math.log(EPS / (n + 1) * float(leading.max(axis=0).min()))
        levels = max(int(np.argmax(log_eigenvalues[1:] <= cut)), BASIS_MAX_LEVEL)
    phi = np.concatenate([head.phi, _hahn_rows(n, np.arange(head.levels + 1, levels + 1))])
    summed = phi[: BASIS_MAX_LEVEL + 1]
    return OrthonormalBasis(
        log_mass=log_mass,
        phi=phi,
        gram_residual=float(np.abs(summed @ summed.T - np.eye(summed.shape[0])).max()),
        log_eigenvalues=log_eigenvalues[: levels + 2],
    )


def pg_geometric_reference(fam: PoissonGammaFamily) -> Distribution:
    """The flat-shape stationary law written directly: (1/2)^(x+1), renormalized.

    Only defined for shape = rate = 1; used to cross-check the general
    negative binomial law of ``pg_log_stationary``.
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
    return SpectralData(
        levels=fam.meixner_eigenvalue(np.arange(1, fam.x_max + 1)),
        cutoff=None,
        basis_note=(
            "all levels are basis-free products, the closed-form Meixner "
            "eigenvalues (1 + rate)^-k of the x-chain; individual mu_k, eta_k "
            "are not resolved"
        ),
    )
