"""Scalar and matrix numerics that survive extreme magnitudes.

Convergence certificates for slowly mixing chains produce step counts near
10^34 and per-step rates like 1 - 2^-100, neither of which fits ordinary
double arithmetic.  Everything here therefore works in the log domain or
in exact integer/rational arithmetic (step counts are plain Python ints,
binomial tails are ``Fraction``).  ``LogMagnitude`` carries a magnitude as
its log for printing (``decompose``, ``log10``); it does no arithmetic.
``GeometricTerm`` (a linear coefficient, a log ratio, an offset)
is the one term type of every analytic bound: ``at`` evaluates it in
linear space, over numpy step arrays too, and ``log_at`` in the log domain,
where ``log_sum_terms`` sums terms with ``np.logaddexp`` and
``min_steps_geometric`` solves for the first crossing of a target.  The
dense-matrix half (total variation, matrix powers, and the power-iteration
stationary laws and reversible spectra that only tests use as independent
references) is conventional numpy; its one evolve-and-measure loop,
``iterate_tv``, runs step by step for the first ``TV_BLOCK - 1`` steps and
then, on long horizons, advances the last ``TV_BLOCK`` laws of every start
by one product with K^TV_BLOCK.  The serialization policy
lives next to ``round_sig``, the only way numbers leave the package:
``float_cell`` prints each float once as ``repr(round_sig(value))`` for both
CSV (``csv_cell``) and JSON (``json_cell``).  Report tables are columnar: a
``RowTable`` holds one column per field (numpy arrays for long curves, a
``GatedColumn`` for a bound with no value below its validity gate), formats
each column once by a path chosen from its type, ``TABLE_BLOCK_ROWS`` rows
at a time, and joins the texts into CSV lines or per-row JSON templates
without a Python call per cell.  ``json_text`` writes the tables of a
payload that way, in the bytes ``json.dumps(jsonable(...), indent=2)`` would
give.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, NoSolutionError, ParameterError

LOG_ZERO = float("-inf")

# Tolerances and caps used by the matrix routines.
ROW_SUM_TOL = 1e-12
NEGATIVE_CLIP = 1e-15
INVARIANCE_TOL = 1e-10
DETAILED_BALANCE_TOL = 1e-10
POWER_ITERATION_TOL = 1e-13
POWER_ITERATION_CAP = 10**6
MATRIX_POWER_CAP = 10**7

# Step-count solver gives up beyond this many steps.
STEP_SEARCH_CAP = 10**40

# Steps ``iterate_tv`` advances per dense product once it runs blocked (a
# power of two; 256 measured within 10% of 128 on 10^5-step curves, 64 up to
# 2.7 times slower at n = 100), and the steps per state that must remain
# after the first TV_BLOCK - 1 for blocking to pay for its log2(TV_BLOCK)
# squarings: break-even measured at 0.5 to 2.3 steps per state for 51 to
# 2001 states (one and two OpenBLAS threads).
TV_BLOCK = 128
TV_BLOCK_MIN_STEPS_PER_STATE = 3

LN2 = math.log(2.0)
LN10 = math.log(10.0)

# Serialization: the smallest normal float (below it ``float_cell`` leaves its
# fast path), JSON's names for the non-finite floats, and the placeholder
# string ``json_text`` stands in for a row table (json.dumps writes its NUL
# as \u0000, which no validated option value contains).
_MIN_NORMAL = sys.float_info.min
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_TABLE_SLOT_MARK = "\0row-table-"
_TABLE_SLOT = re.compile(r'^( *)(.*)"\\u0000row-table-(\d+)"', re.MULTILINE)

# Rows a ``RowTable`` formats per block, so that only one block's cell texts
# are alive at a time.  Measured on 2 shared cores: whole 10^5-row columns at
# once put long-report peak RSS at 161-165 MB against 145-151 MB for 4096-row
# blocks (the traced peak of one 10^5-row JSON render: 66 against 46 MiB);
# 1024-row blocks render 2% and 256-row blocks 8% slower than 4096.
TABLE_BLOCK_ROWS = 4096

# Step counts are plain Python integers: exact ordering and arithmetic at any
# magnitude, which 64-bit integers and doubles cannot promise near 10^40.
StepCount = int


def is_integer(value) -> bool:
    """True for a Python or numpy integer, but not for a bool.

    ``bool`` subclasses ``int``, so without this a ``True`` passes every
    count check as the count 1.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ParameterError(f"{name} is NaN")
    return value


def round_sig(value: float) -> float:
    """Round to 12 significant digits.

    Serialization helper: every float that leaves the package in JSON or CSV
    passes through this once (via ``jsonable`` or ``csv_cell``), so repeated
    runs emit byte-identical output.
    """
    if not math.isfinite(value):
        return value
    return float(f"{value:.12g}")


def rounded_decompose(value: "LogMagnitude") -> tuple[float, int]:
    """Decompose and round the mantissa, keeping it inside [1, 10)."""
    mantissa, exp10 = value.decompose()
    mantissa = round_sig(mantissa)
    if mantissa >= 10.0:
        mantissa /= 10.0
        exp10 += 1
    return mantissa, int(exp10)


def float_cell(value: float) -> str:
    """The printed text of one float: exactly ``repr(round_sig(value))``.

    Fast path: 12 significant digits are fewer than the 15.9 a float64
    holds, so for a normal float below 1e12 the shortest repr of the rounded
    value has the same digits as ``"%.12g"`` (plus ``.0`` for an integer);
    a signed zero prints alike.  Subnormals, 1e12 and above (999999999999.5
    rounds to 1e+12), infinities and NaN take the slow path.
    """
    magnitude = abs(value)
    if _MIN_NORMAL <= magnitude < 1e12 or magnitude == 0.0:
        text = "%.12g" % value
        if "e+" not in text:
            return text if "." in text or "e" in text else text + ".0"
    return repr(round_sig(float(value)))


def csv_cell(value) -> str:
    """One deterministic CSV cell: empty for None, floats by ``float_cell``."""
    if isinstance(value, float):  # numpy float64 included
        return float_cell(value)
    if value is None:
        return ""
    if isinstance(value, LogMagnitude):
        mantissa, exp10 = rounded_decompose(value)
        return f"{mantissa!r}e{exp10:+d}"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def json_cell(value) -> str:
    """One scalar as ``json.dumps(jsonable(value))`` writes it."""
    if isinstance(value, float):  # numpy float64 included
        text = float_cell(value)
        return _JSON_NONFINITE.get(text, text)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"not a scalar table cell: {value!r}")


@dataclass(frozen=True, eq=False)
class GatedColumn:
    """A float column whose first ``below`` cells are None.

    This is how a bound is tabulated over ascending steps: no value below its
    validity gate, then the float array from the gate on.
    """

    below: int
    values: np.ndarray

    def __len__(self) -> int:
        return self.below + len(self.values)


def _column_values(column) -> list:
    """A column's cells as Python scalars, None for a gated cell."""
    if isinstance(column, GatedColumn):
        return [None] * column.below + column.values.tolist()
    if isinstance(column, np.ndarray):
        return column.tolist()
    return list(column)


def _float_texts(values: np.ndarray, as_json: bool) -> Iterable[str]:
    texts = map(float_cell, values.tolist())
    if as_json and not np.isfinite(values).all():
        texts = list(texts)
        return map(_JSON_NONFINITE.get, texts, texts)
    return texts


def _column_texts(column, start: int, stop: int, as_json: bool) -> Iterable[str]:
    """The printed cells of rows ``start`` to ``stop - 1`` of one column.

    The path follows the column's type: numpy integers through ``str``,
    numpy floats through ``float_cell`` (JSON renames the non-finite texts
    only when ``np.isfinite`` finds one), a ``GatedColumn`` as its None text
    ahead of its floats, and any other sequence cell by cell through
    ``json_cell`` or ``csv_cell``.
    """
    if isinstance(column, GatedColumn):
        nulls = max(0, min(stop, column.below) - start)
        first, last = max(start - column.below, 0), max(stop - column.below, 0)
        texts = _float_texts(column.values[first:last], as_json)
        return chain(repeat("null" if as_json else "", nulls), texts) if nulls else texts
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            return _float_texts(column[start:stop], as_json)
        return map(str, column[start:stop].tolist())
    return map(json_cell if as_json else csv_cell, column[start:stop])


@dataclass(frozen=True, eq=False)
class RowTable:
    """Columns of scalar cells under a header: a JSON list of objects or a CSV table.

    Columns are the only representation.  A column is a numpy integer or
    float array, a ``GatedColumn``, or a sequence of scalars; a small table
    given as row tuples is transposed once by ``from_rows``.  A table has at
    least one column.

    Each column is formatted once, by the path its type picks, in blocks of
    ``TABLE_BLOCK_ROWS`` rows, and rows are assembled without a Python call
    per cell: a CSV line is ``",".join`` of a row of texts, a JSON row one
    ``%`` template.  Inside a payload given to ``jsonable`` the table becomes
    a list of dicts; ``json_text`` writes it through ``json_lines`` instead,
    so a 10^5-row report never exists as Python dicts or row objects.
    """

    header: tuple[str, ...]
    columns: tuple

    def __post_init__(self) -> None:
        header, columns = tuple(self.header), tuple(self.columns)
        if not columns or len(columns) != len(header):
            raise ValueError(f"{len(header)} column names for {len(columns)} columns")
        length = len(columns[0])
        if any(len(column) != length for column in columns):
            raise ValueError(f"table columns differ in length from {length} rows")
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "columns", columns)

    @classmethod
    def from_rows(cls, header: Sequence[str], rows: Iterable[Sequence]) -> "RowTable":
        """A table of row tuples, transposed into columns once."""
        rows = list(rows)
        columns = tuple(zip(*rows)) if rows else ((),) * len(header)
        return cls(header, columns)

    def iter_rows(self) -> Iterator[tuple]:
        """The rows as tuples of Python scalars (None in a gated cell), built
        on access."""
        return zip(*map(_column_values, self.columns))

    def _text_blocks(self, as_json: bool) -> Iterator[Iterator[tuple[str, ...]]]:
        """Rows of printed cells, ``TABLE_BLOCK_ROWS`` rows per block."""
        length = len(self.columns[0])
        for start in range(0, length, TABLE_BLOCK_ROWS):
            stop = min(start + TABLE_BLOCK_ROWS, length)
            yield zip(*(_column_texts(column, start, stop, as_json) for column in self.columns))

    def to_csv(self) -> str:
        """A header line and one line of ``csv_cell`` cells per row."""
        blocks = ("\n".join(map(",".join, rows)) for rows in self._text_blocks(False))
        return "\n".join([",".join(self.header), *blocks]) + "\n"

    def json_lines(self, indent: int) -> str:
        """The table as ``json.dumps(jsonable(self), indent=2)`` writes it
        at ``indent`` spaces, without the leading indent of its first line."""
        if not len(self.columns[0]):
            return "[]"
        pad = " " * (indent + 2)
        fields = ",\n".join(
            f"{pad}  " + json.dumps(name).replace("%", "%%") + ": %s" for name in self.header
        )
        template = f"{pad}{{\n{fields}\n{pad}}}"
        body = ",\n".join(
            ",\n".join(map(template.__mod__, rows)) for rows in self._text_blocks(True)
        )
        return f"[\n{body}\n{' ' * indent}]"


def jsonable(obj):
    """Plain JSON data with every float rounded once by ``round_sig``.

    A LogMagnitude becomes ``{"mantissa": m, "exp10": e}``; numpy scalars
    become Python numbers, tuples become lists and a ``RowTable`` a list
    of dicts.
    """
    if isinstance(obj, float):  # numpy float64 included
        return round_sig(float(obj))
    if obj is None:
        return None
    if isinstance(obj, LogMagnitude):
        mantissa, exp10 = rounded_decompose(obj)
        return {"mantissa": mantissa, "exp10": exp10}
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    if isinstance(obj, RowTable):
        return [
            {key: jsonable(value) for key, value in zip(obj.header, row)}
            for row in obj.iter_rows()
        ]
    return obj


def json_text(obj) -> str:
    """``json.dumps(jsonable(obj), indent=2)`` plus a newline, byte for byte.

    Only the part outside any ``RowTable`` goes through ``jsonable`` and
    ``json.dumps``; each table stands there as a placeholder string that is
    then replaced by its ``json_lines`` at the placeholder's indentation.
    """
    tables: list[RowTable] = []

    def hold(value):
        if isinstance(value, RowTable):
            tables.append(value)
            return f"{_TABLE_SLOT_MARK}{len(tables) - 1}"
        if isinstance(value, dict):
            return {key: hold(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [hold(item) for item in value]
        return jsonable(value)

    text = json.dumps(hold(obj), indent=2)
    if tables:
        text = _TABLE_SLOT.sub(
            lambda m: m[1] + m[2] + tables[int(m[3])].json_lines(len(m[1])), text
        )
    return text + "\n"


def log1mexp(log_x: float) -> float:
    """ln(1 - e^log_x) for log_x <= 0, stable across the whole range.

    This is how quantities like 1 - 2^-100 enter the log domain: the direct
    subtraction rounds to exactly 1.0 and erases the certificate, while
    log1p(-e^log_x) keeps the full -7.9e-31 of information.
    """
    log_x = _require_finite("log argument", log_x)
    if log_x > 0.0:
        raise ParameterError(f"log1mexp needs a log of a value <= 1, got {log_x}")
    if log_x == 0.0:
        return LOG_ZERO
    if log_x > -LN2:
        return math.log(-math.expm1(log_x))
    return math.log1p(-math.exp(log_x))


@dataclass(frozen=True)
class LogMagnitude:
    """A nonnegative magnitude stored as its natural logarithm.

    ``log_value`` holds ln(x); ``-inf`` encodes exactly zero.  Storing the
    log is what makes quantities like (1 - 2^-100)^(10^33) or 10^-10^31
    representable at all.  It carries a value to print and does no
    arithmetic.  Round-tripping through ``to_float`` is faithful
    to about ``|ln x| * eps`` relative error (a float near ln(1e300) ~ 690
    has absolute spacing ~1e-13, so the exponential cannot do better); the
    log itself is the exact carrier.
    """

    log_value: float

    def __post_init__(self) -> None:
        lv = float(self.log_value)
        if math.isnan(lv):
            raise ParameterError("log magnitude is NaN")
        if lv == float("inf"):
            raise ParameterError("infinite magnitude is not representable")
        object.__setattr__(self, "log_value", lv)

    @classmethod
    def from_linear(cls, value: float) -> "LogMagnitude":
        value = _require_finite("magnitude", value)
        if value < 0:
            raise ParameterError(f"magnitude must be nonnegative, got {value}")
        if value == 0:
            return cls(LOG_ZERO)
        return cls(math.log(value))

    @classmethod
    def from_log2(cls, log2_value: float) -> "LogMagnitude":
        """Build from a base-2 exponent, e.g. ``from_log2(-100)`` is 2^-100."""
        return cls(float(log2_value) * LN2)

    @property
    def log10(self) -> float:
        if self.log_value == LOG_ZERO:
            return LOG_ZERO
        return self.log_value / LN10

    def to_float(self) -> float:
        if self.log_value == LOG_ZERO:
            return 0.0
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return float("inf")

    def __float__(self) -> float:
        return self.to_float()

    def decompose(self) -> tuple[float, int]:
        """Return (mantissa, exponent) with value = mantissa * 10**exponent.

        The mantissa lies in [1, 10); zero decomposes to (0.0, 0).  This is
        the loss-free way to print a 10^33-scale answer in text.
        """
        if self.log_value == LOG_ZERO:
            return (0.0, 0)
        l10 = self.log10
        exponent = math.floor(l10)
        mantissa = 10.0 ** (l10 - exponent)
        if mantissa >= 10.0:  # floating-point edge at a power of ten
            mantissa /= 10.0
            exponent += 1
        return (mantissa, exponent)

    def __repr__(self) -> str:
        if self.log_value == LOG_ZERO:
            return "LogMagnitude(0)"
        mantissa, exponent = self.decompose()
        return f"LogMagnitude({mantissa:.9g}e{exponent:+d})"


@dataclass(frozen=True)
class GeometricTerm:
    """One term coeff * exp((steps + offset) * log_ratio) of an analytic bound.

    The coefficient stays linear; the ratio is carried as its log, which
    must be at most 0 (``-inf`` is a zero ratio).  Build ratios like
    1 - 2^-100 via ``log1p`` on the tiny epsilon rather than subtracting
    from 1.0 in linear space, which would round to exactly 1.  A unit ratio
    never decays: it can be evaluated but ``min_steps_geometric`` refuses it.
    """

    coeff: float
    log_ratio: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        coeff = _require_finite("coefficient", self.coeff)
        lr = _require_finite("log ratio", self.log_ratio)
        off = _require_finite("offset", self.offset)
        if coeff < 0:
            raise ParameterError(f"coefficient must be nonnegative, got {coeff}")
        if coeff == float("inf"):
            raise ParameterError("infinite coefficient")
        if lr > 0.0:
            raise ParameterError(
                f"invalid ratio: log ratio must be at most 0 (ratio <= 1), got {lr}"
            )
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "log_ratio", lr)
        object.__setattr__(self, "offset", off)

    def at(self, steps):
        """The term at a step count or at every entry of a numpy step array.

        The coefficient is applied after the exponential, so a row of a
        report and a direct evaluation round the same way.  A zero ratio
        gives the coefficient at exponent 0 (0**0 = 1, as in ``log_at``).
        """
        exponent = steps + self.offset
        if self.log_ratio == LOG_ZERO:
            if np.any(np.less(exponent, 0)):
                raise ParameterError("zero ratio raised to a negative exponent")
            return self.coeff * np.equal(exponent, 0)
        return self.coeff * np.exp(exponent * self.log_ratio)

    def log_at(self, steps: int) -> float:
        """ln of the term at the given step count (0**0 counts as 1)."""
        exponent = float(steps) + self.offset
        if self.coeff == 0.0:
            return LOG_ZERO
        log_coeff = math.log(self.coeff)
        if self.log_ratio == LOG_ZERO:
            if exponent > 0:
                return LOG_ZERO
            if exponent == 0:
                return log_coeff
            raise ParameterError("zero ratio raised to a negative exponent")
        return log_coeff + exponent * self.log_ratio


def log_sum_terms(terms: Sequence[GeometricTerm], steps: int) -> float:
    """ln of the summed terms at a step count, folded with ``np.logaddexp``.

    Each fold adds log1p of the smaller term's share, so a sum just below 1
    keeps its full relative accuracy.
    """
    return float(np.logaddexp.reduce([term.log_at(steps) for term in terms]))


def min_steps_geometric(terms: Sequence[GeometricTerm], target: float) -> int:
    """Smallest step count at which the summed terms drop to the target.

    The sum is strictly decreasing in the step count (every ratio is below
    one), so a doubling bracket followed by integer bisection finds the
    minimal solution exactly.  All evaluation happens in the log domain;
    step counts are exact Python ints, valid far beyond 2^63.

    Returns the minimal ``steps >= 0`` with sum(steps) <= target.  Raises
    ``NoSolutionError`` if even ``STEP_SEARCH_CAP`` = 10^40 steps are not
    enough.
    """
    if not terms:
        raise ParameterError("at least one geometric term is required")
    for term in terms:
        if term.log_ratio >= 0.0:
            raise ParameterError(
                f"invalid ratio: log ratio must be negative (ratio < 1), got {term.log_ratio}"
            )
    target = _require_finite("target", target)
    if target <= 0:
        raise ParameterError(f"target must be positive, got {target}")
    log_target = math.log(target)

    if log_sum_terms(terms, 0) <= log_target:
        return 0

    low, high = 0, 1
    while log_sum_terms(terms, high) > log_target:
        low = high
        high *= 2
        if high >= STEP_SEARCH_CAP:
            if log_sum_terms(terms, STEP_SEARCH_CAP) > log_target:
                raise NoSolutionError(
                    f"no solution: target not reached within {STEP_SEARCH_CAP} steps"
                )
            high = STEP_SEARCH_CAP
            break
    while low + 1 < high:
        mid = (low + high) // 2
        if log_sum_terms(terms, mid) <= log_target:
            high = mid
        else:
            low = mid
    return high


@dataclass(frozen=True, eq=False)
class Distribution:
    """A probability vector: nonnegative entries summing to 1 within 1e-12.

    Entries in [-1e-15, 0) are treated as numerical noise and clipped to 0;
    anything more negative is rejected.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ParameterError("weights must be a nonempty one-dimensional vector")
        if not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite")
        if w.min() < -NEGATIVE_CLIP:
            raise ParameterError(
                f"negative weight {w.min()} below the clipping tolerance"
            )
        np.clip(w, 0.0, None, out=w)
        total = float(w.sum())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise ParameterError(f"weights sum to {total}, not 1 within {ROW_SUM_TOL}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return int(self.weights.shape[0])


@dataclass(frozen=True, eq=False)
class StochasticMatrix:
    """A dense row-stochastic matrix with validated rows.

    Entries in [-1e-15, 0) are clipped to zero; every row must sum to 1
    within 1e-12.  The stored array is read-only.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ParameterError("entries must form a nonempty square matrix")
        if not np.all(np.isfinite(m)):
            raise ParameterError("matrix entries must be finite")
        if m.min() < -NEGATIVE_CLIP:
            raise ParameterError(
                f"negative entry {m.min()} below the clipping tolerance"
            )
        np.clip(m, 0.0, None, out=m)
        row_sums = m.sum(axis=1)
        worst = float(np.abs(row_sums - 1.0).max())
        if worst > ROW_SUM_TOL:
            bad = int(np.abs(row_sums - 1.0).argmax())
            raise ParameterError(
                f"row {bad} sums to {row_sums[bad]}, off by {worst} > {ROW_SUM_TOL}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def _check_invariant(matrix: StochasticMatrix, stationary: Distribution) -> None:
    if len(stationary) != matrix.dim:
        raise ParameterError(
            f"dimension mismatch: matrix is {matrix.dim}, stationary has "
            f"{len(stationary)} states"
        )
    residual = float(np.abs(stationary.weights @ matrix.entries - stationary.weights).max())
    if residual > INVARIANCE_TOL:
        raise ParameterError(
            f"stationary law is not invariant: residual {residual} > {INVARIANCE_TOL}"
        )


def iterate_tv(
    matrix: StochasticMatrix,
    stationary: Distribution,
    starts: Sequence[int],
    max_steps: int,
) -> Iterator[np.ndarray]:
    """Yield the TV to stationarity of each point start at steps 0..max_steps.

    Each yield is a chunk of shape (steps, starts), in step order.  A start
    is an integer state (numpy integers included; floats and bools are
    refused).  Steps 0..TV_BLOCK - 1 evolve the starts as one block of rows,
    one product with K per step and one step per chunk.  When at least
    TV_BLOCK_MIN_STEPS_PER_STATE steps per state remain after that, the
    last TV_BLOCK laws of every start then form one window that each product
    with P = K^TV_BLOCK advances by TV_BLOCK steps, one chunk per product.
    P is built by log2(TV_BLOCK) squarings.  Each advanced law is rescaled
    by its own sum, as ``bb_xchain`` normalizes the rows of K, so the
    rounding floor does not rise: without it the 10^5-step floor at n = 50
    rose from 1.3e-14 to 1.2e-12, and renormalizing the squares of K
    instead still left it above the stepwise loop's at n = 100.
    This groups the same K^t differently (Levin, Peres & Wilmer, ch. 4):
    steps below TV_BLOCK are bit-identical to the stepwise loop and later
    ones agree with it to rounding, about 1e-14.  The generator is lazy, so
    a caller that stops within the first TV_BLOCK - 1 steps never builds P.
    """
    dim = matrix.dim
    if not is_integer(max_steps) or max_steps < 0:
        raise ParameterError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    for start in starts:
        if not is_integer(start):
            raise ParameterError(f"start state must be an integer, got {start!r}")
        if not 0 <= start < dim:
            raise ParameterError(f"start state {start} outside 0..{dim - 1}")
    # Every law is carried halved, so that its l1 distance to half of pi is
    # the TV itself; halving is exact in binary floating point.
    half_pi = 0.5 * stationary.weights
    width = len(starts)
    remaining = max_steps - (TV_BLOCK - 1)
    blocked = remaining > 0 and remaining >= TV_BLOCK_MIN_STEPS_PER_STATE * dim
    laws = np.zeros((width, dim))
    laws[np.arange(width), starts] = 0.5
    # Row step * width + i holds start i's law at that step.
    window = np.empty((TV_BLOCK * width, dim)) if blocked else None
    for step in range(TV_BLOCK if blocked else max_steps + 1):
        if step:
            laws = laws @ matrix.entries
        if blocked:
            window[step * width : (step + 1) * width] = laws
        yield np.abs(laws - half_pi).sum(axis=1)[None, :]
    if not blocked:
        return
    power = matrix.entries
    for _ in range(TV_BLOCK.bit_length() - 1):
        power = power @ power
    for first in range(TV_BLOCK, max_steps + 1, TV_BLOCK):
        steps = min(TV_BLOCK, max_steps + 1 - first)
        window = window[: steps * width] @ power
        window *= 0.5 / window.sum(axis=1, keepdims=True)
        yield np.abs(window - half_pi).sum(axis=1).reshape(steps, width)


def matrix_power_tv(
    matrix: StochasticMatrix,
    start: int,
    stationary: Distribution,
    n_steps: int,
) -> float:
    """TV distance to stationarity after ``n_steps`` from a point start.

    The last value of ``iterate_tv``, which evolves laws rather than forming
    K^n_steps.  ``n_steps`` must be a machine loop count (at most 10^7);
    certificates beyond that range belong to the log-domain solver.
    """
    if n_steps < 0:
        raise ParameterError("step count must be nonnegative")
    if n_steps > MATRIX_POWER_CAP:
        raise ParameterError(
            f"step count {n_steps} exceeds the exact-iteration cap {MATRIX_POWER_CAP}"
        )
    _check_invariant(matrix, stationary)
    for chunk in iterate_tv(matrix, stationary, [start], n_steps):
        pass
    return float(chunk[-1, 0])


def stationary_distribution(
    matrix: StochasticMatrix,
    max_iterations: int = POWER_ITERATION_CAP,
) -> Distribution:
    """Stationary law by deterministic power iteration from the uniform start.

    Stops when successive iterates differ by less than 1e-13 in TV; raises
    ``ConvergenceError`` after ``max_iterations`` (default 10^6).  The input
    chain should be irreducible and aperiodic for the limit to be meaningful.
    No program path calls it: both families' stationary laws are closed
    forms, and this is the tests' independent reference for them.
    """
    if max_iterations < 1:
        raise ParameterError("max_iterations must be at least 1")
    v = np.full(matrix.dim, 1.0 / matrix.dim)
    for _ in range(max_iterations):
        nxt = v @ matrix.entries
        nxt /= nxt.sum()
        if 0.5 * float(np.abs(nxt - v).sum()) < POWER_ITERATION_TOL:
            return Distribution(nxt)
        v = nxt
    raise ConvergenceError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def reversible_spectrum(matrix: StochasticMatrix, stationary: Distribution) -> np.ndarray:
    """All eigenvalues of a reversible chain, sorted in descending order.

    Verifies detailed balance pi_i K_ij = pi_j K_ji within 1e-10, then
    symmetrizes by the sqrt(pi) similarity transform and calls a symmetric
    eigensolver, so every eigenvalue comes back real.  The leading
    eigenvalue must be 1 within 1e-10 and the rest must lie in [-1, 1].
    """
    _check_invariant(matrix, stationary)
    pi = stationary.weights
    if pi.min() <= 0:
        raise ParameterError(
            "stationary law must be strictly positive to symmetrize the chain"
        )
    flux = pi[:, None] * matrix.entries
    db_residual = float(np.abs(flux - flux.T).max())
    if db_residual > DETAILED_BALANCE_TOL:
        raise ParameterError(
            f"detailed balance violated: max flux asymmetry {db_residual} > "
            f"{DETAILED_BALANCE_TOL}"
        )
    root = np.sqrt(pi)
    sym = root[:, None] * matrix.entries / root[None, :]
    sym = 0.5 * (sym + sym.T)
    eigs = np.linalg.eigvalsh(sym)[::-1]
    if abs(eigs[0] - 1.0) > INVARIANCE_TOL:
        raise ConvergenceError(
            f"leading eigenvalue {eigs[0]} is not 1 within {INVARIANCE_TOL}"
        )
    if eigs.min() < -1.0 - INVARIANCE_TOL or eigs.max() > 1.0 + INVARIANCE_TOL:
        raise ConvergenceError("eigenvalues escape [-1, 1] beyond tolerance")
    return eigs


def binomial_tail_le(n_flips: int, cutoff: int) -> Fraction:
    """Exact lower binomial tail sum_{j=0}^{cutoff} C(n, j) / 2^n.

    Works in exact rational arithmetic; restricted to n_flips <= 64, which
    covers the coin-flip concentration checks this package needs.
    """
    if not isinstance(n_flips, int) or not isinstance(cutoff, int):
        raise ParameterError("flip count and cutoff must be integers")
    if not 1 <= n_flips <= 64:
        raise ParameterError(f"flip count must lie in 1..64, got {n_flips}")
    if not 0 <= cutoff <= n_flips:
        raise ParameterError(f"cutoff must lie in 0..{n_flips}, got {cutoff}")
    total = sum(math.comb(n_flips, j) for j in range(cutoff + 1))
    return Fraction(total, 2**n_flips)
