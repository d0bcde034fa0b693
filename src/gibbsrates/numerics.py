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
``min_steps_geometric`` solves for the first crossing of a target.
``logsumexp`` and ``gammaln`` give the bits of scipy's, so no command needs
scipy.  The dense-matrix half (total variation, matrix powers, and the
power-iteration stationary laws and reversible spectra that only tests use
as independent references) is conventional numpy; its one
evolve-and-measure loop, ``iterate_tv``, runs step by step until the
laws, scaled to their mass, repeat an earlier step's bit for bit.  The
serialization policy lives next to ``round_sig``, the only way numbers
leave the package:
``float_cell`` prints each float once as ``repr(round_sig(value))`` for both
CSV (``csv_cell``) and JSON (``json_cell``).  Report tables are columnar: a
``RowTable`` holds one column per field (numpy arrays for long curves, a
``GatedColumn`` for a bound with no value below its validity gate) and
renders ``TABLE_BLOCK_ROWS`` rows at a time in numpy: each cell is written
into fixed byte slots of a row buffer (``_float_slots`` for all float
columns of a block at once, ``_int_slots``, or a sequence cell's text),
around the row template's constant bytes, and one compaction by the
buffer's mask gives the block's text, without a Python call per cell.  A
table's text comes in pieces, one per block (``csv_pieces``,
``json_pieces``), and ``json_pieces`` yields a whole payload's text the
same way, in the bytes ``json.dumps(jsonable(...), indent=2)`` would give,
so a writer holds one block's text at a time; ``to_csv`` and ``json_text``
join the same pieces.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, NoSolutionError, ParameterError

if TYPE_CHECKING:
    from fractions import Fraction

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

LN2 = math.log(2.0)
LN10 = math.log(10.0)

# Serialization: the smallest normal float (below it ``float_cell`` leaves its
# fast path), JSON's names for the non-finite floats, and the placeholder
# string ``json_pieces`` stands in for a row table (json.dumps writes its NUL
# as \u0000, which no validated option value contains).
_MIN_NORMAL = sys.float_info.min
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}
_TABLE_SLOT_MARK = "\0row-table-"
_TABLE_SLOT = re.compile(r'^( *)(.*)"\\u0000row-table-(\d+)"', re.MULTILINE)

# Rows a ``RowTable`` renders and yields per block, so that a writer holds
# one block's byte slots and text at a time: rendering ``compare(50, 10^5)``
# (21.9 MiB of JSON) into a file peaks at 3.7 MiB of traced allocations.
# 3072- and 4096-row blocks render no faster (4096 peaks at 6.2 MiB).
TABLE_BLOCK_ROWS = 2048

# The byte slots of one float cell, left to right: a sign, the "0.000" prefix
# of a fixed-form value below 1, twelve digits each followed by a point slot,
# the "0" of an integral value's ".0" and an "e-ddd" exponent.  A cell's
# layout (see ``_float_slots``) and its count of significant digits pick the
# slots that print from ``_FLOAT_MASKS``.  An integer cell is a sign and 20
# digits.
_FLOAT_SLOT = np.frombuffer(b"-0.000" + b"0." * 12 + b"0e-000", dtype=np.uint8)
_INT_SLOT = np.frombuffer(b"-" + b"0" * 20, dtype=np.uint8)
_DIGIT0, _INTEGRAL_ZERO, _EXP_DIGITS = 6, 30, 33
_ZERO_LAYOUT, _LAYOUTS = 18, 19
_DIGIT_SLOTS = slice(_DIGIT0, _INTEGRAL_ZERO, 2)
# Decimal exponents -_EXP_LOW..12 index the layout and scale tables.
_EXP_LOW = 330
# Values below this are scaled by 2^600 first, so that their power of ten
# stays a normal float.
_TINY, _TINY_SHIFT = 1e-250, 600
# A subnormal is j * 2^-1074 for its mantissa count j; decimal grids 10^m
# for m = _GRID_TOP, _GRID_TOP - 1, ..., -324 cover every subnormal's
# shortest digits (see ``_subnormal_digits``).
_GRID_TOP, _GRIDS = -308, 17


def _float_masks() -> np.ndarray:
    """The printed slots of each (sign, layout, significant digits) row.

    Layouts 0-15 are the fixed form of decimal exponents -4..11, 16 and 17
    the exponent form with two and three exponent digits, 18 a zero.
    """
    masks = np.zeros((2, _LAYOUTS, 13, _FLOAT_SLOT.size), dtype=bool)
    sig = np.arange(13)[:, None]
    digit = np.arange(12)
    point = _DIGIT0 + 2 * digit + 1
    for exp10 in range(-4, 12):
        mask = masks[0, exp10 + 4]
        if exp10 >= 0:  # at least one digit after the point: "120.0"
            mask[:, _DIGIT_SLOTS] = digit < np.maximum(sig, exp10 + 2)
            mask[:, point[exp10]] = True
            mask[:, _INTEGRAL_ZERO] = exp10 == 11
        else:  # "0.", then -exp10 - 1 zeros
            mask[:, _DIGIT_SLOTS] = digit < sig
            mask[:, 1 : 2 - exp10] = True
    for layout, first in ((16, _EXP_DIGITS + 1), (17, _EXP_DIGITS)):
        mask = masks[0, layout]
        mask[:, _DIGIT_SLOTS] = digit < sig
        mask[2:, point[0]] = True
        mask[:, _EXP_DIGITS - 2 : _EXP_DIGITS] = True
        mask[:, first:] = True
    masks[0, _ZERO_LAYOUT, :, 1:4] = True  # "0.0"
    masks[1] = masks[0]
    masks[1, :, :, 0] = True
    return masks.reshape(-1, _FLOAT_SLOT.size)


def _serialization_tables():
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T.copy()
    nonzero = digits[:, ::-1] != 0
    significant = np.where(nonzero.any(axis=1), 4 - nonzero.argmax(axis=1), 0).astype(np.int8)
    digits += ord("0")
    exps = np.arange(-_EXP_LOW, 13)
    layouts = np.where(exps >= -4, exps + 4, np.where(exps >= -99, 16, 17)).astype(np.int16)
    # Correctly rounded powers 10^k for k = 11 - exp10, then 10^k / 2^600
    # (NaN where no tiny normal's exponent reaches).
    tops, shift = range(_EXP_LOW + 12), 2**_TINY_SHIFT
    scales = np.array(
        [float(f"1e{k}") for k in tops]
        + [10**k / shift if k > 250 else math.nan for k in tops]
    )
    length = np.arange(_INT_SLOT.size)
    int_masks = np.concatenate(
        [length >= _INT_SLOT.size - np.arange(_INT_SLOT.size)[:, None]] * 2
    )
    int_masks[_INT_SLOT.size :, 0] = True  # the sign of a negative
    # Each grid's spacing 10^m in subnormal ulps, 10^m * 2^1074, as a
    # double-double (both parts correctly rounded from exact integers), the
    # Veltkamp halves of its leading part, and its reciprocal.
    grids = []
    for m in range(_GRID_TOP, _GRID_TOP - _GRIDS, -1):
        ulps, power = 2**1074, 10**-m
        high = ulps / power
        top, bottom = high.as_integer_ratio()
        low = (ulps * bottom - top * power) / (power * bottom)
        grids.append((high, low, *_split(high), power / ulps))
    return (
        digits.view(np.uint32).ravel(), significant, layouts, scales, _float_masks(),
        int_masks, 10 ** np.arange(1, 20, dtype=np.uint64), np.array(grids).T,
    )


def _split(a):
    """Veltkamp's split of a double (or each of an array's) into two
    halves of at most 26 bits, so that a product of two halves is exact
    (Dekker 1971)."""
    t = a * 134217729.0  # 2^27 + 1
    high = t - (t - a)
    return high, a - high


# The 4 ASCII digits of 0..9999 as one uint32 each, the digits of each up to
# its last nonzero one, the layout of each decimal exponent, the powers of
# ten, the print masks of float and integer cells, and the subnormal grids.
(_DIGIT4, _SIGNIFICANT4, _LAYOUT_OF_EXP, _SCALES, _FLOAT_MASKS, _INT_MASKS, _POW10,
 _ULP_GRIDS) = _serialization_tables()

# Step counts are plain Python integers: exact ordering and arithmetic at any
# magnitude, which 64-bit integers and doubles cannot promise near 10^40.
StepCount = int


def is_integer(value) -> bool:
    """True for a Python or numpy integer, but not for a bool.

    ``bool`` subclasses ``int``, so without this a ``True`` passes every
    count check as the count 1.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_all(holds, message: str, **values) -> None:
    """Refuse at the first place where the array ``holds`` is False.

    The ``ParameterError`` text is ``message`` formatted with that place's
    level ``k`` (counted from 1) and its entry of each array in ``values``.
    """
    holds = np.ravel(holds)
    if not holds.all():
        i = int(np.argmin(holds))
        entries = {name: np.ravel(array)[i] for name, array in values.items()}
        raise ParameterError(message.format(k=i + 1, **entries))


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ParameterError(f"{name} is NaN")
    return value


def round_sig(value: float) -> float:
    """Round to 12 significant digits.

    Serialization helper: a float leaves the package in JSON or CSV as the
    ``repr`` of this rounding (``float_cell``), so repeated runs emit
    byte-identical output.  Most floats get that text without a call here:
    a scalar from ``"%.12g"`` (``float_cell``'s fast path), a table cell
    from the digits of ``_float_slots``.
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
    rounds to 1e+12), infinities and NaN take the slow path.  This is the
    one definition of a cell's text: table cells print alike
    (``_float_slots``), and the cells its digits cannot decide take this
    text (``_odd_float_texts``).
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


def _text_slots(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Texts as rows of their UTF-8 bytes, as wide as the longest, and the
    mask of each row's bytes."""
    encoded = [text.encode() for text in texts]
    width = max(1, max(map(len, encoded), default=0))
    rows = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(len(encoded), width)
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    return rows, np.arange(width) < lengths[:, None]


def _put_texts(text: np.ndarray, keep: np.ndarray, where, texts: Sequence[str]) -> None:
    """Write ``texts`` into the byte slots ``text`` and mask ``keep`` at rows ``where``."""
    rows, mask = _text_slots(texts)
    width = rows.shape[1]
    text[where, :width] = rows
    keep[where] = False
    keep[where, :width] = mask


def _odd_float_texts(values: np.ndarray, as_json: bool) -> list[str]:
    """``float_cell``'s (in JSON ``json_cell``'s) text of each value: the
    finite ones batched as ``repr(round_sig(v))``, one ``"%.12g"`` template,
    one float parse and one ``"%r"`` template for all."""
    finite = np.isfinite(values)
    texts = np.empty(values.size, dtype=object)
    numbers = values[finite].tolist()
    if numbers:
        rounded = map(float, ("\n".join(["%.12g"] * len(numbers)) % tuple(numbers)).split("\n"))
        texts[finite] = ("\n".join(["%r"] * len(numbers)) % tuple(rounded)).split("\n")
    cell = json_cell if as_json else float_cell
    texts[~finite] = [cell(value) for value in values[~finite].tolist()]
    return texts.tolist()


def _in_ulps(digits: np.ndarray, grid) -> tuple[np.ndarray, np.ndarray]:
    """digits * 10^m in subnormal ulps (m = _GRID_TOP - grid) as a sum
    p + tail: Dekker's exact product of the digits with the grid's leading
    double, plus the digits times its trailing double.  For digits below
    2^53 and a sum below 2^53 the sum is off by under 1e-15."""
    high, low, high_high, high_low, _ = _ULP_GRIDS[:, grid]
    p = digits * high
    d_high, d_low = _split(digits)
    tail = ((d_high * high_high - p) + d_high * high_low + d_low * high_high) + d_low * high_low
    return p, tail + digits * low


def _subnormal_digits(values, whole, exp10, fine):
    """``float_cell``'s digits of subnormal ``values`` as ``_float_slots``
    writes them: 12 digits, the decimal exponent and whether both are sure,
    from the kernel's 12 digits and exponent of each value and whether
    those are sure.

    ``float_cell`` prints the ``repr`` of the double nearest the value's
    12-digit rounding.  In ulps of 2^-1074 that double is the count j:
    - below 1e-312, the value's own mantissa, since the rounding moves it
      by at most 5e-325, under half an ulp;
    - from 1e-312 on, the integer nearest the 12 digits times
      10^(exp10 - 11).
    Every ulp is 2^-1074 below 2^-1021, and no decimal lies exactly half an
    ulp from j, so the ``repr`` is the nearest point of the coarsest grid
    10^m (m = -308 down to -324) that lies within half an ulp of j.  A
    grid's nearest point is rint(j / 10^m), and ``_in_ulps`` gives its
    distance from j to under 1e-15 ulps.  It has at most 12 digits: 10^-324
    is 0.2 ulp, and from 1e-312 on the 12-digit rounding is itself on a
    grid whose points are at least 2.02 ulps apart.  On the 10^-324 grid,
    finer than an ulp, rint can pick the farther of two points near a tie,
    so a point there counts only within half a spacing of j.  A value stays
    unsure when its count or a distance comes within 1e-6 of half an ulp,
    when no grid takes it, and from 1e-312 on when its 12 digits are not
    sure.
    """
    magnitude = np.abs(values)
    count = magnitude.view(np.int64).astype(np.float64)
    sure = np.ones(values.size, dtype=bool)
    rounded = np.flatnonzero(magnitude >= 1e-312)
    if rounded.size:
        grid = np.clip(_GRID_TOP + 11 - exp10[rounded], 0, _GRIDS - 1)
        p, tail = _in_ulps(whole[rounded], grid)
        nearest = np.rint(p)
        tail += p - nearest
        step = np.rint(tail)
        count[rounded] = nearest + step
        sure[rounded] = fine[rounded] & (np.abs(np.abs(tail - step) - 0.5) > 1e-6)
    digits = np.zeros(values.size)
    open_ = np.flatnonzero(sure)
    sure = np.zeros(values.size, dtype=bool)
    for grid, (spacing, *_, per_ulp) in enumerate(_ULP_GRIDS.T):
        if not open_.size:
            break
        points = np.rint(count[open_] * per_ulp)
        p, tail = _in_ulps(points, grid)
        miss = np.abs((p - count[open_]) + tail)
        hit = (miss < min(0.5, spacing / 2.0) - 1e-6) & (points < 1e12)
        mine = open_[hit]
        digits[mine], exp10[mine], sure[mine] = points[hit], _GRID_TOP - grid, True
        open_ = open_[~hit & (np.abs(miss - 0.5) > 1e-6)]
    # The grid's digits as 12 with trailing zeros, at the first one's exponent.
    length = np.searchsorted(_POW10, digits.astype(np.uint64), side="right")
    exp10 += length
    return digits * _SCALES[11 - length], exp10, sure


def _float_slots(values: np.ndarray, as_json: bool, slots: Sequence[tuple]) -> None:
    """Write the printed cells of float columns into their byte slots.

    ``values`` has one row of cells per (bytes, mask) pair of ``slots``, each
    a (cells, 36) view; a cell prints as ``float_cell`` (``json_cell`` in
    JSON) prints it.

    A nonzero float v with |v| < 1e12 has the decimal exponent
    e = floor(log10 |v|), moved by one decade where the scaled
    value s = |v| * 10^(11 - e) falls outside [10^11, 10^12), and its 12
    digits are rint(s).  The power of ten is a correctly rounded float
    (10^(11 - e) / 2^600 for |v| < 1e-250, first scaled exactly by 2^600,
    so that the power stays finite), so s is off by at most that rounding
    and the product's, 2 ulp of 10^12, under 5e-4.  Where s is more than
    1e-3 from a rounding tie and from either decade edge, rint(s) is thus
    the correctly rounded 12 digits that ``"%.12g"`` prints.  For a normal
    v, being fewer than a float's 15.9 digits, they are also those of the
    shortest repr of the rounded value (``float_cell``); a subnormal's
    printed digits come from these through ``_subnormal_digits``, and a
    column whose cells are all +0.0 writes the slot of a zero without any
    of this work.  The digits come from 4-digit tables;
    the cell's layout (fixed or exponent form, point position, sign, two or
    three exponent digits, or a zero) and its count of significant digits
    pick the slots that print from ``_FLOAT_MASKS``.

    Every other cell (near a tie or an edge, non-finite, a subnormal that
    ``_subnormal_digits`` leaves unsure, or printing as 1e12 and above) is
    written from ``_odd_float_texts``.
    """
    zero_rows = ~values.view(np.int64).any(axis=1)  # every cell +0.0
    for (text, keep), zeros in zip(slots, zero_rows):
        if zeros:
            text[:] = _FLOAT_SLOT
            keep[:] = _FLOAT_MASKS[13 * _ZERO_LAYOUT]
    if zero_rows.any():
        values = values[~zero_rows]
        slots = [slot for slot, zeros in zip(slots, zero_rows) if not zeros]
    cells = values.shape[1]
    flat = values.ravel()
    with np.errstate(invalid="ignore"):
        magnitude = np.abs(flat)
        zero = magnitude == 0.0
        subnormal = (magnitude > 0.0) & (magnitude < _MIN_NORMAL)
        magnitude[~((magnitude > 0.0) & (magnitude < 1e12))] = 1.0
    # log10 of a float just below 1e12 may round to 12.
    exp10 = np.minimum(np.floor(np.log10(magnitude)), 11).astype(np.int32)
    tiny = magnitude < _TINY
    if tiny.any():
        magnitude[tiny] *= 2.0**_TINY_SHIFT
    index = 11 - exp10
    index[tiny] += _EXP_LOW + 12
    scaled = magnitude * _SCALES[index]
    outside = np.flatnonzero((scaled < 1e11) | (scaled >= 1e12))
    if outside.size:  # log10 a decade off, next to a power of ten
        step = np.where(scaled[outside] < 1e11, -1, 1).astype(np.int32)
        exp10[outside] += step
        index[outside] -= step
        scaled[outside] = magnitude[outside] * _SCALES[index[outside]]
    del magnitude, index
    # Away from the decade edges (the placeholder 1.0 sits on one) and ties.
    fine = (scaled >= 1e11 + 1e-3) & (scaled <= 1e12 - 1e-3)
    whole = np.rint(scaled)
    scaled -= whole
    np.abs(scaled, out=scaled)
    scaled -= 0.5
    fine &= np.abs(scaled) >= 1e-3
    del scaled
    carry = whole == 1e12  # 999999999999.5 and above round to the next decade
    whole[carry] = 1e11
    exp10 += carry
    fine &= exp10 <= 11
    subnormal = np.flatnonzero(subnormal)
    if subnormal.size:
        whole[subnormal], exp10[subnormal], fine[subnormal] = _subnormal_digits(
            flat[subnormal], whole[subnormal], exp10[subnormal], fine[subnormal]
        )
    odd = ~(fine | zero)
    digits = whole.astype(np.int64)
    del whole
    high = digits // 10**8
    digits -= high * 10**8
    mid = digits // 10**4
    digits -= mid * 10**4
    quads = np.empty((flat.size, 3), dtype=np.uint32)
    quads[:, 0], quads[:, 1], quads[:, 2] = _DIGIT4[high], _DIGIT4[mid], _DIGIT4[digits]
    significant = np.where(
        digits != 0,
        8 + _SIGNIFICANT4[digits],
        np.where(mid != 0, 4 + _SIGNIFICANT4[mid], _SIGNIFICANT4[high]),
    )
    del high, mid, digits
    layout = _LAYOUT_OF_EXP[exp10 + _EXP_LOW]
    layout[zero] = _ZERO_LAYOUT
    layout += _LAYOUTS * np.signbit(flat)
    layout *= 13
    layout += significant
    exp_digits = _DIGIT4[np.minimum(np.abs(exp10), 999)].view(np.uint8).reshape(-1, 4)[:, 1:]
    digit_bytes = quads.view(np.uint8).reshape(-1, 12)
    for column, (text, keep) in enumerate(slots):
        part = slice(column * cells, (column + 1) * cells)
        text[:] = _FLOAT_SLOT
        text[:, _DIGIT_SLOTS] = digit_bytes[part]
        text[:, _EXP_DIGITS:] = exp_digits[part]
        np.take(_FLOAT_MASKS, layout[part], axis=0, out=keep, mode="clip")
    odd = np.flatnonzero(odd)
    if odd.size:
        texts = np.array(_odd_float_texts(flat[odd], as_json), dtype=object)
        columns, rows = np.divmod(odd, cells)
        for column in set(columns.tolist()):
            mine = columns == column
            _put_texts(*slots[column], rows[mine], texts[mine].tolist())


def _int_slots(values: np.ndarray, text: np.ndarray, keep: np.ndarray) -> None:
    """Write integers as ``str`` prints them into (cells, 21) byte slots:
    a sign and 20 digits, of which the mask keeps the significant ones."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)  # |v|, int64's minimum too
    count = np.searchsorted(_POW10, magnitude, side="right")
    quads = np.empty((values.size, 5), dtype=np.uint32)
    for i, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        quads[:, i] = _DIGIT4[magnitude // power]
        magnitude %= power
    quads[:, 4] = _DIGIT4[magnitude]
    text[:, 0] = _INT_SLOT[0]
    text[:, 1:] = quads.view(np.uint8).reshape(-1, 20)
    count += 1 + _INT_SLOT.size * negative
    np.take(_INT_MASKS, count, axis=0, out=keep, mode="clip")


def _block_text(columns, start: int, stop: int, as_json: bool, layout: "_RowLayout") -> str:
    """Rows ``start`` to ``stop - 1`` as one text: each column's cells written
    into byte slots of the row buffer around the row template's constant
    bytes, and one compaction of the buffer by its mask.

    The path follows the column's type: numpy floats and ``GatedColumn``s
    through one ``_float_slots`` call for all of them (a gated cell prints
    as JSON's null or CSV's empty cell), numpy integers through
    ``_int_slots``, and any other sequence cell by cell through
    ``json_cell`` or ``csv_cell``.
    """
    rows = stop - start
    floats, ints, texts = [], [], []
    for i, column in enumerate(columns):
        if isinstance(column, GatedColumn):
            nulls = max(0, min(stop, column.below) - start)
            first, last = max(start - column.below, 0), max(stop - column.below, 0)
            floats.append((i, column.values[first:last], nulls))
        elif isinstance(column, np.ndarray) and column.dtype.kind == "f":
            floats.append((i, column[start:stop], 0))
        elif isinstance(column, np.ndarray) and column.dtype.kind in "iu":
            ints.append((i, column[start:stop]))
        else:
            cells = column[start:stop]
            if isinstance(cells, np.ndarray):  # numpy scalars as Python ones
                cells = cells.tolist()
            texts.append((i, _text_slots(list(map(json_cell if as_json else csv_cell, cells)))))
    widths = [_FLOAT_SLOT.size] * len(columns)
    for i, _ in ints:
        widths[i] = _INT_SLOT.size
    for i, (cells, _) in texts:
        widths[i] = cells.shape[1]
    text, keep, offsets = layout.buffers(widths, rows)

    def slot(i):
        part = slice(offsets[i], offsets[i] + widths[i])
        return text[:, part], keep[:, part]

    if floats:
        values = np.empty((len(floats), rows))
        for row, (_, cells, nulls) in zip(values, floats):
            row[:nulls] = 0.0
            row[nulls:] = cells
        _float_slots(values, as_json, [slot(i) for i, _, _ in floats])
        for i, _, nulls in floats:
            if nulls:
                _put_texts(*slot(i), slice(0, nulls), ["null" if as_json else ""] * nulls)
    for i, cells in ints:
        _int_slots(cells, *slot(i))
    for i, (cells, mask) in texts:
        cell_text, cell_keep = slot(i)
        cell_text[:], cell_keep[:] = cells, mask
    skip = layout.skip if start == 0 else 0
    return _compact(text.reshape(-1)[skip:], keep.reshape(-1)[skip:])


# Bytes ``_compact`` compresses per call: ``np.compress`` builds an index
# array of 8 bytes per byte kept.
_COMPACT_BYTES = 1 << 16


def _compact(text: np.ndarray, keep: np.ndarray) -> str:
    """The bytes of ``text`` that ``keep`` marks, decoded as one UTF-8 text."""
    out = np.empty(np.count_nonzero(keep), dtype=np.uint8)
    end = 0
    for first in range(0, text.size, _COMPACT_BYTES):
        part = slice(first, first + _COMPACT_BYTES)
        size = np.count_nonzero(keep[part])
        np.compress(keep[part], text[part], out=out[end : end + size])
        end += size
    return str(out, "utf-8")


class _RowLayout:
    """The row buffer of one table's rendering: the constant byte segments
    of its row template (``segments[i]`` before column i, the last one after
    the last column), written once into a byte buffer and its mask, and
    ``skip``, the bytes of the first row's first segment to leave out."""

    def __init__(self, segments: Sequence[str], length: int, skip: int = 0):
        self.segments = [segment.encode() for segment in segments]
        self.capacity = min(length, TABLE_BLOCK_ROWS)
        self.skip = skip
        self.widths = None

    def buffers(self, widths: list[int], rows: int):
        """The byte buffer, mask and column offsets of ``rows`` rows of cell
        slots of ``widths``; the buffer is reused while the widths hold."""
        if widths != self.widths:
            offsets, width = [], 0
            for segment, cell in zip(self.segments, widths + [0]):
                offsets.append(width + len(segment))
                width += len(segment) + cell
            self.text = np.empty((self.capacity, width), dtype=np.uint8)
            self.keep = np.empty(self.text.shape, dtype=bool)
            for segment, offset in zip(self.segments, offsets):
                self.text[:, offset - len(segment) : offset] = np.frombuffer(segment, np.uint8)
                self.keep[:, offset - len(segment) : offset] = True
            self.widths, self.offsets = widths, offsets
        return self.text[:rows], self.keep[:rows], self.offsets


@dataclass(frozen=True, eq=False)
class RowTable:
    """Columns of scalar cells under a header: a JSON list of objects or a CSV table.

    Columns are the only representation.  A column is a numpy integer or
    float array, a ``GatedColumn``, or a sequence of scalars; a small table
    given as row tuples is transposed once by ``from_rows``.  A table has at
    least one column.

    Each block of ``TABLE_BLOCK_ROWS`` rows is rendered by ``_block_text``:
    every cell written into byte slots by the path its column's type picks,
    the row template's constant bytes (CSV commas and newline; JSON indent,
    keys and braces) around them, without a Python call per cell.  Inside a
    payload given to ``jsonable`` the table becomes
    a list of dicts; the module's ``json_pieces`` writes it block by block
    through ``RowTable.json_pieces`` instead, so a 10^5-row report never
    exists as Python dicts, row objects or one whole text.
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

    def _blocks(self, layout: _RowLayout, as_json: bool) -> Iterator[str]:
        """The text of each block of ``TABLE_BLOCK_ROWS`` rows, in ``layout``."""
        length = len(self.columns[0])
        for start in range(0, length, TABLE_BLOCK_ROWS):
            stop = min(start + TABLE_BLOCK_ROWS, length)
            yield _block_text(self.columns, start, stop, as_json, layout)

    def csv_pieces(self) -> Iterator[str]:
        """The CSV text in pieces: the header line, then the lines of
        ``csv_cell`` cells of each block of rows."""
        yield ",".join(self.header) + "\n"
        segments = [""] + [","] * (len(self.header) - 1) + ["\n"]
        yield from self._blocks(_RowLayout(segments, len(self.columns[0])), False)

    def to_csv(self) -> str:
        """A header line and one line of ``csv_cell`` cells per row."""
        return "".join(self.csv_pieces())

    def json_pieces(self, indent: int) -> Iterator[str]:
        """The table in pieces, as ``json.dumps(jsonable(self), indent=2)``
        writes it at ``indent`` spaces, without the leading indent of its
        first line: an opening piece, the objects of each block of rows and
        a closing piece."""
        length = len(self.columns[0])
        if not length:
            yield "[]"
            return
        pad = " " * (indent + 2)
        keys = [f"{pad}  {json.dumps(name)}: " for name in self.header]
        # Each object follows ",\n", which the table's first one leaves out.
        segments = [f",\n{pad}{{\n{keys[0]}"] + [f",\n{key}" for key in keys[1:]] + [f"\n{pad}}}"]
        yield "[\n"
        yield from self._blocks(_RowLayout(segments, length, skip=2), True)
        yield f"\n{' ' * indent}]"


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


def json_pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(jsonable(obj), indent=2)`` plus a newline, in
    pieces.

    Only the part outside any ``RowTable`` goes through ``jsonable`` and
    ``json.dumps``; each table stands there as a placeholder string, and the
    pieces are the text between placeholders and each table's
    ``RowTable.json_pieces`` at its placeholder's indentation.
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
    end = 0
    for slot in _TABLE_SLOT.finditer(text):
        yield text[end : slot.end(2)]
        yield from tables[int(slot[3])].json_pieces(len(slot[1]))
        end = slot.end()
    yield text[end:]
    yield "\n"


def json_text(obj) -> str:
    """``json.dumps(jsonable(obj), indent=2)`` plus a newline, byte for byte."""
    return "".join(json_pieces(obj))


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


def logsumexp(a, axis=None):
    """ln(sum(e^a)) over ``axis`` (every axis for None) of a float64 array.

    The float operations are those of ``scipy.special.logsumexp`` (1.17)
    without weights, so the bits agree: the maximum and the count m of its
    ties come out of the sum, the rest is shifted by the maximum, and the
    result is log1p(rest / m) + log(m) + max.  Where that is not finite (a
    slice that is all -inf, or holds +inf or NaN) the direct
    log(sum(e^a)) stands.  Reduced axes must not be empty.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
        top = np.max(a, axis=axes, keepdims=True)
        ties = a == top
        ties_count = np.sum(ties, axis=axes, keepdims=True, dtype=float)
        # Keep a's memory order, as scipy's copy does: the sums follow it.
        others = a.copy(order="K")
        others[ties] = -np.inf
        rest = np.sum(np.exp(others - top), axis=axes, keepdims=True)
        rest = np.where(rest == 0, rest, rest / ties_count)
        out = np.log1p(rest) + np.log(ties_count) + top
    out = np.squeeze(np.where(np.isfinite(out), out, direct), axis=axes)
    return out[()] if out.ndim == 0 else out


def gammaln(x):
    """ln|Gamma(x)| of a float or a float64 array, elementwise.

    This is Cephes ``lgam`` (Moshier 1989), which ``scipy.special.gammaln``
    (1.17) runs, with its constants and its order of float operations, so
    the bits agree.  Its logarithms are libm's, taken per element with
    ``math.log`` (``np.log`` differs from libm in the last bit on a few
    values).  Integer arguments are read from a table of log-factorials
    filled by the same code (``_log_gamma_integers``) when all of them are
    table integers; otherwise all are evaluated directly (``_lgam``).
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if np.all((flat >= 0.0) & (flat < LOG_GAMMA_TABLE_SIZE) & (flat == np.floor(flat))):
        index = flat.astype(np.intp)
        out = _log_gamma_integers(int(index.max(initial=0)))[index]
    else:
        out = _lgam(flat)
    out = out.reshape(x.shape)
    return out[()] if out.ndim == 0 else out


# Cephes lgam: the coefficients of its Stirling correction (A) and of its
# rational approximation on [2, 3) (B over the monic C), log sqrt(2 pi),
# log pi, and the largest argument with a finite result.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
           7.93650340457716943945e-4, -2.77777777730099687205e-3,
           8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4,
           -3.31612992738871184744e5, -1.16237097492762307383e6,
           -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (-3.51815701436523470549e2, -1.70642106651881159223e4,
           -2.20528590553854454839e5, -1.13933444367982507207e6,
           -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178
_LOGPI = 1.14472988584940017414
_MAXLGM = 2.556348e305

# The log-factorial table covers the integers below this: twice the largest
# dense x-chain (families.MAX_DENSE_STATES = 10 001 states, whose builders
# take log-gamma at sums of two states) plus any shape below about 12 000.
# The table is a process-wide cache: each entry depends on its index alone.
LOG_GAMMA_TABLE_SIZE = 1 << 15
_log_gamma_table = np.empty(0)


def _log_gamma_integers(top: int) -> np.ndarray:
    """The table lgam(k), k = 0, 1, ..., at least up to ``top``.

    It is built once per process and grown on demand, at least doubling, up
    to ``LOG_GAMMA_TABLE_SIZE`` entries; every entry comes from ``_lgam``.
    """
    global _log_gamma_table
    have = _log_gamma_table.size
    if top >= have:
        size = min(max(top + 1, 2 * have, 1024), LOG_GAMMA_TABLE_SIZE)
        more = _lgam(np.arange(have, size, dtype=float))
        _log_gamma_table = np.concatenate([_log_gamma_table, more])
        _log_gamma_table.flags.writeable = False
    return _log_gamma_table


def _polevl(x, coef):
    """Cephes polevl: coef[0] x^N + ... + coef[N] by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _lgam(x: np.ndarray) -> np.ndarray:
    """Cephes lgam on a 1-D float64 array, without the table.

    Arguments in [13, MAXLGM] take Stirling's series in numpy arithmetic on
    libm logarithms; the rest (few in practice) run the scalar code of
    ``_lgam_small``.
    """
    large = (x >= 13.0) & (x <= _MAXLGM)
    if not large.all():
        out = np.empty_like(x)
        if large.any():
            out[large] = _lgam(x[large])
        out[~large] = [_lgam_small(value) for value in x[~large].tolist()]
        return out
    logs = np.fromiter(map(math.log, x.tolist()), float, x.size)
    q = (x - 0.5) * logs - x + _LS2PI
    with np.errstate(over="ignore"):  # beyond 1e154; such x take q alone
        p = 1.0 / (x * x)
    series = np.where(
        x >= 1000.0,
        (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
        + 0.0833333333333333333333,
        _polevl(p, _LGAM_A),
    )
    return np.where(x > 1.0e8, q, q + series / x)


def _lgam_small(x: float) -> float:
    """Cephes lgam off [13, MAXLGM], on one float: the reflection formula
    below -34, the recurrence to [2, 3) and its rational approximation
    below 13, and poles (the integers <= 0) at +inf."""
    if math.isnan(x) or x == -math.inf:
        return x
    if x > _MAXLGM:
        return math.inf
    if x < -34.0:
        q = -x
        w = float(_lgam(np.array([q]))[0])
        p = math.floor(q)
        if p == q:
            return math.inf
        z = q - p
        if z > 0.5:
            p += 1.0
            z = p - q
        z = q * math.sin(math.pi * z)
        if z == 0.0:
            return math.inf
        return _LOGPI - math.log(z) - w
    z = 1.0
    p = 0.0
    u = x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        if u == 0.0:
            return math.inf
        z /= u
        p += 1.0
        u = x + p
    z = abs(z)
    if u == 2.0:
        return math.log(z)
    p -= 2.0
    x = x + p
    p = x * _polevl(x, _LGAM_B) / _polevl(x, (1.0,) + _LGAM_C)
    return math.log(z) + p


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


def check_start(start, dim: int) -> None:
    """Refuse a point start that is not an integer state in 0..dim - 1."""
    if not is_integer(start):
        raise ParameterError(f"start state must be an integer, got {start!r}")
    if not 0 <= start < dim:
        raise ParameterError(f"start state {start} outside 0..{dim - 1}")


def iterate_tv(
    matrix: StochasticMatrix,
    stationary: Distribution,
    starts: Sequence[int],
    max_steps: int,
) -> Iterator[np.ndarray]:
    """Yield the TV to stationarity of each point start at steps 0..max_steps.

    Each yield is a chunk of shape (steps, starts), in step order.  A start
    is an integer state (numpy integers included; floats and bools are
    refused).  The starts evolve as one block of rows, one step per chunk:
    each step multiplies the laws, scaled to their mass, by K and reads the
    TV of the product.  That step is a fixed map of the scaled laws, so once
    they repeat an earlier step's bit for bit, the curve repeats from there
    for ever; Brent's cycle search, comparing each step with the one at the
    last power of two, finds the repeat within about twice the step where
    the orbit closed.  One chunk then holds the rest of the horizon, that
    period of the curve repeated, and no further product runs.  On the
    chains probed the orbit closes with period 1 to 10, within a few
    hundred steps for Poisson-gamma chains and about 10^4 for the
    beta-binomial chain at n = 700.  The scaling also
    keeps the mass from drifting: rows of K that sum to 1 + 2.2e-16 (n = 2)
    lift an unscaled loop's TV to 4.2e-13 by step 10^4.  The generator is
    lazy, so a caller that stops early runs no further product.
    """
    dim = matrix.dim
    if not is_integer(max_steps) or max_steps < 0:
        raise ParameterError(f"max_steps must be a nonnegative integer, got {max_steps!r}")
    for start in starts:
        check_start(start, dim)
    # Every law is carried halved, so that its l1 distance to half of pi is
    # the TV itself; halving is exact in binary floating point.
    half_pi = 0.5 * stationary.weights
    width = len(starts)
    laws = np.zeros((width, dim))
    laws[np.arange(width), starts] = 0.5
    # The scaled laws at the last anchor step, and the TVs of the steps since.
    anchor, orbit = None, []
    for step in range(max_steps + 1):
        if step:
            laws = scaled @ matrix.entries
        scaled = laws * (0.5 / laws.sum(axis=1, keepdims=True))
        orbit.append(np.abs(laws - half_pi).sum(axis=1))
        if np.array_equal(scaled, anchor):
            # The TVs after the anchor, this step's last, are one period.
            yield np.resize(np.roll(orbit, 1, axis=0), (max_steps + 1 - step, width))
            return
        yield orbit[-1][None, :]
        if not step & (step - 1):  # step 0 or a power of two
            anchor, orbit = scaled, []


def matrix_power_tv(
    matrix: StochasticMatrix,
    start: int,
    stationary: Distribution,
    n_steps: int,
) -> float:
    """TV distance to stationarity after ``n_steps`` from a point start.

    The last value of ``iterate_tv``, which evolves laws rather than forming
    K^n_steps and runs no product once their scaled values repeat.
    ``n_steps`` must be a machine loop count (at most 10^7);
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
    from fractions import Fraction  # loads decimal; no command needs it

    total = sum(math.comb(n_flips, j) for j in range(cutoff + 1))
    return Fraction(total, 2**n_flips)
