"""Log-domain scalars, geometric step solving, and dense-chain linear algebra."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gibbsrates import (
    ConvergenceError,
    Distribution,
    GeometricTerm,
    LogMagnitude,
    NoSolutionError,
    ParameterError,
    StochasticMatrix,
    binomial_tail_le,
    bb_xchain,
    BetaBinomialFamily,
    PoissonGammaFamily,
    exact_tv_curve,
    log1mexp,
    log_sum_terms,
    matrix_power_tv,
    min_steps_geometric,
    pg_xchain,
    reversible_spectrum,
    round_sig,
    stationary_distribution,
)
from gibbsrates import numerics
from gibbsrates.numerics import (
    TABLE_BLOCK_ROWS,
    TV_BLOCK,
    GatedColumn,
    RowTable,
    csv_cell,
    float_cell,
    iterate_tv,
    json_cell,
    json_text,
    jsonable,
    rounded_decompose,
)

LOG_ZERO = float("-inf")


# ---------------------------------------------------------------------------
# round_sig
# ---------------------------------------------------------------------------


def test_round_sig_examples():
    assert round_sig(123456789012345.0) == 1.23456789012e14
    assert round_sig(0.0) == 0.0
    assert round_sig(-1.23456789012345e-7) == -1.23456789012e-7
    assert round_sig(float("inf")) == float("inf")


def test_serializers_carry_a_rounded_mantissa_alike():
    # The raw mantissa 9.9999999999999... rounds to 10, so both formats must
    # carry it into the exponent: 1.0e+3, never 10.0e+2.
    value = LogMagnitude.from_linear(999.99999999999)
    assert value.decompose()[1] == 2
    assert rounded_decompose(value) == (1.0, 3)
    assert jsonable({"bound": value}) == {"bound": {"mantissa": 1.0, "exp10": 3}}
    assert csv_cell(value) == "1.0e+3"
    table = RowTable.from_rows(("bound_mantissa", "bound_exp10"), [rounded_decompose(value)])
    assert table.to_csv() == "bound_mantissa,bound_exp10\n1.0,3\n"


# ---------------------------------------------------------------------------
# float_cell / json_text: the one cell formatter and the row-table rendering
# ---------------------------------------------------------------------------


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)  # smallest subnormal: "%.12g" would give 4.94065645841e-324
@example(-1.5e-310)
@example(2.225073858507201e-308)  # largest subnormal
@example(2.2250738585072014e-308)  # smallest normal
@example(0.0)
@example(-0.0)
@example(999999999999.5)  # rounds up to 1e+12
@example(999999999999.4)
@example(9.9999999999995e15)
@example(1e16)
@example(1.7976931348623157e308)
def test_float_cell_is_repr_of_round_sig(value):
    expected = repr(round_sig(value))
    assert float_cell(value) == expected
    assert float_cell(np.float64(value)) == expected
    assert csv_cell(value) == expected
    assert json_cell(value) == json.dumps(jsonable(value))


def test_non_finite_cells_keep_their_bytes():
    for value, csv, js in (
        (math.inf, "inf", "Infinity"),
        (-math.inf, "-inf", "-Infinity"),
        (math.nan, "nan", "NaN"),
    ):
        assert csv_cell(value) == csv
        assert json_cell(value) == js
        assert json.dumps(jsonable(value)) == js
    payload = {"value": math.inf, "rows": RowTable.from_rows(("a",), [(math.inf,), (math.nan,)])}
    assert json_text(payload) == json.dumps(jsonable(payload), indent=2) + "\n"


def test_json_text_matches_json_dumps():
    table = RowTable.from_rows(
        ("steps", "tv", "bound", "ok", "label"),
        [
            (1, 0.5, None, True, "a"),
            (np.int64(2), np.float64(1 / 3), 1e-320, False, 'quote " and %s'),
        ],
    )
    payload = {
        "command": "x",
        "config": {"n": 3, "j_list": [0, 8], "target": 0.1 + 0.2},
        "result": {
            "rows": table,
            "empty": RowTable.from_rows(("a", "b"), []),
            "nested": [table, {"inner": table}],
            "bound": LogMagnitude.from_linear(999.99999999999),
            "tuple": (1.0, None),
        },
    }
    assert json_text(payload) == json.dumps(jsonable(payload), indent=2) + "\n"
    assert json_text(table) == json.dumps(jsonable(table), indent=2) + "\n"
    assert jsonable(table)[1] == {
        "steps": 2, "tv": 0.333333333333, "bound": 1e-320, "ok": False, "label": 'quote " and %s'
    }
    assert table.to_csv() == 'steps,tv,bound,ok,label\n1,0.5,,true,a\n2,0.333333333333,1e-320,false,quote " and %s\n'


def test_json_cell_refuses_a_nested_value():
    with pytest.raises(TypeError):
        json_cell([1.0])


def _cell_by_cell(table: RowTable) -> tuple[str, str]:
    """CSV and JSON of a table written one ``csv_cell``/``json_cell`` at a time.

    Callers compare line lists: pytest reports the first differing line, where
    a text diff of two long tables takes minutes.
    """
    rows = list(table.iter_rows())
    csv = [",".join(table.header)] + [",".join(map(csv_cell, row)) for row in rows]
    objects = [
        "  {\n" + ",\n".join(
            f"    {json.dumps(name)}: {json_cell(value)}" for name, value in zip(table.header, row)
        ) + "\n  }"
        for row in rows
    ]
    js = "[\n" + ",\n".join(objects) + "\n]" if rows else "[]"
    return "\n".join(csv) + "\n", js + "\n"


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -1.5e-310, 2.2250738585072014e-308, 999999999999.4,
    999999999999.5, 1e12, -3e15, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


@given(st.lists(st.floats(), max_size=30), st.integers(min_value=0, max_value=30))
@example(SPECIAL_FLOATS, 0)
@example(SPECIAL_FLOATS, 5)
@example(SPECIAL_FLOATS, len(SPECIAL_FLOATS))
@example([], 0)
def test_float_columns_print_each_cell_as_the_cell_formatters(values, below):
    # A float column and a gated column (``below`` leading Nones) print every
    # cell exactly as csv_cell / json_cell print it, in both formats.
    below = min(below, len(values))
    array = np.array(values, dtype=float)
    table = RowTable(("plain", "gated"), (array, GatedColumn(below, array[below:])))
    expected = [(value, None if i < below else value) for i, value in enumerate(values)]
    assert repr(list(table.iter_rows())) == repr(expected)  # repr: NaN equals itself
    csv, js = _cell_by_cell(table)
    assert table.to_csv().splitlines() == csv.splitlines()
    assert json_text(table).splitlines() == js.splitlines()
    assert js == json.dumps(jsonable(table), indent=2) + "\n"


@pytest.mark.parametrize(
    "count", [0, 1, TABLE_BLOCK_ROWS - 1, TABLE_BLOCK_ROWS, TABLE_BLOCK_ROWS + 1]
)
def test_row_tables_render_alike_across_block_edges(count):
    steps = np.arange(count)
    tv = np.linspace(1.0, 1e-15, count) ** 3
    tv[::997] = math.inf  # non-finite texts in some blocks only
    belows = {0, 1, count // 2, TABLE_BLOCK_ROWS - 1, TABLE_BLOCK_ROWS, count - 1, count}
    for below in sorted(b for b in belows if 0 <= b <= count):
        bound = 2.0 * tv[below:]
        table = RowTable(("steps", "tv", "bound"), (steps, tv, GatedColumn(below, bound)))
        csv, js = _cell_by_cell(table)
        assert table.to_csv().splitlines() == csv.splitlines() and csv.endswith("\n")
        assert json_text(table).splitlines() == js.splitlines()
        assert [len(row) for row in table.iter_rows()] == [3] * count


def test_row_table_columns_must_match_the_header():
    with pytest.raises(ValueError):
        RowTable(("a", "b"), (np.arange(3),))
    with pytest.raises(ValueError):
        RowTable(("a", "b"), (np.arange(3), np.arange(4.0)))
    with pytest.raises(ValueError):
        RowTable((), ())


# ---------------------------------------------------------------------------
# log1mexp
# ---------------------------------------------------------------------------


def test_log1mexp_moderate_value():
    assert log1mexp(math.log(0.5)) == pytest.approx(math.log(0.5), rel=1e-14)
    assert log1mexp(math.log(0.25)) == pytest.approx(math.log(0.75), rel=1e-14)


def test_log1mexp_tiny_argument_keeps_information():
    # 1 - e^log_x ~ -log_x for log_x near zero; linear arithmetic would
    # round 1 - 2^-100 to exactly 1 and lose the whole effect.
    log_eps = -100.0 * math.log(2.0)
    assert log1mexp(log_eps) == pytest.approx(math.log1p(-(2.0**-100)), rel=1e-12)
    assert log1mexp(-1e-30) == pytest.approx(math.log(1e-30), rel=1e-9)


def test_log1mexp_edges():
    assert log1mexp(0.0) == LOG_ZERO
    with pytest.raises(ParameterError):
        log1mexp(0.1)
    with pytest.raises(ParameterError):
        log1mexp(float("nan"))


@given(st.floats(min_value=-50.0, max_value=-1e-8))
def test_log1mexp_matches_direct_formula(log_x):
    direct = math.log(1.0 - math.exp(log_x))
    assert log1mexp(log_x) == pytest.approx(direct, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# LogMagnitude
# ---------------------------------------------------------------------------


def test_log_magnitude_from_log2_below_linear_floor():
    value = LogMagnitude.from_log2(-100)
    assert value.to_float() == pytest.approx(2.0**-100, rel=1e-13)
    assert value.log10 == pytest.approx(-100 * math.log10(2.0), rel=1e-15)


def test_log_magnitude_constructors_and_special_values():
    assert LogMagnitude.from_linear(0.0).log_value == LOG_ZERO
    assert LogMagnitude.from_linear(0.0).to_float() == 0.0
    assert LogMagnitude.from_linear(1.0).to_float() == 1.0
    assert float(LogMagnitude.from_linear(2.5)) == pytest.approx(2.5, rel=1e-15)
    with pytest.raises(ParameterError):
        LogMagnitude.from_linear(-1.0)
    with pytest.raises(ParameterError):
        LogMagnitude(float("nan"))
    with pytest.raises(ParameterError):
        LogMagnitude(float("inf"))


def test_log_magnitude_decompose():
    mantissa, exponent = LogMagnitude.from_linear(1234.5).decompose()
    assert exponent == 3
    assert mantissa == pytest.approx(1.2345, rel=1e-12)
    assert LogMagnitude.from_linear(0.0).decompose() == (0.0, 0)
    # A 10^33-scale magnitude decomposes without ever being a float.
    mantissa, exponent = LogMagnitude(33.7662 * math.log(10.0)).decompose()
    assert exponent == 33
    assert 1.0 <= mantissa < 10.0
    # Power-of-ten edges stay in [1, 10).
    for value in (1.0, 10.0, 1000.0, 1e-5):
        mantissa, exponent = LogMagnitude.from_linear(value).decompose()
        assert 1.0 <= mantissa < 10.0
        assert mantissa * 10.0**exponent == pytest.approx(value, rel=1e-12)


def test_log_magnitude_repr_mentions_decomposition():
    text = repr(LogMagnitude(33.766245 * math.log(10.0)))
    assert "e+33" in text
    assert repr(LogMagnitude.from_linear(0.0)) == "LogMagnitude(0)"


@given(st.floats(min_value=-600.0, max_value=600.0))
def test_log_magnitude_round_trip_is_faithful(log_x):
    # to_float cannot beat |ln x| * eps relative error; allow a 4x margin.
    value = LogMagnitude(log_x)
    linear = value.to_float()
    back = LogMagnitude.from_linear(linear)
    slack = max(1.0, abs(log_x)) * 4.0 * 2.2e-16
    assert abs(back.log_value - log_x) <= slack


# ---------------------------------------------------------------------------
# GeometricTerm / log_sum_terms
# ---------------------------------------------------------------------------


def test_geometric_term_validation():
    with pytest.raises(ParameterError, match="invalid ratio"):
        GeometricTerm(1.0, math.log(1.5))  # a growing term
    with pytest.raises(ParameterError, match="coefficient must be nonnegative"):
        GeometricTerm(-1.0, math.log(0.5))
    with pytest.raises(ParameterError, match="infinite coefficient"):
        GeometricTerm(math.inf, math.log(0.5))
    with pytest.raises(ParameterError, match="NaN"):
        GeometricTerm(1.0, math.nan)
    # A unit ratio can be evaluated but never decays: the solver refuses it.
    assert GeometricTerm(2.0, 0.0).log_at(10**30) == math.log(2.0)
    with pytest.raises(ParameterError, match="invalid ratio"):
        min_steps_geometric([GeometricTerm(0.5, math.log(0.5)), GeometricTerm(1.0, 0.0)], 0.5)


def test_geometric_term_log_at():
    term = GeometricTerm(2.0, math.log(0.5), offset=-1.0)
    assert term.log_at(3) == pytest.approx(math.log(2.0) + 2.0 * math.log(0.5))
    zero_coeff = GeometricTerm(0.0, math.log(0.5))
    assert zero_coeff.log_at(10) == LOG_ZERO
    zero_ratio = GeometricTerm(3.0, LOG_ZERO)
    assert zero_ratio.log_at(0) == pytest.approx(math.log(3.0))
    assert zero_ratio.log_at(5) == LOG_ZERO
    with pytest.raises(ParameterError):
        GeometricTerm(3.0, LOG_ZERO, offset=-1.0).log_at(0)


def test_geometric_term_at_zero_ratio_follows_log_at():
    # 0**0 = 1: the term is its coefficient at exponent 0 and 0 afterwards.
    term = GeometricTerm(3.0, LOG_ZERO)
    assert term.at(0) == 3.0
    assert term.at(5) == 0.0
    assert term.at(0) == pytest.approx(math.exp(term.log_at(0)), rel=1e-15)
    assert term.at(np.arange(4)).tolist() == [3.0, 0.0, 0.0, 0.0]
    shifted = GeometricTerm(2.0, LOG_ZERO, offset=-2.0)
    assert shifted.at(np.array([2, 3])).tolist() == [2.0, 0.0]
    with pytest.raises(ParameterError):
        shifted.at(1)
    with pytest.raises(ParameterError):
        shifted.at(np.array([1, 2]))


def test_geometric_term_at_matches_log_at():
    term = GeometricTerm(10.0, math.log(0.9), offset=-0.5)
    steps = np.arange(0, 50)
    assert np.allclose(np.log(term.at(steps)), [term.log_at(s) for s in steps], rtol=1e-14)


def test_log_sum_terms_matches_linear_sum():
    terms = [GeometricTerm(1.0, math.log(0.9)), GeometricTerm(2.0, math.log(0.5))]
    for steps in (0, 1, 7, 40):
        linear = 0.9**steps + 2.0 * 0.5**steps
        assert log_sum_terms(terms, steps) == pytest.approx(math.log(linear), rel=1e-12)
    only_zero = [GeometricTerm(0.0, math.log(0.5))]
    assert log_sum_terms(only_zero, 3) == LOG_ZERO


def test_log_sum_terms_just_below_one_against_mpmath():
    # The sum sits a hair below 1, so its log is about -1e-6: forming the
    # linear sum first would round away all but ~10 of its digits.
    mpmath = pytest.importorskip("mpmath")
    terms = [GeometricTerm(1.0, math.log1p(-1e-6)), GeometricTerm(1e-12, math.log(0.5))]
    with mpmath.mp.workdps(50):
        for steps in (1, 2, 3):
            exact = mpmath.log(
                sum(
                    mpmath.mpf(term.coeff) * mpmath.exp(steps * mpmath.mpf(term.log_ratio))
                    for term in terms
                )
            )
            got = log_sum_terms(terms, steps)
            assert abs((mpmath.mpf(got) - exact) / exact) <= 1e-15


# ---------------------------------------------------------------------------
# min_steps_geometric
# ---------------------------------------------------------------------------


def test_min_steps_single_term_example():
    assert min_steps_geometric([GeometricTerm(1.0, math.log(0.5))], 0.01) == 7  # 0.5^7 = 1/128 <= 0.01 < 0.5^6


def test_min_steps_zero_when_already_below_target():
    assert min_steps_geometric([GeometricTerm(0.5, math.log(0.5))], 0.6) == 0


def test_min_steps_boundary_equality_counts():
    # The same math.log computation appears on both sides, so the equality
    # at steps = 1 is bit-exact and must be accepted.
    assert min_steps_geometric([GeometricTerm(1.0, math.log(0.1))], 0.1) == 1


def test_min_steps_no_solution_within_cap():
    # A ratio of 1 - 2^-140 has decayed by only e^-0.007 after the cap of
    # 10^40 steps.
    with pytest.raises(NoSolutionError, match="no solution"):
        min_steps_geometric([GeometricTerm(1.0, math.log1p(-(2.0**-140)))], 0.01)


def test_min_steps_parameter_errors():
    with pytest.raises(ParameterError):
        min_steps_geometric([], 0.01)
    with pytest.raises(ParameterError):
        min_steps_geometric([GeometricTerm(1.0, math.log(0.5))], 0.0)
    with pytest.raises(ParameterError):
        min_steps_geometric([GeometricTerm(1.0, math.log(0.5))], -0.5)


def test_min_steps_two_term_against_extended_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mp.workdps(50):
        ratio_a = mpmath.mpf(0.99986)  # exact double values, not re-parsed decimals
        ratio_b = mpmath.mpf(0.998497)
        weight = mpmath.mpf(2.0)
        target = mpmath.mpf(0.01)

        def value(steps):
            return ratio_a**steps + weight * ratio_b**steps

        low, high = 0, 1
        while value(high) > target:
            low, high = high, high * 2
        while low + 1 < high:
            mid = (low + high) // 2
            if value(mid) <= target:
                high = mid
            else:
                low = mid
        oracle = high
    assert oracle == 32892
    assert min_steps_geometric(
        [GeometricTerm(1.0, math.log(0.99986)), GeometricTerm(2.0, math.log(0.998497))], 0.01
    ) == oracle


def test_min_steps_handles_certificate_scale_ratios():
    # A ratio of 1 - 2^-100 forces ~10^32 steps; the solver must neither
    # overflow nor loop, and the answer must sit at -ln(target) / eps.
    log_ratio = math.log1p(-(2.0**-100))
    term = GeometricTerm(1.0, log_ratio)
    steps = min_steps_geometric([term], 0.01)
    expected = -math.log(0.01) / (2.0**-100)
    assert steps == pytest.approx(expected, rel=1e-9)
    assert isinstance(steps, int)


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=0.01, max_value=0.999),
    st.floats(min_value=1e-6, max_value=0.5),
)
def test_min_steps_is_the_first_crossing(coeff, ratio, target):
    term = GeometricTerm(coeff, math.log(ratio))
    steps = min_steps_geometric([term], target)
    log_target = math.log(target)
    assert log_sum_terms([term], steps) <= log_target
    if steps > 0:
        assert log_sum_terms([term], steps - 1) > log_target


# ---------------------------------------------------------------------------
# Distribution / StochasticMatrix
# ---------------------------------------------------------------------------


def test_distribution_validation():
    dist = Distribution([0.25, 0.75])
    assert len(dist) == 2
    assert dist.weights[1] == pytest.approx(0.75)
    Distribution([1.0 - 1e-16, 1e-16])  # fine
    Distribution([1.0, -1e-16])  # tiny negative dust is clipped
    with pytest.raises(ParameterError):
        Distribution([0.5, 0.4])  # does not sum to 1
    with pytest.raises(ParameterError):
        Distribution([1.2, -0.2])  # a real negative weight


def test_stochastic_matrix_validation():
    StochasticMatrix([[0.5, 0.5], [0.1, 0.9]])
    with pytest.raises(ParameterError):
        StochasticMatrix([[0.5, 0.4], [0.1, 0.9]])
    with pytest.raises(ParameterError):
        StochasticMatrix([[1.1, -0.1], [0.1, 0.9]])
    with pytest.raises(ParameterError):
        StochasticMatrix([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# matrix_power_tv / stationary_distribution
# ---------------------------------------------------------------------------


def _two_state_chain():
    matrix = StochasticMatrix([[0.9, 0.1], [0.2, 0.8]])
    stationary = Distribution([2.0 / 3.0, 1.0 / 3.0])
    return matrix, stationary


def test_matrix_power_tv_examples():
    matrix, stationary = _two_state_chain()
    assert matrix_power_tv(matrix, 0, stationary, 0) == pytest.approx(1.0 / 3.0)
    # After one step from state 0 the law is (0.9, 0.1).
    assert matrix_power_tv(matrix, 0, stationary, 1) == pytest.approx(0.9 - 2.0 / 3.0)


def test_matrix_power_tv_is_monotone_to_stationarity():
    matrix, stationary = _two_state_chain()
    values = [matrix_power_tv(matrix, 1, stationary, k) for k in range(15)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier + 1e-14


def test_matrix_power_tv_validation():
    matrix, stationary = _two_state_chain()
    with pytest.raises(ParameterError):
        matrix_power_tv(matrix, 5, stationary, 1)
    with pytest.raises(ParameterError):
        matrix_power_tv(matrix, 0, stationary, -1)
    with pytest.raises(ParameterError):
        matrix_power_tv(matrix, 0, stationary, 10**7 + 1)
    with pytest.raises(ParameterError):
        # Not the invariant law of this chain.
        matrix_power_tv(matrix, 0, Distribution([0.5, 0.5]), 1)


def test_matrix_power_tv_keeps_the_last_value_of_a_blocked_curve(bb100):
    _, matrix, stationary = bb100
    curve = exact_tv_curve(matrix, stationary, 0, 2000)
    for steps in (0, TV_BLOCK - 1, 2000):
        assert matrix_power_tv(matrix, 0, stationary, steps) == curve[steps]


# ---------------------------------------------------------------------------
# iterate_tv: stepwise for the first TV_BLOCK - 1 steps, then blocked
# ---------------------------------------------------------------------------


def _stepwise_tv(matrix, stationary, starts, max_steps):
    """The plain loop: one product per step for every start.

    Returns the TV of each start at steps 0..max_steps and each law's mass,
    whose drift from 1 (rows of K summing to 1 only to rounding) moves the
    loop's own TV by up to that much.
    """
    half_pi = 0.5 * stationary.weights
    laws = np.zeros((len(starts), matrix.dim))
    laws[np.arange(len(starts)), starts] = 0.5
    tvs, masses = [], []
    for step in range(max_steps + 1):
        if step:
            laws = laws @ matrix.entries
        tvs.append(np.abs(laws - half_pi).sum(axis=1))
        masses.append(2.0 * laws.sum(axis=1))
    return np.array(tvs), np.array(masses)


_ENGINE_CHAINS = {
    **{f"bb{n}": (lambda n=n: (*bb_xchain(BetaBinomialFamily(n=n)), 0)) for n in (1, 2, 50, 200, 700)},
    "pg": lambda: (*pg_xchain(PoissonGammaFamily(shape=2.0, x_max=400)), 100),
}
_ENGINE_HORIZONS = (0, TV_BLOCK - 1, TV_BLOCK, TV_BLOCK + 1, 2 * TV_BLOCK + 3, 10**4)
# Agreement demanded of blocked steps with the plain loop.
_ENGINE_TOL = 2e-14


@pytest.fixture(scope="module")
def engine_reference():
    """Each chain with its start and the plain loop to the longest horizon."""
    cache = {}

    def get(key):
        if key not in cache:
            matrix, stationary, start = _ENGINE_CHAINS[key]()
            cache[key] = (matrix, stationary, start,
                          *_stepwise_tv(matrix, stationary, [start], max(_ENGINE_HORIZONS)))
        return cache[key]

    return get


@pytest.mark.parametrize("forced", [False, True], ids=["rule", "forced"])
@pytest.mark.parametrize("horizon", _ENGINE_HORIZONS)
@pytest.mark.parametrize("chain", sorted(_ENGINE_CHAINS))
def test_iterate_tv_matches_the_stepwise_loop(engine_reference, monkeypatch, chain, horizon, forced):
    if forced:  # block whenever a step is left after the first TV_BLOCK - 1
        monkeypatch.setattr(numerics, "TV_BLOCK_MIN_STEPS_PER_STATE", 0)
    matrix, stationary, start, tvs, masses = engine_reference(chain)
    chunks = list(iterate_tv(matrix, stationary, [start], horizon))
    assert all(chunk.ndim == 2 and chunk.shape[1] == 1 for chunk in chunks)
    curve = np.concatenate(chunks)[:, 0]
    assert curve.shape == (horizon + 1,)
    head = min(horizon + 1, TV_BLOCK)
    np.testing.assert_array_equal(curve[:head], tvs[:head, 0])
    # Past the first block the plain loop is only a reference up to its own
    # mass drift (see the next test).
    drift = np.abs(masses[: horizon + 1, 0] - 1.0)
    assert np.all(np.abs(curve - tvs[: horizon + 1, 0]) <= _ENGINE_TOL + drift)


def test_iterate_tv_blocked_steps_do_not_drift_with_the_stepwise_loop(engine_reference):
    # At n = 2 a row of K sums to 1 + 2.2e-16: the plain loop's mass drifts
    # and by step 10^4 its TV sits 4.2e-13 above the exact value (below
    # 1e-300), while the blocked laws, rescaled to their mass every product,
    # stay at 5.6e-17.
    matrix, stationary, start, tvs, masses = engine_reference("bb2")
    curve = exact_tv_curve(matrix, stationary, start, 10**4)
    assert tvs[-1, 0] > 10 * _ENGINE_TOL
    assert curve[-1] <= _ENGINE_TOL


def test_iterate_tv_chunks_several_starts_in_step_order(monkeypatch):
    monkeypatch.setattr(numerics, "TV_BLOCK_MIN_STEPS_PER_STATE", 0)
    matrix, stationary = pg_xchain(PoissonGammaFamily(shape=2.0, x_max=400))
    starts = [0, 5, 100, 150]
    horizon = 3 * TV_BLOCK + 7
    chunks = list(iterate_tv(matrix, stationary, starts, horizon))
    # One step per chunk, then one chunk per product with K^TV_BLOCK.
    assert [len(chunk) for chunk in chunks] == [1] * TV_BLOCK + [TV_BLOCK, TV_BLOCK, 8]
    curve = np.concatenate(chunks)
    tvs, masses = _stepwise_tv(matrix, stationary, starts, horizon)
    np.testing.assert_array_equal(curve[:TV_BLOCK], tvs[:TV_BLOCK])
    assert np.all(np.abs(curve - tvs) <= _ENGINE_TOL + np.abs(masses - 1.0))


def test_iterate_tv_builds_no_power_for_a_caller_that_stops_early():
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=100))
    shapes = []

    class CountingArray(np.ndarray):
        def __matmul__(self, other):
            shapes.append((self.shape, other.shape))
            return np.asarray(self) @ np.asarray(other)

        def __rmatmul__(self, other):
            shapes.append((other.shape, self.shape))
            return np.asarray(other) @ np.asarray(self)

    object.__setattr__(matrix, "entries", matrix.entries.view(CountingArray))
    for _ in zip(range(TV_BLOCK), iterate_tv(matrix, stationary, [0], 10**5)):
        pass
    # Steps 1..TV_BLOCK - 1 take one vector product each; K is never squared.
    assert shapes == [((1, 101), (101, 101))] * (TV_BLOCK - 1)


@pytest.mark.parametrize("n, parent_floor", [(50, 1.3e-14), (100, 1.2e-14), (200, 6.1e-14)])
def test_iterate_tv_floor_does_not_rise(n, parent_floor):
    # The maximum over the last half of a 10^5-step curve: rounding noise
    # that the one-product-per-step loop left at parent_floor.
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=n))
    curve = exact_tv_curve(matrix, stationary, 0, 10**5)
    assert curve[5 * 10**4 :].max() <= parent_floor


def test_iterate_tv_reruns_are_bit_identical():
    # Blocked products change their last bit with the BLAS thread count, but
    # never between two runs with the same threads.
    matrix, stationary = bb_xchain(BetaBinomialFamily(n=200))
    first = exact_tv_curve(matrix, stationary, 0, 2 * 10**4)
    np.testing.assert_array_equal(exact_tv_curve(matrix, stationary, 0, 2 * 10**4), first)


def _bool_count_calls():
    """Every count check, each called with a bool where the count goes."""
    from gibbsrates import (
        JointState,
        ScanStrategy,
        SpectralData,
        SpectralLevel,
        bb_drift_minorization,
        collapse_census,
        compare,
        eigenfunction_decay,
        random_scan_lower,
        rebuild_random_scan_upper,
        run_trajectory,
    )
    from gibbsrates.bounds import systematic_upper_bound

    matrix, stationary = _two_state_chain()
    fam = BetaBinomialFamily(n=4)
    start = JointState(x=0, theta=0.5)
    scan = ScanStrategy("random", 0.5)
    level = SpectralLevel(k=1, product=0.5)
    return {
        "compare n": lambda flag: compare(n=flag, max_steps=5, target=0.6),
        "compare max_steps": lambda flag: compare(n=5, max_steps=flag, target=0.6),
        "exact_tv_curve max_steps": lambda flag: exact_tv_curve(matrix, stationary, 0, flag),
        "iterate_tv max_steps": lambda flag: next(iterate_tv(matrix, stationary, [0], flag)),
        "matrix_power_tv n_steps": lambda flag: matrix_power_tv(matrix, 0, stationary, flag),
        "BetaBinomialFamily n": lambda flag: BetaBinomialFamily(n=flag),
        "PoissonGammaFamily x_max": lambda flag: PoissonGammaFamily(x_max=flag),
        "SpectralLevel k": lambda flag: SpectralLevel(k=flag, product=0.5),
        "SpectralData cutoff": lambda flag: SpectralData(levels=(level,), cutoff=flag),
        "bb_drift_minorization x0": lambda flag: bb_drift_minorization(fam, x0=flag),
        "bound n": lambda flag: systematic_upper_bound(flag),
        "bound steps": lambda flag: random_scan_lower(4, flag),
        "rebuild n": lambda flag: rebuild_random_scan_upper(flag, 5),
        "rebuild steps": lambda flag: rebuild_random_scan_upper(4, flag),
        "JointState x": lambda flag: JointState(x=flag, theta=0.5),
        "run_trajectory n_steps": lambda flag: run_trajectory(fam, start, scan, flag),
        "eigenfunction_decay samples": lambda flag: eigenfunction_decay(fam, start, scan, 1, flag),
        "word length": lambda flag: collapse_census(flag),
    }


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("site", sorted(_bool_count_calls()))
def test_counts_refuse_bools(site, flag):
    # bool subclasses int: True used to pass as the count 1 (compare with
    # n = max_steps = True returned a one-row report).
    with pytest.raises(ParameterError, match="integer"):
        _bool_count_calls()[site](flag)


def test_is_integer():
    assert numerics.is_integer(3) and numerics.is_integer(np.int64(3))
    for value in (True, np.bool_(True), 3.0, "3", None):
        assert not numerics.is_integer(value)


def test_stationary_distribution_two_state():
    matrix, _ = _two_state_chain()
    stationary = stationary_distribution(matrix)
    assert stationary.weights[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert stationary.weights[1] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_stationary_distribution_convergence_error():
    # A nearly frozen asymmetric chain moves ~1e-9 TV per iteration, far
    # beyond any 1000-iteration budget.
    matrix = StochasticMatrix([[1.0 - 1e-9, 1e-9], [2e-9, 1.0 - 2e-9]])
    with pytest.raises(ConvergenceError):
        stationary_distribution(matrix, max_iterations=1000)
    with pytest.raises(ParameterError):
        stationary_distribution(matrix, max_iterations=0)


# ---------------------------------------------------------------------------
# reversible_spectrum
# ---------------------------------------------------------------------------


def test_reversible_spectrum_three_state_exact():
    fam = BetaBinomialFamily(n=2)
    matrix, stationary = bb_xchain(fam)
    eigs = reversible_spectrum(matrix, stationary)
    assert eigs == pytest.approx([1.0, 0.5, 0.1], abs=1e-12)


def test_reversible_spectrum_rejects_detailed_balance_violation():
    matrix = StochasticMatrix(
        [[0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.7, 0.1, 0.2]]
    )  # doubly stochastic but cyclic: flux is asymmetric under the uniform law
    uniform = Distribution([1.0 / 3.0] * 3)
    with pytest.raises(ParameterError, match="detailed balance"):
        reversible_spectrum(matrix, uniform)


def test_reversible_spectrum_rejects_zero_mass_states():
    matrix = StochasticMatrix([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ParameterError):
        reversible_spectrum(matrix, Distribution([1.0, 0.0]))


# ---------------------------------------------------------------------------
# binomial_tail_le
# ---------------------------------------------------------------------------


def test_binomial_tail_exact_values():
    assert binomial_tail_le(8, 2) == Fraction(37, 256)
    assert binomial_tail_le(1, 0) == Fraction(1, 2)
    assert binomial_tail_le(4, 4) == Fraction(1, 1)


def test_binomial_tail_validation():
    with pytest.raises(ParameterError):
        binomial_tail_le(0, 0)
    with pytest.raises(ParameterError):
        binomial_tail_le(65, 1)
    with pytest.raises(ParameterError):
        binomial_tail_le(8, -1)
    with pytest.raises(ParameterError):
        binomial_tail_le(8, 9)
    with pytest.raises(ParameterError):
        binomial_tail_le(8.0, 2)
