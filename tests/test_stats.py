import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamsignals.ingest import DependentVariableTable
from teamsignals.signals import TeamSignals, _sum_left
from teamsignals.stats import (
    CorrelationCell,
    DegenerateSampleError,
    InsufficientDataError,
    NoOverlapError,
    correlate,
    p_value,
    pearson_r,
    regularized_incomplete_beta,
    significance_stars,
)

from .oracles import t_cdf

# high-precision references computed with mpmath (40 digits)
T_CDF_REFS = [
    (4.209, 8, 0.9985200457248936),
    (2.645, 7, 0.9834091615759846),
    (3.057, 22, 0.9971116911236008),
]

P_VALUE_REFS = [
    (0.830, 10, 0.002960137449),
    (0.707, 9, 0.03318396952),
    (-0.546, 24, 0.005778903218),
    (0.928, 10, 0.0001077164174),
    (-0.610, 10, 0.06111374436),
]


class TestIncompleteBeta:
    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        # I_x(a,b) == 1 - I_{1-x}(b,a)
        for a, b, x in [(1.5, 4.0, 0.3), (11.0, 0.5, 0.85), (3.5, 0.5, 0.2)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_uniform_case(self):
        # I_x(1,1) is the identity
        assert math.isclose(regularized_incomplete_beta(1.0, 1.0, 0.42), 0.42, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestTCdf:
    @pytest.mark.parametrize("t,df,expected", T_CDF_REFS)
    def test_reference_values(self, t, df, expected):
        assert abs(t_cdf(t, df) - expected) < 1e-10

    @pytest.mark.parametrize("t,df,expected", T_CDF_REFS)
    def test_negative_tail_symmetry(self, t, df, expected):
        assert abs(t_cdf(-t, df) - (1.0 - expected)) < 1e-10

    def test_median(self):
        assert t_cdf(0.0, 5) == 0.5

    def test_df_one_is_cauchy(self):
        assert math.isclose(t_cdf(1.0, 1), 0.75, rel_tol=1e-12)


class TestPearsonR:
    def test_perfect_positive(self):
        assert math.isclose(pearson_r([1, 2, 3], [2, 4, 6]), 1.0)

    def test_perfect_negative(self):
        assert math.isclose(pearson_r([1, 2, 3], [3, 2, 1]), -1.0)

    def test_zero_variance(self):
        with pytest.raises(DegenerateSampleError):
            pearson_r([1, 2, 3, 4], [1, 1, 1, 1])

    def test_too_few(self):
        with pytest.raises(InsufficientDataError):
            pearson_r([1, 2], [3, 4])

    def test_symmetry(self):
        x, y = [1.0, 2.5, 3.0, 7.0], [4.0, 1.0, 3.5, 2.0]
        assert pearson_r(x, y) == pearson_r(y, x)

    @given(
        st.lists(st.integers(-100, 100), min_size=4, max_size=12),
        st.integers(1, 50),
        st.integers(-100, 100),
    )
    def test_affine_invariance(self, x, scale, shift):
        y = [(i * 7 + 3) % 13 for i in range(len(x))]
        if len(set(x)) < 2:
            return
        base = pearson_r([float(v) for v in x], y)
        scaled = pearson_r([float(scale * v + shift) for v in x], y)
        assert math.isclose(base, scaled, abs_tol=1e-9)


def test_float_sums_run_left_to_right():
    # the built-in sum() gives 1.0 here from Python 3.12 on, 0.9999999999999999 before
    assert _sum_left([0.1] * 10) == 0.9999999999999999
    assert _sum_left(v for v in [1e16, 1.0, -1e16]) == 0.0
    assert _sum_left([]) == 0.0


class TestPValue:
    @pytest.mark.parametrize("r,n,expected", P_VALUE_REFS)
    def test_reference_values(self, r, n, expected):
        assert math.isclose(p_value(r, n), expected, rel_tol=1e-8)

    def test_table_anchor_windows(self):
        assert 0.002 <= p_value(0.830, 10) <= 0.004
        assert 0.031 <= p_value(0.707, 9) <= 0.035
        assert 0.005 <= p_value(-0.546, 24) <= 0.007
        assert p_value(0.928, 10) < 0.0005

    def test_perfect_correlation(self):
        assert p_value(1.0, 5) == 0.0
        assert p_value(-1.0, 5) == 0.0

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            p_value(0.5, 2)

    def test_monotone_in_abs_r(self):
        grid = [i / 20 for i in range(20)]
        values = [p_value(r, 12) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_n(self):
        values = [p_value(0.4, n) for n in range(3, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sign_irrelevant(self):
        assert p_value(0.62, 15) == p_value(-0.62, 15)


def make_signals(rl, rc=1.0, prt_fn=2.0, prt_et=60.0):
    return TeamSignals(rl=rl, rc=rc, prt_fn=prt_fn, prt_et=prt_et, n_actors=4, n_closed_frames=5)


def skipped_cells(record) -> list[tuple[str, str, str]]:
    """(variable, signal, reason) of each correlate skip warning, in the order raised."""
    return [
        re.fullmatch(r"skipping \((\w+), (\w+)\): (.+)", str(w.message)).groups() for w in record
    ]


class TestCorrelate:
    def test_full_overlap(self):
        signals = {f"t{i}": make_signals(rl=float(i), rc=float(i % 3)) for i in range(10)}
        depvars = DependentVariableTable(
            {(f"t{i}", "creativity"): 2.0 * i + 1.0 for i in range(10)}
        )
        with pytest.warns(UserWarning) as record:
            cells = correlate(signals, depvars)
        # PRT columns are constant -> degenerate, skipped
        assert skipped_cells(record) == [
            ("creativity", "PRT_FN", "zero variance"),
            ("creativity", "PRT_ET", "zero variance"),
        ]
        assert len(cells) == 2
        rl_cell = next(c for c in cells if c.signal_name == "RL")
        assert rl_cell.n == 10
        assert math.isclose(rl_cell.r, 1.0)
        assert rl_cell.p_two_tailed == 0.0
        assert rl_cell.stars == "**"

    def test_pairwise_deletion(self):
        signals = {f"t{i}": make_signals(rl=float(i)) for i in range(9)}
        signals["t9"] = TeamSignals(
            rl=9.0, rc=1.0, prt_fn=None, prt_et=None, n_actors=2, n_closed_frames=0
        )
        # make PRT vary where defined so those cells survive
        for i in range(9):
            signals[f"t{i}"] = TeamSignals(
                rl=float(i), rc=float(i % 3), prt_fn=2.0 + i, prt_et=60.0 + i,
                n_actors=4, n_closed_frames=5,
            )
        depvars = DependentVariableTable(
            {(f"t{i}", "quality"): float(i * i) for i in range(10)}
        )
        cells = {c.signal_name: c for c in correlate(signals, depvars)}
        assert cells["RL"].n == 10
        assert cells["PRT_FN"].n == 9
        assert cells["PRT_ET"].n == 9

    def test_insufficient_teams(self):
        signals = {f"t{i}": make_signals(rl=float(i)) for i in range(2)}
        depvars = DependentVariableTable({(f"t{i}", "x"): float(i) for i in range(2)})
        with pytest.warns(UserWarning) as record:
            with pytest.raises(NoOverlapError):
                correlate(signals, depvars)
        assert skipped_cells(record) == [
            ("x", signal, "only 2 paired teams") for signal in ("RL", "RC", "PRT_FN", "PRT_ET")
        ]

    def test_warning_for_skipped_cells(self):
        signals = {f"t{i}": make_signals(rl=float(i), rc=float(3 - i)) for i in range(4)}
        depvars = DependentVariableTable(
            {(f"t{i}", "y"): float(i) for i in range(4)} | {("t0", "rare"): 1.0}
        )
        with pytest.warns(UserWarning) as record:
            cells = correlate(signals, depvars)
        assert skipped_cells(record) == [
            ("rare", signal, "only 1 paired teams") for signal in ("RL", "RC", "PRT_FN", "PRT_ET")
        ] + [("y", "PRT_FN", "zero variance"), ("y", "PRT_ET", "zero variance")]
        assert all(c.variable_name == "y" for c in cells)

    def test_no_shared_teams(self):
        signals = {"t1": make_signals(1.0), "t2": make_signals(2.0), "t3": make_signals(3.0)}
        depvars = DependentVariableTable({("other", "x"): 1.0})
        with pytest.warns(UserWarning):
            with pytest.raises(NoOverlapError):
                correlate(signals, depvars)


class TestStars:
    def test_thresholds(self):
        assert significance_stars(0.0099) == "**"
        assert significance_stars(0.01) == "*"
        assert significance_stars(0.049) == "*"
        assert significance_stars(0.05) == ""

    def test_cell_property(self):
        cell = CorrelationCell("v", "RL", 0.9, 0.004, 10)
        assert cell.stars == "**"
