import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamsignals.signals import TeamSignals
from teamsignals.stats import (
    CorrelationCell,
    DegenerateSampleError,
    InsufficientDataError,
    NoOverlapError,
    correlate,
    p_value,
    pearson_r,
    significance_stars,
)

from .oracles import regularized_incomplete_beta, t_cdf

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

# (r, n, p): mpmath's regularized incomplete beta at 40 digits, to 17, for
# both parities of n - 2; 0.0 stands for a p below the smallest float
P_SERIES_REFS = [
    (1e-09, 3, 0.99999999936338023), (0.0172, 3, 0.98904959994228774),
    (0.193, 3, 0.87635652461738682), (0.707, 3, 0.50009612958708877),
    (0.999999, 3, 0.00090031639119642723),
    (1e-09, 4, 0.999999999), (0.0172, 4, 0.9828), (0.193, 4, 0.807),
    (0.707, 4, 0.29300000000000004), (0.999999, 4, 1.0000000000287557e-06),
    (1e-09, 5, 0.99999999872676046), (0.0172, 5, 0.97810135968068006),
    (0.193, 5, 0.75579897250317743), (0.707, 5, 0.18178625791886586),
    (0.999999, 5, 1.2004215748646405e-09),
    (1e-09, 6, 0.9999999985), (0.0172, 6, 0.974202544224), (0.193, 6, 0.71409452849999999),
    (0.707, 6, 0.11619662150000003), (0.999999, 6, 1.499999500086267e-12),
    (1e-09, 901, 0.99999997608341676), (0.0172, 901, 0.60612822047469392),
    (0.193, 901, 5.2148659002924547e-09), (0.707, 901, 2.0941227927242765e-137),
    (0.999999, 901, 0.0),  # 5.5e-2564
    (1e-09, 914, 0.99999997591101891), (0.0172, 914, 0.60353436130063574),
    (0.193, 914, 4.0469179537902267e-09), (0.707, 914, 2.3017096264238506e-139),
    (0.999999, 914, 0.0),  # 4.9e-2601
    (1e-09, 5000, 0.99999994359514801), (0.0172, 5000, 0.22398129623675917),
    (0.193, 5000, 3.6828006004893166e-43),
    (0.707, 5000, 0.0),  # 1.8e-754
    (0.999999, 5000, 0.0),  # 2.1e-14244
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

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 4"):
            pearson_r([1, 2, 3], [1, 2, 3, 4])

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


# values of magnitude 1e-3 to 1e3, or 0: ldexp by up to 2**±1000 keeps them normal
values = st.integers(-10**6, 10**6).map(lambda v: v / 1000)


@given(st.lists(st.tuples(values, values), min_size=3, max_size=12), st.integers(-1000, 1000))
def test_power_of_two_scaling_keeps_r(pairs, k):
    # Pearson's sums of squares overflow from about 1e154, and underflow to
    # zero variance for subnormal values, unless pearson_r rescales first
    x, y = map(list, zip(*pairs))
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    assert pearson_r(x, [math.ldexp(v, k) for v in y]) == pearson_r(x, y)


class TestPValue:
    @pytest.mark.parametrize("r,n,expected", P_VALUE_REFS)
    def test_reference_values(self, r, n, expected):
        assert math.isclose(p_value(r, n), expected, rel_tol=1e-8)

    def test_perfect_correlation(self):
        assert p_value(1.0, 5) == 0.0
        assert p_value(-1.0, 5) == 0.0

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            p_value(0.5, 2)

    @pytest.mark.parametrize("r", [1.0000001, -1.5])
    def test_r_beyond_one(self, r):
        with pytest.raises(ValueError, match=r"\|r\| must be <= 1"):
            p_value(r, 5)

    def test_monotone_in_abs_r(self):
        grid = [i / 20 for i in range(20)]
        values = [p_value(r, 12) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_in_n(self):
        values = [p_value(0.4, n) for n in range(3, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sign_irrelevant(self):
        assert p_value(0.62, 15) == p_value(-0.62, 15)

    @pytest.mark.parametrize("r,n,expected", P_SERIES_REFS)
    def test_series_absolute_error(self, r, n, expected):
        assert abs(p_value(r, n) - expected) <= 1e-13
        assert abs(p_value(-r, n) - expected) <= 1e-13

    @given(st.floats(1e-4, 1.0), st.sampled_from([1.0, -1.0]), st.integers(3, 5000))
    def test_matches_incomplete_beta(self, s, sign, n):
        # below |r| = 1e-4, 1 - r*r rounds and the oracle's own error grows to 1e-9
        r = sign * s
        p = p_value(r, n)
        assert 0.0 <= p <= 1.0
        assert f"{p:.3f}" != "-0.000"
        assert abs(p - regularized_incomplete_beta((n - 2) / 2.0, 0.5, 1.0 - r * r)) <= 5e-11


def make_signals(rl, rc=1.0, prt_fn=2.0, prt_et=60.0):
    return TeamSignals(rl=rl, rc=rc, prt_fn=prt_fn, prt_et=prt_et, n_actors=4, n_events=20,
                       n_closed_frames=5)


def skipped_cells(record) -> list[tuple[str, str, str]]:
    """(variable, signal, reason) of each correlate skip warning, in the order raised."""
    return [
        re.fullmatch(r"skipping \((\w+), (\w+)\): (.+)", str(w.message)).groups() for w in record
    ]


class TestCorrelate:
    def test_full_overlap(self):
        signals = {f"t{i}": make_signals(rl=float(i), rc=float(i % 3)) for i in range(10)}
        depvars = {(f"t{i}", "creativity"): 2.0 * i + 1.0 for i in range(10)}
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
            rl=9.0, rc=1.0, prt_fn=None, prt_et=None, n_actors=2, n_events=3, n_closed_frames=0
        )
        # make PRT vary where defined so those cells survive
        for i in range(9):
            signals[f"t{i}"] = TeamSignals(
                rl=float(i), rc=float(i % 3), prt_fn=2.0 + i, prt_et=60.0 + i,
                n_actors=4, n_events=20, n_closed_frames=5,
            )
        depvars = {(f"t{i}", "quality"): float(i * i) for i in range(10)}
        cells = {c.signal_name: c for c in correlate(signals, depvars)}
        assert cells["RL"].n == 10
        assert cells["PRT_FN"].n == 9
        assert cells["PRT_ET"].n == 9

    def test_insufficient_teams(self):
        signals = {f"t{i}": make_signals(rl=float(i)) for i in range(2)}
        depvars = {(f"t{i}", "x"): float(i) for i in range(2)}
        with pytest.warns(UserWarning) as record:
            with pytest.raises(NoOverlapError):
                correlate(signals, depvars)
        assert skipped_cells(record) == [
            ("x", signal, "only 2 paired teams") for signal in ("RL", "RC", "PRT_FN", "PRT_ET")
        ]

    def test_warning_for_skipped_cells(self):
        signals = {f"t{i}": make_signals(rl=float(i), rc=float(3 - i)) for i in range(4)}
        depvars = {(f"t{i}", "y"): float(i) for i in range(4)} | {("t0", "rare"): 1.0}
        with pytest.warns(UserWarning) as record:
            cells = correlate(signals, depvars)
        assert skipped_cells(record) == [
            ("rare", signal, "only 1 paired teams") for signal in ("RL", "RC", "PRT_FN", "PRT_ET")
        ] + [("y", "PRT_FN", "zero variance"), ("y", "PRT_ET", "zero variance")]
        assert all(c.variable_name == "y" for c in cells)

    def test_no_shared_teams(self):
        signals = {"t1": make_signals(1.0), "t2": make_signals(2.0), "t3": make_signals(3.0)}
        depvars = {("other", "x"): 1.0}
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
