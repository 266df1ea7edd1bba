"""Pearson correlation with two-tailed significance, dependency-free.

The t distribution is evaluated through the regularized incomplete beta
function with a continued-fraction expansion (relative error well below
1e-10), so no numeric integration or external stats package is needed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

from .ingest import DependentVariableTable
from .signals import TeamSignals, _sum_left

# signal name in correlations.csv -> TeamSignals field, in output order
SIGNAL_FIELDS = {"RL": "rl", "RC": "rc", "PRT_FN": "prt_fn", "PRT_ET": "prt_et"}


class InsufficientDataError(ValueError):
    """Fewer than three paired observations."""


class DegenerateSampleError(ValueError):
    """A sample with zero variance has no defined correlation."""


class NoOverlapError(ValueError):
    """No (variable, signal) cell had enough jointly-defined teams."""


_MAX_ITER = 300
_CF_EPS = 1e-16
_TINY = 1e-300


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson product-moment correlation of two equal-length vectors."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    mx = _sum_left(x) / n
    my = _sum_left(y) / n
    sxx = _sum_left((v - mx) ** 2 for v in x)
    syy = _sum_left((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSampleError("zero variance in sample")
    sxy = _sum_left((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def p_value(r: float, n: int) -> float:
    """Two-tailed significance of a Pearson r at sample size n.

    Uses t = r * sqrt((n-2) / (1-r^2)) against Student's t with n-2 degrees
    of freedom; the two tails collapse to one incomplete-beta evaluation.
    """
    if n < 3:
        raise InsufficientDataError(f"need n >= 3, got {n}")
    if abs(r) > 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    if abs(r) == 1.0:
        return 0.0
    df = n - 2
    t = abs(r) * math.sqrt(df / (1.0 - r * r))
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def significance_stars(p: float) -> str:
    """"**" below the 0.01 level, "*" below 0.05, else empty."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class CorrelationCell:
    """One (dependent variable, signal) correlation with its significance."""

    variable_name: str
    signal_name: str
    r: float
    p_two_tailed: float
    n: int

    @property
    def stars(self) -> str:
        return significance_stars(self.p_two_tailed)


def correlate(
    signals: Mapping[str, TeamSignals], depvars: DependentVariableTable
) -> list[CorrelationCell]:
    """All (variable, signal) correlation cells over the shared teams.

    Missing values are handled by pairwise deletion: each cell uses exactly
    the teams where both the signal and the variable are defined, so N can
    vary between cells. Cells with fewer than 3 such teams, or with a
    degenerate (zero-variance) sample, are dropped with a warning. Raises
    NoOverlapError when no cell at all is computable.
    """
    cells: list[CorrelationCell] = []
    team_ids = sorted(signals)
    for variable in depvars.variable_names():
        for signal_name, field in SIGNAL_FIELDS.items():
            xs: list[float] = []
            ys: list[float] = []
            for team_id in team_ids:
                value = depvars.get(team_id, variable)
                metric = getattr(signals[team_id], field)
                if value is None or metric is None:
                    continue
                xs.append(metric)
                ys.append(value)
            if len(xs) < 3:
                warnings.warn(
                    f"skipping ({variable}, {signal_name}): only {len(xs)} paired teams"
                )
                continue
            try:
                r = pearson_r(xs, ys)
            except DegenerateSampleError:
                warnings.warn(f"skipping ({variable}, {signal_name}): zero variance")
                continue
            cells.append(
                CorrelationCell(
                    variable_name=variable,
                    signal_name=signal_name,
                    r=r,
                    p_two_tailed=p_value(r, len(xs)),
                    n=len(xs),
                )
            )
    if not cells:
        raise NoOverlapError("no (variable, signal) cell with 3+ jointly defined teams")
    return cells
