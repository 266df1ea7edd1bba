"""Pearson correlation with two-tailed significance, dependency-free.

A Pearson test has integer degrees of freedom, so its two-tailed p is a
finite series in r (Abramowitz & Stegun 26.7.3-4), with an absolute error
of at most 1e-13 for n <= 5000: no iteration, no stats package. Pearson's
sums are correctly rounded (math.fsum), over samples scaled by a power of
two, so r is the same on every Python and values of any finite magnitude
neither overflow nor underflow.
"""

from __future__ import annotations

import math
import warnings
from typing import Mapping, NamedTuple, Sequence

from .signals import TeamSignals

# signal name in correlations.csv -> TeamSignals field, in output order
SIGNAL_FIELDS = {"RL": "rl", "RC": "rc", "PRT_FN": "prt_fn", "PRT_ET": "prt_et"}


class InsufficientDataError(ValueError):
    """Fewer than three paired observations."""


class DegenerateSampleError(ValueError):
    """A sample with zero variance has no defined correlation."""


class NoOverlapError(ValueError):
    """No (variable, signal) cell had enough jointly-defined teams."""


def _unit_scaled(values: Sequence[float]) -> list[float]:
    """values times the power of two that puts the largest magnitude in [0.5, 1).

    Exact while every nonzero value stays normal, so r keeps its bits.
    """
    shift = -math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, shift) for v in values]


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Pearson product-moment correlation of two equal-length vectors."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise InsufficientDataError(f"need at least 3 observations, got {n}")
    x, y = _unit_scaled(x), _unit_scaled(y)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((v - mx) ** 2 for v in x)
    syy = math.fsum((v - my) ** 2 for v in y)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSampleError("zero variance in sample")
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def p_value(r: float, n: int) -> float:
    """Two-tailed significance of a Pearson r at sample size n.

    Student's t at df = n - 2 as the finite series of Abramowitz & Stegun
    26.7.3-4 in s = |r| and c2 = 1 - r^2, with df // 2 terms in the bracket:
      even df: p = 1 - s (1 + 1/2 c2 + 1*3/(2*4) c2^2 + ...)
      odd df:  p = 1 - 2/pi (asin s + s sqrt(c2) (1 + 2/3 c2 + 2*4/(3*5) c2^2 + ...))
    p is within 1e-13 of the exact value, absolutely, for n <= 5000 (3e-14
    measured against 40-digit mpmath), so a p below that keeps no relative
    accuracy. The clamp keeps a difference that rounds to -2e-16 from printing
    as -0.000.
    """
    if n < 3:
        raise InsufficientDataError(f"need n >= 3, got {n}")
    if abs(r) > 1.0:
        raise ValueError(f"|r| must be <= 1, got {r}")
    df = n - 2
    odd = df % 2
    s = abs(r)
    c2 = 1.0 - r * r
    term, total = 1.0, 0.0
    for k in range(df // 2):
        total += term
        term *= c2 * (2 * k + 1 + odd) / (2 * k + 2 + odd)
    if odd:
        return max(0.0, 1.0 - (math.asin(s) + s * math.sqrt(c2) * total) / (math.pi / 2))
    return max(0.0, 1.0 - s * total)


def significance_stars(p: float) -> str:
    """"**" below the 0.01 level, "*" below 0.05, else empty."""
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


class CorrelationCell(NamedTuple):
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
    signals: Mapping[str, TeamSignals], depvars: Mapping[tuple[str, str], float]
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
    for variable in sorted({name for _, name in depvars}):
        for signal_name, field in SIGNAL_FIELDS.items():
            xs: list[float] = []
            ys: list[float] = []
            for team_id in team_ids:
                value = depvars.get((team_id, variable))
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
