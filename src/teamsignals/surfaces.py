"""Rank-ordered "temporal social surface" matrices for plotting.

Each window's actor values are sorted in decreasing order and actor
identity is dropped, leaving a steps x ranks matrix whose back ranks rise
and fall as leadership or contribution rotates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .windows import Metric, WindowedSeries


@dataclass(frozen=True)
class SurfaceMatrix:
    """Per-step descending value rows; row k belongs to steps[k]."""

    metric: Metric
    steps: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]

    @property
    def n_ranks(self) -> int:
        return len(self.rows[0]) if self.rows else 0


def surface(ws: WindowedSeries) -> SurfaceMatrix:
    """Sort each step's actor values descending (ties broken by actor id)."""
    actors = ws.actors()
    rows = []
    for k in range(len(ws.steps)):
        ranked = sorted(((-ws.values[a][k], a) for a in actors))
        rows.append(tuple(-neg for neg, _ in ranked))
    return SurfaceMatrix(metric=ws.metric, steps=ws.steps, rows=tuple(rows))

