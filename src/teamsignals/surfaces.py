"""Rank-ordered "temporal social surface" rows for plotting.

Each window's actor values are sorted in decreasing order and actor
identity is dropped, leaving one row of ranks per window whose back ranks
rise and fall as leadership or contribution rotates.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def surface(rows: Iterable[tuple]) -> Iterator[tuple[int, list[float]]]:
    """Yield (end, values sorted descending) for each windows.series row."""
    for end, _presence, values in rows:
        yield end, sorted(values, reverse=True)
