"""Sliding-window communication graphs and per-window actor metrics.

Windows live on a fixed step grid: window k covers the half-open interval
``(end_k - window_size, end_k]`` with ``end_k = alignment + k*step``. The
grid is anchored at the log start by default, and windows are emitted for
every end strictly after the log start up to the first end at or past the
log end, so a log spanning 24 h with a 1 h step yields ends at hours 1..24.

Per-window metrics are betweenness centrality (directed, unweighted,
unnormalized; multi-edges collapse to simple edges) and the contribution
index (sent - received) / (sent + received).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

from .model import MAX_TIMESTAMP, ActorId, EventLog

Metric = Literal["bc", "ci"]


class ConfigError(ValueError):
    """Invalid window or scenario configuration."""


_DURATION_RE = re.compile(r"^\s*(\d+)\s*([smhdw])\s*$", re.IGNORECASE)
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def parse_duration(text: str) -> int:
    """Parse "90m", "12h", "7d" style durations into seconds."""
    if isinstance(text, int):
        return text
    m = _DURATION_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse duration {text!r} (use e.g. 45s, 90m, 12h, 7d)")
    return int(m.group(1)) * _DURATION_UNITS[m.group(2).lower()]


@dataclass(frozen=True)
class WindowConfig:
    """Window length and step in seconds, plus an optional grid origin.

    step must not exceed window_size: windows tile or overlap, never gap.
    alignment=None anchors the grid at the log start.
    """

    window_size: int
    step: int
    alignment: int | None = None

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {self.window_size}")
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.step > self.window_size:
            raise ConfigError(
                f"step ({self.step}) larger than window_size ({self.window_size}) leaves gaps"
            )


@dataclass(frozen=True)
class GraphSnapshot:
    """Directed communication graph for one window.

    nodes is the full roster (actors with zero events included); edges map
    (sender, recipient) to the event count inside the window.
    """

    window_end: int
    nodes: frozenset[ActorId]
    edges: dict[tuple[ActorId, ActorId], int] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowedSeries:
    """Per-actor metric vectors on the window grid, with presence flags.

    presence[a][k] is True iff actor a sent or received at least one event
    in window k; value vectors are zero wherever presence is False.
    """

    metric: Metric
    steps: tuple[int, ...]
    values: dict[ActorId, tuple[float, ...]]
    presence: dict[ActorId, tuple[bool, ...]]

    def actors(self) -> list[ActorId]:
        return sorted(self.values)


def window_ends(log: EventLog, cfg: WindowConfig) -> list[int]:
    """Grid window ends covering the log range (see module docstring).

    Raises ConfigError when the last end lies past model.MAX_TIMESTAMP.
    """
    align = log.t_start if cfg.alignment is None else cfg.alignment
    step = cfg.step
    k_min = (log.t_start - align) // step + 1
    k_max = -((align - log.t_end) // step)  # ceil((t_end - align) / step)
    if k_max < k_min:
        k_max = k_min
    if align + k_max * step > MAX_TIMESTAMP:
        raise ConfigError(f"the window grid (step {step}s) ends past 9999-12-31T23:59:59Z")
    return [align + k * step for k in range(k_min, k_max + 1)]


def build_snapshots(
    log: EventLog, cfg: WindowConfig, roster: Iterable[ActorId]
) -> list[GraphSnapshot]:
    """One GraphSnapshot per grid window, with edge multiplicities.

    Events touching actors outside the roster are left out, keeping every
    edge endpoint inside nodes.
    """
    nodes = frozenset(roster)
    stamps = [e.timestamp for e in log.events]
    snapshots = []
    for end in window_ends(log, cfg):
        lo = bisect_right(stamps, end - cfg.window_size)
        hi = bisect_right(stamps, end)
        edges: dict[tuple[ActorId, ActorId], int] = {}
        for e in log.events[lo:hi]:
            if e.sender not in nodes or e.recipient not in nodes:
                continue
            key = (e.sender, e.recipient)
            edges[key] = edges.get(key, 0) + 1
        snapshots.append(GraphSnapshot(window_end=end, nodes=nodes, edges=edges))
    return snapshots


def brandes_betweenness(adjacency: Sequence[Sequence[int]]) -> list[float]:
    """Unnormalized directed betweenness on an integer-labelled simple graph.

    adjacency[v] lists the successors of v. Returns, for each node v, the sum
    over ordered pairs (s, t) with s != v != t of the fraction of shortest
    s->t paths passing through v, accumulated per source in O(V*E) total.
    """
    n = len(adjacency)
    bc = [0.0] * n
    for s in range(n):
        if not adjacency[s]:
            continue  # reaches nothing, contributes nothing
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int] | None] = [None] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]  # visit order and BFS queue: the loop also visits what it appends
        for v in order:
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = next_dist
                    order.append(w)
                    sigma[w] = sigma_v
                    preds[w] = [v]
                elif dist[w] == next_dist:
                    sigma[w] += sigma_v
                    preds[w].append(v)
        delta = [0.0] * n
        # the source is order[0]; it has no predecessors and no score to add
        for w in order[:0:-1]:
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            bc[w] += delta[w]
    return bc


def betweenness(snapshot: GraphSnapshot) -> dict[ActorId, float]:
    """Betweenness per actor for one window; isolated actors score 0."""
    actors = sorted(snapshot.nodes)
    index = {a: i for i, a in enumerate(actors)}
    adjacency: list[list[int]] = [[] for _ in actors]
    for (src, dst), _count in sorted(snapshot.edges.items()):
        adjacency[index[src]].append(index[dst])
    scores = brandes_betweenness(adjacency)
    return {a: scores[index[a]] for a in actors}


def contribution_index(sent: int, received: int) -> float:
    """(sent - received) / (sent + received); 0 for an actor with no events.

    +1 means the actor only sends, -1 only receives, 0 a perfect balance.
    """
    if sent < 0 or received < 0:
        raise ValueError(f"negative counts: sent={sent}, received={received}")
    total = sent + received
    if total == 0:
        return 0.0
    return (sent - received) / total


def series(
    log: EventLog,
    cfg: WindowConfig,
    metric: Metric,
    roster: Iterable[ActorId] | None = None,
) -> WindowedSeries:
    """Per-actor metric time series over the window grid.

    The roster defaults to every actor appearing in the log and is fixed
    across windows, so all vectors share the grid length.
    """
    return series_by_metric(log, cfg, (metric,), roster)[metric]


def series_by_metric(
    log: EventLog,
    cfg: WindowConfig,
    metrics: Sequence[Metric],
    roster: Iterable[ActorId] | None = None,
) -> dict[Metric, WindowedSeries]:
    """series for each of several metrics, from one pass over the grid.

    Each window is built once and yields every requested metric, and only
    those. A window whose set of edges equals the previous window's reuses
    its betweenness: the adjacency is the same, so every float is too.
    """
    for metric in metrics:
        if metric not in ("bc", "ci"):
            raise ConfigError(f"unknown metric {metric!r} (expected 'bc' or 'ci')")
    actors = sorted(log.actors() if roster is None else frozenset(roster))
    snapshots = build_snapshots(log, cfg, actors)
    values: dict[Metric, dict[ActorId, list[float]]] = {
        m: {a: [] for a in actors} for m in metrics
    }
    presence: dict[ActorId, list[bool]] = {a: [] for a in actors}
    prev_edges = None
    scores: dict[ActorId, float] = {}
    for snap in snapshots:
        sent: dict[ActorId, int] = {}
        received: dict[ActorId, int] = {}
        for (src, dst), count in snap.edges.items():
            sent[src] = sent.get(src, 0) + count
            received[dst] = received.get(dst, 0) + count
        for a in actors:
            presence[a].append(a in sent or a in received)
        if "bc" in values:
            if snap.edges.keys() != prev_edges:
                scores = betweenness(snap)
            prev_edges = snap.edges.keys()
            for a, vec in values["bc"].items():
                vec.append(scores[a])
        if "ci" in values:
            for a, vec in values["ci"].items():
                vec.append(contribution_index(sent.get(a, 0), received.get(a, 0)))
    steps = tuple(s.window_end for s in snapshots)
    frozen_presence = {a: tuple(p) for a, p in presence.items()}
    return {
        m: WindowedSeries(
            metric=m,
            steps=steps,
            values={a: tuple(v) for a, v in by_actor.items()},
            presence=frozen_presence,
        )
        for m, by_actor in values.items()
    }
