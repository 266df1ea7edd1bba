"""Sliding-window communication graphs and per-window actor metrics.

Windows live on a fixed step grid: window k covers the half-open interval
``(end_k - window_size, end_k]`` with ``end_k = alignment + k*step``. The
grid is anchored at the log start by default, and windows are emitted for
every end strictly after the log start up to the first end at or past the
log end, so a log spanning 24 h with a 1 h step yields ends at hours 1..24.

Every function here takes a team log (model.restrict_to_team or
model.partition_by_team applies a roster) and numbers that log's own
actors in sorted order. Per-window metrics are betweenness centrality
(directed, unweighted, unnormalized; multi-edges collapse to simple edges)
and the contribution index (sent - received) / (sent + received).

_window_rows, a sliding pass that holds only the current window, is the one
window builder. Each step recomputes presence and the contribution index
only for the actors whose events entered or left, and yields them with the
row; series yields one metric's rows from it, and every consumer takes rows
as they come. build_snapshots and betweenness rebuild the same windows from
scratch, one GraphSnapshot each.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Iterator, Literal, Sequence

from .model import MAX_TIMESTAMP, ActorId, EventLog

Metric = Literal["bc", "ci"]
Columns = tuple[list[int], Sequence[int], Sequence[int]]  # (stamps, us, vs); see _columns


class ConfigError(ValueError):
    """Invalid window or scenario configuration."""


_DURATION_RE = re.compile(r"^\s*(\d+)\s*([smhdw])\s*$", re.IGNORECASE)
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}


def parse_duration(text: str) -> int:
    """Parse "90m", "12h", "7d" style durations into seconds."""
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

    nodes is every actor of the log (those with no event in the window
    included); edges map (sender, recipient) to the event count inside the
    window.
    """

    window_end: int
    nodes: frozenset[ActorId]
    edges: dict[tuple[ActorId, ActorId], int] = field(default_factory=dict)


def _grid(log: EventLog, cfg: WindowConfig) -> range:
    """Grid window ends covering the log range (see module docstring), as a range.

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
    return range(align + k_min * step, align + k_max * step + 1, step)


def build_snapshots(log: EventLog, cfg: WindowConfig) -> list[GraphSnapshot]:
    """One GraphSnapshot per grid window, with edge multiplicities."""
    nodes = log.actors()
    stamps = [e.timestamp for e in log.events]
    snapshots = []
    for end in _grid(log, cfg):
        lo = bisect_right(stamps, end - cfg.window_size)
        hi = bisect_right(stamps, end)
        edges: dict[tuple[ActorId, ActorId], int] = {}
        for e in log.events[lo:hi]:
            key = (e.sender, e.recipient)
            edges[key] = edges.get(key, 0) + 1
        snapshots.append(GraphSnapshot(window_end=end, nodes=nodes, edges=edges))
    return snapshots


_EXACT = 2.0**53  # floats hold every integer below it


def brandes_betweenness(adjacency: Sequence[Sequence[int]]) -> list[float]:
    """Unnormalized directed betweenness on an integer-labelled simple graph.

    adjacency[v] lists the successors of v. Returns, for each node v, the sum
    over ordered pairs (s, t) with s != v != t of the fraction of shortest
    s->t paths passing through v, accumulated per source in O(V*E) total.

    A source whose every successor is a sink or leads only back to it is
    skipped (Baglioni et al., ASONAM 2012): its BFS stops at depth 1, and
    adding its dependencies, all 0.0, to non-negative floats changes no bit.

    The scores are bit for bit those of the int-count Brandes kernel
    (tests/oracles.py): every float operation is the same, in the same
    order. Shortest-path counts are floats while below 2**53, where floats
    hold integers exactly, and ints from there on, so each count converts
    to a double as an int count does. A node with one shortest path passes
    1.0 + delta to its one predecessor, which equals (1.0 + delta) / 1 * 1.
    Adding a 0.0 dependency to a score is left out.
    """
    n = len(adjacency)
    bc = [0.0] * n
    unseen = n + 1  # above every level, so one compare passes over an earlier one
    for s in range(n):
        for w in adjacency[s]:
            after = adjacency[w]
            if after and (len(after) > 1 or after[0] != s):
                break
        else:
            continue  # no successor, or depth 1: contributes nothing
        dist = [unseen] * n
        sigma = [0.0] * n
        first = [0] * n  # each node's first predecessor
        more: list[list[int] | None] = [None] * n  # the rest, for a node with several
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]  # visit order and BFS queue: the loop also visits what it appends
        for v in order:
            successors = adjacency[v]
            if not successors:
                continue  # a sink: nothing to expand
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            for w in successors:
                d = dist[w]
                if d < next_dist:
                    continue
                if d > next_dist:
                    dist[w] = next_dist
                    order.append(w)
                    sigma[w] = sigma_v
                    first[w] = v
                else:
                    count = sigma[w] + sigma_v
                    if count >= _EXACT:  # may be rounded: add exactly, as ints
                        count = int(sigma[w]) + int(sigma_v)
                    sigma[w] = count
                    others = more[w]
                    if others is None:
                        more[w] = [v]
                    else:
                        others.append(v)
        delta = [0.0] * n
        # the source is order[0]; it has no predecessors and no score to add
        for w in order[:0:-1]:
            sigma_w = sigma[w]
            delta_w = delta[w]
            v = first[w]
            if sigma_w == 1.0:
                delta[v] += 1.0 + delta_w
            else:
                coeff = (1.0 + delta_w) / sigma_w
                delta[v] += sigma[v] * coeff
                others = more[w]
                if others is not None:
                    for v in others:
                        delta[v] += sigma[v] * coeff
            if delta_w:
                bc[w] += delta_w
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


def series(
    log: EventLog, cfg: WindowConfig, metric: Metric
) -> Iterator[tuple[int, list[bool], list[float]]]:
    """Yield _window_rows' (end, presence, values) rows of one metric for a team log.

    Rows are indexed like the log's actors in sorted order and must not be
    modified. presence[i] is True iff actor i sent or received in the
    window; values are 0 where it is False. An unknown metric or a grid
    past model.MAX_TIMESTAMP raises ConfigError at the call, before any row.
    """
    if metric not in ("bc", "ci"):
        raise ConfigError(f"unknown metric {metric!r} (expected 'bc' or 'ci')")
    _grid(log, cfg)  # its ConfigError, now rather than at the first row
    actors, columns = _columns(log)
    rows = _window_rows(log, cfg, columns, len(actors), metric == "bc")
    if metric == "bc":
        return ((end, presence, bc) for end, presence, bc, _ci, _moved in rows)
    return ((end, presence, ci) for end, presence, _bc, ci, _moved in rows)


def _columns(log: EventLog) -> tuple[list[ActorId], Columns]:
    """The log's actors, sorted, and its events in log order as ints indexing them."""
    actors = sorted(log.actors())
    index = {a: i for i, a in enumerate(actors)}
    stamps, us, vs = [], array("i"), array("i")  # 4-byte ints: held at team_signals' memory peak
    for e in log.events:
        stamps.append(e.timestamp)
        us.append(index[e.sender])
        vs.append(index[e.recipient])
    return actors, (stamps, us, vs)


def _window_rows(
    log: EventLog, cfg: WindowConfig, columns: Columns, n: int, want_bc: bool
) -> Iterator[tuple[int, list[bool], list[float], list[float], set[int]]]:
    """Yield (end, presence, bc, ci, moved) rows, indexed like the actors, per grid window.

    columns and its n actors are _columns(log). Each
    event enters and leaves the window state once: an edge multiset keyed
    u * n + v and sent and received counts, which give presence and the
    contribution index. Only the actors of the events that entered or left,
    moved, can differ from the previous row: a copy of it gets theirs. Only
    changed edges touch the sorted successor lists (betweenness(snapshot)'s
    adjacency) before betweenness is recomputed. An unchanged row, or
    recomputed scores equal to the last ones, is yielded again as the same
    object. With want_bc False the bc row stays zero. Callers must not
    modify rows.
    """
    stamps, us, vs = columns
    edges: dict[int, int] = {}  # u * n + v -> events in the window
    sent = [0] * n
    received = [0] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]  # sorted successor lists
    toggled: set[int] = set()  # want_bc only: keys whose presence flipped since the last call
    # the rows of a window with no events; betweenness of the edgeless graph
    presence_row = [False] * n
    ci_row = [0.0] * n
    scores = [0.0] * n
    n_events = len(stamps)
    size = cfg.window_size
    lo = hi = 0
    for end in _grid(log, cfg):
        moved: set[int] = set()
        while hi < n_events and stamps[hi] <= end:
            u, v = us[hi], vs[hi]
            key = u * n + v
            count = edges.get(key, 0)
            if not count and want_bc:
                toggled ^= {key}  # an entry and an exit within one step cancel
            edges[key] = count + 1
            sent[u] += 1
            received[v] += 1
            moved.add(u)
            moved.add(v)
            hi += 1
        while lo < hi and stamps[lo] <= end - size:
            u, v = us[lo], vs[lo]
            key = u * n + v
            count = edges[key] - 1
            if count:
                edges[key] = count
            else:
                del edges[key]
                if want_bc:
                    toggled ^= {key}
            sent[u] -= 1
            received[v] -= 1
            moved.add(u)
            moved.add(v)
            lo += 1
        if moved:
            presence_row = presence_row.copy()
            ci_row = ci_row.copy()
            for i in moved:  # the contribution index; 0 for an actor with no events
                s, r = sent[i], received[i]
                presence_row[i] = s + r > 0
                ci_row[i] = (s - r) / (s + r) if s + r else 0.0
        if toggled:
            for key in toggled:
                u, v = divmod(key, n)
                if key in edges:
                    insort(adjacency[u], v)
                else:
                    adjacency[u].remove(v)
            toggled.clear()
            fresh = brandes_betweenness(adjacency)
            if fresh != scores:  # scores are never -0.0 or NaN, so equal means the same bits
                scores = fresh
        yield end, presence_row, scores, ci_row, moved
