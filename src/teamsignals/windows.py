"""Sliding-window communication graphs and per-window actor metrics.

Windows form a fixed grid anchored at the log's range start: window k
covers ``(end_k - window_size, end_k]`` with ``end_k = t_start + k * step``,
for k = 1 up to the first end at or past t_end, so a log spanning 24 h
with a 12 h window and a 1 h step has ends at hours 1..24. When
window_size equals step (``--window 1h --step 1h``), k starts at 0, so
the windows tile the range and an event stamped at t_start lies in the
first window. A team log keeps the full log's range, so every team of a
log shares one grid.

Every function here takes a team log (model.restrict_to_team or
model.partition_by_team applies a roster) and reads its columns as they
are: the log's actors are numbered in sorted order, and the window pass
reads each row's stamp and sender and recipient ids with no decoding.
Per-window metrics are betweenness centrality (directed, unweighted,
unnormalized; multi-edges collapse to simple edges) and the contribution
index (sent - received) / (sent + received).

Every window's betweenness scores are computed exactly, in integers, and
snapped to the nearest multiple of 1e-9 (brandes_betweenness), so equal
true scores are equal floats whatever the actor names, and the extrema rule
compares scores exactly. A snapped score that lands on a 6-decimal
half-point prints rounded by its binary value, which may differ in the
sixth decimal from the exact score rounded.

_window_rows, a sliding pass that holds only the current window, is the one
window builder. Each step recomputes presence and the contribution index
only for the actors whose events entered or left, and yields with the row
the actors whose values changed; series yields one metric's rows from it,
and every consumer takes rows as they come. build_snapshots and
betweenness rebuild the same windows from scratch, one GraphSnapshot each.
"""

from __future__ import annotations

import re
from bisect import bisect_right, insort
from math import gcd
from typing import Collection, Iterator, Literal, NamedTuple, Sequence

from .ingest import _echo
from .model import MAX_TIMESTAMP, ActorId, EventLog

Metric = Literal["bc", "ci"]


class ConfigError(ValueError):
    """Invalid window or scenario configuration."""


# ASCII digits and units only: \d takes non-ASCII digits, which int() reads,
# and a case-blind [smhdw] takes the long s "ſ".
_DURATION_RE = re.compile(r"^\s*([0-9]+)\s*([smhdwSMHDW])\s*$")
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
# int()'s default limit; past it, int() refuses in words that vary by version
_DURATION_DIGITS = 4300


def parse_duration(text: str) -> int:
    """Parse "90m", "12h", "7d" style durations into seconds."""
    m = _DURATION_RE.match(text)
    if not m:
        raise ConfigError(f"cannot parse duration {_echo(text)} (use e.g. 45s, 90m, 12h, 7d)")
    count = m.group(1).lstrip("0")  # int() counts leading zeros toward its limit
    if len(count) > _DURATION_DIGITS:
        raise ConfigError(f"duration {_echo(text)} has more than {_DURATION_DIGITS} digits")
    return int(count or "0") * _DURATION_UNITS[m.group(2).lower()]


class _WindowConfig(NamedTuple):
    window_size: int
    step: int


class WindowConfig(_WindowConfig):
    """Window length and step in seconds.

    step must not exceed window_size: windows tile or overlap, never gap.
    Like every record here it is an immutable typing.NamedTuple; a copy with
    a changed field is ``cfg._replace(step=...)``, checked as a new one is.
    """

    __slots__ = ()

    def __new__(cls, window_size: int, step: int) -> WindowConfig:
        if window_size <= 0:
            raise ConfigError(f"window_size must be positive, got {window_size}")
        if step <= 0:
            raise ConfigError(f"step must be positive, got {step}")
        if step > window_size:
            raise ConfigError(f"step ({step}) larger than window_size ({window_size}) leaves gaps")
        return super().__new__(cls, window_size, step)

    @classmethod
    def _make(cls, iterable) -> WindowConfig:  # _replace builds its copy here: check it too
        return cls(*iterable)


class GraphSnapshot(NamedTuple):
    """Directed communication graph for one window.

    nodes is every actor of the log (those with no event in the window
    included); edges map (sender, recipient) to the event count inside the
    window.
    """

    window_end: int
    nodes: frozenset[ActorId]
    edges: dict[tuple[ActorId, ActorId], int]


def _grid(log: EventLog, cfg: WindowConfig) -> range:
    """Window ends t_start + k*step, from k = 1 to the first end at or past t_end, as a range.

    k starts at 0 when window_size equals step, so no event at t_start is
    left out. Raises ConfigError when the last end lies past
    model.MAX_TIMESTAMP.
    """
    step = cfg.step
    first = log.t_start if cfg.window_size == step else log.t_start + step
    last = max(first, log.t_start - (log.t_start - log.t_end) // step * step)  # ceil to the grid
    if last > MAX_TIMESTAMP:
        raise ConfigError(f"the window grid (step {step}s) ends past 9999-12-31T23:59:59Z")
    return range(first, last + 1, step)


def build_snapshots(log: EventLog, cfg: WindowConfig) -> list[GraphSnapshot]:
    """One GraphSnapshot per grid window, with edge multiplicities."""
    names = log.names
    nodes = frozenset(names)
    snapshots = []
    for end in _grid(log, cfg):
        lo = bisect_right(log.stamps, end - cfg.window_size)
        hi = bisect_right(log.stamps, end)
        edges: dict[tuple[ActorId, ActorId], int] = {}
        for u, v in zip(log.senders[lo:hi], log.recipients[lo:hi]):
            key = (names[u], names[v])
            edges[key] = edges.get(key, 0) + 1
        snapshots.append(GraphSnapshot(window_end=end, nodes=nodes, edges=edges))
    return snapshots


def brandes_betweenness(adjacency: Sequence[Sequence[int]]) -> list[float]:
    """Unnormalized directed betweenness on an integer-labelled simple graph, snapped to 1e-9.

    adjacency[v] lists the successors of v. Returns, for each node v, the sum
    over ordered pairs (s, t) with s != v != t of the fraction of shortest
    s->t paths passing through v, accumulated per source in O(V*E) total
    (Brandes, J. Math. Sociol. 2001), rounded half to even to the nearest
    multiple of 1e-9. A source whose every successor is a sink or leads only
    back to it is skipped (Baglioni et al., ASONAM 2012): its BFS stops at
    depth 1 and it adds nothing.

    The arithmetic is exact, in integers. Path counts sigma are ints; each
    score is held as num[v] / den over one common denominator, and per source
    g[w] = delta(w) * den / sigma[w], so a predecessor of w gains
    den // sigma[w] + g[w] and w's score gains sigma[w] * g[w]. den grows,
    with num and g, only when a count does not divide it. The snap rounds
    num * 10**9 / den by divmod, so no labelling of the nodes can move a
    score, and a score of 0 is 0.0, never -0.0.
    """
    n = len(adjacency)
    num = [0] * n
    den = 1
    unseen = n + 1  # above every level, so one compare passes over an earlier one
    for s in range(n):
        for w in adjacency[s]:
            after = adjacency[w]
            if after and (len(after) > 1 or after[0] != s):
                break
        else:
            continue  # no successor, or depth 1: contributes nothing
        dist = [unseen] * n
        sigma = [0] * n
        first = [0] * n  # each node's first predecessor
        more: list[list[int] | None] = [None] * n  # the rest, for a node with several
        dist[s] = 0
        sigma[s] = 1
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
                    sigma[w] += sigma_v
                    others = more[w]
                    if others is None:
                        more[w] = [v]
                    else:
                        others.append(v)
        g = [0] * n
        # the source is order[0]; it has no predecessors and no score to add
        for w in order[:0:-1]:
            sigma_w = sigma[w]
            g_w = g[w]  # 0 on a node that lies on no shortest path: no score to add
            if sigma_w == 1:  # one predecessor, den // 1 == den
                g[first[w]] += den + g_w
                if g_w:
                    num[w] += g_w
                continue
            if den % sigma_w:
                scale = sigma_w // gcd(den, sigma_w)
                den *= scale
                num = [x * scale for x in num]
                g = [x * scale for x in g]
                g_w *= scale
            gain = den // sigma_w + g_w
            g[first[w]] += gain
            others = more[w]
            if others is not None:
                for v in others:
                    g[v] += gain
            if g_w:
                num[w] += sigma_w * g_w
    scores = [0.0] * n
    for v, x in enumerate(num):
        if x:
            q, r = divmod(x * 1_000_000_000, den)
            if 2 * r > den or (2 * r == den and q & 1):
                q += 1
            scores[v] = q / 1e9  # 1e9 is exact in binary
    return scores


def betweenness(snapshot: GraphSnapshot) -> dict[ActorId, float]:
    """Snapped betweenness per actor for one window; isolated actors score 0."""
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

    Rows are indexed like log.names, the log's actors in sorted order, and
    must not be modified. presence[i] is True iff actor i sent or received
    in the window; values are 0 where it is False. An unknown metric or a grid
    past model.MAX_TIMESTAMP raises ConfigError at the call, before any row.
    """
    if metric not in ("bc", "ci"):
        raise ConfigError(f"unknown metric {metric!r} (expected 'bc' or 'ci')")
    _grid(log, cfg)  # its ConfigError, now rather than at the first row
    rows = _window_rows(log, cfg, metric == "bc")
    if metric == "bc":
        return ((end, presence, bc) for end, presence, bc, _ci, _changed in rows)
    return ((end, presence, ci) for end, presence, _bc, ci, _changed in rows)


def _window_rows(
    log: EventLog, cfg: WindowConfig, want_bc: bool
) -> Iterator[tuple[int, list[bool], list[float], list[float], Collection[int]]]:
    """Yield (end, presence, bc, ci, changed) rows, indexed like log.names, per grid window.

    Each event enters and leaves the window state once: an edge multiset
    keyed u * n + v, sent and received counts, which give presence and the
    contribution index, and sorted successor lists (betweenness(snapshot)'s
    adjacency), which an edge joins or leaves as its count leaves or reaches
    0. As step <= window_size, an event that leaves entered in an earlier
    step, so an edge's count crosses 0 at most once a step. changed is the
    actors of the events that entered or left, the only ones whose presence
    and ci a copy of the previous row updates, or every actor when
    betweenness is recomputed and differs. An unchanged row, or equal scores,
    is yielded again as the same object. With want_bc False the bc row stays
    zero. Callers must not modify rows.
    """
    stamps, us, vs = log.stamps, log.senders, log.recipients
    n = len(log.names)
    edges: dict[int, int] = {}  # u * n + v -> events in the window
    sent = [0] * n
    received = [0] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]  # sorted successor lists
    # the rows of a window with no events; betweenness of the edgeless graph
    presence_row = [False] * n
    ci_row = [0.0] * n
    scores = [0.0] * n
    n_events = len(stamps)
    size = cfg.window_size
    lo = hi = 0
    for end in _grid(log, cfg):
        moved: set[int] = set()
        stale = False  # want_bc only: an edge came or went in this step
        while hi < n_events and stamps[hi] <= end:
            u, v = us[hi], vs[hi]
            key = u * n + v
            count = edges.get(key, 0)
            if not count and want_bc:
                insort(adjacency[u], v)
                stale = True
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
                    adjacency[u].remove(v)
                    stale = True
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
        changed: Collection[int] = moved
        if stale:
            fresh = brandes_betweenness(adjacency)
            if fresh != scores:  # scores are never -0.0 or NaN, so equal means the same bits
                scores = fresh
                changed = range(n)
        yield end, presence_row, scores, ci_row, changed
