"""Independent reference implementations used to cross-check the package.

Betweenness is recomputed from literal path enumeration, from a
Floyd-Warshall path-counting scheme and by the Brandes loop with int path
counts and no depth-1 skip; extrema by a groupby scan, frame counts by
direction-reversal counting; PRT from the list of per-pair frames that
segment_frames builds one CommunicationFrame at a time; a team log by a
plain filter over the events.

The package's views that no command runs live here too: window_ends,
contribution_index, count_extrema and t_cdf, each a direct use of the
package's own pieces.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from teamsignals.model import ActorId, EmptyLogError, EventLog, Team
from teamsignals.signals import _ExtremaCounter
from teamsignals.stats import regularized_incomplete_beta
from teamsignals.windows import WindowConfig, _grid


def bc_path_enumeration(n: int, edges: set[tuple[int, int]]) -> list[float]:
    """Betweenness by enumerating every simple path and keeping the shortest."""
    adj = [[] for _ in range(n)]
    for i, j in sorted(edges):
        adj[i].append(j)
    bc = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths: list[tuple[int, ...]] = []
            stack: list[tuple[int, tuple[int, ...]]] = [(s, (s,))]
            while stack:
                v, path = stack.pop()
                if v == t:
                    paths.append(path)
                    continue
                for w in adj[v]:
                    if w not in path:
                        stack.append((w, path + (w,)))
            if not paths:
                continue
            shortest_len = min(len(p) for p in paths)
            shortest = [p for p in paths if len(p) == shortest_len]
            share = 1.0 / len(shortest)
            for p in shortest:
                for v in p[1:-1]:
                    bc[v] += share
    return bc


def bc_floyd_warshall_batch(adj: np.ndarray) -> np.ndarray:
    """Betweenness for a whole batch of graphs at once.

    adj is a (G, n, n) boolean array. Distances come from Floyd-Warshall,
    shortest-path counts from a path-length DP, and per-node scores from the
    sigma(s,v)*sigma(v,t) decomposition; no Brandes-style accumulation.
    """
    g, n, _ = adj.shape
    dist = np.where(adj, 1.0, np.inf)
    diag = np.arange(n)
    dist[:, diag, diag] = 0.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, :, k, None] + dist[:, k, None, :])
    counts = adj.astype(np.float64)
    power = counts.copy()
    sigma = np.where(dist == 1.0, power, 0.0)
    for length in range(2, n):
        power = power @ counts
        sigma = np.where(dist == length, power, sigma)
    bc = np.zeros((g, n))
    offdiag = ~np.eye(n, dtype=bool)
    safe_sigma = np.where(sigma > 0, sigma, 1.0)
    for v in range(n):
        on_path = dist[:, :, v, None] + dist[:, v, None, :] == dist
        through = sigma[:, :, v, None] * sigma[:, v, None, :]
        ok = on_path & (sigma > 0) & offdiag
        ok[:, v, :] = False
        ok[:, :, v] = False
        bc[:, v] = np.where(ok, through / safe_sigma, 0.0).sum(axis=(1, 2))
    return bc


def bc_floyd_warshall(n: int, edges: set[tuple[int, int]]) -> list[float]:
    adj = np.zeros((1, n, n), dtype=bool)
    for i, j in edges:
        adj[0, i, j] = True
    return list(bc_floyd_warshall_batch(adj)[0])


def pair_distances(n: int, edges: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """BFS hop counts for every ordered reachable pair, s != t."""
    adj = [[] for _ in range(n)]
    for i, j in sorted(edges):
        adj[i].append(j)
    out: dict[tuple[int, int], int] = {}
    for s in range(n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for t, d in dist.items():
            if t != s:
                out[(s, t)] = d
    return out


def extrema_scan(values, presence, min_run: int = 3) -> int:
    """Strict interior extrema per present run, plateaus compressed."""
    total = 0
    indices = range(len(values))
    for present, group in itertools.groupby(indices, key=lambda i: presence[i]):
        members = list(group)
        if not present or len(members) < min_run:
            continue
        compressed = [key for key, _ in itertools.groupby(values[members[0]:members[-1] + 1])]
        for i in range(1, len(compressed) - 1):
            left, mid, right = compressed[i - 1], compressed[i], compressed[i + 1]
            if (mid > left and mid > right) or (mid < left and mid < right):
                total += 1
    return total


def reversal_count(senders: list) -> int:
    """Events that reverse the direction of the previous event in a pair stream."""
    return sum(1 for i in range(1, len(senders)) if senders[i] != senders[i - 1])


def brandes_reference(adjacency) -> list[float]:
    """The int-count Brandes kernel, every source with a successor: no depth-1 skip.

    windows.brandes_betweenness must give the same bits.
    """
    n = len(adjacency)
    bc = [0.0] * n
    for s in range(n):
        if not adjacency[s]:
            continue
        dist = [-1] * n
        sigma = [0] * n
        preds = [None] * n
        dist[s] = 0
        sigma[s] = 1
        order = [s]
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
        for w in order[:0:-1]:
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            bc[w] += delta[w]
    return bc


@dataclass(frozen=True)
class CommunicationFrame:
    """A run of messages from source to target, up to the target's reply.

    The reply both closes the open frame (as its final event) and opens the
    next frame in the opposite direction, so a closed frame always has at
    least two events. The trailing frame of a pair stays open.
    """

    source: ActorId
    target: ActorId
    first_event: int
    last_event: int
    event_count: int
    closed: bool

    @property
    def elapsed_time(self) -> int:
        """Seconds from the frame's first to its last event."""
        return self.last_event - self.first_event


def segment_frames(log: EventLog, a: ActorId, b: ActorId) -> list[CommunicationFrame]:
    """All communication frames for the unordered actor pair {a, b}, in time order."""
    pair = {a, b}
    frames: list[CommunicationFrame] = []
    src = dst = None
    first = last = count = 0
    for e in [x for x in log.events if {x.sender, x.recipient} == pair]:
        if src is not None and e.sender != src:
            # reply: closes the open frame and opens the next one
            frames.append(CommunicationFrame(src, dst, first, e.timestamp, count + 1, closed=True))
        if src is None or e.sender != src:  # the first event or a reply opens a frame
            src, dst, first, count = e.sender, e.recipient, e.timestamp, 0
        last = e.timestamp
        count += 1
    if src is not None:
        frames.append(CommunicationFrame(src, dst, first, last, count, closed=False))
    return frames


def closed_frames(log) -> list:
    """Closed frames of every actor pair, from segment_frames, pairs in sorted order."""
    pairs = sorted({tuple(sorted((e.sender, e.recipient))) for e in log.events})
    return [f for a, b in pairs for f in segment_frames(log, a, b) if f.closed]


def prt_from_frames(log, variant: str):
    """PRT from the frame list: per-responder means in first-closed-frame order.

    Each responder's mean is a left-to-right float sum over its closed
    frames; the weighted mean then sums value * weight left to right, in the
    order the responders first close a frame, with weight the number of
    events the responder appears in. None when no frame closes.
    """
    samples: dict = {}
    for frame in closed_frames(log):
        value = frame.elapsed_time if variant == "et" else frame.event_count
        samples.setdefault(frame.target, []).append(float(value))
    if not samples:
        return None
    weight: Counter = Counter()
    for e in log.events:
        weight[e.sender] += 1
        weight[e.recipient] += 1
    num = 0.0
    for actor, values in samples.items():
        total = 0.0
        for value in values:
            total += value
        num += total / len(values) * weight[actor]
    return num / sum(weight[a] for a in samples)


def restrict_to_team(log: EventLog, team: Team) -> EventLog:
    """Keep only events whose sender AND recipient are team members.

    With an empty member set the log is returned unchanged; the time range
    is preserved either way. Raises EmptyLogError when nothing remains.
    """
    if not team.members:
        return log
    kept = tuple(
        e for e in log.events if e.sender in team.members and e.recipient in team.members
    )
    if not kept:
        raise EmptyLogError(f"empty team log for team {team.team_id!r}")
    return EventLog(events=kept, t_start=log.t_start, t_end=log.t_end)


def window_ends(log: EventLog, cfg: WindowConfig) -> list[int]:
    """The grid's window ends as a list; ConfigError past model.MAX_TIMESTAMP."""
    return list(_grid(log, cfg))


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


def count_extrema(values, presence) -> int:
    """The package's extrema counter run over one actor's series.

    Each maximal contiguous present run is scanned separately: consecutive
    equal values are compressed to one point, then interior points strictly
    above (or below) both neighbors are counted. Run endpoints never count.
    """
    if len(values) != len(presence):
        raise ValueError(f"length mismatch: {len(values)} values vs {len(presence)} presence")
    counter = _ExtremaCounter(1)
    for value, present in zip(values, presence):
        counter.feed((value,), (present,))
    return counter.total


def t_cdf(t: float, df: int) -> float:
    """Student's t cumulative distribution, P(T <= t) with df degrees."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail
