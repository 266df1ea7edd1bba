"""Independent reference implementations used to cross-check the package.

One reference per quantity. Betweenness: bc_path_enumeration (the
definition), bc_floyd_warshall_batch (path counting over a batch of
graphs, for the exhaustive small-graph sweep), brandes_reference (int path
counts, no depth-1 skip: the kernel's bits) and brandes_exact (that loop
in exact rationals); pair_distances for the scores' global sum. Extrema by
a groupby scan, frame counts by direction-reversal counting, PRT from the
frames that segment_frames builds (prt_from_frames), a team log by a plain
filter over the events (restrict_to_team). validate_events is the
object-based validate_log the columnar one replaced: a sort of
InteractionEvents by (timestamp, sender, recipient). event_log builds an
EventLog from events as given, with no cleaning.

InteractionEvent, the one-object-per-event form the package does not
have, lives here: columns turns a list of them into the EventColumns that
validate_log takes, and events_of reads a log's rows back as them.

The package's views that no command runs live here too: window_ends,
contribution_index and count_extrema, each a direct use of the package's
own pieces. The regularized incomplete beta, by Lentz's continued fraction, is
the reference for stats.p_value's finite series, and t_cdf is built on it.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

import numpy as np

from teamsignals.model import ActorId, EmptyLogError, EventColumns, EventLog, Team
from teamsignals.signals import _ExtremaCounter
from teamsignals.windows import WindowConfig, _grid


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One directed, timestamped communication from a sender to one recipient."""

    sender: ActorId
    recipient: ActorId
    timestamp: int


def columns(events) -> EventColumns:
    """events as EventColumns, rows in the order given, names by first appearance."""
    ids: dict[ActorId, int] = {}
    stamps, senders, recipients = array("q"), array("i"), array("i")
    for e in events:
        stamps.append(e.timestamp)
        senders.append(ids.setdefault(e.sender, len(ids)))
        recipients.append(ids.setdefault(e.recipient, len(ids)))
    return EventColumns(tuple(ids), stamps, senders, recipients)


def events_of(log) -> tuple[InteractionEvent, ...]:
    """An EventLog's (or EventColumns') rows as InteractionEvents, in row order."""
    names = log.names
    return tuple(InteractionEvent(names[s], names[r], t)
                 for t, s, r in zip(log.stamps, log.senders, log.recipients))


EVENT_FIELDS = frozenset({"sender", "recipient", "timestamp"})


@contextmanager
def event_objects_built():
    """Collects, while the block runs, every constructor called with one event's fields.

    Any __init__ or __new__ whose parameters include sender, recipient and
    timestamp builds a per-event object; the yielded list gets its file and line
    on each call. Calls in worker processes are not seen.
    """
    built: list[str] = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__init__", "__new__"):
            params = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]
            if EVENT_FIELDS <= set(params):
                built.append(f"{code.co_filename}:{code.co_firstlineno}")

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield built
    finally:
        threading.setprofile(None)
        sys.setprofile(None)


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


def brandes_exact(adjacency) -> list[Fraction]:
    """The Brandes kernel in exact rationals: int path counts, Fraction dependencies."""
    n = len(adjacency)
    bc = [Fraction(0)] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        order = [s]
        for v in order:
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    order.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [Fraction(0)] * n
        for w in order[:0:-1]:
            for v in preds[w]:
                delta[v] += Fraction(sigma[v], sigma[w]) * (1 + delta[w])
            bc[w] += delta[w]
    return bc


def snap(x) -> float:
    """x to the nearest multiple of 1e-9, as windows._snapped_betweenness rounds a score."""
    return round(x * 10**9) / 1e9


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
    for e in [x for x in events_of(log) if {x.sender, x.recipient} == pair]:
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
    pairs = sorted({tuple(sorted((e.sender, e.recipient))) for e in events_of(log)})
    return [f for a, b in pairs for f in segment_frames(log, a, b) if f.closed]


def prt_from_frames(log, variant: str):
    """PRT from the frame list: the weighted mean of per-responder means, exactly.

    Each responder's mean over its closed frames is a Fraction, weighted by
    the number of events the responder appears in; the weighted mean is
    rounded to a float once. None when no frame closes.
    """
    samples: dict = {}
    for frame in closed_frames(log):
        value = frame.elapsed_time if variant == "et" else frame.event_count
        samples.setdefault(frame.target, []).append(value)
    if not samples:
        return None
    weight: Counter = Counter()
    for e in events_of(log):
        weight[e.sender] += 1
        weight[e.recipient] += 1
    num = sum(Fraction(sum(values), len(values)) * weight[a] for a, values in samples.items())
    return float(num / sum(weight[a] for a in samples))


def event_log(events, t_start: int, t_end: int) -> EventLog:
    """An EventLog of InteractionEvents in the order given, self-loops and duplicates kept.

    Its names are the events' actors, sorted; nothing is sorted or dropped.
    """
    events = list(events)
    names = tuple(sorted({a for e in events for a in (e.sender, e.recipient)}))
    index = {a: i for i, a in enumerate(names)}
    return EventLog(
        names,
        array("q", [e.timestamp for e in events]),
        array("i", [index[e.sender] for e in events]),
        array("i", [index[e.recipient] for e in events]),
        t_start,
        t_end,
    )


def validate_events(raw_events) -> tuple[tuple[InteractionEvent, ...], int, int]:
    """validate_log's object-based form: the clean events, self-loops dropped, duplicates collapsed.

    Sorts InteractionEvents by (timestamp, sender, recipient), drops
    self-loops and keeps the first of equal events. Nothing surviving is not
    an error here.
    """
    key = attrgetter("timestamp", "sender", "recipient")
    deduped: list[InteractionEvent] = []
    dropped = collapsed = 0
    prev = None
    for e in sorted(raw_events, key=key):
        if e.sender == e.recipient:
            dropped += 1
            continue
        k = key(e)
        if k == prev:
            collapsed += 1
            continue
        deduped.append(e)
        prev = k
    return tuple(deduped), dropped, collapsed


def restrict_to_team(log: EventLog, team: Team) -> EventLog:
    """Keep only events whose sender AND recipient are team members.

    The time range is preserved. Raises EmptyLogError when nothing remains.
    """
    kept = [e for e in events_of(log) if e.sender in team.members and e.recipient in team.members]
    if not kept:
        raise EmptyLogError(f"empty team log for team {team.team_id!r}")
    return event_log(kept, log.t_start, log.t_end)


def window_ends(log: EventLog, cfg: WindowConfig) -> list[int]:
    """The grid's window ends as a list; ConfigError past model.MAX_TIMESTAMP.

    The ends are t_start + k*step, for k = 1 (k = 0 when window_size equals
    step) up to the first end at or past t_end.
    """
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
        counter.feed((value,), (present,), (0,))
    return counter.total


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


def t_cdf(t: float, df: int) -> float:
    """Student's t cumulative distribution, P(T <= t) with df degrees."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail
