"""The three longitudinal team signals: RL, RC and prompt response time.

Rotating Leadership (RL) and Rotating Contribution (RC) count local extrema in
each actor's windowed betweenness / contribution-index series and average the
counts over the team. Prompt Response Time (PRT) segments each actor pair's
event stream into communication frames and aggregates per-responder frame
statistics into a communication-weighted team mean, exact and rounded once. A
frame is a run of messages from one actor of a pair to the other, up to the
other's reply: the reply closes it, as its last event, and opens the next
frame in the opposite direction. Events within one second are in sender-name,
then recipient-name order, so when both actors of a pair send in one second,
the names decide which one replies. Every signal is computed from a team log,
the events model.restrict_to_team or model.partition_by_team kept for a
roster, over that log's own actors. team_signals gets all of them from the
team log's int columns as they are: PRT groups the row numbers in buckets
under each pair's lower id and keeps integer frame state for one bucket at
a time, and each window step judges RL and RC only for the actors the
window pass names as changed.
"""

from __future__ import annotations

import math
from array import array
from itertools import count
from typing import Iterable, NamedTuple, Sequence

from .model import EventLog
from .windows import WindowConfig, _window_rows

# Shortest present run that can hold an extremum: an interior point needs a
# neighbor on each side. A shorter grid makes RL and RC 0 (the CLI warns).
MIN_PRESENCE_RUN = 3


class TeamSignals(NamedTuple):
    """All four computed signals for one team, with the counts behind them.

    prt_et is in seconds; prt_et/prt_fn are None exactly when the team has
    no closed frames. n_actors and n_events count the team log's actors and events.
    An immutable typing.NamedTuple, so it pickles as a tuple for the --jobs
    pool; ``sig._replace(rl=...)`` is a copy with a changed field.
    """

    rl: float
    rc: float
    prt_et: float | None
    prt_fn: float | None
    n_actors: int
    n_events: int
    n_closed_frames: int


class _ExtremaCounter:
    """Strict local extrema of n actors' series, fed one window row at a time.

    Per actor it keeps the last distinct value of the current present run
    (None while absent) and the distinct value before it, so a point is
    judged once its right neighbor arrives: an extremum if it lies strictly
    above or below both neighbors. Equal consecutive values are one point,
    run endpoints never count, and an absent window ends the run. Feeding
    an actor its last presence and value changes nothing, so feed judges
    just the actors it is given. total is the sum of the actors' counts.
    """

    def __init__(self, n: int) -> None:
        self.prev: list[float | None] = [None] * n
        self.last: list[float | None] = [None] * n
        self.total = 0

    def feed(self, values: Sequence[float], presence: Sequence[bool], actors: Iterable[int]) -> None:
        """Judge each actor in actors; the others' presence and value must be as last fed."""
        prev, last = self.prev, self.last
        total = self.total
        for i in actors:
            if not presence[i]:
                last[i] = prev[i] = None
                continue
            v = values[i]
            b = last[i]
            if b is None:
                last[i] = v
            elif v != b:
                a = prev[i]
                if a is not None and (a < b > v or a > b < v):
                    total += 1
                prev[i] = b
                last[i] = v
        self.total = total


def rotating_signal(rows: Iterable[tuple[int, Sequence[bool], Sequence[float]]]) -> float:
    """Mean per-actor extrema count over the actors of windows.series rows (RL or RC)."""
    counter = None
    for _end, presence, values in rows:
        if counter is None:
            counter = _ExtremaCounter(len(presence))
        counter.feed(values, presence, range(len(presence)))
    if counter is None or not counter.last:
        raise ValueError("series has no actors")
    return counter.total / len(counter.last)


def prompt_response_time(log: EventLog) -> tuple[float | None, float | None, int]:
    """PRT-ET, PRT-FN and the closed-frame count of a team log.

    An actor's RCF is the mean elapsed seconds (ET) or event count (FN) of the
    frames it closed by replying; each PRT weights the RCFs by the events each
    actor is in, over the actors with one, and is None when no frame closed.
    The first of two integer passes puts each row number, in log order, in an
    array("i") bucket under its pair's lower actor id. The second walks the
    buckets one at a time, keeping per pair of bucket a, keyed by its other
    actor, the open frame's sender, first stamp and event count, cleared for
    the next bucket: it holds 4 bytes a row and one actor's open frames at
    once. Per index it counts the events w it appears in, and per responder its
    closed frames F and their summed elapsed times or event counts S. Each
    mean, sum(w * S / F) / sum(w), is summed exactly in integers over the lcm
    of the Fs and rounded once, so no order of the responders enters it.
    """
    stamps, us, vs = log.stamps, log.senders, log.recipients
    n = len(log.names)
    weight, elapsed, events, frames = [0] * n, [0] * n, [0] * n, [0] * n
    buckets = [array("i") for _ in range(n)]
    for i, u, v in zip(count(), us, vs):
        buckets[u if u < v else v].append(i)
    # other actor -> (sender, first stamp, events); tuples, as lists take a third more memory
    open_frames: dict[int, tuple[int, int, int]] = {}
    for a, rows in enumerate(buckets):
        open_frames.clear()
        weight[a] += len(rows)
        for i in rows:
            t, u = stamps[i], us[i]
            key = vs[i] if u == a else u  # a self-loop's key is a, its sender: it closes no frame
            weight[key] += 1
            frame = open_frames.get(key)
            if frame is None or frame[0] == u:
                open_frames[key] = (u, t, 1) if frame is None else (u, frame[1], frame[2] + 1)
                continue
            # u replies: closes the open frame and opens the next one
            elapsed[u] += t - frame[1]
            events[u] += frame[2] + 1
            frames[u] += 1
            open_frames[key] = (u, t, 1)
    n_closed = sum(frames)
    if not n_closed:
        return None, None, 0
    lcm = math.lcm(*filter(None, frames))
    # responder -> w * lcm / F: each mean is sum(S * scale) / (lcm * sum(w))
    scale = {u: weight[u] * (lcm // f) for u, f in enumerate(frames) if f}
    den = lcm * sum(weight[u] for u in scale)
    prt_et = sum(elapsed[u] * k for u, k in scale.items()) / den
    return prt_et, sum(events[u] * k for u, k in scale.items()) / den, n_closed


def team_signals(team_log: EventLog, cfg: WindowConfig) -> TeamSignals:
    """Full per-team signal computation: RL, RC and both PRT variants.

    team_log holds one team's events: the whole log, or the result of
    model.restrict_to_team / model.partition_by_team for a roster.
    prompt_response_time gives both PRT variants and the closed-frame count
    and drops its buckets before the grid pass, whose window rows feed the
    RL and RC extrema counters as they are made: only the current window is
    held, and only a row's changed actors are judged.
    """
    n = len(team_log.names)
    prt_et, prt_fn, n_closed = prompt_response_time(team_log)
    rl, rc = _ExtremaCounter(n), _ExtremaCounter(n)
    for _end, presence, bc_row, ci_row, changed in _window_rows(team_log, cfg, True):
        if changed:
            rl.feed(bc_row, presence, changed)
            rc.feed(ci_row, presence, changed)
    return TeamSignals(rl=rl.total / n, rc=rc.total / n, prt_et=prt_et, prt_fn=prt_fn,
                       n_actors=n, n_events=len(team_log.stamps), n_closed_frames=n_closed)
