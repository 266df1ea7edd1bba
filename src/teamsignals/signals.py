"""The three longitudinal team signals: RL, RC and prompt response time.

Rotating Leadership (RL) and Rotating Contribution (RC) count local extrema
in each actor's windowed betweenness / contribution-index series and average
the counts over the team. Prompt Response Time (PRT) segments each actor
pair's event stream into communication frames and aggregates per-responder
frame statistics into a communication-weighted team mean. A frame is a run
of messages from one actor of a pair to the other, up to the other's reply:
the reply closes it, as its last event, and opens the next frame in the
opposite direction. Every signal is computed from a team log, the events
model.restrict_to_team or model.partition_by_team kept for a roster, over
that log's own actors. team_signals gets all of them from the team log's
int columns as they are: PRT is one pass over them with integer state, and
each window step judges RL and RC only for the actors its events moved (RL
for every actor when betweenness changed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .model import EventLog
from .windows import WindowConfig, _window_rows

ResponseVariant = Literal["et", "fn"]

# Shortest present run that can hold an extremum: an interior point needs a
# neighbor on each side. A shorter grid makes RL and RC 0 (the CLI warns).
MIN_PRESENCE_RUN = 3


@dataclass(frozen=True)
class TeamSignals:
    """All four computed signals for one team.

    prt_et is in seconds; prt_et/prt_fn are None exactly when the team has
    no closed frames.
    """

    rl: float
    rc: float
    prt_et: float | None
    prt_fn: float | None
    n_actors: int
    n_closed_frames: int


class _ExtremaCounter:
    """Strict local extrema of n actors' series, fed one window row at a time.

    Per actor it keeps the last distinct value of the current present run
    (None while absent) and the distinct value before it, so a point is
    judged once its right neighbor arrives: an extremum if it lies strictly
    above or below both neighbors. Equal consecutive values are one point,
    run endpoints never count, and an absent window ends the run. Feeding
    an actor its last presence and value changes nothing, so feed may judge
    only the actors that moved. total is the sum of the actors' counts.
    """

    def __init__(self, n: int) -> None:
        self.prev: list[float | None] = [None] * n
        self.last: list[float | None] = [None] * n
        self.total = 0

    def feed(
        self, values: Sequence[float], presence: Sequence[bool], actors: Iterable[int] | None = None
    ) -> None:
        """Judge each actor in actors (all by default); the rest must be as last fed."""
        prev, last = self.prev, self.last
        total = self.total
        for i in range(len(presence)) if actors is None else actors:
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
        counter.feed(values, presence)
    if counter is None or not counter.last:
        raise ValueError("series has no actors")
    return counter.total / len(counter.last)


def _sum_left(values: Iterable[float]) -> float:
    """Float sum in plain left-to-right order, the same on every Python.

    From Python 3.12 the built-in sum() compensates float rounding, so its
    result can differ from 3.10/3.11 in the last bit (sum([0.1] * 10)).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _response_sums(log: EventLog) -> tuple[dict, dict, Counter, int]:
    """RCF "et" and "fn" by actor id, event weights and closed frames, in one pass.

    With n the number of the log's actors, per pair key u * n + v (u < v)
    the pass keeps the open frame's sender, first stamp and event count; per
    responder, integer sums. The RCF dicts are in
    _weighted_mean's float order: each responder's first closed frame by
    (pair key, time), as a pair-by-pair segmentation meets them. An integer
    sum equals a float sum of its terms while below 2**53.
    """
    stamps, us, vs = log.stamps, log.senders, log.recipients
    n, m = len(log.names), len(stamps)
    elapsed, events, frames = [0] * n, [0] * n, [0] * n
    first = [0] * n  # pair key * m + event number of each responder's first closed frame
    # pair key -> (sender, first stamp, events); tuples, as lists take a third more memory
    open_frames: dict[int, tuple[int, int, int]] = {}
    for i, (t, u, v) in enumerate(zip(stamps, us, vs)):
        key = u * n + v if u < v else v * n + u
        frame = open_frames.get(key)
        if frame is None or frame[0] == u:
            open_frames[key] = (u, t, 1) if frame is None else (u, frame[1], frame[2] + 1)
            continue
        # u replies: closes the open frame and opens the next one
        elapsed[u] += t - frame[1]
        events[u] += frame[2] + 1
        if not frames[u] or key * m + i < first[u]:
            first[u] = key * m + i
        frames[u] += 1
        open_frames[key] = (u, t, 1)
    order = sorted((u for u in range(n) if frames[u]), key=first.__getitem__)
    weight = Counter(us)  # events each index appears in, as sender or recipient
    weight.update(vs)
    rcf_et = {u: elapsed[u] / frames[u] for u in order}
    return rcf_et, {u: events[u] / frames[u] for u in order}, weight, sum(frames)


def _weighted_mean(rcf: dict[int, float], weight: dict[int, int]) -> float | None:
    if not rcf:
        return None
    num = _sum_left(value * weight[a] for a, value in rcf.items())
    den = sum(weight[a] for a in rcf)
    return num / den


def prompt_response_time(log: EventLog, variant: ResponseVariant) -> float | None:
    """Communication-weighted mean responsiveness across a team log's actors.

    An actor's responsiveness (RCF) averages the elapsed time in seconds
    ("et") or the event count ("fn") over the closed frames in which it
    replied. Each actor's RCF is weighted by the number of events the actor
    appears in (as sender or recipient). Actors with no defined RCF are
    excluded from numerator and denominator; returns None when nobody has
    one. Equals team_signals(log, cfg).prt_et or .prt_fn.
    """
    if variant not in ("et", "fn"):
        raise ValueError(f"unknown variant {variant!r} (expected 'et' or 'fn')")
    rcf_et, rcf_fn, weight, _ = _response_sums(log)
    return _weighted_mean(rcf_et if variant == "et" else rcf_fn, weight)


def team_signals(team_log: EventLog, cfg: WindowConfig) -> TeamSignals:
    """Full per-team signal computation: RL, RC and both PRT variants.

    team_log holds one team's events: the whole log, or the result of
    model.restrict_to_team / model.partition_by_team for a roster. One pass
    over its int columns gives both PRT variants and the closed-frame
    count, and drops its per-pair state before the grid pass, whose window
    rows feed the RL and RC extrema counters as they are made: only the
    current window is held, and only the actors it moved are judged.
    """
    n = len(team_log.names)
    rcf_et, rcf_fn, weight, n_closed = _response_sums(team_log)
    rl, rc = _ExtremaCounter(n), _ExtremaCounter(n)
    scores = None
    for _end, presence, bc_row, ci_row, moved in _window_rows(team_log, cfg, True):
        if moved:  # only moved actors change, and every score when the bc row is new
            rl.feed(bc_row, presence, moved if bc_row is scores else None)
            rc.feed(ci_row, presence, moved)
            scores = bc_row
    return TeamSignals(
        rl=rl.total / n,
        rc=rc.total / n,
        prt_et=_weighted_mean(rcf_et, weight),
        prt_fn=_weighted_mean(rcf_fn, weight),
        n_actors=n,
        n_closed_frames=n_closed,
    )
