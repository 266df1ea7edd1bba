"""The three longitudinal team signals: RL, RC and prompt response time.

Rotating Leadership (RL) and Rotating Contribution (RC) count local extrema
in each actor's windowed betweenness / contribution-index series and average
the counts over the team. Prompt Response Time (PRT) segments each actor
pair's event stream into communication frames and aggregates per-responder
frame statistics into a communication-weighted team mean.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .model import ActorId, EventLog
from .windows import WindowConfig, WindowedSeries, _window_rows

ResponseVariant = Literal["et", "fn"]

# Shortest present run that can hold an extremum: an interior point needs a
# neighbor on each side. A shorter grid makes RL and RC 0 (the CLI warns).
MIN_PRESENCE_RUN = 3


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
    """count_extrema for n actors at once, fed one window row at a time.

    Per actor it keeps the last distinct value of the current present run
    (None while absent) and the distinct value before it, so a point is
    judged once its right neighbor arrives: an extremum if it lies strictly
    above or below both neighbors. An absent window ends the run. A row
    pair fed again as the same objects is a plateau for every actor and is
    skipped. total is the sum of the actors' counts.
    """

    def __init__(self, n: int) -> None:
        self.prev: list[float | None] = [None] * n
        self.last: list[float | None] = [None] * n
        self.total = 0
        self._fed: tuple = (None, None)

    def feed(self, values: Sequence[float], presence: Sequence[bool]) -> None:
        if self._fed[0] is values and self._fed[1] is presence:
            return
        self._fed = (values, presence)
        prev, last = self.prev, self.last
        total = self.total
        for i, present in enumerate(presence):
            if not present:
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


def count_extrema(values: Sequence[float], presence: Sequence[bool]) -> int:
    """Count strict local maxima plus minima over the present runs.

    Each maximal contiguous present run is scanned separately: consecutive
    equal values are compressed to one point, then interior points strictly
    above (or below) both neighbors are counted. Run endpoints never count,
    so a run shorter than MIN_PRESENCE_RUN windows has no extremum.
    """
    if len(values) != len(presence):
        raise ValueError(f"length mismatch: {len(values)} values vs {len(presence)} presence")
    counter = _ExtremaCounter(1)
    for value, present in zip(values, presence):
        counter.feed((value,), (present,))
    return counter.total


def rotating_signal(ws: WindowedSeries) -> float:
    """Mean per-actor extrema count over the whole roster (RL or RC)."""
    actors = ws.actors()
    if not actors:
        raise ValueError("series has no actors")
    counts = [count_extrema(ws.values[a], ws.presence[a]) for a in actors]
    return sum(counts) / len(actors)


def _sum_left(values: Iterable[float]) -> float:
    """Float sum in plain left-to-right order, the same on every Python.

    From Python 3.12 the built-in sum() compensates float rounding, so its
    result can differ from 3.10/3.11 in the last bit (sum([0.1] * 10)).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _frames_from_stream(stream: Sequence) -> list[CommunicationFrame]:
    """State machine over one pair's merged, time-ordered event stream."""
    frames: list[CommunicationFrame] = []
    src = dst = None
    first = last = 0
    count = 0
    for e in stream:
        if src is None:
            src, dst = e.sender, e.recipient
            first = last = e.timestamp
            count = 1
        elif e.sender == src:
            last = e.timestamp
            count += 1
        else:
            # reply: closes the open frame and opens the next one
            frames.append(
                CommunicationFrame(src, dst, first, e.timestamp, count + 1, closed=True)
            )
            src, dst = e.sender, e.recipient
            first = last = e.timestamp
            count = 1
    if src is not None:
        frames.append(CommunicationFrame(src, dst, first, last, count, closed=False))
    return frames


def segment_frames(log: EventLog, a: ActorId, b: ActorId) -> list[CommunicationFrame]:
    """All communication frames for the unordered actor pair {a, b}."""
    pair = {a, b}
    stream = [e for e in log.events if {e.sender, e.recipient} == pair]
    return _frames_from_stream(stream)


def _closed_frames(
    log: EventLog, actors: Sequence[ActorId] | None = None
) -> list[CommunicationFrame]:
    """Closed frames of every actor pair, pairs in sorted order.

    actors is the log's sorted roster (computed when None). A pair's stream
    is keyed u * n + v by the roster indices u < v, so sorted keys give the
    pairs in the order of their sorted actor ids.
    """
    if actors is None:
        actors = sorted(log.actors())
    n = len(actors)
    index = {a: i for i, a in enumerate(actors)}
    streams: dict[int, list] = defaultdict(list)
    for e in log.events:
        u = index[e.sender]
        v = index[e.recipient]
        streams[u * n + v if u < v else v * n + u].append(e)
    closed: list[CommunicationFrame] = []
    for key in sorted(streams):
        closed.extend(f for f in _frames_from_stream(streams[key]) if f.closed)
    return closed


def responsiveness(
    log: EventLog, roster: frozenset[ActorId], variant: ResponseVariant
) -> dict[ActorId, float]:
    """Mean frame statistic per responder (RCF).

    For each actor, averages elapsed time in seconds ("et") or the event
    count ("fn") over the closed frames in which the actor is the target,
    i.e. the one who replied. Actors that never close a frame are absent
    from the result.
    """
    if variant not in ("et", "fn"):
        raise ValueError(f"unknown variant {variant!r} (expected 'et' or 'fn')")
    return _responsiveness(_closed_frames(log), roster, variant)


def _responsiveness(
    closed: Sequence[CommunicationFrame], roster: frozenset[ActorId], variant: ResponseVariant
) -> dict[ActorId, float]:
    samples: dict[ActorId, list[float]] = defaultdict(list)
    for frame in closed:
        if frame.target in roster:
            samples[frame.target].append(
                float(frame.elapsed_time if variant == "et" else frame.event_count)
            )
    return {a: _sum_left(vals) / len(vals) for a, vals in samples.items()}


def _event_weights(log: EventLog) -> dict[ActorId, int]:
    """Number of events each actor appears in, as sender or recipient."""
    weight: dict[ActorId, int] = defaultdict(int)
    for e in log.events:
        weight[e.sender] += 1
        weight[e.recipient] += 1
    return weight


def _weighted_mean(rcf: dict[ActorId, float], weight: dict[ActorId, int]) -> float | None:
    if not rcf:
        return None
    num = _sum_left(value * weight[a] for a, value in rcf.items())
    den = sum(weight[a] for a in rcf)
    return num / den


def prompt_response_time(
    log: EventLog, roster: frozenset[ActorId], variant: ResponseVariant
) -> float | None:
    """Communication-weighted mean responsiveness across the team.

    Each actor's RCF is weighted by the number of events the actor appears
    in (as sender or recipient). Actors with no defined RCF are excluded
    from numerator and denominator; returns None when nobody has one.
    """
    return _weighted_mean(responsiveness(log, roster, variant), _event_weights(log))


def team_signals(team_log: EventLog, cfg: WindowConfig) -> TeamSignals:
    """Full per-team signal computation: RL, RC and both PRT variants.

    team_log holds one team's events: the whole log, or the result of
    model.restrict_to_team / model.partition_by_team for a roster. Each
    layer runs once: one roster scan, one grid pass whose window rows feed
    the RL and RC extrema counters as they are made (only the current
    window and per-actor extrema state are held, never the series), and
    one frame pass that yields both PRT variants and the closed-frame count.
    """
    roster = team_log.actors()
    actors = sorted(roster)
    rl = _ExtremaCounter(len(actors))
    rc = _ExtremaCounter(len(actors))
    for _end, presence, bc_row, ci_row in _window_rows(team_log, cfg, actors, True):
        rl.feed(bc_row, presence)
        rc.feed(ci_row, presence)
    closed = _closed_frames(team_log, actors)
    weight = _event_weights(team_log)
    return TeamSignals(
        rl=rl.total / len(actors),
        rc=rc.total / len(actors),
        prt_et=_weighted_mean(_responsiveness(closed, roster, "et"), weight),
        prt_fn=_weighted_mean(_responsiveness(closed, roster, "fn"), weight),
        n_actors=len(roster),
        n_closed_frames=len(closed),
    )
