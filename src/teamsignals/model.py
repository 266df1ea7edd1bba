"""Canonical domain types and validation shared by the whole pipeline.

Everything here is immutable after construction; the operations are pure
functions, so values can be shared freely across threads or processes.
Timestamps are kept as integer epoch seconds (UTC) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

ActorId = str

# The range of epoch seconds that renders as an RFC 3339 UTC timestamp:
# 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59Z.
MIN_TIMESTAMP = -62135596800
MAX_TIMESTAMP = 253402300799


class EmptyLogError(ValueError):
    """Raised when cleaning or filtering leaves no events at all."""


def normalize_actor(raw: str) -> ActorId:
    """Canonical actor token: whitespace-trimmed, Unicode lowercase.

    Two raw tokens denote the same actor iff their normalized forms are
    byte-equal. Raises ValueError for tokens that are empty after trimming.
    """
    token = raw.strip().lower()
    if not token:
        raise ValueError(f"empty actor token: {raw!r}")
    return token


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One directed, timestamped communication from a sender to one recipient.

    ``timestamp`` is epoch seconds; sub-second input must be truncated before
    construction.
    """

    sender: ActorId
    recipient: ActorId
    timestamp: int


@dataclass(frozen=True)
class EventLog:
    """Sorted, validated event sequence with its closed time range."""

    events: tuple[InteractionEvent, ...]
    t_start: int
    t_end: int

    def __len__(self) -> int:
        return len(self.events)

    def actors(self) -> frozenset[ActorId]:
        """All actors appearing as sender or recipient."""
        senders = frozenset(map(attrgetter("sender"), self.events))
        return senders.union(map(attrgetter("recipient"), self.events))


@dataclass(frozen=True)
class Team:
    """A named set of actors; an empty member set means "all actors in log"."""

    team_id: str
    members: frozenset[ActorId] = frozenset()

    def __post_init__(self) -> None:
        if not self.team_id:
            raise ValueError("team_id must be non-empty")


@dataclass(frozen=True)
class CleanedLog:
    """validate_log output: the clean log plus what was removed to get it."""

    log: EventLog
    dropped_self_loops: int
    collapsed_duplicates: int


def validate_log(raw_events) -> CleanedLog:
    """Sort, deduplicate and range-stamp raw events.

    Self-loops are dropped; exact duplicates (same sender, recipient and
    timestamp) collapse to one event. The result is totally ordered, so any
    permutation of the input yields the same log.
    Raises EmptyLogError if nothing survives cleaning.
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

    if not deduped:
        raise EmptyLogError("empty log after cleaning")
    log = EventLog(
        events=tuple(deduped),
        t_start=deduped[0].timestamp,
        t_end=deduped[-1].timestamp,
    )
    return CleanedLog(log=log, dropped_self_loops=dropped, collapsed_duplicates=collapsed)


def restrict_to_team(log: EventLog, team: Team) -> EventLog:
    """partition_by_team for one team, raising EmptyLogError when it has no events."""
    team_logs, skipped = partition_by_team(log, [team])
    if skipped:
        raise EmptyLogError(f"empty team log for team {team.team_id!r}")
    return team_logs[team.team_id]


def partition_by_team(
    log: EventLog, teams: Sequence[Team]
) -> tuple[dict[str, EventLog], list[str]]:
    """Each team's events, those whose sender AND recipient are members, in one scan.

    This is the one place a roster is applied. Rosters may overlap: an
    event goes to every team whose roster holds both its sender and its
    recipient. A team with an empty member set gets the log unchanged.
    Returns the team logs keyed by team_id, in the order of ``teams``, and
    the ids of teams left with no events, which get no log. Every team log
    keeps the full log's range.
    """
    member_of: dict[ActorId, tuple[int, ...]] = {}
    for i, team in enumerate(teams):
        only = (i,)  # shared by every actor in this team alone
        for actor in team.members:
            prior = member_of.get(actor)
            member_of[actor] = only if prior is None else prior + only
    kept: list[list[InteractionEvent]] = [[] for _ in teams]
    for e in log.events:
        senders = member_of.get(e.sender)
        if senders is None:
            continue
        recipients = member_of.get(e.recipient)
        if recipients is None:
            continue
        for i in senders:
            if i in recipients:
                kept[i].append(e)
    team_logs: dict[str, EventLog] = {}
    skipped: list[str] = []
    for team, events in zip(teams, kept):
        if not team.members:
            team_logs[team.team_id] = log
        elif events:
            team_logs[team.team_id] = EventLog(tuple(events), log.t_start, log.t_end)
        else:
            skipped.append(team.team_id)
    return team_logs, skipped
