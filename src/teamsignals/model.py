"""Canonical domain types and validation shared by the whole pipeline.

Everything here is immutable after construction; the operations are pure
functions, so values can be shared freely across threads or processes.
Timestamps are kept as integer epoch seconds (UTC) throughout. Events are
kept in columns, not as objects: see EventColumns.

The records (EventColumns, EventLog, Team, CleanedLog) are typing.NamedTuple
classes: a field cannot be assigned, and ``record._replace(field=value)``
returns a copy with a changed field, checked as the constructor checks it.
Being tuples, len() of a record counts its fields; a log's event count is
``len(log.stamps)``.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from itertools import islice
from operator import le
from typing import NamedTuple, Sequence

ActorId = str

# The range of epoch seconds that renders as an RFC 3339 UTC timestamp:
# 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59Z.
MIN_TIMESTAMP = -62135596800
MAX_TIMESTAMP = 253402300799


# the fewest rows validate_log sorts at once in a time-ordered log; a block
# runs on to the end of its last second
_BLOCK = 1024


class EmptyLogError(ValueError):
    """Raised when cleaning or filtering leaves no events at all."""


# the C0 and C1 control characters, a set that no Unicode version changes
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f]")


def _control_character(text: str) -> str | None:
    """The first C0 or C1 control character in text, or None if it has none."""
    if text.isascii() and text.isprintable():  # printable ASCII needs no search
        return None
    control = _CONTROL.search(text)
    return control[0] if control else None


def normalize_actor(raw: str) -> ActorId:
    """Canonical actor token: whitespace-trimmed, Unicode lowercase.

    Two raw tokens denote the same actor iff their normalized forms are
    byte-equal. Raises ValueError for tokens that are empty after trimming,
    or that hold a control character (U+0000-U+001F, U+007F-U+009F) or a
    ';', the events CSV's recipient separator, after it.
    """
    token = raw.strip().lower()
    if not token:
        raise ValueError(f"empty actor token: {raw!r}")
    control = _control_character(token)
    if control:
        raise ValueError(f"control character U+{ord(control):04X} in actor token: {raw!r}")
    if ";" in token:
        raise ValueError(f"';' in actor token: {raw!r}")
    return token


class EventColumns(NamedTuple):
    """Raw events as columns: parse_events' in file order, or synth's as generated.

    Row i is names[senders[i]] -> names[recipients[i]] at stamps[i];
    parse_events lists names in order of first appearance.
    """

    names: tuple[ActorId, ...]
    stamps: array  # "q"
    senders: array  # "i"
    recipients: array  # "i"


class EventLog(NamedTuple):
    """validate_log's columns, as in EventColumns, with their closed time range.

    names are sorted, and each is in a row; rows are sorted by (timestamp,
    sender, recipient), with no self-loop or duplicate. len(log.stamps) is
    the number of events.
    """

    names: tuple[ActorId, ...]
    stamps: array  # "q"
    senders: array  # "i"
    recipients: array  # "i"
    t_start: int
    t_end: int


class _Team(NamedTuple):
    team_id: str
    members: frozenset[ActorId]


class Team(_Team):
    """A named set of actors: a roster. Raises ValueError for an empty team_id."""

    __slots__ = ()

    def __new__(cls, team_id: str, members: frozenset[ActorId]) -> Team:
        if not team_id:
            raise ValueError("team_id must be non-empty")
        return super().__new__(cls, team_id, members)

    @classmethod
    def _make(cls, iterable) -> Team:  # _replace builds its copy here: check it too
        return cls(*iterable)


class CleanedLog(NamedTuple):
    """validate_log output: the clean log plus what was removed to get it."""

    log: EventLog
    dropped_self_loops: int
    collapsed_duplicates: int


def validate_log(raw: EventColumns | EventLog) -> CleanedLog:
    """Sort, deduplicate and range-stamp raw EventColumns, or an EventLog again.

    Self-loops are dropped, with any actor seen only in them; exact
    duplicates (same sender, recipient and timestamp) collapse to one
    event. With the n actors left ranked by name, rows sort by the integer
    ((t - t_first) * n + sender rank) * n + recipient rank, so any
    permutation of the input yields the same log. A log whose stamps never
    decrease is sorted in blocks of whole seconds, t_first being a block's
    first stamp, so duplicates share a block and the keys held at once are
    one block's; any other log is one block from its least stamp. The
    output is the same either way. Raises EmptyLogError if nothing
    survives cleaning.
    """
    names, stamps, senders, recipients = raw.names, raw.stamps, raw.senders, raw.recipients
    kept = bytearray(len(names))  # 1 for an actor of an event that is not a self-loop
    for s, r in zip(senders, recipients):
        if s != r:
            kept[s] = kept[r] = 1
    rank = array("i", [0]) * len(names)  # a kept actor's place in name order, by raw id
    actors: list[ActorId] = []
    for i in sorted(filter(kept.__getitem__, range(len(names))), key=names.__getitem__):
        rank[i] = len(actors)
        actors.append(names[i])
    if not actors:
        raise EmptyLogError("empty log after cleaning")
    n = len(actors)
    ordered = all(map(le, stamps, islice(stamps, 1, None)))
    rows = zip(stamps, senders, recipients)
    out_stamps, out_senders, out_recipients = array("q"), array("i"), array("i")
    add_stamp, add_sender = out_stamps.append, out_senders.append
    add_recipient = out_recipients.append
    nn = n * n
    n_keys = 0  # the rows that are not self-loops
    lo, end = 0, len(stamps)
    while lo < end:
        if ordered:  # a block ends where the stamp changes, so duplicates share one
            hi = bisect_right(stamps, stamps[min(lo + _BLOCK, end) - 1], lo)
            t_first = stamps[lo]
        else:
            hi, t_first = end, min(stamps)
        keys = [((t - t_first) * n + rank[s]) * n + rank[r]
                for t, s, r in islice(rows, hi - lo) if s != r]
        keys.sort()
        n_keys += len(keys)
        prev = -1
        for key in keys:
            if key != prev:  # equal keys are duplicate events
                add_stamp(key // nn + t_first)
                add_sender(key // n % n)
                add_recipient(key % n)
                prev = key
        lo = hi
    log = EventLog(tuple(actors), out_stamps, out_senders, out_recipients,
                   out_stamps[0], out_stamps[-1])
    return CleanedLog(log, len(stamps) - n_keys, n_keys - len(out_stamps))


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
    recipient. Returns the team logs keyed by team_id, in the order of
    ``teams``, and the ids of teams left with no events, which get no log:
    a team with no members is one of them. Every team log keeps the full
    log's range and numbers its own actors in name order.
    """
    teams_of: dict[ActorId, tuple[int, ...]] = {}
    for i, team in enumerate(teams):
        only = (i,)  # shared by every actor in this team alone
        for actor in team.members:
            prior = teams_of.get(actor)
            teams_of[actor] = only if prior is None else prior + only
    names, stamps, senders, recipients = log.names, log.stamps, log.senders, log.recipients
    member_of = list(map(teams_of.get, names))  # by actor id; None for an actor in no team
    del teams_of  # before the team logs are built, as the dict holds every member
    rows = [array("i") for _ in teams]  # each team's row numbers
    for row, (u, v) in enumerate(zip(senders, recipients)):
        in_u = member_of[u]
        if in_u is None:
            continue
        in_v = member_of[v]
        if in_v is None:
            continue
        for i in in_u:
            if i in in_v:
                rows[i].append(row)
    team_logs: dict[str, EventLog] = {}
    skipped: list[str] = []
    for team, kept in zip(teams, rows):
        if not kept:
            skipped.append(team.team_id)
        else:  # the kept rows, over their own actors renumbered in name order
            us = [senders[i] for i in kept]
            vs = [recipients[i] for i in kept]
            ids = sorted({*us, *vs})  # ids are in name order
            local = {a: k for k, a in enumerate(ids)}
            team_logs[team.team_id] = EventLog(
                tuple([names[a] for a in ids]), array("q", [stamps[i] for i in kept]),
                array("i", [local[a] for a in us]), array("i", [local[a] for a in vs]),
                log.t_start, log.t_end,
            )
    return team_logs, skipped
