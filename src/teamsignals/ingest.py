"""File ingestion: interaction logs, team rosters, dependent variables.

Canonical on-disk formats (all UTF-8, LF or CRLF):

* ``events.csv``   header ``timestamp,sender,recipients``; multiple
  recipients are separated by ``;`` and expand to one event each.
* ``events.jsonl`` one object per line: ``{"timestamp": ..., "sender": ...,
  "recipients": [...]}``; the sender and every recipient are JSON strings.
* ``teams.csv``    header ``team_id,member``.
* ``depvars.csv``  header ``team_id,variable_name,value``.

Timestamps are RFC 3339 date-times (no offset means UTC) or integer epoch
seconds in ASCII digits with an optional sign; the style is auto-detected
from the first row and then enforced for the whole file, since mixed per-row
formats usually indicate corruption.
Every timestamp must lie in model.MIN_TIMESTAMP..MAX_TIMESTAMP, the range
format_timestamp renders. Each events reader yields (line, stamp text,
sender, recipients) rows, and one loop appends each event of either format
to three columns (model.EventColumns): its stamp, and its sender's and
recipient's ids from one table of raw tokens.
"""

from __future__ import annotations

import csv
import json
import re
import sys
import warnings
from array import array
from datetime import date, datetime, timedelta
from pathlib import Path

from .model import (MAX_TIMESTAMP, MIN_TIMESTAMP, ActorId, EventColumns, Team,
                     _control_character, normalize_actor)


_EPOCH = datetime(1970, 1, 1)


class ParseError(ValueError):
    """Malformed input file; message names the file and line."""

    def __init__(self, path, line: int | None, message: str) -> None:
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


# RFC 3339 date-time (section 5.6); the offset may be left out, meaning UTC.
_RFC3339 = re.compile(
    r"(\d{4}-\d\d-\d\d)[Tt ](\d\d):(\d\d):(\d\d)(?:\.\d+)?(?:[Zz]|([+-])(\d\d):(\d\d))?",
    re.ASCII,
)
_EPOCH_DAY = _EPOCH.toordinal()


def _parse_rfc3339(text: str) -> int:
    """Epoch seconds of an RFC 3339 date-time; sub-second digits are truncated.

    The same grammar on every Python version: basic format (20100101T000000Z),
    week dates, ordinal dates and a missing seconds field are rejected.
    """
    m = _RFC3339.fullmatch(text.strip())
    if m is None:
        raise ValueError("not an RFC 3339 date-time (YYYY-MM-DDThh:mm:ss[.frac][Z|+hh:mm|-hh:mm])")
    day, hour, minute, second, sign, off_h, off_m = m.groups()
    hour, minute, second = int(hour), int(minute), int(second)
    if hour > 23 or minute > 59 or second > 59:
        raise ValueError(f"time {hour:02d}:{minute:02d}:{second:02d} out of range")
    # date.fromisoformat reads YYYY-MM-DD alike on every version and rejects
    # a day the month lacks
    ts = ((date.fromisoformat(day).toordinal() - _EPOCH_DAY) * 86400
          + hour * 3600 + minute * 60 + second)
    if sign is None:
        return ts
    off_h, off_m = int(off_h), int(off_m)
    if off_h > 23 or off_m > 59:
        raise ValueError(f"offset {sign}{off_h:02d}:{off_m:02d} out of range")
    offset = off_h * 3600 + off_m * 60
    return ts - offset if sign == "+" else ts + offset


# Epoch seconds: ASCII digits only, so "1_000" and non-ASCII digits, which
# int() reads, are rejected.
_EPOCH_SECONDS = re.compile(r"[+-]?[0-9]+")
# A stamp wider than any in range never reaches int(), whose error past
# 4300 digits is worded differently on each version.
_EPOCH_DIGITS = len(str(MAX_TIMESTAMP))


def _parse_epoch(text: str) -> int:
    digits = text.strip()
    if _EPOCH_SECONDS.fullmatch(digits) is None:
        raise ValueError("not integer epoch seconds (ASCII digits, optional sign)")
    value = digits.lstrip("+-").lstrip("0")  # int() counts leading zeros toward its limit
    if len(value) > _EPOCH_DIGITS:
        return MAX_TIMESTAMP + 1  # out of range whatever its sign; _events says so
    return -int(value or "0") if digits[0] == "-" else int(value or "0")


def _echo(text: str) -> str:
    """repr of a field for a message, cut to 40 characters."""
    return repr(text) if len(text) <= 40 else repr(text[:40] + "…")


def _timestamp_parser(sample: str):
    """Pick the epoch-seconds or RFC 3339 parser based on one sample value."""
    if _EPOCH_SECONDS.fullmatch(sample.strip()) is None:
        return _parse_rfc3339
    return _parse_epoch


def _new_actor(ids: dict[str, int], names: list[ActorId], raw: str, path, line: int) -> int:
    """The id of a raw token not yet in ids, the file's one table of actor ids.

    ids maps raw tokens and normalized names alike (a name normalizes to
    itself), so " A " and "a" get one id; names[id] is the interned name, so
    a parsed file holds one string per actor. Callers look in ids first.
    """
    try:
        name = sys.intern(normalize_actor(raw))
    except ValueError as exc:
        raise ParseError(path, line, str(exc)) from None
    actor = ids[raw] = ids.setdefault(name, len(names))
    if actor == len(names):
        names.append(name)
    return actor


def _check_id(text: str, field: str, path, line: int) -> None:
    """A ParseError if a team id or variable name holds a C0 or C1 control character."""
    control = _control_character(text)
    if control:
        raise ParseError(path, line, f"control character U+{ord(control):04X} in {field}: {text!r}")


_NUL = "line contains NUL"  # the words of Python 3.10's csv.Error


def _csv_rows(path: Path, columns: list[str]):
    """Yield (line, row) for each non-blank data row of a CSV file.

    Checks the header against ``columns``, which may be followed by more,
    and that each row has as many fields as the header. A row the csv
    module cannot read, or bytes that are not UTF-8, become a ParseError
    naming the file. So does a NUL in any row, header included: the csv
    module of Python 3.10 refuses it, later ones read it.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(path, None, "empty file")
            if "\x00" in "".join(header):
                raise ParseError(path, reader.line_num, _NUL)
            if [c.strip().lower() for c in header][: len(columns)] != columns:
                raise ParseError(path, 1, f"expected header {','.join(columns)}, got {header}")
            for row in reader:
                if "\x00" in "".join(row):
                    raise ParseError(path, reader.line_num, _NUL)
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                line = reader.line_num
                if len(row) != len(header):
                    raise ParseError(path, line, f"expected {len(header)} columns, got {len(row)}")
                yield line, row
    except csv.Error as exc:
        raise ParseError(path, reader.line_num, str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, None, f"not UTF-8 text ({exc.reason})") from None


def parse_events(path, fmt: str | None = None) -> EventColumns:
    """Read raw events from a csv or jsonl file, as columns in file order.

    ``fmt`` is "csv" or "jsonl"; when omitted it is inferred from the file
    suffix. A row with k recipients expands to k events sharing sender and
    timestamp. A file with no data rows is a ParseError. No sorting or
    deduplication happens here; feed the result to ``model.validate_log``.
    """
    path = Path(path)
    if fmt is None:
        fmt = "jsonl" if path.suffix.lower() in (".jsonl", ".ndjson") else "csv"
    if fmt == "csv":
        return _events(_csv_event_rows(path), path)
    if fmt == "jsonl":
        return _events(_jsonl_event_rows(path), path)
    raise ParseError(path, None, f"unknown events format {fmt!r}")


def _events(rows, path) -> EventColumns:
    """One event per recipient of each (line, stamp text, sender, recipients) row."""
    stamps, senders, recipients = array("q"), array("i"), array("i")
    parse_ts = None
    ids: dict[str, int] = {}
    names: list[ActorId] = []
    for line, ts_text, sender, recipient_texts in rows:
        if parse_ts is None:
            parse_ts = _timestamp_parser(ts_text)
        try:
            ts = parse_ts(ts_text)
        except ValueError as exc:
            raise ParseError(path, line, f"malformed timestamp {_echo(ts_text)}: {exc}") from None
        if not MIN_TIMESTAMP <= ts <= MAX_TIMESTAMP:
            raise ParseError(
                path, line,
                f"timestamp {_echo(ts_text)} outside 0001-01-01T00:00:00Z..9999-12-31T23:59:59Z",
            )
        s = ids[sender] if sender in ids else _new_actor(ids, names, sender, path, line)
        for r in recipient_texts:
            stamps.append(ts)
            senders.append(s)
            recipients.append(ids[r] if r in ids else _new_actor(ids, names, r, path, line))
    if parse_ts is None:
        raise ParseError(path, None, "no data rows")
    return EventColumns(tuple(names), stamps, senders, recipients)


def _csv_event_rows(path: Path):
    """Yield (line, stamp text, sender, recipients) per row of an events CSV file."""
    for line, row in _csv_rows(path, ["timestamp", "sender", "recipients"]):
        recipients = list(filter(str.strip, row[2].split(";")))  # drops blank parts
        if not recipients:
            raise ParseError(path, line, "row has no recipients")
        yield line, row[0], row[1], recipients


def _text_lines(path: Path):
    """Yield (line number, line) of a UTF-8 text file; other bytes are a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise ParseError(path, None, f"not UTF-8 text ({exc.reason})") from None


class JSONValueError(ValueError):
    """JSON that parses but is refused: a key repeated in one object, or a
    number of more digits than int() converts."""


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise JSONValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


# built once: json.loads given a hook builds a new decoder on every call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_json(text: str):
    """json.loads(text), but a repeated key or an overlong number raises JSONValueError."""
    if text.startswith("\ufeff"):  # json.loads' own check
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except (json.JSONDecodeError, JSONValueError):
        raise
    except ValueError:  # int() refuses over 4300 digits, in words that vary by version
        raise JSONValueError("a JSON number has too many digits") from None


def _jsonl_event_rows(path: Path):
    """Yield (line, stamp text, sender, recipients) per object of an events JSON Lines file."""
    for line_no, line in _text_lines(path):
        if not line.strip():
            continue
        try:
            obj = load_json(line)
        except json.JSONDecodeError as exc:
            raise ParseError(path, line_no, f"invalid JSON: {exc}") from None
        except JSONValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        try:
            ts_raw = obj["timestamp"]
            sender = obj["sender"]
            recipients = obj["recipients"]
        except (KeyError, TypeError):
            raise ParseError(path, line_no, "object needs timestamp, sender, recipients") from None
        if not isinstance(recipients, list) or not recipients:
            raise ParseError(path, line_no, "recipients must be a non-empty array")
        # coercing with str() would turn null into the actor "none"
        if not isinstance(sender, str):
            raise ParseError(path, line_no, f"sender must be a string, got {json.dumps(sender)}")
        for r in recipients:
            if not isinstance(r, str):
                raise ParseError(path, line_no, f"recipient must be a string, got {json.dumps(r)}")
        yield line_no, str(ts_raw), sender, recipients


def parse_teams(path) -> list[Team]:
    """Read team rosters; one Team per distinct team_id, sorted by id.

    Duplicate (team_id, member) rows produce a warning rather than an error.
    """
    path = Path(path)
    members: dict[str, set[ActorId]] = {}
    ids: dict[str, int] = {}
    names: list[ActorId] = []
    for line, row in _csv_rows(path, ["team_id", "member"]):
        team_id = row[0].strip()
        if not team_id:
            raise ParseError(path, line, "empty team_id")
        member = names[ids[row[1]] if row[1] in ids else _new_actor(ids, names, row[1], path, line)]
        roster = members.get(team_id)
        if roster is None:
            _check_id(team_id, "team_id", path, line)
            roster = members[team_id] = set()
        if member in roster:
            warnings.warn(f"{path}:{line}: duplicate member {member!r} in team {team_id!r}")
        roster.add(member)
    if not members:
        raise ParseError(path, None, "no team rows")
    return [Team(team_id, frozenset(roster)) for team_id, roster in sorted(members.items())]


def parse_dependent_variables(path) -> dict[tuple[str, str], float]:
    """Per-team outcome values by (team_id, variable_name); a duplicate key is an error.

    A value is a finite ASCII decimal: as in timestamps, a digit separator
    (1_000) and non-ASCII digits are rejected, though float() reads both.
    """
    path = Path(path)
    values: dict[tuple[str, str], float] = {}
    for line, row in _csv_rows(path, ["team_id", "variable_name", "value"]):
        key = (row[0].strip(), row[1].strip())
        if not key[0] or not key[1]:
            raise ParseError(path, line, "empty team_id or variable_name")
        _check_id(key[0], "team_id", path, line)
        _check_id(key[1], "variable_name", path, line)
        if key in values:
            raise ParseError(path, line, f"duplicate (team_id, variable) {key}")
        try:
            if not row[2].isascii() or "_" in row[2]:
                raise ValueError
            value = float(row[2])
        except ValueError:
            raise ParseError(path, line, f"non-numeric value {row[2]!r}") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ParseError(path, line, f"non-finite value {row[2]!r}")
        values[key] = value
    if not values:
        raise ParseError(path, None, "no data rows")
    return values


def format_timestamp(ts: int) -> str:
    """Epoch seconds to RFC 3339 UTC, e.g. 2010-06-13T12:37:00Z.

    Defined from MIN_TIMESTAMP to MAX_TIMESTAMP; years are always four digits.
    """
    return (_EPOCH + timedelta(seconds=ts)).isoformat() + "Z"
