import csv
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teamsignals.ingest import (
    ParseError,
    format_timestamp,
    parse_dependent_variables,
    parse_events,
    parse_teams,
)
from teamsignals.cli import _write_csv
from teamsignals.model import validate_log

from .oracles import InteractionEvent, columns, events_of


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseEventsCsv:
    def test_multi_recipient_expansion(self, tmp_path):
        path = write(
            tmp_path,
            "events.csv",
            "timestamp,sender,recipients\n2010-06-13T12:37:00Z,a@x,b@x;c@x\n",
        )
        events = parse_events(path)
        ts = 1276432620
        assert events_of(events) == (
            InteractionEvent("a@x", "b@x", ts),
            InteractionEvent("a@x", "c@x", ts),
        )

    def test_epoch_seconds(self, tmp_path):
        path = write(tmp_path, "events.csv", "timestamp,sender,recipients\n1276432620,a@x,b@x\n")
        assert parse_events(path).stamps[0] == 1276432620

    def test_empty_recipients_names_line(self, tmp_path):
        path = write(tmp_path, "events.csv", "timestamp,sender,recipients\n100,a@x,;\n")
        with pytest.raises(ParseError, match=":2"):
            parse_events(path)

    def test_bad_timestamp_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "events.csv",
            "timestamp,sender,recipients\n100,a@x,b@x\nnot-a-time,a@x,b@x\n",
        )
        with pytest.raises(ParseError, match=":3"):
            parse_events(path)

    def test_mixed_timestamp_styles_rejected(self, tmp_path):
        # style is locked per file from the first row
        path = write(
            tmp_path,
            "events.csv",
            "timestamp,sender,recipients\n100,a@x,b@x\n2010-06-13T12:37:00Z,a@x,b@x\n",
        )
        with pytest.raises(ParseError, match=":3"):
            parse_events(path)

    def test_timezone_offset(self, tmp_path):
        path = write(
            tmp_path,
            "events.csv",
            "timestamp,sender,recipients\n2010-06-13T08:37:00-04:00,a@x,b@x\n",
        )
        assert parse_events(path).stamps[0] == 1276432620

    def test_subsecond_truncated(self, tmp_path):
        path = write(
            tmp_path,
            "events.csv",
            "timestamp,sender,recipients\n2010-06-13T12:37:00.987Z,a@x,b@x\n",
        )
        assert parse_events(path).stamps[0] == 1276432620

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "events.csv", "timestamp,sender,recipients\n100,a@x\n")
        with pytest.raises(ParseError, match=":2"):
            parse_events(path)

    def test_unknown_format(self, tmp_path):
        path = write(tmp_path, "events.csv", "timestamp,sender,recipients\n")
        with pytest.raises(ParseError):
            parse_events(path, fmt="xml")

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_bytes(b"timestamp,sender,recipients\r\n100,a@x,b@x\r\n")
        assert len(parse_events(path).stamps) == 1

    def test_actors_interned(self, tmp_path):
        rows = "timestamp,sender,recipients\n1, A ,b\n2,a,b\n3,A,b\n"
        path = write(tmp_path, "events.csv", rows)
        senders = [e.sender for e in events_of(parse_events(path))]
        assert senders == ["a", "a", "a"]
        assert senders[0] is senders[1] is senders[2]

    def test_empty_actor_names_line_after_interning(self, tmp_path):
        path = write(tmp_path, "events.csv", "timestamp,sender,recipients\n1,a,b\n2, ,b\n")
        with pytest.raises(ParseError, match=r"events\.csv:3: empty actor token"):
            parse_events(path)


def _parse_one(tmp_path, stamp):
    path = write(tmp_path, "events.csv", f"timestamp,sender,recipients\n{stamp},a,b\n")
    return parse_events(path).stamps[0]


class TestRfc3339:
    @pytest.mark.parametrize(
        "stamp",
        [
            "2010-06-13T12:37:00Z",
            "2010-06-13t12:37:00z",
            "2010-06-13 12:37:00Z",
            "2010-06-13T12:37:00.5Z",
            "2010-06-13T12:37:00.123456789Z",
            "2010-06-13T14:37:00+02:00",
            "2010-06-13T12:37:00-00:00",
            "2010-06-13T12:37:00",  # no offset: read as UTC
        ],
    )
    def test_accepted(self, tmp_path, stamp):
        assert _parse_one(tmp_path, stamp) == 1276432620

    @pytest.mark.parametrize(
        "stamp",
        [
            "20100613T123700Z",  # basic format
            "2010-W23-7T12:37:00Z",  # week date
            "2010-164T12:37:00Z",  # ordinal date
            "2010-06-13",  # no time
            "2010-06-13T12:37Z",  # no seconds
            "2010-06-13T12:37:00+0200",  # offset without colon
            "2010-06-13T12:37:00+02",
            "2010-06-13X12:37:00Z",  # separator other than T, t or space
            "2010-06-31T12:37:00Z",  # no such day
            "2010-06-13T24:00:00Z",
            "2010-06-13T12:37:60Z",
            "2010-06-13T12:37:00+24:00",
            "2010-06-13T12:37:00+01:60",
            "\u0662\u0660\u0661\u0660-06-13T12:37:00Z",  # non-ASCII digits
        ],
    )
    def test_rejected_naming_file_and_line(self, tmp_path, stamp):
        with pytest.raises(ParseError, match=r"events\.csv:2: malformed timestamp"):
            _parse_one(tmp_path, stamp)


class TestEpochSeconds:
    @pytest.mark.parametrize("stamp", ["1276432620", "+1276432620", " 1276432620 "])
    def test_accepted(self, tmp_path, stamp):
        assert _parse_one(tmp_path, stamp) == 1276432620

    # int() reads all of these; the epoch style takes ASCII digits only
    @pytest.mark.parametrize("stamp", ["1_000", "\u0662\u0660\u0660", "1e3", "0x10", "1.0"])
    def test_rejected_after_an_epoch_row(self, tmp_path, stamp):
        path = write(tmp_path, "events.csv", f"timestamp,sender,recipients\n100,a,b\n{stamp},a,b\n")
        with pytest.raises(ParseError, match=r"events\.csv:3: malformed timestamp"):
            parse_events(path)

    @pytest.mark.parametrize("stamp", ["1_000", "\u0662\u0660\u0660"])
    def test_rejected_as_the_first_row(self, tmp_path, stamp):
        with pytest.raises(ParseError, match=r"events\.csv:2: malformed timestamp"):
            _parse_one(tmp_path, stamp)

    @pytest.mark.parametrize("stamp", ["1" * 4401, "-" + "9" * 4401, "+" + "1" * 13])
    def test_over_long_is_out_of_range(self, tmp_path, stamp):
        # rejected before int(), whose message past 4300 digits differs by version
        shown = re.escape(repr(stamp[:40] + "…")) if len(stamp) > 40 else re.escape(repr(stamp))
        with pytest.raises(ParseError, match=rf"events\.csv:2: timestamp {shown} outside 0001"):
            _parse_one(tmp_path, stamp)

    def test_leading_zeros_do_not_count(self, tmp_path):
        assert _parse_one(tmp_path, "0" * 4400 + "1276432620") == 1276432620
        assert _parse_one(tmp_path, "-" + "0" * 4400 + "62135596800") == -62135596800
        assert _parse_one(tmp_path, "0" * 4401) == 0

    def test_rejected_in_jsonl(self, tmp_path):
        path = write(
            tmp_path,
            "events.jsonl",
            '{"timestamp": 100, "sender": "a", "recipients": ["b"]}\n'
            '{"timestamp": "1_000", "sender": "a", "recipients": ["b"]}\n',
        )
        with pytest.raises(ParseError, match=r"events\.jsonl:2: malformed timestamp"):
            parse_events(path)


class TestParseEventsJsonl:
    def test_basic(self, tmp_path):
        path = write(
            tmp_path,
            "events.jsonl",
            '{"timestamp": 100, "sender": "A", "recipients": ["b", "c"]}\n',
        )
        events = events_of(parse_events(path))
        assert [e.recipient for e in events] == ["b", "c"]
        assert events[0].sender == "a"

    def test_bad_json_names_line(self, tmp_path):
        path = write(tmp_path, "events.jsonl", '{"timestamp": 100,\n')
        with pytest.raises(ParseError, match=":1"):
            parse_events(path)

    def test_number_past_int_digit_limit_names_line(self, tmp_path):
        # int() refuses over 4300 digits, worded differently on each version
        path = write(
            tmp_path,
            "events.jsonl",
            '{"timestamp": 100, "sender": "a", "recipients": ["b"]}\n'
            '{"timestamp": %s, "sender": "a", "recipients": ["b"]}\n' % ("1" * 4401),
        )
        with pytest.raises(ParseError, match=r"events\.jsonl:2: a JSON number has too many digits$"):
            parse_events(path)

    def test_empty_recipients(self, tmp_path):
        path = write(tmp_path, "events.jsonl", '{"timestamp": 100, "sender": "a", "recipients": []}\n')
        with pytest.raises(ParseError):
            parse_events(path)


def _write_both(tmp_path, rows):
    """The same (stamp, sender, recipients) rows as events.csv and events.jsonl."""
    with open(tmp_path / "events.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "sender", "recipients"])
        writer.writerows([stamp, sender, ";".join(recipients)] for stamp, sender, recipients in rows)
    with open(tmp_path / "events.jsonl", "w", encoding="utf-8") as fh:
        for stamp, sender, recipients in rows:
            obj = {"timestamp": stamp, "sender": sender, "recipients": recipients}
            fh.write(json.dumps(obj) + "\n")
    return tmp_path / "events.csv", tmp_path / "events.jsonl"


def _same_error(tmp_path, rows):
    """The ParseError of each format, with its file name and line."""
    errors = []
    for path in _write_both(tmp_path, rows):
        with pytest.raises(ParseError) as info:
            parse_events(path)
        errors.append((info.value.line, str(info.value).split(": ", 1)[1]))
    (csv_line, csv_text), (jsonl_line, jsonl_text) = errors
    assert csv_line == jsonl_line + 1  # the CSV header is line 1
    assert csv_text == jsonl_text
    return jsonl_line, jsonl_text


# tokens that differ only in case and space, commas and quotes for the CSV writer
tokens = st.sampled_from(["a", " A ", "b@x", "B@X", "c,d", 'e"f', "ü", "Ü "])
stamp_rows = st.one_of(
    st.lists(st.integers(0, 10**10).map(str), min_size=1, max_size=8),
    st.lists(st.sampled_from(["2010-06-13T12:37:00Z", "2010-06-13 14:37:00+02:00",
                              "2010-06-13T12:37:00.9"]), min_size=1, max_size=8),
)


class TestOneIngestLoop:
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(stamp_rows, st.data())
    def test_csv_and_jsonl_rows_parse_alike(self, tmp_path, stamps, data):
        rows = [(stamp, data.draw(tokens), data.draw(st.lists(tokens, min_size=1, max_size=3)))
                for stamp in stamps]
        csv_path, jsonl_path = _write_both(tmp_path, rows)
        events = parse_events(csv_path)
        assert events == parse_events(jsonl_path)
        assert len(events.stamps) == sum(len(recipients) for _, _, recipients in rows)

    def test_malformed_stamp(self, tmp_path):
        rows = [("100", "a", ["b"]), ("1_000", "a", ["b"])]
        assert _same_error(tmp_path, rows) == (
            2, "malformed timestamp '1_000': not integer epoch seconds (ASCII digits, optional sign)"
        )

    def test_out_of_range_stamp(self, tmp_path):
        rows = [("2010-06-13T12:37:00Z", "a", ["b"]), ("9999-12-31T23:59:59-01:00", "a", ["b"])]
        assert _same_error(tmp_path, rows) == (
            2, "timestamp '9999-12-31T23:59:59-01:00' outside "
            "0001-01-01T00:00:00Z..9999-12-31T23:59:59Z"
        )

    def test_empty_actor_token(self, tmp_path):
        rows = [("100", "a", ["b"]), ("200", "b", ["a"]), ("300", "  ", ["a"])]
        assert _same_error(tmp_path, rows) == (3, "empty actor token: '  '")

    def test_control_character_in_actor_token(self, tmp_path):
        rows = [("100", "a", ["b"]), ("200", "b", ["c", "a\a"])]
        assert _same_error(tmp_path, rows) == (
            2, "control character U+0007 in actor token: 'a\\x07'"
        )


@pytest.mark.parametrize(
    "name, text, line",
    [
        # the CSV recipients field splits at ';', so only a sender can hold one
        ("events.csv", "timestamp,sender,recipients\n0,a,b\n10,b;c,a\n", 3),
        ("events.jsonl", '{"timestamp": 0, "sender": "a", "recipients": ["b;c"]}\n', 1),
        ("teams.csv", "team_id,member\nt1,a\nt1,b;c\n", 3),
    ],
    ids=["csv-sender", "jsonl-recipient", "roster-member"],
)
def test_semicolon_in_actor_token(tmp_path, name, text, line):
    path = write(tmp_path, name, text)
    with pytest.raises(ParseError) as info:
        (parse_teams if name == "teams.csv" else parse_events)(path)
    assert str(info.value) == f"{path}:{line}: ';' in actor token: 'b;c'"


def test_expansion_preserves_record_count(tmp_path):
    rows = ["timestamp,sender,recipients"]
    expected = 0
    for i in range(1, 20):
        k = 1 + i % 4
        expected += k
        rows.append(f"{1000 + i},s{i},{';'.join(f'r{j}' for j in range(k))}")
    path = write(tmp_path, "events.csv", "\n".join(rows) + "\n")
    assert len(parse_events(path).stamps) == expected


def test_round_trip(tmp_path):
    raw = [
        InteractionEvent("a", "b", 1276432620),
        InteractionEvent("b", "a", 1276432680),
        InteractionEvent("a", "c", 1276436220),
    ]
    log = validate_log(columns(raw)).log
    path = tmp_path / "out.csv"
    _write_csv(
        path,
        ["timestamp", "sender", "recipients"],
        ([format_timestamp(e.timestamp), e.sender, e.recipient] for e in events_of(log)),
    )
    assert validate_log(parse_events(path)).log == log


def test_format_timestamp():
    assert format_timestamp(1276432620) == "2010-06-13T12:37:00Z"


class TestParseTeams:
    def test_grouping(self, tmp_path):
        path = write(tmp_path, "teams.csv", "team_id,member\nt1,a\nt1,b\nt2,c\n")
        teams = parse_teams(path)
        assert [(t.team_id, set(t.members)) for t in teams] == [
            ("t1", {"a", "b"}),
            ("t2", {"c"}),
        ]

    def test_members_interned(self, tmp_path):
        path = write(tmp_path, "teams.csv", "team_id,member\nt1, A \nt2,a\n")
        first, second = (next(iter(t.members)) for t in parse_teams(path))
        assert first is second

    def test_duplicate_row_warns(self, tmp_path):
        path = write(tmp_path, "teams.csv", "team_id,member\nt1,a\nt1,a\n")
        with pytest.warns(UserWarning, match="duplicate"):
            teams = parse_teams(path)
        assert teams[0].members == frozenset(["a"])

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "teams.csv", "team_id,member\n")
        with pytest.raises(ParseError):
            parse_teams(path)


class TestParseDependentVariables:
    def test_basic(self, tmp_path):
        path = write(tmp_path, "dv.csv", "team_id,variable_name,value\nt1,creativity,4.2\n")
        assert parse_dependent_variables(path) == {("t1", "creativity"): 4.2}

    def test_duplicate_key(self, tmp_path):
        path = write(
            tmp_path,
            "dv.csv",
            "team_id,variable_name,value\nt1,creativity,4.2\nt1,creativity,4.2\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_dependent_variables(path)

    def test_non_numeric(self, tmp_path):
        # float() reads a digit separator and non-ASCII digits; a timestamp rejects both
        for value in ["high", "1_000", "\u0661\u0662\u0663"]:
            path = write(tmp_path, "dv.csv", f"team_id,variable_name,value\nt1,creativity,{value}\n")
            with pytest.raises(ParseError, match=f":2: non-numeric value '{value}'"):
                parse_dependent_variables(path)

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, "dv.csv", "team_id,variable_name,value\nt1,creativity,inf\n")
        with pytest.raises(ParseError, match="non-finite"):
            parse_dependent_variables(path)
