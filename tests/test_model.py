import random
from operator import attrgetter
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teamsignals import model
from teamsignals.ingest import ParseError, parse_events
from teamsignals.model import (
    EmptyLogError,
    Team,
    normalize_actor,
    partition_by_team,
    restrict_to_team,
    validate_log,
)

from . import oracles
from .oracles import InteractionEvent, columns, events_of
from .test_streaming import _traced_peak


def ev(sender, recipient, ts):
    return InteractionEvent(sender, recipient, ts)


class TestNormalizeActor:
    def test_lowercase_and_trim(self):
        assert normalize_actor("  Alice@X.org ") == "alice@x.org"

    def test_unicode_lowercase(self):
        assert normalize_actor("BÜRO") == "büro"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_actor("   ")

    def test_control_character_rejected(self):
        # C0 and C1 controls left after trimming; strip() takes U+001F as space
        for raw, code in [("b\0x", "0000"), (" K\a ", "0007"), ("a\x7f", "007F"),
                          ("b\x85c", "0085"), ("\x9fÜ", "009F")]:
            with pytest.raises(ValueError, match=f"^control character U\\+{code} in actor token: "):
                normalize_actor(raw)
        assert normalize_actor("\x1fa\t") == "a"


class TestValidateLog:
    def test_dedup_and_self_loop(self):
        cleaned = validate_log(columns([ev("a", "b", 10), ev("a", "a", 11), ev("a", "b", 10)]))
        assert events_of(cleaned.log) == (ev("a", "b", 10),)
        assert cleaned.dropped_self_loops == 1
        assert cleaned.collapsed_duplicates == 1

    def test_empty_input(self):
        with pytest.raises(EmptyLogError):
            validate_log(columns([]))

    def test_all_self_loops(self):
        with pytest.raises(EmptyLogError):
            validate_log(columns([ev("a", "a", 1)]))

    def test_sorting(self):
        cleaned = validate_log(columns([ev("b", "a", 5), ev("a", "b", 3)]))
        assert events_of(cleaned.log) == (ev("a", "b", 3), ev("b", "a", 5))
        assert (cleaned.log.t_start, cleaned.log.t_end) == (3, 5)


events_strategy = st.lists(
    st.builds(
        InteractionEvent,
        sender=st.sampled_from("abcd"),
        recipient=st.sampled_from("abcd"),
        timestamp=st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=30,
)


@given(events_strategy, st.randoms())
def test_order_insensitive(events, rng):
    try:
        base = validate_log(columns(events)).log
    except EmptyLogError:
        return
    shuffled = list(events)
    rng.shuffle(shuffled)
    assert validate_log(columns(shuffled)).log == base


@given(events_strategy)
def test_idempotence_property(events):
    try:
        once = validate_log(columns(events)).log
    except EmptyLogError:
        return
    again = validate_log(once)
    assert again.log == once
    assert again.dropped_self_loops == 0
    assert again.collapsed_duplicates == 0


# rows whose stamps never decrease, in drawn order within each second: many
# rows a second, with duplicates and self-loops
time_ordered_events = st.lists(
    st.builds(
        InteractionEvent,
        sender=st.sampled_from("abcd"),
        recipient=st.sampled_from("abcd"),
        timestamp=st.integers(min_value=-3, max_value=4),
    ),
    min_size=1,
    max_size=40,
).map(lambda events: sorted(events, key=attrgetter("timestamp")))


def _cleaned(raw):
    try:
        return validate_log(raw)
    except EmptyLogError:
        return None


@given(time_ordered_events, st.randoms())
def test_time_ordered_blocks_equal_the_whole_sort(events, rng):
    shuffled = rng.sample(events, len(events))
    whole = _cleaned(columns(shuffled))
    for block in (1, 2, 3):
        with patch.object(model, "_BLOCK", block):
            assert _cleaned(columns(events)) == whole


def test_time_ordered_log_sorts_in_less_memory():
    # 20,000 events among 40 actors, ten a second, none a self-loop
    n = 40
    events = [InteractionEvent(f"a{k % n:02d}", f"a{(7 * k + 1) % n:02d}", k // 10)
              for k in range(20000)]
    ordered = columns(events)
    shuffled = columns(random.Random(1).sample(events, len(events)))
    blocks = _traced_peak(lambda: validate_log(ordered))
    assert blocks < _traced_peak(lambda: validate_log(shuffled)) / 2


class TestRestrictToTeam:
    def setup_method(self):
        self.log = validate_log(columns(
            [ev("a", "b", 1), ev("b", "a", 2), ev("a", "c", 3), ev("c", "b", 4)]
        )).log

    def test_both_endpoints_required(self):
        kept = restrict_to_team(self.log, Team("t", frozenset("ab")))
        assert all({e.sender, e.recipient} <= {"a", "b"} for e in events_of(kept))
        assert len(kept.stamps) == 2

    def test_empty_roster_has_no_events(self):
        with pytest.raises(EmptyLogError):
            restrict_to_team(self.log, Team("none", frozenset()))

    def test_explicit_full_roster_is_identity(self):
        everyone = Team("all", frozenset("abc"))
        assert restrict_to_team(self.log, everyone) == self.log

    def test_single_member_team_has_no_events(self):
        # pair events never survive a one-member filter (self-loops are gone)
        with pytest.raises(EmptyLogError):
            restrict_to_team(self.log, Team("solo", frozenset("a")))

    def test_range_preserved(self):
        kept = restrict_to_team(self.log, Team("t", frozenset("ab")))
        assert (kept.t_start, kept.t_end) == (self.log.t_start, self.log.t_end)

    def test_disjoint_team(self):
        with pytest.raises(EmptyLogError):
            restrict_to_team(self.log, Team("t", frozenset("xy")))

    def test_empty_team_id(self):
        with pytest.raises(ValueError):
            Team("", frozenset("a"))


# raw tokens: " A " and "a" normalize to one actor, as do "B" and "b"
RAW_TOKENS = ["a", " A ", "b", "B", "c", "d"]
raw_rows = st.lists(
    st.tuples(st.integers(-3, 3), st.sampled_from(RAW_TOKENS), st.sampled_from(RAW_TOKENS)),
    max_size=30,
)
# stamps of self-loops of "solo", an actor seen in no other event
solo_stamps = st.lists(st.integers(-3, 3), max_size=3)
# rosters overlap, may name "solo" and "x" (never in an event), and may be empty (no events)
rosters = st.lists(st.frozensets(st.sampled_from(["a", "b", "c", "d", "solo", "x"])), max_size=4)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw_rows, solo_stamps, rosters, st.randoms())
def test_columnar_path_equals_the_object_oracle(tmp_path, rows, solo, members, rng):
    rows = rows + [(t, "solo", "SOLO ") for t in solo]
    rng.shuffle(rows)
    path = tmp_path / "events.csv"
    path.write_text("timestamp,sender,recipients\n" + "".join(f"{t},{s},{r}\n" for t, s, r in rows),
                    encoding="utf-8")
    events = [InteractionEvent(normalize_actor(s), normalize_actor(r), t) for t, s, r in rows]
    expected, dropped, collapsed = oracles.validate_events(events)
    if not rows:  # a header-only file is refused before any cleaning
        with pytest.raises(ParseError, match=": no data rows$"):
            parse_events(path)
        return
    if not expected:
        for raw in (parse_events(path), columns(events)):
            with pytest.raises(EmptyLogError):
                validate_log(raw)
        return
    cleaned = validate_log(parse_events(path))
    assert validate_log(columns(events)) == cleaned  # however the raw ids were assigned
    assert events_of(cleaned.log) == expected
    assert (cleaned.dropped_self_loops, cleaned.collapsed_duplicates) == (dropped, collapsed)
    actors = tuple(sorted({a for e in expected for a in (e.sender, e.recipient)}))
    assert cleaned.log.names == actors  # "solo", seen only in self-loops, is not numbered
    assert cleaned.log.t_start == expected[0].timestamp
    assert cleaned.log.t_end == expected[-1].timestamp

    teams = [Team(f"t{i}", m) for i, m in enumerate(members)]
    team_logs, skipped = partition_by_team(cleaned.log, teams)
    kept = {t.team_id: tuple(e for e in expected if {e.sender, e.recipient} <= t.members)
            for t in teams}
    expected_events = {team_id: events for team_id, events in kept.items() if events}
    assert skipped == [team_id for team_id, events in kept.items() if not events]
    assert list(team_logs) == list(expected_events)
    for team_id, team_log in team_logs.items():
        assert events_of(team_log) == expected_events[team_id]
        assert team_log.names == tuple(sorted({a for e in events_of(team_log)
                                               for a in (e.sender, e.recipient)}))
        assert (team_log.t_start, team_log.t_end) == (cleaned.log.t_start, cleaned.log.t_end)
