import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamsignals.model import EventLog, InteractionEvent, validate_log
from teamsignals.signals import _response_sums, prompt_response_time, rotating_signal, team_signals
from teamsignals.windows import WindowConfig, _columns

from .oracles import (
    CommunicationFrame,
    count_extrema,
    extrema_scan,
    reversal_count,
    segment_frames,
)

HOUR = 3600


def ev(sender, recipient, ts):
    return InteractionEvent(sender, recipient, ts)


class TestCountExtrema:
    def test_constant(self):
        assert count_extrema([1, 1, 1, 1], [True] * 4) == 0

    def test_zigzag(self):
        assert count_extrema([0, 1, 0, 1, 0], [True] * 5) == 3

    def test_plateau_compression(self):
        assert count_extrema([0, 1, 1, 0], [True] * 4) == 1

    def test_absence_splits_runs(self):
        values = [0, 1, 0, 0, 0, 1, 0]
        presence = [True, True, True, False, True, True, True]
        assert count_extrema(values, presence) == 2

    def test_short_runs_skipped(self):
        assert count_extrema([0, 1], [True, True]) == 0
        assert count_extrema([0, 1, 0, 1], [True, True, False, True]) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_extrema([1, 2], [True])


series_strategy = st.lists(st.integers(-3, 3), min_size=1, max_size=40)


@given(series_strategy)
def test_extrema_matches_independent_scan(values):
    presence = [True] * len(values)
    assert count_extrema(values, presence) == extrema_scan(values, presence)


@given(series_strategy)
def test_extrema_monotone_transform_invariant(values):
    presence = [True] * len(values)
    base = count_extrema(values, presence)
    assert count_extrema([2 * v + 1 for v in values], presence) == base
    assert count_extrema([v**3 for v in values], presence) == base


@given(series_strategy)
def test_extrema_reversal_and_bound(values):
    presence = [True] * len(values)
    count = count_extrema(values, presence)
    assert count == count_extrema(values[::-1], presence)
    assert 0 <= count <= max(0, len(values) - 2)


@given(st.lists(st.tuples(st.integers(-3, 3), st.booleans()), min_size=1, max_size=40))
def test_extrema_with_presence_gaps_matches_scan(pairs):
    values = [v for v, _ in pairs]
    presence = [p for _, p in pairs]
    assert count_extrema(values, presence) == extrema_scan(values, presence)


# present runs of 1 to 3 windows between absences: the lengths at and below
# MIN_PRESENCE_RUN, where the run endpoints leave few or no interior points
short_runs = st.lists(
    st.tuples(st.lists(st.floats(-2, 2, width=16), min_size=1, max_size=3), st.integers(1, 2)),
    min_size=1,
    max_size=12,
)


@given(short_runs)
def test_extrema_on_short_runs_matches_scan(runs):
    values: list[float] = []
    presence: list[bool] = []
    for run, gap in runs:
        values += run + [0.0] * gap
        presence += [True] * len(run) + [False] * gap
    assert count_extrema(values, presence) == extrema_scan(values, presence)


def make_series(vectors, presence=None):
    """windows.series rows, (end, presence, values), for per-actor vectors."""
    actors = sorted(vectors)
    length = len(vectors[actors[0]])
    return [
        (k, [presence[a][k] if presence else True for a in actors], [vectors[a][k] for a in actors])
        for k in range(length)
    ]


class TestRotatingSignal:
    def test_mean_over_actors(self):
        ws = make_series({"a": [0, 1, 0, 1, 0], "b": [1, 0, 1, 0, 1]})
        assert rotating_signal(ws) == 3.0

    def test_constant_series(self):
        ws = make_series({"a": [2, 2, 2], "b": [5, 5, 5], "c": [0, 0, 0]})
        assert rotating_signal(ws) == 0.0

    def test_single_actor(self):
        assert rotating_signal(make_series({"a": [0, 1, 0]})) == 1.0

    def test_empty_roster(self):
        with pytest.raises(ValueError):
            rotating_signal([(0, [], [])])
        with pytest.raises(ValueError):
            rotating_signal([])


class TestSegmentFrames:
    def test_ping_reply(self):
        log = validate_log([ev("x", "y", 0), ev("y", "x", 5)]).log
        frames = segment_frames(log, "x", "y")
        assert frames == [
            CommunicationFrame("x", "y", 0, 5, 2, closed=True),
            CommunicationFrame("y", "x", 5, 5, 1, closed=False),
        ]
        assert frames[0].elapsed_time == 5
        assert frames[0].event_count == 2

    def test_repeated_pings_before_reply(self):
        log = validate_log([ev("x", "y", 0), ev("x", "y", 10), ev("y", "x", 30)]).log
        frames = segment_frames(log, "x", "y")
        assert frames[0] == CommunicationFrame("x", "y", 0, 30, 3, closed=True)
        assert frames[1].source == "y"
        assert not frames[1].closed

    def test_never_answered(self):
        log = validate_log([ev("x", "y", 0)]).log
        frames = segment_frames(log, "x", "y")
        assert len(frames) == 1
        assert not frames[0].closed

    def test_reply_opens_next_frame(self):
        log = validate_log(
            [ev("x", "y", 0), ev("y", "x", 60), ev("x", "y", 100), ev("y", "x", 180)]
        ).log
        frames = segment_frames(log, "x", "y")
        assert [f.closed for f in frames] == [True, True, True, False]
        assert [(f.source, f.elapsed_time) for f in frames[:3]] == [
            ("x", 60),
            ("y", 40),
            ("x", 80),
        ]

    def test_same_actor_pair_is_empty(self):
        log = validate_log([ev("x", "y", 0)]).log
        assert segment_frames(log, "x", "x") == []

    def test_third_parties_ignored(self):
        log = validate_log([ev("x", "y", 0), ev("x", "z", 1), ev("y", "x", 5)]).log
        frames = segment_frames(log, "x", "y")
        assert frames[0].event_count == 2


def random_pair_stream(rng, max_events=60):
    n = rng.randint(1, max_events)
    ts = sorted(rng.sample(range(10 * max_events), n))
    return [ev("x", "y", t) if rng.random() < 0.5 else ev("y", "x", t) for t in ts]


def test_frames_match_reversal_oracle():
    rng = random.Random(42)
    for _ in range(100):
        stream = random_pair_stream(rng)
        log = validate_log(stream).log
        frames = segment_frames(log, "x", "y")
        senders = [e.sender for e in log.events]
        reversals = reversal_count(senders)
        assert sum(f.closed for f in frames) == reversals
        # reversal events belong to two frames, everything else to one
        assert sum(f.event_count for f in frames) == len(log.events) + reversals
        # frames tile the stream: each closed frame hands off at its last event
        for prev, nxt in zip(frames, frames[1:]):
            assert prev.closed
            assert nxt.first_event == prev.last_event


def responsiveness(log, variant):
    """RCF by actor name, from the PRT pass's per-responder sums, in their float-sum order."""
    actors, columns = _columns(log)
    rcf_et, rcf_fn, _, _ = _response_sums(columns, len(actors))
    return {actors[u]: x for u, x in (rcf_et if variant == "et" else rcf_fn).items()}


class TestResponsiveness:
    def test_mean_elapsed_time(self):
        log = validate_log(
            [ev("x", "y", 0), ev("y", "x", 10), ev("w", "y", 100), ev("y", "w", 130)]
        ).log
        rcf = responsiveness(log, "et")
        assert rcf["y"] == 20.0
        assert "x" not in rcf and "w" not in rcf

    def test_mean_nudges(self):
        log = validate_log(
            [
                ev("x", "y", 0), ev("y", "x", 10),
                ev("w", "y", 100), ev("w", "y", 110), ev("w", "y", 120), ev("y", "w", 130),
            ]
        ).log
        assert responsiveness(log, "fn")["y"] == 3.0

    def test_never_replied_undefined(self):
        log = validate_log([ev("x", "y", 0)]).log
        assert responsiveness(log, "et") == {}

    def test_unknown_variant(self):
        log = validate_log([ev("x", "y", 0)]).log
        with pytest.raises(ValueError):
            prompt_response_time(log, "median")


class TestPromptResponseTime:
    def test_weighted_mean(self):
        # y answers two frames (ET 10, 30 -> RCF 20) and appears in 4 events;
        # z answers one frame (ET 60) and appears in 2: (20*4 + 60*2) / 6
        log = validate_log(
            [
                ev("x", "y", 0), ev("y", "x", 10),
                ev("w", "y", 100), ev("y", "w", 130),
                ev("u", "z", 200), ev("z", "u", 260),
            ]
        ).log
        prt = prompt_response_time(log, "et")
        assert math.isclose(prt, 200.0 / 6.0)

    def test_unanswered_ping_undefined(self):
        log = validate_log([ev("x", "y", 0)]).log
        assert prompt_response_time(log, "et") is None

    def test_constant_rcf_is_fixed_point(self):
        log = validate_log(
            [ev("x", "y", 0), ev("y", "x", 50), ev("u", "z", 200), ev("z", "u", 250)]
        ).log
        assert prompt_response_time(log, "et") == 50.0
        assert prompt_response_time(log, "fn") == 2.0


class TestTeamSignals:
    def test_three_actor_rotation_fixture(self):
        # hand-traced: windows of 3 h every 1 h over a 5 h log of 6 events
        log = validate_log(
            [
                ev("a", "b", 0), ev("b", "a", HOUR),
                ev("b", "c", 2 * HOUR), ev("c", "b", 3 * HOUR),
                ev("c", "a", 4 * HOUR), ev("a", "c", 5 * HOUR),
            ]
        ).log
        sig = team_signals(log, WindowConfig(3 * HOUR, HOUR))
        assert math.isclose(sig.rl, 1.0 / 3.0)
        assert math.isclose(sig.rc, 2.0 / 3.0)
        assert sig.prt_et == 3600.0
        assert sig.prt_fn == 2.0
        assert sig.n_actors == 3
        assert sig.n_closed_frames == 3

    def test_two_actor_alternating(self):
        # betweenness needs a third actor to route through, so RL is 0 here;
        # hourly windows see one event each, so CI flips -1/+1 every step
        events = [ev("a", "b", k * HOUR) if k % 2 == 0 else ev("b", "a", k * HOUR) for k in range(6)]
        log = validate_log(events).log
        sig = team_signals(log, WindowConfig(HOUR, HOUR))
        assert sig.rl == 0.0
        assert sig.rc == 3.0
        assert sig.prt_et == 3600.0
        assert sig.prt_fn == 2.0

    def test_one_roster_scan(self, monkeypatch):
        calls = []
        actors = EventLog.actors

        def counting(log):
            calls.append(log)
            return actors(log)

        monkeypatch.setattr(EventLog, "actors", counting)
        log = validate_log([ev("a", "b", 0), ev("b", "c", HOUR), ev("c", "a", 2 * HOUR)]).log
        team_signals(log, WindowConfig(HOUR, HOUR))
        assert calls == [log]

    def test_prt_et_scales_with_time(self):
        # stretching timestamps by c scales PRT-ET by c and nothing else
        base = [
            ev("a", "b", 0), ev("b", "a", HOUR),
            ev("b", "c", 2 * HOUR), ev("c", "b", 3 * HOUR),
            ev("c", "a", 4 * HOUR), ev("a", "c", 5 * HOUR),
        ]
        c = 3
        stretched = [ev(e.sender, e.recipient, e.timestamp * c) for e in base]
        sig1 = team_signals(validate_log(base).log, WindowConfig(3 * HOUR, HOUR))
        sig2 = team_signals(validate_log(stretched).log, WindowConfig(3 * HOUR * c, HOUR * c))
        assert math.isclose(sig2.prt_et, c * sig1.prt_et)
        assert sig2.prt_fn == sig1.prt_fn
        assert math.isclose(sig2.rl, sig1.rl)
        assert math.isclose(sig2.rc, sig1.rc)

    def test_relabeling_invariant(self):
        events = [
            ev("a", "b", 0), ev("b", "a", HOUR),
            ev("b", "c", 2 * HOUR), ev("c", "b", 3 * HOUR),
        ]
        swapped = [
            ev(e.sender.translate(str.maketrans("abc", "qrp")),
               e.recipient.translate(str.maketrans("abc", "qrp")),
               e.timestamp)
            for e in events
        ]
        cfg = WindowConfig(2 * HOUR, HOUR)
        sig1 = team_signals(validate_log(events).log, cfg)
        sig2 = team_signals(validate_log(swapped).log, cfg)
        assert sig1 == sig2


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1, max_size=60, unique_by=lambda p: p[0]
    )
)
def test_frames_properties_hypothesis(pairs):
    events = [ev("x", "y", t) if toward_y else ev("y", "x", t) for t, toward_y in pairs]
    log = validate_log(events).log
    frames = segment_frames(log, "x", "y")
    reversals = reversal_count([e.sender for e in log.events])
    assert sum(f.closed for f in frames) == reversals
    assert sum(f.event_count for f in frames) == len(log.events) + reversals
    assert all(f.event_count >= 2 for f in frames if f.closed)
    assert sum(not f.closed for f in frames) == 1
