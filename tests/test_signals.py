import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teamsignals import signals
from teamsignals.model import EventLog, validate_log
from teamsignals.signals import prompt_response_time, rotating_signal, team_signals
from teamsignals.windows import WindowConfig, build_snapshots, series

from .oracles import (
    CommunicationFrame,
    InteractionEvent,
    brandes_exact,
    columns,
    count_extrema,
    event_objects_built,
    events_of,
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


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
def test_extrema_matches_independent_scan(values):
    presence = [True] * len(values)
    assert count_extrema(values, presence) == extrema_scan(values, presence)


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
        log = validate_log(columns([ev("x", "y", 0), ev("y", "x", 5)])).log
        frames = segment_frames(log, "x", "y")
        assert frames == [
            CommunicationFrame("x", "y", 0, 5, 2, closed=True),
            CommunicationFrame("y", "x", 5, 5, 1, closed=False),
        ]
        assert frames[0].elapsed_time == 5
        assert frames[0].event_count == 2

    def test_repeated_pings_before_reply(self):
        log = validate_log(columns([ev("x", "y", 0), ev("x", "y", 10), ev("y", "x", 30)])).log
        frames = segment_frames(log, "x", "y")
        assert frames[0] == CommunicationFrame("x", "y", 0, 30, 3, closed=True)
        assert frames[1].source == "y"
        assert not frames[1].closed

    def test_never_answered(self):
        log = validate_log(columns([ev("x", "y", 0)])).log
        frames = segment_frames(log, "x", "y")
        assert len(frames) == 1
        assert not frames[0].closed

    def test_reply_opens_next_frame(self):
        log = validate_log(columns(
            [ev("x", "y", 0), ev("y", "x", 60), ev("x", "y", 100), ev("y", "x", 180)]
        )).log
        frames = segment_frames(log, "x", "y")
        assert [f.closed for f in frames] == [True, True, True, False]
        assert [(f.source, f.elapsed_time) for f in frames[:3]] == [
            ("x", 60),
            ("y", 40),
            ("x", 80),
        ]

    def test_same_actor_pair_is_empty(self):
        log = validate_log(columns([ev("x", "y", 0)])).log
        assert segment_frames(log, "x", "x") == []

    def test_third_parties_ignored(self):
        log = validate_log(columns([ev("x", "y", 0), ev("x", "z", 1), ev("y", "x", 5)])).log
        frames = segment_frames(log, "x", "y")
        assert frames[0].event_count == 2


class TestResponsiveness:
    """An actor's RCF, read as the PRT of a log in which it alone replies."""

    def test_mean_elapsed_time(self):
        log = validate_log(columns(
            [ev("x", "y", 0), ev("y", "x", 10), ev("w", "y", 100), ev("y", "w", 130)]
        )).log
        assert prompt_response_time(log) == (20.0, 2.0, 2)  # both y's frames closed

    def test_mean_nudges(self):
        log = validate_log(columns(
            [
                ev("x", "y", 0), ev("y", "x", 10),
                ev("w", "y", 100), ev("w", "y", 110), ev("w", "y", 120), ev("y", "w", 130),
            ]
        )).log
        assert prompt_response_time(log)[1] == 3.0

    def test_never_replied_undefined(self):
        log = validate_log(columns([ev("x", "y", 0)])).log
        assert prompt_response_time(log) == (None, None, 0)


class TestPromptResponseTime:
    def test_weighted_mean(self):
        # y answers two frames (ET 10, 30 -> RCF 20) and appears in 4 events;
        # z answers one frame (ET 60) and appears in 2: (20*4 + 60*2) / 6
        log = validate_log(columns(
            [
                ev("x", "y", 0), ev("y", "x", 10),
                ev("w", "y", 100), ev("y", "w", 130),
                ev("u", "z", 200), ev("z", "u", 260),
            ]
        )).log
        assert prompt_response_time(log)[0] == 200.0 / 6.0

    def test_constant_rcf_is_fixed_point(self):
        log = validate_log(columns(
            [ev("x", "y", 0), ev("y", "x", 50), ev("u", "z", 200), ev("z", "u", 250)]
        )).log
        assert prompt_response_time(log) == (50.0, 2.0, 2)


class TestTeamSignals:
    def test_three_actor_rotation_fixture(self):
        # hand-traced: windows of 3 h every 1 h over a 5 h log of 6 events
        log = validate_log(columns(
            [
                ev("a", "b", 0), ev("b", "a", HOUR),
                ev("b", "c", 2 * HOUR), ev("c", "b", 3 * HOUR),
                ev("c", "a", 4 * HOUR), ev("a", "c", 5 * HOUR),
            ]
        )).log
        sig = team_signals(log, WindowConfig(3 * HOUR, HOUR))
        assert sig.rl == 1.0 / 3.0
        assert sig.rc == 2.0 / 3.0
        assert sig.prt_et == 3600.0
        assert sig.prt_fn == 2.0
        assert sig.n_actors == 3
        assert sig.n_closed_frames == 3

    def test_two_actor_alternating(self):
        # betweenness needs a third actor to route through, so RL is 0 here;
        # six hourly windows, the first ending at t_start, see one event each,
        # so CI flips -1/+1 every step: 4 interior extrema per actor
        events = [ev("a", "b", k * HOUR) if k % 2 == 0 else ev("b", "a", k * HOUR) for k in range(6)]
        log = validate_log(columns(events)).log
        sig = team_signals(log, WindowConfig(HOUR, HOUR))
        assert sig.rl == 0.0
        assert sig.rc == 4.0
        assert sig.prt_et == 3600.0
        assert sig.prt_fn == 2.0

    def test_runs_the_prt_pass_once_by_its_module_name(self, monkeypatch):
        # the traced bench times signals.prompt_response_time as signals.prt_s;
        # a PRT pass that team_signals reached by another name would read 0
        calls = []

        def counted(log):
            calls.append(log)
            return prompt_response_time(log)

        monkeypatch.setattr(signals, "prompt_response_time", counted)
        log = validate_log(columns([ev("a", "b", 0), ev("b", "a", 60), ev("a", "c", HOUR)])).log
        sig = team_signals(log, WindowConfig(HOUR, HOUR))
        assert len(calls) == 1 and calls[0] is log
        assert (sig.prt_et, sig.prt_fn, sig.n_closed_frames) == (60.0, 2.0, 1)

    def test_reads_the_columns_only(self):
        log = validate_log(columns([ev("a", "b", 0), ev("b", "c", HOUR), ev("c", "a", 2 * HOUR)])).log
        assert not hasattr(EventLog, "events")
        with event_objects_built() as built:
            assert team_signals(log, WindowConfig(HOUR, HOUR)).n_actors == 3
        assert built == []

    def test_prt_et_scales_with_time(self):
        # stretching timestamps by c scales PRT-ET by c and nothing else
        base = [
            ev("a", "b", 0), ev("b", "a", HOUR),
            ev("b", "c", 2 * HOUR), ev("c", "b", 3 * HOUR),
            ev("c", "a", 4 * HOUR), ev("a", "c", 5 * HOUR),
        ]
        c = 3
        stretched = [ev(e.sender, e.recipient, e.timestamp * c) for e in base]
        sig1 = team_signals(validate_log(columns(base)).log, WindowConfig(3 * HOUR, HOUR))
        sig2 = team_signals(validate_log(columns(stretched)).log, WindowConfig(3 * HOUR * c, HOUR * c))
        assert sig2.prt_et == c * sig1.prt_et
        assert sig2.prt_fn == sig1.prt_fn
        assert sig2.rl == sig1.rl
        assert sig2.rc == sig1.rc

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
        sig1 = team_signals(validate_log(columns(events)).log, cfg)
        sig2 = team_signals(validate_log(columns(swapped)).log, cfg)
        assert sig1 == sig2


def _seeded_log(relabel_seed: int | None) -> EventLog:
    """60 events among 8 actors over 28 days, seed 29; names shuffled by relabel_seed."""
    rng = random.Random(29)
    actors = [f"m{j:02d}" for j in range(8)]
    weights = [1.0 / (j + 1) for j in range(8)]
    rows = []
    for _ in range(60):
        sender = rng.choices(actors, weights=weights)[0]
        recipient = rng.choice([a for a in actors if a != sender])
        rows.append((sender, recipient, rng.randrange(28 * 86400 + 1)))
    names = actors.copy()
    if relabel_seed is not None:
        random.Random(relabel_seed).shuffle(names)
    name = dict(zip(actors, names))
    return validate_log(columns([ev(name[s], name[r], t) for s, r, t in rows])).log


def test_rl_is_exact_under_actor_relabelling():
    # the sorted actor names set the kernel's summation order; unsnapped,
    # float noise broke or made ties on this log, and RL read 5.625 under
    # these names but 5.875 under each of the three relabellings
    cfg = WindowConfig(7 * 86400, 86400)
    got = {(s.rl, s.rc) for s in (team_signals(_seeded_log(k), cfg) for k in (None, 0, 1, 2))}
    assert len(got) == 1
    # RL from the exact rational scores of every window
    log = _seeded_log(None)
    index = {a: i for i, a in enumerate(log.names)}
    exact_rows = []
    for (end, presence, _), snapshot in zip(series(log, cfg, "bc"), build_snapshots(log, cfg)):
        adjacency: list[list[int]] = [[] for _ in index]
        for src, dst in sorted(snapshot.edges):
            adjacency[index[src]].append(index[dst])
        exact_rows.append((end, presence, brandes_exact(adjacency)))
    assert got == {(rotating_signal(exact_rows), team_signals(log, cfg).rc)}


@given(
    st.lists(
        st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1, max_size=60, unique_by=lambda p: p[0]
    )
)
def test_frames_properties_hypothesis(pairs):
    events = [ev("x", "y", t) if toward_y else ev("y", "x", t) for t, toward_y in pairs]
    log = validate_log(columns(events)).log
    frames = segment_frames(log, "x", "y")
    reversals = reversal_count([e.sender for e in events_of(log)])
    assert sum(f.closed for f in frames) == reversals
    assert sum(f.event_count for f in frames) == len(log.stamps) + reversals
    assert all(f.event_count >= 2 for f in frames if f.closed)
    assert sum(not f.closed for f in frames) == 1
