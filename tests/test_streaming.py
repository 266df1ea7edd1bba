"""metrics' streaming path: window rows feed the extrema counters directly.

team_signals never holds a per-window series. These tests pin the pieces
that make that exact: the online counter equals count_extrema and the
independent scan, unchanged rows arrive as the same objects, the PRT pass
equals the frame list bit for bit and meets responders in its order, and
traced memory does not grow with the grid, nor the PRT pass's with the
number of actor pairs. Each row names the actors whose presence, bc or ci
changed, and judging only those counts what judging whole rows counts.
"""

import tracemalloc
from collections import defaultdict
from operator import attrgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamsignals.model import EventLog, validate_log
from teamsignals.signals import (
    _ExtremaCounter,
    prompt_response_time,
    rotating_signal,
    team_signals,
)
from teamsignals.windows import WindowConfig, _window_rows, series

from .oracles import (
    InteractionEvent,
    closed_frames,
    columns,
    count_extrema,
    event_log,
    events_of,
    extrema_scan,
    prt_from_frames,
    segment_frames,
)
from .test_one_pass import _kernel_inputs, configs, logs, team_logs

HOUR = 3600

# a window row: (presence, values) per actor; few distinct values make plateaus
rows = st.lists(
    st.tuples(st.booleans(), st.sampled_from([0.0, 0.5, 1.0, 2.0])), min_size=3, max_size=3
)
# each window is a new row, or reuses the previous window's objects: both
# (an unchanged window), only the values (bc scores kept while presence
# changes) or only the presence
grids = st.lists(
    st.one_of(rows, st.tuples(st.sampled_from(["both", "values", "presence"]), rows)),
    min_size=1,
    max_size=30,
)


def _objects(grid):
    """(values, presence) objects per window, reused as each step says."""
    fed = []
    for step in grid:
        if isinstance(step, list):
            fed.append(([v for _, v in step], [p for p, _ in step]))
        elif fed:
            reuse, row = step
            values, presence = fed[-1]
            if reuse == "presence":
                values = [v for _, v in row]
            elif reuse == "values":
                presence = [p for p, _ in row]
            fed.append((values, presence))
    return fed


@settings(deadline=None)
@given(grids)
def test_counter_equals_count_extrema_for_every_actor(grid):
    fed = _objects(grid)
    n = 3
    counter = _ExtremaCounter(n)
    for values, presence in fed:
        counter.feed(values, presence, range(n))
    expected = 0
    for i in range(n):
        column = [values[i] for values, _ in fed]
        present = [presence[i] for _, presence in fed]
        count = count_extrema(column, present)
        assert count == extrema_scan(column, present)
        # the same rows with only actor i present, repeats kept as the same objects
        alone = _ExtremaCounter(n)
        masked = {}
        for values, presence in fed:
            key = id(presence)
            if key not in masked:
                masked[key] = [p and j == i for j, p in enumerate(presence)]
            alone.feed(values, masked[key], range(n))
        assert alone.total == count
        expected += count
    assert counter.total == expected


def test_unchanged_rows_are_yielded_as_the_same_objects():
    # a-b at 0.5h and b-a at 4.5h; with 1h windows the one ending at t_start
    # and three between are empty
    events = [InteractionEvent("a", "b", HOUR // 2), InteractionEvent("b", "a", 9 * HOUR // 2)]
    log = validate_log(columns(events)).log._replace(t_start=0)
    got = list(_window_rows(log, WindowConfig(HOUR, HOUR), True))
    assert [end for end, *_ in got] == [0, HOUR, 2 * HOUR, 3 * HOUR, 4 * HOUR, 5 * HOUR]
    _, (_, p0, b0, c0, _), (_, p1, b1, c1, _), (_, p2, b2, c2, _), (_, p3, b3, c3, _), _ = got
    assert p0 == [True, True] and c0 == [1.0, -1.0]
    assert p1 == [False, False]
    # no event enters or leaves between windows 1, 2 and 3
    assert p2 is p1 and c2 is c1 and p3 is p1 and c3 is c1
    # the edge set changes only at windows 0 and 1, so bc is reused after
    assert b2 is b1 and b3 is b1


def _rows(log, cfg):
    return list(_window_rows(log, cfg, True)), len(log.names)


def _totals(rows, n, changed_only):
    """RL and RC extrema totals, judging changed actors only or whole rows."""
    rl, rc = _ExtremaCounter(n), _ExtremaCounter(n)
    for _end, presence, bc, ci, changed in rows:
        actors = changed if changed_only else range(n)
        rl.feed(bc, presence, actors)
        rc.feed(ci, presence, actors)
    return rl.total, rc.total


@settings(deadline=None)
@given(team_logs, configs)
def test_only_changed_actors_differ_from_the_previous_row(log, cfg):
    rows, n = _rows(log, cfg)
    before = ([False] * n, [0.0] * n, [0.0] * n)  # the rows of a window with no events
    for _end, *row, changed in rows:
        differ = {i for i in range(n) if any(new[i] != old[i] for new, old in zip(row, before))}
        assert differ <= set(changed)
        before = row


@settings(deadline=None)
@given(team_logs, configs)
def test_judging_changed_actors_equals_judging_whole_rows(log, cfg):
    rows, n = _rows(log, cfg)
    assert _totals(rows, n, changed_only=True) == _totals(rows, n, changed_only=False)


@settings(deadline=None)
@given(team_logs, configs)
def test_presence_and_ci_rows_do_not_depend_on_want_bc(log, cfg):
    # without bc a row's changed actors are those its events moved, which
    # are changed with bc too
    with_bc, without_bc = (list(_window_rows(log, cfg, want_bc)) for want_bc in (True, False))
    assert len(with_bc) == len(without_bc)
    for (end, p, _, ci, changed), (end0, p0, _, ci0, moved) in zip(with_bc, without_bc):
        assert (end, p, ci) == (end0, p0, ci0)
        assert set(moved) <= set(changed)


def test_event_entering_and_leaving_in_one_step():
    # a->b at 0 lies in the first window, (-1h, 0], which ends at t_start;
    # it leaves in the next step, as c->d enters
    log = validate_log(columns([
        InteractionEvent("a", "b", 0),
        InteractionEvent("c", "d", 1800),
        InteractionEvent("d", "c", 7200),
    ])).log
    rows, n = _rows(log, WindowConfig(HOUR, HOUR))
    (e0, p0, _, c0, m0), (_, p1, _, c1, m1), (_, p2, _, c2, m2) = rows
    assert e0 == 0 and m0 == {0, 1}  # a, b
    assert p0 == [True, True, False, False] and c0 == [1.0, -1.0, 0.0, 0.0]
    assert m1 == {0, 1, 2, 3}
    assert p1 == [False, False, True, True] and c1 == [0.0, 0.0, 1.0, -1.0]
    assert m2 == {2, 3}
    assert p2 == [False, False, True, True] and c2 == [0.0, 0.0, -1.0, 1.0]
    assert _totals(rows, n, changed_only=True) == _totals(rows, n, changed_only=False)


def test_actor_unchanged_while_another_moves():
    # c->d@0 stays in the 3h windows ending at 1h and 2h; a->b enters at 2h
    log = validate_log(columns([
        InteractionEvent("c", "d", 0),
        InteractionEvent("a", "b", 5400),
        InteractionEvent("c", "d", 5 * HOUR),
    ])).log
    rows, n = _rows(log, WindowConfig(3 * HOUR, HOUR))
    assert [sorted(changed) for *_, changed in rows] == [[2, 3], [0, 1], [2, 3], [], [0, 1, 2, 3]]
    (_, p0, _, c0, _), (_, p1, _, c1, _) = rows[:2]
    assert p1 is not p0 and c1 is not c0  # new rows, equal where nothing moved
    assert (p0[2:], c0[2:]) == (p1[2:], c1[2:]) == ([True, True], [1.0, -1.0])
    assert _totals(rows, n, changed_only=True) == _totals(rows, n, changed_only=False)


def test_kernel_call_that_leaves_every_score_equal():
    # a->b, then c->d as well: the edge set changes, every score stays 0.0,
    # and a and b do not move; the equal scores keep their row object
    log = validate_log(columns([InteractionEvent("a", "b", 0), InteractionEvent("c", "d", 5400)])).log
    with _kernel_inputs() as calls:
        rows, n = _rows(log, WindowConfig(3 * HOUR, HOUR))
    assert len(calls) == 2
    (_, _, b0, _, _), (_, _, b1, _, m1) = rows
    assert b1 is b0 and b1 == [0.0] * 4
    assert m1 == {2, 3}
    assert _totals(rows, n, changed_only=True) == _totals(rows, n, changed_only=False)


def test_kernel_call_changes_an_unmoved_actors_score():
    # b's events stay put while c->d enters: b's betweenness goes 1, 2, 0,
    # a maximum that only judging every actor after a kernel call sees
    log = validate_log(columns([
        InteractionEvent("a", "b", 0),
        InteractionEvent("b", "c", 1800),
        InteractionEvent("c", "d", 5400),
        InteractionEvent("c", "d", 3 * HOUR),
    ])).log
    cfg = WindowConfig(3 * HOUR, HOUR)
    rows, _ = _rows(log, cfg)
    # every window's scores differ from the last, so every actor is changed,
    # b too at 2h, though only c->d's events moved
    assert [(bc[1], list(changed)) for _, _, bc, _, changed in rows] == [
        (1.0, [0, 1, 2, 3]), (2.0, [0, 1, 2, 3]), (0.0, [0, 1, 2, 3])
    ]
    assert team_signals(log, cfg).rl == rotating_signal(series(log, cfg, "bc")) == 2 / 4


@settings(deadline=None)
@given(logs)
def test_frame_pairs_in_sorted_actor_order(log):
    streams = defaultdict(list)
    for e in events_of(log):
        streams[frozenset((e.sender, e.recipient))].append(e)
    expected = []
    for key in sorted(streams, key=sorted):
        pair_log = event_log(streams[key], log.t_start, log.t_end)
        expected.extend(f for f in segment_frames(pair_log, *sorted(key)) if f.closed)
    assert closed_frames(log) == expected
    assert team_signals(log, WindowConfig(HOUR, HOUR)).n_closed_frames == len(expected)


def _event_log(rows) -> EventLog:
    """An EventLog built by hand: sorted, but self-loops and duplicates kept."""
    events = sorted((InteractionEvent(s, r, t) for s, r, t in rows), key=attrgetter("timestamp", "sender", "recipient"))
    return event_log(events, events[0].timestamp, events[-1].timestamp)


# few actors and stamps, so pairs interleave and stamps repeat; the stamp
# scales spread elapsed times over magnitudes, where a float sum of the
# responders' means rounds differently in another order
prt_rows = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
              st.integers(0, 12), st.sampled_from([1, 7, 3600, 10**9 + 7])),
    min_size=1,
    max_size=40,
).map(lambda rows: [(s, r, t * scale) for s, r, t, scale in rows])


@settings(deadline=None)
@given(prt_rows.map(_event_log))
def test_prt_pass_equals_frame_list(log):
    sig = team_signals(log, WindowConfig(10**10, 10**10))  # PRT does not depend on the grid
    assert sig.prt_et == prt_from_frames(log, "et")
    assert sig.prt_fn == prt_from_frames(log, "fn")
    assert sig.n_closed_frames == len(closed_frames(log))


@settings(deadline=None)
@given(prt_rows.filter(lambda rows: not {(r, s, t) for s, r, t in rows if s != r} & set(rows)),
       st.permutations("abcde"))
# swapping c and d moves the last bit of a float sum of the responders' means
# in the order of their first closed frames by pair
@example([("d", "b", 7000000049), ("b", "d", 7000007249), ("b", "c", 9000000063),
          ("d", "b", 9000032463), ("b", "d", 9000057663), ("c", "b", 10000032470),
          ("b", "c", 10000032474)], list("abdce"))
def test_prt_does_not_depend_on_names(rows, names):
    """Both PRT variants are the same under any relabelling of the actors.

    The rows' filter leaves out a pair's events in both directions within
    one second: the sort by name orders those, so their PRT depends on the
    names (see the FOUND entry on same-second replies in CHANGES.md).
    """
    new = dict(zip("abcde", names))
    relabelled = _event_log([(new[s], new[r], t) for s, r, t in rows])
    cfg = WindowConfig(10**10, 10**10)
    got, expected = team_signals(relabelled, cfg), team_signals(_event_log(rows), cfg)
    assert (got.prt_et, got.prt_fn) == (expected.prt_et, expected.prt_fn)


def test_prt_is_the_exact_mean_rounded_once():
    # d, a and b reply, in that order of their first closed frames by pair:
    # a float sum of RCF * weight in that order gives 1062500.8333333335, and
    # by time of first reply (d, b, a) 1062500.8333333333, the exact mean
    # (7/3 + 4 * 3000004 + 5 * 999999) / 16 rounded once
    rows = [("b", "d", 0), ("d", "b", 1), ("c", "b", 2), ("d", "b", 2), ("a", "d", 3),
            ("d", "a", 3), ("b", "c", 1000001), ("a", "d", 3000007), ("d", "a", 3000007)]
    log = validate_log(columns([InteractionEvent(s, r, t) for s, r, t in rows])).log
    sig = team_signals(log, WindowConfig(HOUR, HOUR))
    assert sig.prt_et == 1062500.8333333333 == prt_from_frames(log, "et")


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_team_signals_memory_does_not_grow_with_the_grid():
    # one event a minute around a 40-actor ring for a day: every window's
    # presence and CI rows are new, while the edge set is full after an hour
    n = 40
    actors = [f"a{i:02d}" for i in range(n)]
    log = validate_log(columns(
        [InteractionEvent(actors[k % n], actors[(k + 1) % n], 60 * k) for k in range(1440)]
    )).log
    minutes = _traced_peak(lambda: team_signals(log, WindowConfig(HOUR, 60)))  # 1440 windows
    hours = _traced_peak(lambda: team_signals(log, WindowConfig(HOUR, HOUR)))  # 24 windows
    assert minutes < 2 * hours


def test_prt_pass_memory_does_not_grow_with_the_pairs():
    # every pair of 200 actors sends once, so each of the 19,900 pairs holds
    # an open frame to the end: a pass keeping every pair's frame holds
    # about 157 B a row, one keeping a single actor's pairs at a time about 7
    n = 200
    actors = [f"a{i:03d}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    log = validate_log(columns(
        [InteractionEvent(actors[i], actors[j], k) for k, (i, j) in enumerate(pairs)]
    )).log
    assert _traced_peak(lambda: prompt_response_time(log)) < 16 * len(log.stamps)
