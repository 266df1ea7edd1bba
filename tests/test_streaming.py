"""metrics' streaming path: window rows feed the extrema counters directly.

team_signals never holds a per-window series. These tests pin the pieces
that make that exact: the online counter equals count_extrema and the
independent scan, unchanged rows arrive as the same objects, the PRT pass
equals the frame list bit for bit and meets responders in its order, and
traced memory does not grow with the grid. Each row names the actors it
moved, and judging only those (every actor when the bc row is new) counts
what judging whole rows counts.
"""

import tracemalloc
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from teamsignals.model import EventLog, InteractionEvent, validate_log
from teamsignals.signals import _ExtremaCounter, rotating_signal, team_signals
from teamsignals.windows import WindowConfig, _columns, _window_rows, series

from .oracles import closed_frames, count_extrema, extrema_scan, prt_from_frames, segment_frames
from .test_one_pass import _kernel_inputs, aligned_configs, logs, team_logs
from .test_signals import responsiveness

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
        counter.feed(values, presence)
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
            alone.feed(values, masked[key])
        assert alone.total == count
        expected += count
    assert counter.total == expected


def test_unchanged_rows_are_yielded_as_the_same_objects():
    # a-b at 0.5h and b-a at 4.5h; with 1h windows three windows between are empty
    log = validate_log(
        [InteractionEvent("a", "b", HOUR // 2), InteractionEvent("b", "a", 9 * HOUR // 2)]
    ).log
    _actors, columns = _columns(log)
    got = list(_window_rows(log, WindowConfig(HOUR, HOUR, alignment=0), columns, 2, True))
    assert [end for end, *_ in got] == [HOUR, 2 * HOUR, 3 * HOUR, 4 * HOUR, 5 * HOUR]
    (_, p0, b0, c0, _), (_, p1, b1, c1, _), (_, p2, b2, c2, _), (_, p3, b3, c3, _), _ = got
    assert p0 == [True, True] and c0 == [1.0, -1.0]
    assert p1 == [False, False]
    # no event enters or leaves between windows 1, 2 and 3
    assert p2 is p1 and c2 is c1 and p3 is p1 and c3 is c1
    # the edge set changes only at windows 0 and 1, so bc is reused after
    assert b2 is b1 and b3 is b1


def _rows(log, cfg):
    actors, columns = _columns(log)
    return list(_window_rows(log, cfg, columns, len(actors), True)), len(actors)


def _totals(rows, n, moved_only):
    """RL and RC extrema totals, judging moved actors only or whole rows."""
    rl, rc = _ExtremaCounter(n), _ExtremaCounter(n)
    scores = None
    for _end, presence, bc, ci, moved in rows:
        if moved_only:
            rl.feed(bc, presence, range(n) if bc is not scores else moved)
            rc.feed(ci, presence, moved)
            scores = bc
        else:
            rl.feed(bc, presence)
            rc.feed(ci, presence)
    return rl.total, rc.total


@settings(deadline=None)
@given(team_logs, aligned_configs)
def test_only_moved_actors_change_presence_or_ci(log, cfg):
    rows, n = _rows(log, cfg)
    before = ([False] * n, [0.0] * n)  # the rows of a window with no events
    for _end, presence, _bc, ci, moved in rows:
        changed = {i for i in range(n) if presence[i] != before[0][i] or ci[i] != before[1][i]}
        assert changed <= moved
        before = (presence, ci)


@settings(deadline=None)
@given(team_logs, aligned_configs)
def test_judging_moved_actors_equals_judging_whole_rows(log, cfg):
    rows, n = _rows(log, cfg)
    assert _totals(rows, n, moved_only=True) == _totals(rows, n, moved_only=False)


@settings(deadline=None)
@given(team_logs, aligned_configs)
def test_presence_and_ci_rows_do_not_depend_on_want_bc(log, cfg):
    actors, columns = _columns(log)

    def rows(want_bc):
        return [(end, presence, ci, moved) for end, presence, _bc, ci, moved
                in _window_rows(log, cfg, columns, len(actors), want_bc)]

    assert rows(False) == rows(True)


def test_event_entering_and_leaving_in_one_step():
    # a->b at 0 precedes the first window, (0, 1h]: it enters and leaves in
    # the first step, moving a and b without changing their rows
    log = validate_log([
        InteractionEvent("a", "b", 0),
        InteractionEvent("c", "d", 1800),
        InteractionEvent("d", "c", 7200),
    ]).log
    rows, n = _rows(log, WindowConfig(HOUR, HOUR))
    (_, p0, _, c0, m0), (_, p1, _, c1, m1) = rows
    assert m0 == {0, 1, 2, 3}  # a, b, c, d
    assert p0 == [False, False, True, True] and c0 == [0.0, 0.0, 1.0, -1.0]
    assert m1 == {2, 3}
    assert p1 == [False, False, True, True] and c1 == [0.0, 0.0, -1.0, 1.0]
    assert _totals(rows, n, moved_only=True) == _totals(rows, n, moved_only=False)


def test_actor_unchanged_while_another_moves():
    # c->d@0 stays in the 3h windows ending at 1h and 2h; a->b enters at 2h
    log = validate_log([
        InteractionEvent("c", "d", 0),
        InteractionEvent("a", "b", 5400),
        InteractionEvent("c", "d", 5 * HOUR),
    ]).log
    rows, n = _rows(log, WindowConfig(3 * HOUR, HOUR))
    assert [sorted(moved) for *_, moved in rows] == [[2, 3], [0, 1], [2, 3], [], [0, 1, 2, 3]]
    (_, p0, _, c0, _), (_, p1, _, c1, _) = rows[:2]
    assert p1 is not p0 and c1 is not c0  # new rows, equal where nothing moved
    assert (p0[2:], c0[2:]) == (p1[2:], c1[2:]) == ([True, True], [1.0, -1.0])
    assert _totals(rows, n, moved_only=True) == _totals(rows, n, moved_only=False)


def test_kernel_call_that_leaves_every_score_equal():
    # a->b, then c->d as well: the edge set changes, every score stays 0.0,
    # and a and b do not move; the equal scores keep their row object
    log = validate_log([InteractionEvent("a", "b", 0), InteractionEvent("c", "d", 5400)]).log
    with _kernel_inputs() as calls:
        rows, n = _rows(log, WindowConfig(3 * HOUR, HOUR))
    assert len(calls) == 2
    (_, _, b0, _, _), (_, _, b1, _, m1) = rows
    assert b1 is b0 and b1 == [0.0] * 4
    assert m1 == {2, 3}
    assert _totals(rows, n, moved_only=True) == _totals(rows, n, moved_only=False)


def test_kernel_call_changes_an_unmoved_actors_score():
    # b's events stay put while c->d enters: b's betweenness goes 1, 2, 0,
    # a maximum that only judging every actor after a kernel call sees
    log = validate_log([
        InteractionEvent("a", "b", 0),
        InteractionEvent("b", "c", 1800),
        InteractionEvent("c", "d", 5400),
        InteractionEvent("c", "d", 3 * HOUR),
    ]).log
    cfg = WindowConfig(3 * HOUR, HOUR)
    rows, _ = _rows(log, cfg)
    assert [(bc[1], sorted(moved)) for _, _, bc, _, moved in rows] == [
        (1.0, [0, 1, 2]), (2.0, [2, 3]), (0.0, [0, 1, 2, 3])
    ]
    assert team_signals(log, cfg).rl == rotating_signal(series(log, cfg, "bc")) == 2 / 4


@settings(deadline=None)
@given(logs)
def test_frame_pairs_in_sorted_actor_order(log):
    streams = defaultdict(list)
    for e in log.events:
        streams[frozenset((e.sender, e.recipient))].append(e)
    expected = []
    for key in sorted(streams, key=sorted):
        pair_log = EventLog(tuple(streams[key]), log.t_start, log.t_end)
        expected.extend(f for f in segment_frames(pair_log, *sorted(key)) if f.closed)
    assert closed_frames(log) == expected
    # the one pass meets each responder at its first closed frame in that order
    responders = list(dict.fromkeys(f.target for f in expected))
    assert list(responsiveness(log, "et")) == responders
    assert team_signals(log, WindowConfig(HOUR, HOUR)).n_closed_frames == len(expected)


def _event_log(rows) -> EventLog:
    """An EventLog built by hand: sorted, but self-loops and duplicates kept."""
    events = sorted((InteractionEvent(s, r, t) for s, r, t in rows), key=InteractionEvent.sort_key)
    return EventLog(tuple(events), events[0].timestamp, events[-1].timestamp)


# few actors and stamps, so pairs interleave and stamps repeat; the stamp
# scales spread elapsed times over magnitudes, where a float sum in another
# responder order rounds differently
prt_logs = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"),
              st.integers(0, 12), st.sampled_from([1, 7, 3600, 10**9 + 7])),
    min_size=1,
    max_size=40,
).map(lambda rows: _event_log([(s, r, t * scale) for s, r, t, scale in rows]))


@settings(deadline=None)
@given(prt_logs)
def test_prt_pass_equals_frame_list(log):
    sig = team_signals(log, WindowConfig(10**10, 10**10))  # PRT does not depend on the grid
    assert sig.prt_et == prt_from_frames(log, "et")
    assert sig.prt_fn == prt_from_frames(log, "fn")
    assert sig.n_closed_frames == len(closed_frames(log))


def test_prt_responder_order_decides_the_float_sum():
    # pairs in sorted order: (a, d) closes frames answered by d, then a;
    # (b, c) and (b, d) then add b. By time of first reply the order would be
    # d, b, a, and that weighted sum differs in the last bit
    rows = [("b", "d", 0), ("d", "b", 1), ("c", "b", 2), ("d", "b", 2), ("a", "d", 3),
            ("d", "a", 3), ("b", "c", 1000001), ("a", "d", 3000007), ("d", "a", 3000007)]
    log = validate_log([InteractionEvent(s, r, t) for s, r, t in rows]).log
    rcf = responsiveness(log, "et")
    assert list(rcf) == ["d", "a", "b"]
    weight = {"a": 4, "b": 5, "d": 7}

    def weighted(order):
        num = 0.0
        for a in order:
            num += rcf[a] * weight[a]
        return num / sum(weight[a] for a in order)

    assert weighted(["d", "a", "b"]) != weighted(["d", "b", "a"])
    sig = team_signals(log, WindowConfig(HOUR, HOUR))
    assert sig.prt_et == weighted(["d", "a", "b"]) == prt_from_frames(log, "et")


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
    log = validate_log(
        [InteractionEvent(actors[k % n], actors[(k + 1) % n], 60 * k) for k in range(1440)]
    ).log
    minutes = _traced_peak(lambda: team_signals(log, WindowConfig(HOUR, 60)))  # 1440 windows
    hours = _traced_peak(lambda: team_signals(log, WindowConfig(HOUR, HOUR)))  # 24 windows
    assert minutes < 2 * hours
