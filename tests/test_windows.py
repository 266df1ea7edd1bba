import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsignals.model import MAX_TIMESTAMP, validate_log
from teamsignals.windows import (
    ConfigError,
    GraphSnapshot,
    WindowConfig,
    betweenness,
    brandes_betweenness,
    build_snapshots,
    parse_duration,
    series,
)

from .oracles import (
    InteractionEvent,
    columns,
    contribution_index,
    events_of,
    pair_distances,
    window_ends,
)
from .test_one_pass import LOG_ACTORS, configs, logs

HOUR = 3600


def ev(sender, recipient, ts):
    return InteractionEvent(sender, recipient, ts)


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,seconds",
        [("45s", 45), ("90m", 5400), ("12h", 12 * HOUR), ("7d", 7 * 86400), ("1w", 604800)],
    )
    def test_units(self, text, seconds):
        assert parse_duration(text) == seconds

    def test_garbage(self):
        # int() reads non-ASCII digits and a case-blind [smhdw] takes the long s
        for text in ("12 fortnights", "\u0667h", "\u0661d", "7\u017f", "1" * 5000 + "h"):
            with pytest.raises(ConfigError):
                parse_duration(text)

    def test_long_count(self):
        # int() refuses past 4300 digits, in words that vary by version
        with pytest.raises(ConfigError) as exc:
            parse_duration("9" * 4301 + "h")
        assert str(exc.value) == f"duration {'9' * 40 + '…'!r} has more than 4300 digits"
        # leading zeros do not count
        assert parse_duration("0" * 5000 + "7d") == 7 * 86400
        assert parse_duration("1" * 4300 + "s") == int("1" * 4300)


class TestWindowConfig:
    def test_step_larger_than_window(self):
        with pytest.raises(ConfigError):
            WindowConfig(window_size=HOUR, step=2 * HOUR)

    @pytest.mark.parametrize("ws,step", [(0, 1), (-5, 1), (10, 0), (10, -1)])
    def test_nonpositive(self, ws, step):
        with pytest.raises(ConfigError):
            WindowConfig(window_size=ws, step=step)


class TestGrid:
    def test_24h_span_hourly_steps(self):
        # 24 h of data, 12 h window, 1 h step: ends at hours 1..24 after start
        log = validate_log(columns([ev("a", "b", 0), ev("b", "a", 24 * HOUR)])).log
        cfg = WindowConfig(window_size=12 * HOUR, step=HOUR)
        ends = window_ends(log, cfg)
        assert ends == [k * HOUR for k in range(1, 25)]

    def test_offgrid_end_gets_covering_window(self):
        log = validate_log(columns([ev("a", "b", 0), ev("b", "a", 90 * 60)])).log
        cfg = WindowConfig(window_size=2 * HOUR, step=HOUR)
        assert window_ends(log, cfg) == [HOUR, 2 * HOUR]

    def test_single_instant_log(self):
        log = validate_log(columns([ev("a", "b", 500), ev("b", "a", 500)])).log
        cfg = WindowConfig(window_size=2 * HOUR, step=HOUR)
        assert window_ends(log, cfg) == [500 + HOUR]

    def test_range_start_before_first_event(self):
        # a team log keeps the full log's range, which can start before its events
        log = validate_log(columns([ev("a", "b", 1800), ev("b", "a", 9000)])).log._replace(t_start=0)
        cfg = WindowConfig(window_size=HOUR, step=HOUR)
        assert window_ends(log, cfg) == [0, HOUR, 2 * HOUR, 3 * HOUR]

    def test_single_event_edge_multiplicity(self):
        log = validate_log(columns([ev("a", "b", 100), ev("a", "b", 101)])).log
        cfg = WindowConfig(window_size=2 * HOUR, step=HOUR)
        snaps = build_snapshots(log, cfg)
        assert len(snaps) == 1
        assert snaps[0].edges == {("a", "b"): 2}
        assert snaps[0].nodes == frozenset("ab")

    def test_windows_are_left_open(self):
        log = validate_log(columns([ev("a", "b", 0), ev("b", "a", 2 * HOUR)])).log
        cfg = WindowConfig(window_size=HOUR, step=HOUR)
        snaps = build_snapshots(log, cfg)
        # with window_size == step the first window ends at t_start and holds
        # the event there, which sits on the open boundary of the next one
        assert [s.window_end for s in snaps] == [0, HOUR, 2 * HOUR]
        assert snaps[0].edges == {("a", "b"): 1}
        assert snaps[1].edges == {}
        assert snaps[2].edges == {("b", "a"): 1}

    def test_roster_kept_when_inactive(self):
        # c's one event falls in the last window; the first still holds c
        log = validate_log(columns([ev("a", "b", 0), ev("b", "a", 1800), ev("c", "a", 2 * HOUR)])).log
        cfg = WindowConfig(window_size=HOUR, step=HOUR)
        snaps = build_snapshots(log, cfg)
        assert snaps[0].edges == {("a", "b"): 1}
        assert snaps[0].nodes == frozenset("abc")


def snapshot_from_edges(edges, n):
    nodes = frozenset(f"n{i}" for i in range(n))
    return GraphSnapshot(
        window_end=0,
        nodes=nodes,
        edges={(f"n{i}", f"n{j}"): 1 for i, j in edges},
    )


class TestBetweenness:
    def test_directed_path(self):
        scores = betweenness(snapshot_from_edges({(0, 1), (1, 2)}, 3))
        assert scores == {"n0": 0.0, "n1": 1.0, "n2": 0.0}

    def test_directed_three_cycle(self):
        scores = betweenness(snapshot_from_edges({(0, 1), (1, 2), (2, 0)}, 3))
        assert scores == {"n0": 1.0, "n1": 1.0, "n2": 1.0}

    def test_no_edges(self):
        scores = betweenness(snapshot_from_edges(set(), 4))
        assert set(scores.values()) == {0.0}

    def test_bidirectional_star_closed_form(self):
        # hub linked both ways with m spokes scores m*(m-1)
        for m in range(2, 7):
            edges = {(0, j) for j in range(1, m + 1)} | {(j, 0) for j in range(1, m + 1)}
            scores = betweenness(snapshot_from_edges(edges, m + 1))
            assert scores["n0"] == m * (m - 1)
            assert all(scores[f"n{j}"] == 0.0 for j in range(1, m + 1))

    def test_multiplicity_ignored(self):
        snap = GraphSnapshot(0, frozenset("abc"), {("a", "b"): 7, ("b", "c"): 1})
        assert betweenness(snap)["b"] == 1.0

    def test_global_sum_is_interior_slots(self):
        # sum of g(v) == sum over reachable ordered pairs of (d(s,t) - 1)
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 7)
            edges = {
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.3
            }
            adjacency = [[] for _ in range(n)]
            for i, j in sorted(edges):
                adjacency[i].append(j)
            total = sum(brandes_betweenness(adjacency))
            expected = sum(d - 1 for d in pair_distances(n, edges).values())
            assert math.isclose(total, expected, abs_tol=1e-9)


class TestContributionIndex:
    def test_plain_ratio(self):
        assert contribution_index(6, 2) == 0.5

    def test_no_events(self):
        assert contribution_index(0, 0) == 0.0

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            contribution_index(-1, 2)


def by_actor(rows, actors):
    """windows.series rows as per-actor (values, presence) lists, roster sorted."""
    return {
        a: ([values[i] for _, _, values in rows], [presence[i] for _, presence, _ in rows])
        for i, a in enumerate(sorted(actors))
    }


class TestSeries:
    def test_alternating_directions_alternate_ci(self):
        events = [ev("a", "b", 1800), ev("b", "a", 5400), ev("a", "b", 9000), ev("b", "a", 12600)]
        log = validate_log(columns(events)).log._replace(t_start=0, t_end=12600)
        cfg = WindowConfig(window_size=HOUR, step=HOUR)
        ws = by_actor(list(series(log, cfg, "ci")), "ab")
        # the first window ends at t_start = 0, before any event
        assert ws["a"][0] == [0.0, 1.0, -1.0, 1.0, -1.0]
        assert ws["b"][0] == [0.0, -1.0, 1.0, -1.0, 1.0]
        assert ws["a"][1] == [False, True, True, True, True]

    def test_silent_actor_zero_and_absent(self):
        # mute's one event sits at the log start, in the window ending there only
        log = validate_log(columns([ev("mute", "a", 100), ev("a", "b", 100), ev("b", "a", 7300)])).log
        cfg = WindowConfig(window_size=HOUR, step=HOUR)
        values, presence = by_actor(list(series(log, cfg, "bc")), log.names)["mute"]
        assert set(values) == {0.0}
        assert presence == [True, False, False]

    def test_ci_range_and_presence_mask(self):
        rng = random.Random(3)
        events = [
            ev(f"u{rng.randint(0, 4)}", f"u{rng.randint(5, 9)}", rng.randint(0, 40) * 900)
            for _ in range(60)
        ]
        log = validate_log(columns(events)).log
        for _, presence, values in series(log, WindowConfig(2 * HOUR, HOUR), "ci"):
            for value, present in zip(values, presence):
                assert -1.0 <= value <= 1.0
                if not present:
                    assert value == 0.0
        bc = series(log, WindowConfig(2 * HOUR, HOUR), "bc")
        assert all(v >= 0.0 for _, _, values in bc for v in values)

    def test_deterministic(self):
        events = [ev("a", "b", 0), ev("b", "c", 1800), ev("c", "a", 4000)]
        log = validate_log(columns(events)).log
        cfg = WindowConfig(2 * HOUR, HOUR)
        assert list(series(log, cfg, "bc")) == list(series(log, cfg, "bc"))

    @settings(deadline=None)
    @given(logs, configs, st.permutations(LOG_ACTORS))
    def test_relabeling_permutes_values(self, log, cfg, names):
        # each actor keeps its own values, bit for bit, under its new name
        rename = dict(zip(LOG_ACTORS, names))
        relabeled = validate_log(columns(
            ev(rename[e.sender], rename[e.recipient], e.timestamp) for e in events_of(log)
        )).log
        where = [relabeled.names.index(rename[a]) for a in log.names]
        for metric in ("bc", "ci"):
            ours = list(series(log, cfg, metric))
            theirs = list(series(relabeled, cfg, metric))
            assert [end for end, _, _ in theirs] == [end for end, _, _ in ours]
            for (_, presence, mine), (_, presence2, other) in zip(ours, theirs):
                assert [presence2[j] for j in where] == presence
                assert [other[j] for j in where] == mine

    def test_unknown_metric(self):
        log = validate_log(columns([ev("a", "b", 0), ev("b", "a", 10)])).log
        with pytest.raises(ConfigError):
            series(log, WindowConfig(HOUR, HOUR), "pagerank")

    def test_grid_past_max_timestamp_raises_before_the_first_row(self):
        log = validate_log(columns([ev("a", "b", MAX_TIMESTAMP - 10), ev("b", "a", MAX_TIMESTAMP)])).log
        with pytest.raises(ConfigError):
            series(log, WindowConfig(HOUR, HOUR), "bc")


# logs whose range starts at or up to 1000 s before their first event, as a team log's can
grid_logs = st.builds(
    lambda a, b, lead: validate_log(
        columns([ev("a", "b", min(a, b)), ev("b", "a", max(a, b) + 1)])
    ).log._replace(t_start=min(a, b) - lead),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.integers(0, 1000),
)
grid_cfgs = st.builds(
    lambda step, mult: WindowConfig(step * mult, step),
    st.integers(1, 400),
    st.integers(1, 5),
)


@given(grid_logs, grid_cfgs)
def test_window_grid_properties(log, cfg):
    ends = window_ends(log, cfg)
    # a contiguous grid from the start, reaching the end
    assert all(b - a == cfg.step for a, b in zip(ends, ends[1:]))
    # the first end is t_start itself when windows tile, else one step after it
    assert ends[0] == log.t_start + (cfg.step if cfg.window_size > cfg.step else 0)
    assert ends[-1] >= log.t_end or len(ends) == 1
    assert ends[-1] - cfg.step < log.t_end or len(ends) == 1
    assert all((end - log.t_start) % cfg.step == 0 for end in ends)
    # windows jointly cover the whole closed range, t_start included
    covered_lo = ends[0] - cfg.window_size
    assert covered_lo < log.t_start


@given(grid_logs, grid_cfgs)
def test_every_event_lies_in_a_window(log, cfg):
    ends = window_ends(log, cfg)
    for t in log.stamps:
        assert any(end - cfg.window_size < t <= end for end in ends), t
