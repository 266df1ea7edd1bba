"""The one-pass layers equal the per-team, per-metric compositions they replace.

Every comparison is exact (==): the one-pass code must reproduce each float
bit for bit, not approximately.
"""

import random
from collections import Counter, deque
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teamsignals import windows
from teamsignals.model import (
    EmptyLogError,
    InteractionEvent,
    Team,
    partition_by_team,
    restrict_to_team,
    validate_log,
)
from teamsignals.signals import (
    TeamSignals,
    prompt_response_time,
    rotating_signal,
    team_signals,
)
from teamsignals.windows import (
    WindowConfig,
    _columns,
    _window_rows,
    betweenness,
    brandes_betweenness,
    build_snapshots,
    series,
)

from . import oracles
from .graphs import layered_graph, random_graph
from .oracles import brandes_reference, closed_frames, contribution_index

LOG_ACTORS = "abcdef"
ROSTER_ACTORS = LOG_ACTORS + "xy"  # x and y never appear in a log

# coarse timestamps and overlapping windows, so consecutive windows often
# hold the same edge set and betweenness reuse is exercised
logs = (
    st.lists(
        st.tuples(st.sampled_from(LOG_ACTORS), st.sampled_from(LOG_ACTORS), st.integers(0, 16)),
        min_size=1,
        max_size=40,
    )
    .filter(lambda rows: any(s != r for s, r, _ in rows))
    .map(lambda rows: validate_log([InteractionEvent(s, r, 900 * t) for s, r, t in rows]).log)
)
# overlapping rosters, roster actors absent from the log, and rosters with
# no events; an empty roster is the whole log
team_lists = st.lists(
    st.frozensets(st.sampled_from(ROSTER_ACTORS), max_size=5), min_size=1, max_size=6
).map(lambda rosters: [Team(f"t{i}", members) for i, members in enumerate(rosters)])
configs = st.builds(
    lambda step, mult: WindowConfig(step * mult, step),
    st.sampled_from([900, 1800, 3600]),
    st.integers(1, 4),
)


@settings(deadline=None)
@given(logs, team_lists)
def test_partition_equals_restrict_to_team(log, teams):
    # both against the plain filter of oracles.restrict_to_team
    team_logs, skipped = partition_by_team(log, teams)
    expected: dict = {}
    expected_skipped = []
    for team in teams:
        try:
            expected[team.team_id] = oracles.restrict_to_team(log, team)
        except EmptyLogError:
            expected_skipped.append(team.team_id)
            with pytest.raises(EmptyLogError, match=repr(team.team_id)):
                restrict_to_team(log, team)
        else:
            assert restrict_to_team(log, team) == expected[team.team_id]
    assert team_logs == expected
    assert list(team_logs) == list(expected)
    assert skipped == expected_skipped


@settings(deadline=None)
@given(logs, team_lists, configs)
def test_team_signals_equals_per_metric_composition(log, teams, cfg):
    for team in teams:
        try:
            team_log = oracles.restrict_to_team(log, team)
        except EmptyLogError:
            continue
        expected = TeamSignals(
            rl=rotating_signal(series(team_log, cfg, "bc")),
            rc=rotating_signal(series(team_log, cfg, "ci")),
            prt_et=prompt_response_time(team_log, "et"),
            prt_fn=prompt_response_time(team_log, "fn"),
            n_actors=len(team_log.actors()),
            n_closed_frames=len(closed_frames(team_log)),
        )
        assert team_signals(team_log, cfg) == expected


@settings(deadline=None)
@given(logs, configs)
def test_reused_betweenness_equals_fresh_betweenness(log, cfg):
    actors, columns = _columns(log)
    rows = list(_window_rows(log, cfg, columns, len(actors), True))
    assert [(end, p, ci) for end, p, _, ci, _ in rows] == list(series(log, cfg, "ci"))
    assert [(end, p, bc) for end, p, bc, _, _ in rows] == list(series(log, cfg, "bc"))
    snapshots = build_snapshots(log, cfg)
    assert [end for end, *_ in rows] == [s.window_end for s in snapshots]
    for (_, _, bc, _, _), snap in zip(rows, snapshots):
        fresh = betweenness(snap)
        assert dict(zip(actors, bc)) == fresh


@contextmanager
def _kernel_inputs():
    """Record a copy of the adjacency of every brandes_betweenness call."""
    inputs = []
    real = windows.brandes_betweenness

    def recording(adjacency):
        inputs.append([list(succ) for succ in adjacency])
        return real(adjacency)

    with mock.patch.object(windows, "brandes_betweenness", recording):
        yield inputs


def test_repeated_edge_set_computes_betweenness_once():
    # a->b->c repeats every hour: every 3h window holds the same edge set
    events = [InteractionEvent(s, r, 3600 * h + m)
              for h in range(8) for s, r, m in (("a", "b", 0), ("b", "c", 60))]
    log = validate_log(events).log
    with _kernel_inputs() as calls:
        rows = list(series(log, WindowConfig(3 * 3600, 3600), "bc"))
    assert len(rows) == 8
    assert len(calls) == 1
    assert [values[1] for _, _, values in rows] == [1.0] * 8  # b, in roster order a, b, c


# grids anchored at the log start, before it and after it (the logs span
# 0..4h), including step == window_size
aligned_configs = st.builds(
    lambda step, mult, alignment: WindowConfig(step * mult, step, alignment),
    st.sampled_from([900, 1800, 3600]),
    st.integers(1, 4),
    st.one_of(st.none(), st.integers(-4 * 3600, 6 * 3600)),
)


@st.composite
def _team_logs(draw):
    """Whole logs, and logs narrowed to a roster that leaves some of their actors out."""
    log = draw(logs)
    members = draw(st.frozensets(st.sampled_from(LOG_ACTORS)))
    if members:  # with one event's ends, so the team log is never empty
        kept = draw(st.sampled_from(log.events))
        members |= {kept.sender, kept.recipient}
    return oracles.restrict_to_team(log, Team("t", members))


team_logs = _team_logs()


@settings(deadline=None)
@given(team_logs, aligned_configs)
def test_sliding_pass_equals_snapshots(log, cfg):
    actors, columns = _columns(log)
    with _kernel_inputs() as kernel_inputs:
        rows = list(_window_rows(log, cfg, columns, len(actors), True))
    snapshots = build_snapshots(log, cfg)
    # the kernel runs once per change of edge set, starting from the empty
    # one, on the adjacency betweenness(snapshot) builds
    index = {a: i for i, a in enumerate(actors)}
    expected_inputs = []
    prev_edges: set = set()
    for snap in snapshots:
        if set(snap.edges) != prev_edges:
            adjacency: list = [[] for _ in actors]
            for src, dst in sorted(snap.edges):
                adjacency[index[src]].append(index[dst])
            expected_inputs.append(adjacency)
        prev_edges = set(snap.edges)
    assert kernel_inputs == expected_inputs
    assert [end for end, *_ in rows] == [s.window_end for s in snapshots]
    for metric in ("bc", "ci"):
        assert list(series(log, cfg, metric)) == [
            (end, presence, bc if metric == "bc" else ci) for end, presence, bc, ci, _ in rows
        ]
    for (_, presence, bc, ci, _), snap in zip(rows, snapshots):
        sent: Counter = Counter()
        received: Counter = Counter()
        for (src, dst), count in snap.edges.items():
            sent[src] += count
            received[dst] += count
        fresh = betweenness(snap)
        for i, a in enumerate(actors):
            assert bc[i] == fresh[a]
            assert ci[i] == contribution_index(sent[a], received[a])
            assert presence[i] == (a in sent or a in received)


def test_edge_leaving_and_reentering_in_one_step_keeps_scores():
    # window (0, 2h] loses a->b@0 and gains a->b@2h: the edge set is unchanged,
    # so only the first window calls the kernel
    log = validate_log([
        InteractionEvent("a", "b", 0),
        InteractionEvent("b", "c", 1800),
        InteractionEvent("a", "b", 7200),
    ]).log
    cfg = WindowConfig(2 * 3600, 3600)
    with _kernel_inputs() as calls:
        rows = list(series(log, cfg, "bc"))
    snapshots = build_snapshots(log, cfg)
    assert [sorted(s.edges) for s in snapshots] == [[("a", "b"), ("b", "c")]] * 2
    assert calls == [[[1], [2], []]]
    assert [values[1] for _, _, values in rows] == [1.0, 1.0]  # b, in roster order a, b, c


def _brandes_reference(adjacency):
    """The Brandes loop before the trim: a deque and n pred lists per source."""
    n = len(adjacency)
    bc = [0.0] * n
    for s in range(n):
        if not adjacency[s]:
            continue
        dist = [-1] * n
        sigma = [0] * n
        preds = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    return bc


graphs = st.integers(1, 9).flatmap(
    lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda edges: [sorted(j for i, j in edges if i == v and j != v) for v in range(n)]
    )
)


@settings(deadline=None)
@given(graphs)
def test_brandes_trim_is_bit_identical(adjacency):
    assert brandes_betweenness(adjacency) == _brandes_reference(adjacency)


@st.composite
def depth_one_graphs(draw):
    """Graphs built around a source s whose successors the depth-1 skip judges.

    Each successor of s is a sink, returns only to s (a 2-cycle), points at
    another successor (still depth 1, though the skip does not catch it) or
    at any node; a few random edges may follow. n = 0 is the empty graph.
    """
    n = draw(st.integers(0, 9))
    edges: set = set()
    if n:
        s = draw(st.integers(0, n - 1))
        leaves = sorted(draw(st.sets(st.integers(0, n - 1).filter(lambda w: w != s))))
        for w in leaves:
            edges.add((s, w))
            kind = draw(st.sampled_from(["sink", "back", "sibling", "any"]))
            if kind == "back":
                edges.add((w, s))
            elif kind == "sibling":
                edges.add((w, draw(st.sampled_from(leaves))))
            elif kind == "any":
                edges.add((w, draw(st.integers(0, n - 1))))
        edges |= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    return [sorted(j for i, j in edges if i == v and j != v) for v in range(n)]


@settings(deadline=None, max_examples=300)
@given(st.one_of(depth_one_graphs(), graphs))
# a star with a 2-cycle: source 0 is skipped, as each successor is a sink or
# returns only to 0; source 2 is not, and 0 lies on 2->0->1 and 2->0->3
@example([[1, 2, 3], [], [0], []])
@example([])
def test_depth_one_skip_is_bit_identical(adjacency):
    assert brandes_betweenness(adjacency) == brandes_reference(adjacency)


@st.composite
def larger_graphs(draw):
    """Seeded random graphs of 1 to 40 nodes at four edge densities."""
    n = draw(st.integers(1, 40))
    p = draw(st.sampled_from([0.03, 0.08, 0.15, 0.3]))
    return random_graph(random.Random(draw(st.integers(0, 2**32 - 1))), n, p)


@settings(deadline=None, max_examples=200)
@given(larger_graphs())
def test_kernel_is_bit_identical_up_to_40_nodes(adjacency):
    assert brandes_betweenness(adjacency) == brandes_reference(adjacency)


def _most_shortest_paths(adjacency) -> int:
    """The largest shortest-path count over all ordered pairs, counted with ints."""
    most = 0
    for s in range(len(adjacency)):
        dist, count, order = {s: 0}, {s: 1}, [s]
        for v in order:
            for w in adjacency[v]:
                if w not in dist:
                    dist[w], count[w] = dist[v] + 1, count[v]
                    order.append(w)
                elif dist[w] == dist[v] + 1:
                    count[w] += count[v]
        most = max(most, *count.values())
    return most


# the layered_graph seeds below 40 with more than 2**53 shortest paths between
# some pair; on seed 27, float counts that skip the int sum past 2**53 give
# other bits
@pytest.mark.parametrize("seed", [5, 6, 10, 27, 29, 33, 35, 37, 38])
def test_kernel_is_bit_identical_past_2_53_paths(seed):
    adjacency = layered_graph(seed)
    assert _most_shortest_paths(adjacency) > 2**53
    assert brandes_betweenness(adjacency) == brandes_reference(adjacency)
