from collections import Counter

from teamsignals.surfaces import surface
from teamsignals.synth import ReplyDelay, SynthScenario, generate
from teamsignals.windows import WindowConfig, series


def make_series(vectors):
    """windows.series rows, (end, presence, values), for per-actor vectors."""
    actors = sorted(vectors)
    length = len(vectors[actors[0]])
    return [
        (1276432620 + 3600 * k, [True] * len(actors), [vectors[a][k] for a in actors])
        for k in range(length)
    ]


def surface_rows(rows):
    return [row for _end, row in surface(rows)]


def test_rows_sorted_descending():
    ws = make_series({"A": [0.5], "B": [1.0], "C": [0.0]})
    assert surface_rows(ws) == [[1.0, 0.5, 0.0]]


def test_constant_series_gives_identical_rows():
    ws = make_series({"a": [2.0, 2.0, 2.0], "b": [1.0, 1.0, 1.0]})
    rows = surface_rows(ws)
    assert len(set(map(tuple, rows))) == 1


def test_row_multiset_preserved_and_nonincreasing():
    sc = SynthScenario(
        n_actors=6, duration=4 * 86400, mean_event_rate=6.0,
        reply_delay=ReplyDelay.fixed(60), rotation_period=86400, seed=3,
    )
    log = generate(sc)
    ws = list(series(log, WindowConfig(12 * 3600, 3 * 3600), "bc"))
    matrix = list(surface(ws))
    assert len(matrix) == len(ws)
    for (end, row), (step, _presence, values) in zip(matrix, ws):
        assert end == step
        assert all(a >= b for a, b in zip(row, row[1:]))
        assert Counter(row) == Counter(values)


def test_relabeling_invariant():
    base = {"a": [1.0, 0.0], "b": [0.0, 2.0], "c": [3.0, 1.0]}
    renamed = {"x" + k: v for k, v in base.items()}
    assert surface_rows(make_series(base)) == surface_rows(make_series(renamed))


def test_surface_matches_series_through_pipeline(tmp_path):
    # sanity: a rotating log has a high back rank that stays populated
    sc = SynthScenario(
        n_actors=5, duration=6 * 86400, mean_event_rate=6.0,
        reply_delay=ReplyDelay.fixed(60), rotation_period=2 * 86400, seed=11,
    )
    log = generate(sc)
    matrix = surface_rows(series(log, WindowConfig(86400, 21600), "bc"))
    top_rank = [row[0] for row in matrix]
    assert max(top_rank) > 0
    interior = top_rank[2:-2]
    assert min(interior) > 0  # someone is always leading mid-log
