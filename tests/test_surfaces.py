from collections import Counter

from teamsignals.surfaces import surface
from teamsignals.synth import ReplyDelay, SynthScenario, generate
from teamsignals.windows import WindowConfig, WindowedSeries, series


def make_series(vectors, metric="bc"):
    length = len(next(iter(vectors.values())))
    return WindowedSeries(
        metric=metric,
        steps=tuple(1276432620 + 3600 * k for k in range(length)),
        values={a: tuple(v) for a, v in vectors.items()},
        presence={a: (True,) * length for a in vectors},
    )


def test_rows_sorted_descending():
    ws = make_series({"A": [0.5], "B": [1.0], "C": [0.0]})
    assert surface(ws).rows == ((1.0, 0.5, 0.0),)


def test_constant_series_gives_identical_rows():
    ws = make_series({"a": [2.0, 2.0, 2.0], "b": [1.0, 1.0, 1.0]})
    matrix = surface(ws)
    assert len(set(matrix.rows)) == 1


def test_row_multiset_preserved_and_nonincreasing():
    sc = SynthScenario(
        n_actors=6, duration=4 * 86400, mean_event_rate=6.0,
        reply_delay=ReplyDelay.fixed(60), rotation_period=86400, seed=3,
    )
    log = generate(sc)
    ws = series(log, WindowConfig(12 * 3600, 3 * 3600), "bc")
    matrix = surface(ws)
    assert len(matrix.rows) == len(ws.steps)
    for k, row in enumerate(matrix.rows):
        assert all(a >= b for a, b in zip(row, row[1:]))
        assert Counter(row) == Counter(ws.values[a][k] for a in ws.actors())


def test_relabeling_invariant():
    base = {"a": [1.0, 0.0], "b": [0.0, 2.0], "c": [3.0, 1.0]}
    renamed = {"x" + k: v for k, v in base.items()}
    assert surface(make_series(base)).rows == surface(make_series(renamed)).rows


def test_surface_matches_series_through_pipeline(tmp_path):
    # sanity: a rotating log has a high back rank that stays populated
    sc = SynthScenario(
        n_actors=5, duration=6 * 86400, mean_event_rate=6.0,
        reply_delay=ReplyDelay.fixed(60), rotation_period=2 * 86400, seed=11,
    )
    log = generate(sc)
    ws = series(log, WindowConfig(86400, 21600), "bc")
    matrix = surface(ws)
    top_rank = [row[0] for row in matrix.rows]
    assert max(top_rank) > 0
    interior = top_rank[2:-2]
    assert min(interior) > 0  # someone is always leading mid-log
