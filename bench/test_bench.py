"""Tests of the benchmark itself: reference, checker, tracer and entry point.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _random_digraph(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    adj = rng.random((n, n)) < density
    np.fill_diagonal(adj, False)
    return adj


def _networkx_bc(adj: np.ndarray) -> list[float]:
    g = nx.DiGraph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from(zip(*np.nonzero(adj)))
    bc = nx.betweenness_centrality(g, normalized=False)
    return [bc[v] for v in range(len(adj))]


def test_betweenness_agrees_with_networkx():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        batch = np.stack([_random_digraph(rng, n, d) for d in (0.1, 0.2, 0.35, 0.6)] * 5)
        bc, _ = reference.betweenness_batch(batch)
        for adj, got in zip(batch, bc):
            np.testing.assert_allclose(got, _networkx_bc(adj), rtol=1e-12, atol=1e-12)
            sparse_bc, _ = reference.betweenness_sparse(adj)
            np.testing.assert_allclose(sparse_bc, got, rtol=1e-12, atol=1e-12)


def test_exact_flag_marks_non_dyadic_dependencies():
    path = np.zeros((4, 4), dtype=bool)
    path[[0, 1, 2], [1, 2, 3]] = True
    _, exact = reference.betweenness_batch(path[None])
    assert exact.all()
    # three shortest 0->4 paths: dependencies through 1, 2, 3 are thirds
    diamond = np.zeros((6, 6), dtype=bool)
    diamond[0, [1, 2, 3]] = True
    diamond[[1, 2, 3], 4] = True
    diamond[4, 5] = True
    _, exact = reference.betweenness_batch(diamond[None])
    assert not exact[0, 1:4].any()
    assert exact[0, 0] and exact[0, 5]


def _count(values) -> int:
    """Strict interior extrema after merging equal neighbours (the package's rule)."""
    run_ = [v for k, v in enumerate(values) if k == 0 or v != values[k - 1]]
    return sum(1 for k in range(1, len(run_) - 1)
               if (run_[k] - run_[k - 1]) * (run_[k] - run_[k + 1]) > 0)


def test_extrema_bounds_match_every_noise_pattern():
    rng = random.Random(3)
    eps = 1e-12
    for _ in range(300):
        length = rng.randint(3, 7)
        values = [float(rng.choice((1, 2, 3))) for _ in range(length)]
        keys = [rng.choice((-1, rng.randint(0, 2))) for _ in range(length)]
        lo, hi = reference.extrema_bounds(values, [True] * length, keys)
        # a window's float is fixed by its key: exact (-1), or one offset per (value, key)
        groups = sorted({(v, key) for v, key in zip(values, keys) if key != -1})
        counts = set()
        for offsets in itertools.product((-eps, 0.0, eps), repeat=len(groups)):
            noise = dict(zip(groups, offsets))
            counts.add(_count([v + v * noise.get((v, key), 0.0) for v, key in zip(values, keys)]))
        exact = _count(values)
        assert lo == exact
        assert hi >= max(counts), (values, keys)
        assert min(counts) >= lo


def test_extrema_bounds_respect_presence_runs():
    values = [1.0, 2.0, 1.0, 0.0, 3.0, 1.0]
    assert reference.extrema_bounds(values, [True, True, True, False, True, True]) == (1, 1)
    assert reference.extrema_bounds(values, [True, True, False, True, True, False]) == (0, 0)


def _small(name: str) -> workloads.Workload:
    if name == "many_teams":
        return workloads.many_teams(5, n_teams=40, n_empty=2)
    if name == "badge_surface":
        return workloads.badge_surface(5, n_rows=1500, days=4)
    return workloads.email_all(5, n_rows=600, days=40)


@pytest.fixture(scope="module", params=["email_all", "many_teams", "badge_surface"])
def outputs(request, tmp_path_factory):
    """A small workload run through the CLI once, with its reference."""
    work = tmp_path_factory.mktemp(request.param)
    wl = _small(request.param)
    workloads.write(wl, work)
    for cmd in wl.commands:
        subprocess.run([sys.executable, "-m", "teamsignals.cli"] + cmd, env=ENV, check=True,
                       capture_output=True)
    return wl, reference.compute(wl), work / "out"


def _failed(out: Path, ref, wl) -> list[str]:
    return [name for name, ok in check.check(out, ref, wl) if not ok]


def test_outputs_pass_except_known_fault(outputs):
    wl, ref, out = outputs
    assert all(name.startswith(run.KNOWN_FAULT) for name in _failed(out, ref, wl))


def _corrupt(out: Path, dest: Path, name: str, edit) -> Path:
    shutil.copytree(out, dest)
    path = dest / name
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return dest


def test_checker_flags_planted_corruptions(outputs, tmp_path):
    wl, ref, out = outputs
    n_ops = len(check.check(out, ref, wl))
    before = set(_failed(out, ref, wl))
    team = next(t for t in ref["teams"] if t not in wl.canary_teams)
    row_of = lambda rows: next(r for r in rows if r[0] == team)  # noqa: E731

    def bump_rl(rows):
        row_of(rows)[3] = f"{float(row_of(rows)[3]) + 0.001:.6f}"

    def bump_frames(rows):
        row_of(rows)[7] = str(int(row_of(rows)[7]) + 1)

    cases = [("signals.csv", bump_rl, f"rl[{team}]"),
             ("signals.csv", bump_frames, f"n_closed_frames[{team}]")]
    if wl.correlate:
        cases.append(("correlations.csv", lambda rows: rows.pop(1), "correlations.csv cells"))
    if wl.surface:
        def swap(rows):
            row = next(r for r in rows[1:] if r[1] != r[2])
            row[1], row[2] = row[2], row[1]
        cases.append(("surface.csv", swap, None))
    for k, (name, edit, expected) in enumerate(cases):
        bad = _corrupt(out, tmp_path / str(k), name, edit)
        assert len(check.check(bad, ref, wl)) == n_ops
        new = set(_failed(bad, ref, wl)) - before
        assert new, name
        if expected:
            assert expected in new


def test_trace_finds_functions_where_they_are_looked_up(outputs, tmp_path):
    wl, ref, out = outputs
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, str(BENCH / "trace_cli.py"), str(spans)] + wl.commands[0],
                   env=ENV, check=True, capture_output=True)
    traced = json.loads(spans.read_text())
    calls = {name: s[0] for name, s in traced["spans"].items()}
    assert calls["ingest.parse_events"] == 1  # called as cli.parse_events
    assert calls["windows.series"] == 2 * len(ref["teams"])  # called as signals.series
    assert calls["cli.main"] == 1
    assert traced["counts"]["snapshots_built"] == 2 * len(ref["teams"]) * ref["windows"]


def test_removed_function_is_reported_absent():
    traced = {"spans": {"cli.main": [1, 2.0, 1.5]}, "counts": {}}
    r = type("R", (), {"spans": [traced], "wall": 2.5})()
    wl = _small("email_all")
    ref = {"teams": {"ALL": {}}, "windows": 10}
    metrics = run._layer_metrics([r], [r], ref, wl)
    assert metrics["ingest.parse_s"]["value"] is None
    assert metrics["model.partition_events_scanned"]["value"] is None
    assert metrics["windows.snapshot_reuse"]["value"] is None
    assert metrics["cli.self_s"]["value"] == pytest.approx(0.5)
    assert metrics["trace.uncovered_s"]["value"] == pytest.approx(0.5)


def test_canaries_do_not_depend_on_the_seed():
    a, b = workloads.many_teams(1, n_teams=10), workloads.many_teams(2, n_teams=10)
    canary = lambda wl: [r for r in wl.rows if r.sender.startswith("canary")]  # noqa: E731
    assert canary(a) == canary(b) and canary(a)


def test_same_seed_same_inputs(tmp_path):
    for k in (0, 1):
        workloads.write(workloads.many_teams(9, n_teams=30), tmp_path / str(k))
    for name in ("events.csv", "teams.csv", "depvars.csv"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
                           "email_all", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
