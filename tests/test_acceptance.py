"""Release acceptance suite: one test per criterion, each timed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.
"""

import functools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from importlib.resources import files

import numpy as np

from teamsignals.cli import main
from teamsignals.model import validate_log
from teamsignals.signals import prompt_response_time, rotating_signal
from teamsignals.stats import p_value
from teamsignals.synth import ReplyDelay, SynthScenario, generate
from teamsignals.windows import (
    GraphSnapshot,
    WindowConfig,
    betweenness,
    brandes_betweenness,
    series,
)

from .oracles import (
    bc_floyd_warshall_batch,
    bc_path_enumeration,
    contribution_index,
    count_extrema,
    reversal_count,
    segment_frames,
    t_cdf,
)

DAY = 86400

ORDERED_PAIRS = {n: [(i, j) for i in range(n) for j in range(n) if i != j] for n in range(9)}


def _adjacency_from_mask(n: int, mask: int) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    pairs = ORDERED_PAIRS[n]
    bit = 0
    while mask:
        if mask & 1:
            i, j = pairs[bit]
            adjacency[i].append(j)
        mask >>= 1
        bit += 1
    return adjacency


@functools.lru_cache(maxsize=None)
def _half_tables(n: int) -> tuple[list, list, int]:
    """Per-node successor tuples for each low/high half of an edge mask."""
    pairs = ORDERED_PAIRS[n]
    half = len(pairs) // 2
    low, high = [], []
    for table, lo_bit, hi_bit in ((low, 0, half), (high, half, len(pairs))):
        for value in range(1 << (hi_bit - lo_bit)):
            rows = [[] for _ in range(n)]
            for b in range(lo_bit, hi_bit):
                if value >> (b - lo_bit) & 1:
                    i, j = pairs[b]
                    rows[i].append(j)
            table.append([tuple(r) for r in rows])
    return low, high, half


def _bc_mask_range(args: tuple[int, int, int]) -> float:
    """Worst |brandes - oracle| over a contiguous range of edge masks."""
    n, start, stop = args
    masks = np.arange(start, stop, dtype=np.int64)
    adj = np.zeros((len(masks), n, n), dtype=bool)
    for bit, (i, j) in enumerate(ORDERED_PAIRS[n]):
        adj[:, i, j] = ((masks >> bit) & 1).astype(bool)
    expected = bc_floyd_warshall_batch(adj)
    low, high, half = _half_tables(n)
    half_mask = (1 << half) - 1
    got = [
        brandes_betweenness(
            [lo + hi for lo, hi in zip(low[mask & half_mask], high[mask >> half])]
        )
        for mask in range(start, stop)
    ]
    return float(np.abs(np.asarray(got) - expected).max())


def _snapshot(n: int, edges) -> GraphSnapshot:
    nodes = frozenset(f"n{i}" for i in range(n))
    return GraphSnapshot(0, nodes, {(f"n{i}", f"n{j}"): 1 for i, j in edges})


def test_significance_reproduction():
    start = time.perf_counter()
    assert 0.002 <= p_value(0.830, 10) <= 0.004
    assert 0.031 <= p_value(0.707, 9) <= 0.035
    assert 0.005 <= p_value(-0.546, 24) <= 0.007
    assert p_value(0.928, 10) < 0.0005
    # t-CDF spot checks against high-precision references (mpmath, 40 digits)
    assert abs(t_cdf(4.209, 8) - 0.9985200457248936) < 1e-6
    assert abs(t_cdf(2.645, 7) - 0.9834091615759846) < 1e-6
    assert abs(t_cdf(3.057, 22) - 0.9971116911236008) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS significance reproduction ({elapsed:.3f}s)")


def test_bc_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0

    # every directed graph on up to 4 nodes, through the public snapshot API,
    # against literal all-shortest-path enumeration
    for n in range(1, 5):
        pairs = ORDERED_PAIRS[n]
        for mask in range(1 << len(pairs)):
            edges = {pairs[b] for b in range(len(pairs)) if mask >> b & 1}
            got = betweenness(_snapshot(n, edges))
            expected = bc_path_enumeration(n, edges)
            for v in range(n):
                worst = max(worst, abs(got[f"n{v}"] - expected[v]))

    # every directed graph on 5 nodes (2^20 of them), Brandes core against
    # the Floyd-Warshall path-counting oracle, split across processes
    total = 1 << len(ORDERED_PAIRS[5])
    chunk = 1 << 16
    jobs = [(5, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    workers = min(os.cpu_count() or 1, 4)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            worst = max(worst, max(pool.map(_bc_mask_range, jobs)))
    else:
        worst = max(worst, max(map(_bc_mask_range, jobs)))

    # 200 seeded random graphs on up to 8 nodes through the public API
    rng = random.Random(20130613)
    for _ in range(200):
        n = rng.randint(6, 8)
        p = rng.uniform(0.08, 0.40)
        edges = {(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p}
        got = betweenness(_snapshot(n, edges))
        expected = bc_path_enumeration(n, edges)
        for v in range(n):
            worst = max(worst, abs(got[f"n{v}"] - expected[v]))

    # the two oracles must themselves agree on sampled 5-node graphs
    pairs5 = ORDERED_PAIRS[5]
    sample = np.array([rng.randrange(1 << 20) for _ in range(300)], dtype=np.int64)
    adj5 = np.zeros((len(sample), 5, 5), dtype=bool)
    for bit, (i, j) in enumerate(pairs5):
        adj5[:, i, j] = ((sample >> bit) & 1).astype(bool)
    fw = bc_floyd_warshall_batch(adj5)
    for row, mask in enumerate(sample.tolist()):
        edges = {pairs5[b] for b in range(20) if mask >> b & 1}
        enum = bc_path_enumeration(5, edges)
        for v in range(5):
            worst = max(worst, abs(fw[row, v] - enum[v]))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst deviation {worst}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"\nPASS betweenness oracle equivalence, worst diff {worst:.2e} ({elapsed:.1f}s)")


def test_extrema_properties():
    start = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(1000):
        length = rng.randint(1, 60)
        values = [rng.randint(-3, 3) for _ in range(length)]
        presence = [True] * length
        base = count_extrema(values, presence)
        assert count_extrema([2 * v + 1 for v in values], presence) == base
        assert count_extrema([v**3 for v in values], presence) == base
        assert count_extrema(values[::-1], presence) == base
        assert 0 <= base <= max(0, length - 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nPASS extrema properties on 1000 series ({elapsed:.2f}s)")


def test_frame_segmentation_oracle():
    from teamsignals.model import InteractionEvent

    start = time.perf_counter()
    rng = random.Random(777)
    for _ in range(500):
        n = rng.randint(1, 200)
        stamps = sorted(rng.sample(range(1_000_000), n))
        events = [
            InteractionEvent("x", "y", t) if rng.random() < 0.5 else InteractionEvent("y", "x", t)
            for t in stamps
        ]
        log = validate_log(events).log
        frames = segment_frames(log, "x", "y")
        reversals = reversal_count([e.sender for e in log.events])
        assert sum(f.closed for f in frames) == reversals
        # every event in exactly one frame; reversal events in exactly two
        assert sum(f.event_count for f in frames) == len(log.events) + reversals
        for prev, nxt in zip(frames, frames[1:]):
            assert prev.closed and nxt.first_event == prev.last_event
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS frame segmentation oracle on 500 streams ({elapsed:.2f}s)")


def test_synthetic_discrimination():
    start = time.perf_counter()
    rotation = 2 * DAY
    rl_wins = rc_wins = 0
    for seed in range(100):
        rotating = SynthScenario(
            n_actors=5, duration=12 * DAY, mean_event_rate=6.0,
            reply_delay=ReplyDelay.fixed(60), rotation_period=rotation, seed=seed,
        )
        static = replace(rotating, rotation_period=None)
        # grid anchored half an exchange gap before the first ping, so the
        # left-open window edge never slices an exchange in two
        cfg = WindowConfig(
            window_size=rotation // 2,
            step=rotation // 8,
            alignment=-(rotating.exchange_gap // 2),
        )
        scores = {}
        for name, scenario in (("rot", rotating), ("sta", static)):
            log = generate(scenario)
            scores[name] = (
                rotating_signal(series(log, cfg, "bc")),
                rotating_signal(series(log, cfg, "ci")),
            )
        rl_wins += scores["rot"][0] > scores["sta"][0]
        rc_wins += scores["rot"][1] > scores["sta"][1]
    assert rl_wins >= 95, f"RL discrimination only {rl_wins}/100"
    assert rc_wins >= 95, f"RC discrimination only {rc_wins}/100"

    # fixed 60 s delay: ping-reply scenario with fresh pairs recovers it exactly
    for seed in range(100):
        scenario = SynthScenario(
            n_actors=50, duration=49 * 300, mean_event_rate=36.0,
            reply_delay=ReplyDelay.fixed(60), seed=seed,
        )
        log = generate(scenario)
        assert prompt_response_time(log, "et") == 60.0

    # uniform(30, 90): mean recovered within 5%
    for seed in range(100):
        scenario = SynthScenario(
            n_actors=800, duration=799 * 300, mean_event_rate=36.0,
            reply_delay=ReplyDelay.uniform(30, 90), seed=seed,
        )
        log = generate(scenario)
        prt = prompt_response_time(log, "et")
        assert abs(prt - 60.0) <= 3.0, f"seed {seed}: PRT-ET {prt}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"\nPASS synthetic discrimination: RL {rl_wins}/100, RC {rc_wins}/100, "
        f"PRT exact + within 5% ({elapsed:.1f}s)"
    )


def test_ci_contract():
    start = time.perf_counter()
    assert contribution_index(5, 0) == 1.0
    assert contribution_index(3, 3) == 0.0
    assert contribution_index(0, 4) == -1.0
    rng = random.Random(55)
    for _ in range(10_000):
        a, b = rng.randint(0, 500), rng.randint(0, 500)
        if a + b == 0:
            continue
        assert contribution_index(a, b) == -contribution_index(b, a)
        assert -1.0 <= contribution_index(a, b) <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS contribution index contract ({elapsed:.2f}s)")


def test_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    scenario = str(files("teamsignals").joinpath("data/demo_teams.json"))

    def run(tag: str, jobs: int) -> dict[str, bytes]:
        base = tmp_path / tag
        synth_dir = base / "synth"
        assert main(["synth", "--scenario", scenario, "--out", str(synth_dir)]) == 0
        flags = ["--events", str(synth_dir / "events.csv"),
                 "--teams", str(synth_dir / "teams.csv"),
                 "--window", "2d", "--step", "12h", "--jobs", str(jobs)]
        metrics_dir = base / "metrics"
        assert main(["metrics", *flags, "--out", str(metrics_dir)]) == 0

        # depvar planted as an exact linear function of RL
        signals = (metrics_dir / "signals.csv").read_text().splitlines()
        depvar_rows = ["team_id,variable_name,value"]
        for row in signals[1:]:
            cols = row.split(",")
            depvar_rows.append(f"{cols[0]},creativity,{1.5 * float(cols[3]) + 2.0}")
        depvars = base / "depvars.csv"
        depvars.write_text("\n".join(depvar_rows) + "\n")

        corr_dir = base / "corr"
        assert main(["correlate", *flags, "--depvars", str(depvars), "--out", str(corr_dir)]) == 0
        return {
            "events.csv": (synth_dir / "events.csv").read_bytes(),
            "teams.csv": (synth_dir / "teams.csv").read_bytes(),
            "signals.csv": (metrics_dir / "signals.csv").read_bytes(),
            "depvars.csv": depvars.read_bytes(),
            "correlations.csv": (corr_dir / "correlations.csv").read_bytes(),
        }

    serial = run("serial", jobs=1)
    rerun = run("rerun", jobs=1)
    parallel = run("parallel", jobs=2)
    assert serial == rerun, "same flags must be byte-identical"
    assert serial == parallel, "parallelism must not change output"

    corr_lines = serial["correlations.csv"].decode().splitlines()
    rl_row = next(line for line in corr_lines if ",RL," in line)
    assert rl_row.split(",")[2] == "1.000"
    assert rl_row.split(",")[4] == "10"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS end-to-end determinism on bundled 10-team scenario ({elapsed:.1f}s)")
