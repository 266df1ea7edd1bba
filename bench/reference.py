"""Reference values for a workload, computed from its generated rows alone.

Nothing here imports teamsignals. The definitions follow the program's
documented semantics (README of the package), re-derived independently:

* betweenness by the level-synchronous matrix form of Brandes' algorithm
  (all sources at once, numpy), checked against networkx in the tests;
* plateaus of RL series are values within 1e-9 relative of each other,
  which is the exact-arithmetic answer;
* the contribution index and RC from integer sent/received counts compared
  by cross-multiplication, so no rounding enters;
* frames from runs of one sender in each pair's time-ordered stream: every
  run but the last is closed by the first message of the next run.

The expected correlations are computed per round in check.py, because
their RL input may be any total inside a team's noise envelope.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import sparse

from workloads import GENERATORS, Workload, rfc3339

REL_TOL = 1e-9
SPARSE_FROM = 64  # node count above which one sparse graph beats a dense batch


def clean_events(rows) -> list[tuple[int, str, str]]:
    """Expand rows to (ts, sender, recipient), drop self-loops and duplicates, sort."""
    return sorted({(r.ts, r.sender, x) for r in rows for x in r.recipients if x != r.sender})


def grid_ends(t_start: int, t_end: int, step: int) -> list[int]:
    """Window ends t_start + k*step for k = 1 .. ceil((t_end - t_start) / step), at least one."""
    k_max = max(1, -(-(t_end - t_start) // step))
    return [t_start + k * step for k in range(1, k_max + 1)]


def _brandes(b: int, n: int, mul, mul_t) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous Brandes over a batch of b graphs on n nodes.

    mul(X) is X @ A and mul_t(X) is X @ A^T, batched. sigma[b, s, v] counts
    shortest s->v paths, found one BFS level at a time for every source at
    once; the dependency pass then walks the levels back:
    delta_s(v) += sigma_sv * sum_w A[v, w] (1 + delta_s(w)) / sigma_sw over
    w one level below v. Returns betweenness (b, n) and a (b, n) flag that
    is True where every term of the node's sum is a dyadic fraction (all
    path counts below it are powers of two), so any evaluation order gives
    the exact value.
    """
    eye = np.broadcast_to(np.eye(n, dtype=bool), (b, n, n))
    sigma = eye.astype(np.float64)
    seen = eye.copy()
    frontier = sigma.copy()
    levels = [eye]
    while True:
        nxt = mul(frontier)
        nxt[seen] = 0.0
        reached = nxt > 0
        if not reached.any():
            break
        sigma += nxt
        seen = seen | reached
        levels.append(reached)
        frontier = nxt
    odd = np.frexp(sigma)[0] != 0.5  # path count not a power of two
    delta = np.zeros((b, n, n))
    inexact = np.zeros((b, n, n), dtype=bool)
    for d in range(len(levels) - 1, 0, -1):
        coeff = np.divide(1.0 + delta, sigma, out=np.zeros_like(delta), where=levels[d])
        delta += np.where(levels[d - 1], sigma * mul_t(coeff), 0.0)
        taint = (levels[d] & (odd | inexact)).astype(np.float64)
        inexact |= levels[d - 1] & (mul_t(taint) > 0)
    diag = np.arange(n)
    inexact[:, diag, diag] = False
    return delta.sum(axis=1) - delta[:, diag, diag], ~inexact.any(axis=1)


def betweenness_batch(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized directed betweenness of a (B, n, n) batch of 0/1 adjacency matrices."""
    a = adj.astype(np.float64)
    at = np.ascontiguousarray(a.transpose(0, 2, 1))
    return _brandes(adj.shape[0], adj.shape[1], lambda x: x @ a, lambda x: x @ at)


def betweenness_sparse(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """betweenness_batch for one large, sparse (n, n) graph."""
    a = sparse.csr_array(adj.astype(np.float64))
    at = sparse.csr_array(a.T)
    bc, exact = _brandes(1, adj.shape[0], lambda x: (x[0] @ a)[None], lambda x: (x[0] @ at)[None])
    return bc[0], exact[0]


def _all_betweenness(graphs: list[np.ndarray], budget: int = 4_000_000):
    """(betweenness, exact) per graph: small graphs batched by size, large ones sparse."""
    out: list = [None] * len(graphs)
    by_size: dict[int, list[int]] = defaultdict(list)
    for i, g in enumerate(graphs):
        if g.shape[0] > SPARSE_FROM:
            out[i] = betweenness_sparse(g)
        else:
            by_size[g.shape[0]].append(i)
    for n, idx in by_size.items():
        chunk = max(1, budget // max(1, n * n))
        for lo in range(0, len(idx), chunk):
            part = idx[lo:lo + chunk]
            bc, exact = betweenness_batch(np.stack([graphs[i] for i in part]))
            for k, i in enumerate(part):
                out[i] = (bc[k], exact[k])
    return out


def _same(x: float, y: float) -> bool:
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def extrema_bounds(values, presence, keys=None, same=_same) -> tuple[int, int]:
    """Strict-extrema count of the exact series, and the most float noise can add.

    Over each present run of at least 3 windows, equal neighbours form one
    plateau and interior turning points count. keys[k] names the float the
    program can produce for window k: windows with equal keys give the same
    bits (an exact value, or the same graph). A plateau whose keys change r
    times can turn at most r + 1 more times between its neighbours, or r at
    a run end. keys=None means the values are exact, so both counts agree.
    """
    lo = hi = 0
    n = len(values)
    i = 0
    while i < n:
        if not presence[i]:
            i += 1
            continue
        j = i
        while j < n and presence[j]:
            j += 1
        if j - i >= 3:
            plats: list[list] = []  # [value, number of key segments]
            for k in range(i, j):
                if plats and same(values[k], plats[-1][0]):
                    plats[-1][1] += keys is not None and keys[k] != keys[k - 1]
                else:
                    plats.append([values[k], 1])
            dirs = [plats[m + 1][0] > plats[m][0] for m in range(len(plats) - 1)]
            turns = sum(dirs[m] != dirs[m + 1] for m in range(len(dirs) - 1))
            if len(plats) == 1:
                extra = max(plats[0][1] - 2, 0)
            else:
                extra = plats[0][1] - 1 + plats[-1][1] - 1
                for m in range(1, len(plats) - 1):
                    r = plats[m][1] - 1
                    turned = dirs[m - 1] != dirs[m]
                    # all r + 1 joins can turn only if that parity fits the fixed ends
                    extra += (r + 1 if turned == (r % 2 == 0) else r) - turned
            lo += turns
            hi += turns + extra
        i = j
    return lo, hi


@functools.cache
def _ci(s: int, r: int) -> Fraction:
    return Fraction(s - r, s + r) if s + r else Fraction(0)


def _frames(events) -> tuple[int, dict[str, list[int]], dict[str, list[int]]]:
    """Closed frames per responder: (count, elapsed times, event counts)."""
    streams: dict[frozenset, list[tuple[int, str]]] = defaultdict(list)
    for ts, s, r in events:
        streams[frozenset((s, r))].append((ts, s))
    et: dict[str, list[int]] = defaultdict(list)
    fn: dict[str, list[int]] = defaultdict(list)
    closed = 0
    for stream in streams.values():
        # starts of runs of one sender
        starts = [k for k in range(len(stream)) if k == 0 or stream[k][1] != stream[k - 1][1]]
        for a, b in zip(starts, starts[1:]):
            replier = stream[b][1]
            et[replier].append(stream[b][0] - stream[a][0])
            fn[replier].append(b - a + 1)
            closed += 1
    return closed, et, fn


def _prt(events, samples: dict[str, list[int]]) -> float | None:
    if not samples:
        return None
    weight: dict[str, int] = defaultdict(int)
    for _, s, r in events:
        weight[s] += 1
        weight[r] += 1
    num = sum(Fraction(sum(v), len(v)) * weight[a] for a, v in samples.items())
    den = sum(weight[a] for a in samples)
    return float(num / den)


@dataclass
class _TeamWindows:
    """One team's window graphs (restricted to active nodes) and send counts."""

    events: list
    sent: np.ndarray  # (windows, actors)
    recv: np.ndarray
    graphs: list[np.ndarray]
    actives: list[np.ndarray]
    graph_ids: list[int]


def _team_windows(events, ends: list[int], window: int) -> _TeamWindows:
    actors = sorted({a for _, s, r in events for a in (s, r)})
    index = {a: i for i, a in enumerate(actors)}
    n = len(actors)
    ts = np.array([e[0] for e in events], dtype=np.int64)
    src = np.array([index[e[1]] for e in events], dtype=np.int64)
    dst = np.array([index[e[2]] for e in events], dtype=np.int64)
    lows = np.searchsorted(ts, np.array(ends) - window, side="right")
    highs = np.searchsorted(ts, np.array(ends), side="right")
    tw = _TeamWindows(events, np.zeros((len(ends), n), dtype=np.int64),
                      np.zeros((len(ends), n), dtype=np.int64), [], [], [])
    ids: dict[bytes, int] = {}
    for k, (lo, hi) in enumerate(zip(lows, highs)):
        g = np.zeros((n, n), dtype=bool)
        g[src[lo:hi], dst[lo:hi]] = True
        active = np.flatnonzero(g.any(axis=0) | g.any(axis=1))
        tw.graphs.append(g[np.ix_(active, active)])
        tw.actives.append(active)
        tw.graph_ids.append(ids.setdefault(np.packbits(g).tobytes(), len(ids)))
        tw.sent[k] = np.bincount(src[lo:hi], minlength=n)
        tw.recv[k] = np.bincount(dst[lo:hi], minlength=n)
    return tw


def _team_values(tw: _TeamWindows, scored) -> dict:
    """signals.csv values of one team; scored holds (betweenness, exact) per window."""
    n_windows, n = tw.sent.shape
    bc = np.zeros((n_windows, n))
    keys = np.full((n_windows, n), -1)  # -1: an exact value
    for k, (active, (scores, exact)) in enumerate(zip(tw.actives, scored)):
        bc[k, active] = scores
        keys[k, active] = np.where(exact, -1, tw.graph_ids[k])
    present = ((tw.sent + tw.recv) > 0).T.tolist()
    rl_lo = rl_hi = rc = 0
    for a in range(n):
        lo, hi = extrema_bounds(bc[:, a].tolist(), present[a], keys[:, a].tolist())
        rl_lo += lo
        rl_hi += hi
        ci = [_ci(s, r) for s, r in zip(tw.sent[:, a].tolist(), tw.recv[:, a].tolist())]
        rc += extrema_bounds(ci, present[a], same=operator.eq)[0]
    closed, et, fn = _frames(tw.events)
    return {
        "n_actors": n,
        "n_events": len(tw.events),
        "n_closed_frames": closed,
        "rl_lo": rl_lo,
        "rl_hi": rl_hi,
        "rc": rc,
        "prt_fn": _prt(tw.events, fn),
        "prt_et": _prt(tw.events, et),
    }


def compute(wl: Workload) -> dict:
    """Reference for every output of the workload, as a JSON-ready dict."""
    events = clean_events(wl.rows)
    t_start, t_end = events[0][0], events[-1][0]
    ref: dict = {"n_events": len(events), "teams": {}, "skipped": []}
    if wl.teams:
        member_of = {m: t for t, members in wl.teams.items() for m in members}
        by_team: dict[str, list] = defaultdict(list)
        for e in events:
            team = member_of.get(e[1])
            if team is not None and member_of.get(e[2]) == team:
                by_team[team].append(e)
        rosters = wl.teams
    else:
        by_team = {"ALL": events}
        rosters = {"ALL": ()}
    ends = grid_ends(t_start, t_end, wl.step)
    windows = {}
    for team_id in sorted(rosters):
        if by_team.get(team_id):
            windows[team_id] = _team_windows(by_team[team_id], ends, wl.window)
        else:
            ref["skipped"].append(team_id)
    scored = iter(_all_betweenness([g for tw in windows.values() for g in tw.graphs]))
    for team_id, tw in windows.items():
        ref["teams"][team_id] = _team_values(tw, [next(scored) for _ in ends])
    if wl.surface:
        tw = windows["ALL"]
        rows = [sorted((float(_ci(s, r)) for s, r in zip(ss, rr)), reverse=True)
                for ss, rr in zip(tw.sent.tolist(), tw.recv.tolist())]
        ref["surface"] = {"ends": [rfc3339(e) for e in ends],
                          "rows": [[f"{v:.6f}" for v in row] for row in rows]}
    ref["windows"] = len(ends)
    return ref


def main(argv: list[str]) -> int:
    """reference.py WORKLOAD SEED OUT.json: regenerate the inputs, write their reference."""
    name, seed, out = argv
    ref = compute(GENERATORS[name](int(seed)))
    tmp = f"{out}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
