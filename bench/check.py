"""Compare the program's output files with the reference, one operation per value.

check() returns (name, ok) pairs. The number of pairs depends only on the
workload's shape (teams, variables, windows), never on the seed or on what
the program wrote: a missing value is a failed operation, and one extra
operation per file fails on rows or cells the reference does not have.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from scipy import stats

SIGNALS = ("RL", "RC", "PRT_FN", "PRT_ET")
SIGNAL_HEADER = ["team_id", "n_actors", "n_events", "rl", "rc", "prt_fn",
                 "prt_et_seconds", "n_closed_frames"]


def stars(p: float) -> str:
    return "**" if p < 0.01 else "*" if p < 0.05 else ""


def close(prog: float, ref: float, places: int = 6) -> bool:
    """prog, printed to `places` decimals, is ref up to rounding and 1e-9 relative."""
    return math.isclose(prog, ref, rel_tol=1e-9, abs_tol=0.5 * 10.0 ** -places + 1e-12)


def read_csv(path: Path) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError:
        return []


def _total(text: str, n: int) -> int | None:
    """The integer extrema total behind a 6-decimal mean over n actors."""
    try:
        value = float(text)
    except ValueError:
        return None
    total = round(value * n)
    return total if abs(total / n - value) <= 5e-7 else None


def _optional(text: str, ref: float | None) -> bool:
    if ref is None:
        return text == ""
    try:
        return close(float(text), ref)
    except ValueError:
        return False


def check_signals(rows: list[list[str]], ref: dict, canaries=()) -> list[tuple[str, bool]]:
    ops = []
    header_ok = bool(rows) and rows[0] == SIGNAL_HEADER
    got = {r[0]: r for r in rows[1:] if len(r) == len(SIGNAL_HEADER)} if header_ok else {}
    for team_id, t in ref["teams"].items():
        row = got.get(team_id)
        n = t["n_actors"]
        if row is None:
            ops += [(f"{f}[{team_id}]", False) for f in SIGNAL_HEADER[1:]]
            continue
        rl = _total(row[3], n)
        rl_ok = rl is not None and t["rl_lo"] <= rl <= t["rl_hi"]
        if team_id in canaries:
            rl_ok = rl == t["rl_lo"]
        ops += [
            (f"n_actors[{team_id}]", row[1] == str(n)),
            (f"n_events[{team_id}]", row[2] == str(t["n_events"])),
            (f"rl[{team_id}]", rl_ok),
            (f"rc[{team_id}]", _total(row[4], n) == t["rc"]),
            (f"prt_fn[{team_id}]", _optional(row[5], t["prt_fn"])),
            (f"prt_et_seconds[{team_id}]", _optional(row[6], t["prt_et"])),
            (f"n_closed_frames[{team_id}]", row[7] == str(t["n_closed_frames"])),
        ]
    ops.append(("signals.csv rows", header_ok and len(rows) - 1 == len(ref["teams"])
                and set(got) == set(ref["teams"])))
    return ops


def rl_deviations(rows: list[list[str]], ref: dict) -> int:
    """Teams whose RL is not the exact answer (inside or outside the noise envelope)."""
    got = {r[0]: r for r in rows[1:] if len(r) == len(SIGNAL_HEADER)}
    return sum(1 for team_id, t in ref["teams"].items()
               if team_id in got and _total(got[team_id][3], t["n_actors"]) != t["rl_lo"])


def _rl_used(rows: list[list[str]], ref: dict) -> dict[str, int]:
    """Per team, the printed RL total if it lies inside the envelope, else the exact one."""
    got = {r[0]: r for r in rows[1:] if len(r) == len(SIGNAL_HEADER)}
    used = {}
    for team_id, t in ref["teams"].items():
        total = _total(got[team_id][3], t["n_actors"]) if team_id in got else None
        ok = total is not None and t["rl_lo"] <= total <= t["rl_hi"]
        used[team_id] = total if ok else t["rl_lo"]
    return used


def expected_correlations(teams: dict, depvars: dict, rl_used: dict[str, int]) -> dict:
    """(variable|signal) -> r, p, n from scipy.stats.pearsonr over the pairwise-complete teams.

    RL enters as the total the program printed when check_signals accepts it:
    float noise (ROADMAP D3) moves RL inside its envelope on some seeds, and
    with ~900 teams that moves p by more than 0.001 while the correlation
    arithmetic is right. Every other signal is the reference value.
    """
    values = {
        t: {"RL": rl_used[t] / v["n_actors"], "RC": v["rc"] / v["n_actors"],
            "PRT_FN": v["prt_fn"], "PRT_ET": v["prt_et"]}
        for t, v in teams.items()
    }
    cells = {}
    for var in sorted({name for _, name in depvars}):
        for sig in SIGNALS:
            pairs = [(values[t][sig], depvars[(t, var)]) for t in sorted(values)
                     if (t, var) in depvars and values[t][sig] is not None]
            xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
            if len(pairs) < 3 or len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            res = stats.pearsonr(xs, ys)
            cells[f"{var}|{sig}"] = {"r": float(res.statistic), "p": float(res.pvalue),
                                     "n": len(pairs)}
    return cells


def check_correlations(rows: list[list[str]], expected: dict) -> list[tuple[str, bool]]:
    header = ["variable_name", "signal_name", "r", "p", "n", "stars"]
    header_ok = bool(rows) and rows[0] == header
    got = {f"{r[0]}|{r[1]}": r for r in rows[1:] if len(r) == len(header)} if header_ok else {}
    ops = []
    for key, cell in expected.items():
        row = got.get(key)
        ok = row is not None
        if ok:
            try:
                ok = (abs(float(row[2]) - cell["r"]) <= 1e-3
                      and abs(float(row[3]) - cell["p"]) <= 1e-3
                      and row[4] == str(cell["n"]) and row[5] == stars(cell["p"]))
            except ValueError:
                ok = False
        ops.append((f"correlation[{key}]", ok))
    ops.append(("correlations.csv cells", header_ok and len(rows) - 1 == len(expected)
                and set(got) == set(expected)
                and all(r[1] in SIGNALS for r in rows[1:])))
    return ops


def check_surface(rows: list[list[str]], ref: dict) -> list[tuple[str, bool]]:
    surf = ref["surface"]
    n_ranks = len(surf["rows"][0])
    header = ["window_end"] + [f"rank_{i + 1}" for i in range(n_ranks)]
    body = rows[1:] if rows and rows[0] == header else []
    ops = []
    for k, (end, values) in enumerate(zip(surf["ends"], surf["rows"])):
        ok = k < len(body) and body[k] == [end] + values
        ops.append((f"surface[{end}]", ok))
    ops.append(("surface.csv rows", bool(rows) and rows[0] == header
                and len(body) == len(surf["rows"])))
    return ops


def check(out: Path, ref: dict, wl) -> list[tuple[str, bool]]:
    """Every checked value of one round's outputs in out/."""
    signals = read_csv(out / "signals.csv")
    ops = check_signals(signals, ref, wl.canary_teams)
    if wl.correlate:
        expected = expected_correlations(ref["teams"], wl.depvars, _rl_used(signals, ref))
        ops += check_correlations(read_csv(out / "correlations.csv"), expected)
    if wl.surface:
        ops += check_surface(read_csv(out / "surface.csv"), ref)
    return ops
