"""Seeded input generators for the three benchmark workloads.

A generator returns a Workload: the rows it made (kept in memory, so the
reference never reads the inputs back through the program) and how the CLI
is run on them. write() puts the input files on disk and fills in the CLI
commands. The same seed always gives byte-identical files.

Every log starts exactly at T0 and ends exactly at T0 + span, so the window
grid, and with it the number of checked values per round, does not depend
on the seed.
"""

from __future__ import annotations

import csv
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

DAY = 86400
HOUR = 3600
T0 = 1262304000  # 2010-01-01T00:00:00Z
_UNIT = {"d": DAY, "h": HOUR}

# Fixed team logs on which the program's RL differs from the exact answer
# (float-noise plateau breaks, see README). Their seeds never change with
# --seed, so the number of failing RL checks is the same in every run.
CANARY_SEEDS = (167, 251)


@dataclass(frozen=True)
class Row:
    """One input row: a sender messaging one or more recipients at ts."""

    ts: int
    sender: str
    recipients: tuple[str, ...]


@dataclass
class Workload:
    name: str
    rows: list[Row]
    window_arg: str  # as given to --window, e.g. "7d"
    step_arg: str
    events_file: str = "events.csv"  # .csv with RFC 3339 or epoch stamps, or .jsonl
    epoch: bool = False
    # team_id -> members; empty means the single ALL team (no --teams)
    teams: dict[str, tuple[str, ...]] = field(default_factory=dict)
    depvars: dict[tuple[str, str], float] = field(default_factory=dict)
    canary_teams: tuple[str, ...] = ()
    correlate: bool = False
    surface: bool = False
    commands: list[list[str]] = field(default_factory=list)

    @property
    def window(self) -> int:
        return int(self.window_arg[:-1]) * _UNIT[self.window_arg[-1]]

    @property
    def step(self) -> int:
        return int(self.step_arg[:-1]) * _UNIT[self.step_arg[-1]]


def rfc3339(ts: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def _pick_recipients(rng: random.Random, pool: list[str], sender: str, k: int) -> tuple[str, ...]:
    while True:
        picked = rng.sample(pool, k)
        if sender not in picked:
            return tuple(picked)


def email_all(seed: int, n_actors: int = 200, n_rows: int = 18000, days: int = 365) -> Workload:
    """Email-like log: senders weighted 1/(i+1), 20% of rows to 2-4 people."""
    rng = random.Random(f"email_all:{seed}")
    actors = [f"user{i:03d}@example.org" for i in range(n_actors)]
    weights = [1.0 / (i + 1) for i in range(n_actors)]
    span = days * DAY
    stamps = sorted([T0, T0 + span] + [T0 + rng.randrange(span + 1) for _ in range(n_rows - 2)])
    senders = rng.choices(actors, weights=weights, k=n_rows)
    rows = []
    for ts, sender in zip(stamps, senders):
        k = rng.randint(2, 4) if rng.random() < 0.2 else 1
        rows.append(Row(ts, sender, _pick_recipients(rng, actors, sender, k)))
    return Workload("email_all", rows, "7d", "1d")


def _team_rows(rng: random.Random, members: list[str], n_rows: int, span: int) -> list[Row]:
    weights = [1.0 / (j + 1) for j in range(len(members))]
    rows = []
    for _ in range(n_rows):
        sender = rng.choices(members, weights=weights)[0]
        k = rng.randint(2, 3) if rng.random() < 0.2 else 1
        rows.append(Row(T0 + rng.randrange(span + 1), sender,
                        _pick_recipients(rng, members, sender, k)))
    return rows


def canary_rows(team_id: str, seed: int, days: int) -> list[Row]:
    """A fixed 8-actor team log; depends on the canary seed only."""
    rng = random.Random(f"canary:{seed}")
    members = [f"{team_id}.m{j}" for j in range(8)]
    return _team_rows(rng, members, 60, days * DAY)


def many_teams(seed: int, n_teams: int = 1000, size: int = 8, n_empty: int = 5,
               days: int = 28) -> Workload:
    """Many small teams, epoch-second CSV, teams.csv and a gappy depvars.csv."""
    rng = random.Random(f"many_teams:{seed}")
    span = days * DAY
    # two outside actors pin the log range to exactly [T0, T0 + span]
    rows = [Row(T0, "ops.a@example.org", ("ops.b@example.org",)),
            Row(T0 + span, "ops.b@example.org", ("ops.a@example.org",))]
    teams: dict[str, tuple[str, ...]] = {}
    activity: dict[str, int] = {}
    everyone: list[str] = []
    empty = set(rng.sample(range(n_teams), n_empty))
    for t in range(n_teams):
        team_id = f"t{t:04d}"
        teams[team_id] = tuple(f"{team_id}.m{j}" for j in range(size))
        everyone.extend(teams[team_id])
        activity[team_id] = 0 if t in empty else rng.randint(6, 20)
    for team_id, members in teams.items():
        for row in _team_rows(rng, list(members), activity[team_id], span):
            if rng.random() < 0.05:  # a message that leaves the team
                outsider = rng.choice(everyone)
                if outsider not in members:
                    row = Row(row.ts, row.sender, row.recipients + (outsider,))
            rows.append(row)
    depvars: dict[tuple[str, str], float] = {}
    for team_id in list(teams):
        for name, effect in (("creativity", 1.5), ("performance", 0.0), ("satisfaction", -0.8)):
            if rng.random() < 0.1:
                continue  # missing cell
            depvars[(team_id, name)] = round(effect * activity[team_id] / 20 + rng.gauss(0, 1), 3)
    canaries = tuple(f"canary{i}" for i in range(len(CANARY_SEEDS)))
    for team_id, cseed in zip(canaries, CANARY_SEEDS):
        teams[team_id] = tuple(f"{team_id}.m{j}" for j in range(8))
        rows.extend(canary_rows(team_id, cseed, days))
    rows.sort(key=lambda r: r.ts)
    return Workload("many_teams", rows, "7d", "1d", epoch=True, teams=teams, depvars=depvars,
                    canary_teams=canaries, correlate=True)


def badge_surface(seed: int, n_actors: int = 40, n_rows: int = 20000, days: int = 30) -> Workload:
    """Dense badge contacts in working hours, nearly all within 5 groups."""
    rng = random.Random(f"badge_surface:{seed}")
    actors = [f"badge{i:02d}" for i in range(n_actors)]
    groups = [actors[g::5] for g in range(5)]
    weights = [1.0 / (1 + (i % 8)) for i in range(n_actors)]
    span = days * DAY
    rows = [Row(T0, actors[0], (actors[1],)), Row(T0 + span, actors[1], (actors[0],))]
    # every actor appears at least once, so the surface has n_actors ranks
    for i, a in enumerate(actors):
        rows.append(Row(T0 + 8 * HOUR + i, a, (actors[(i + 1) % n_actors],)))
    while len(rows) < n_rows:
        ts = T0 + rng.randrange(days) * DAY + 8 * HOUR + rng.randrange(10 * HOUR)
        sender = rng.choices(actors, weights=weights)[0]
        pool = groups[actors.index(sender) % 5] if rng.random() < 0.95 else actors
        k = min(rng.randint(1, 3), len(pool) - 1)
        rows.append(Row(ts, sender, _pick_recipients(rng, pool, sender, k)))
    rows.sort(key=lambda r: r.ts)
    return Workload("badge_surface", rows, "12h", "1h", events_file="events.jsonl", surface=True)


GENERATORS = {"email_all": email_all, "many_teams": many_teams, "badge_surface": badge_surface}


def _csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write(wl: Workload, work: Path) -> None:
    """Write the workload's input files into work/ and set its CLI commands."""
    work.mkdir(parents=True, exist_ok=True)
    events = work / wl.events_file
    if events.suffix == ".jsonl":
        with open(events, "w", encoding="utf-8") as fh:
            for r in wl.rows:
                fh.write(json.dumps({"timestamp": rfc3339(r.ts), "sender": r.sender,
                                     "recipients": list(r.recipients)}) + "\n")
    else:
        stamp = str if wl.epoch else rfc3339
        _csv(events, ["timestamp", "sender", "recipients"],
             ([stamp(r.ts), r.sender, ";".join(r.recipients)] for r in wl.rows))
    common = ["--events", str(events)]
    if wl.teams:
        _csv(work / "teams.csv", ["team_id", "member"],
             ((t, m) for t, members in wl.teams.items() for m in members))
        common += ["--teams", str(work / "teams.csv")]
    common += ["--window", wl.window_arg, "--step", wl.step_arg, "--out", str(work / "out")]
    wl.commands = [["metrics"] + common + ["--jobs", "1"]]
    if wl.correlate:
        _csv(work / "depvars.csv", ["team_id", "variable_name", "value"],
             ((t, v, f"{x:.3f}") for (t, v), x in wl.depvars.items()))
        wl.commands.append(["correlate"] + common + ["--depvars", str(work / "depvars.csv"),
                                                     "--jobs", "1"])
    if wl.surface:
        wl.commands.append(["surface"] + common + ["--metric", "ci"])


def build(name: str, seed: int, work: Path) -> Workload:
    """Generate the named workload from seed and write its inputs into work/."""
    wl = GENERATORS[name](seed)
    write(wl, work)
    return wl
