"""Command-line front end.

Subcommands: validate, metrics, series, surface, correlate, synth. All
numeric output uses fixed decimals and rows are sorted, so repeated runs
over the same inputs are byte-identical regardless of --jobs. Exit codes:
0 success, 1 internal error, 2 user/input error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .ingest import (
    ParseError,
    format_timestamp,
    parse_dependent_variables,
    parse_events,
    parse_teams,
)
from .model import (
    EmptyLogError,
    EventLog,
    Team,
    partition_by_team,
    restrict_to_team,
    validate_log,
)
from .signals import MIN_PRESENCE_RUN, TeamSignals, team_signals
from .stats import NoOverlapError, correlate
from .windows import ConfigError, WindowConfig, _grid, parse_duration, series

USER_ERRORS = (ParseError, ConfigError, EmptyLogError, NoOverlapError, OSError)


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write a CSV via temp file + rename, so readers never see partial output."""
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()
    print(f"wrote {path}")


@contextmanager
def _warnings_to_stderr():
    """Print the warnings raised inside the block as `warning: ...` lines.

    They are printed when the block completes; an error drops them.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)


def _fmt(value: float | None, places: int = 6) -> str:
    return "" if value is None else f"{value:.{places}f}"


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_log(args) -> EventLog:
    cleaned = validate_log(parse_events(args.events, args.format))
    return cleaned.log


def _parse_teams(path) -> list[Team]:
    with _warnings_to_stderr():  # duplicate roster rows
        return parse_teams(path)


def _load_teams(args) -> list[Team]:
    if args.teams:
        return _parse_teams(args.teams)
    return [Team("ALL")]


def _window_config(args) -> WindowConfig:
    return WindowConfig(parse_duration(args.window), parse_duration(args.step))


def _pick_team(teams: list[Team], name: str | None) -> Team:
    if name is None:
        if len(teams) == 1:
            return teams[0]
        raise ConfigError(f"--team required: file defines {len(teams)} teams")
    for team in teams:
        if team.team_id == name:
            return team
    raise ConfigError(f"unknown team {name!r}")


def cmd_validate(args) -> int:
    cleaned = validate_log(parse_events(args.events, args.format))
    log = cleaned.log
    print(f"events: {len(log)}")
    print(f"actors: {len(log.actors())}")
    print(f"range: {format_timestamp(log.t_start)} .. {format_timestamp(log.t_end)}")
    print(f"dropped self-loops: {cleaned.dropped_self_loops}")
    print(f"collapsed duplicates: {cleaned.collapsed_duplicates}")
    return 0


def _team_job(job: tuple[str, EventLog, WindowConfig]) -> tuple[str, int, TeamSignals]:
    team_id, team_log, cfg = job
    sig = team_signals(team_log, cfg)
    return team_id, len(team_log), sig


def _compute_all_signals(
    log: EventLog, teams: list[Team], cfg: WindowConfig, jobs: int
) -> tuple[dict[str, TeamSignals], dict[str, int], list[str]]:
    """Per-team signals, event counts, and ids of teams with empty logs."""
    n_windows = len(_grid(log, cfg))
    if n_windows < MIN_PRESENCE_RUN:
        # every team log spans the full log's range, so shares this grid
        print(
            f"warning: the window grid has {n_windows} window(s), fewer than "
            f"{MIN_PRESENCE_RUN}: RL and RC are 0 for every team",
            file=sys.stderr,
        )
    team_logs, skipped = partition_by_team(log, teams)
    pending = [(team_id, team_logs[team_id], cfg) for team_id in sorted(team_logs)]
    if jobs > 1 and len(pending) > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            results = list(pool.map(_team_job, pending))
    else:
        results = [_team_job(job) for job in pending]
    signals = {team_id: sig for team_id, _, sig in results}
    n_events = {team_id: count for team_id, count, _ in results}
    return signals, n_events, sorted(skipped)


def cmd_metrics(args) -> int:
    log = _load_log(args)
    teams = _load_teams(args)
    cfg = _window_config(args)
    signals, n_events, skipped = _compute_all_signals(log, teams, cfg, args.jobs)
    for team_id in skipped:
        print(f"warning: team {team_id!r} has no events, row skipped", file=sys.stderr)
    if not signals:
        print("error: every team produced an empty log", file=sys.stderr)
        return 2
    _write_csv(
        _out_dir(args) / "signals.csv",
        ["team_id", "n_actors", "n_events", "rl", "rc", "prt_fn", "prt_et_seconds", "n_closed_frames"],
        (
            [team_id, s.n_actors, n_events[team_id], _fmt(s.rl), _fmt(s.rc),
             _fmt(s.prt_fn), _fmt(s.prt_et), s.n_closed_frames]
            for team_id, s in sorted(signals.items())
        ),
    )
    return 0


def _team_series(args):
    log = _load_log(args)
    if args.teams:
        team = _pick_team(_parse_teams(args.teams), args.team)
        log = restrict_to_team(log, team)
    elif args.team:
        raise ConfigError("--team requires --teams")
    return sorted(log.actors()), series(log, _window_config(args), args.metric)


def cmd_series(args) -> int:
    actors, rows = _team_series(args)
    _write_csv(
        _out_dir(args) / "series.csv",
        ["window_end"] + actors,
        ([format_timestamp(end)] + [_fmt(v) for v in values] for end, _, values in rows),
    )
    return 0


def cmd_surface(args) -> int:
    from .surfaces import surface

    actors, rows = _team_series(args)
    _write_csv(
        _out_dir(args) / "surface.csv",
        ["window_end"] + [f"rank_{i + 1}" for i in range(len(actors))],
        ([format_timestamp(end)] + [f"{v:.6f}" for v in row] for end, row in surface(rows)),
    )
    return 0


def cmd_correlate(args) -> int:
    if not args.depvars:
        print("error: correlate requires --depvars", file=sys.stderr)
        return 2
    log = _load_log(args)
    teams = _load_teams(args)
    cfg = _window_config(args)
    depvars = parse_dependent_variables(args.depvars)
    signals, _, skipped = _compute_all_signals(log, teams, cfg, args.jobs)
    for team_id in skipped:
        print(f"warning: team {team_id!r} has no events, excluded", file=sys.stderr)
    with _warnings_to_stderr():
        cells = correlate(signals, depvars)
    _write_csv(
        _out_dir(args) / "correlations.csv",
        ["variable_name", "signal_name", "r", "p", "n", "stars"],
        (
            [cell.variable_name, cell.signal_name, _fmt(cell.r, 3),
             _fmt(cell.p_two_tailed, 3), cell.n, cell.stars]
            for cell in cells
        ),
    )
    return 0


def cmd_synth(args) -> int:
    from .synth import generate, load_scenario_file

    entries = load_scenario_file(args.scenario)
    if args.seed is not None:
        entries = [
            (team_id, replace(sc, seed=args.seed + i)) for i, (team_id, sc) in enumerate(entries)
        ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_events = []
    rosters: list[tuple[str, str]] = []
    for team_id, scenario in entries:
        log = generate(scenario, actor_prefix=f"{team_id}.")
        all_events.extend(log.events)
        rosters.extend((team_id, actor) for actor in sorted(log.actors()))
    merged = validate_log(all_events).log
    _write_csv(
        out_dir / "events.csv",
        ["timestamp", "sender", "recipients"],
        ([format_timestamp(e.timestamp), e.sender, e.recipient] for e in merged.events),
    )
    _write_csv(out_dir / "teams.csv", ["team_id", "member"], rosters)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamsignals",
        description="Rotating leadership / contribution and prompt response time "
        "from timestamped interaction logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, teams=True, window=True):
        p.add_argument("--events", required=True, help="events file (csv or jsonl)")
        p.add_argument("--format", choices=["csv", "jsonl"], default=None,
                       help="events file format (default: by extension)")
        if teams:
            p.add_argument("--teams", default=None, help="teams.csv roster")
        if window:
            p.add_argument("--window", default="7d", help="window size, e.g. 12h (default 7d)")
            p.add_argument("--step", default="1d", help="grid step, e.g. 1h (default 1d)")
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="parse and sanity-check an events file")
    add_common(p, teams=False, window=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("metrics", help="per-team RL/RC/PRT table (signals.csv)")
    add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel team pipelines")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("series", help="per-actor metric series (series.csv)")
    add_common(p)
    p.add_argument("--metric", choices=["bc", "ci"], default="bc")
    p.add_argument("--team", default=None, help="team to restrict to")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("surface", help="rank-sorted surface matrix (surface.csv)")
    add_common(p)
    p.add_argument("--metric", choices=["bc", "ci"], default="bc")
    p.add_argument("--team", default=None, help="team to restrict to")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("correlate", help="signal vs outcome correlations (correlations.csv)")
    add_common(p)
    p.add_argument("--depvars", default=None, help="depvars.csv outcome table")
    p.add_argument("--jobs", type=int, default=1, help="parallel team pipelines")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("synth", help="generate a synthetic events.csv + teams.csv")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override scenario seeds")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
