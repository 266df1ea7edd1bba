"""Command-line front end.

Subcommands: validate, metrics, series, surface, correlate, synth. All
numeric output uses fixed decimals and rows are sorted, so repeated runs
over the same inputs are byte-identical regardless of --jobs. Exit codes:
0 success, 1 internal error, 2 user/input error. A command checks its
options and reads its small files (--teams, --depvars) before the events
file, so a bad one fails without a parse of the whole log. metrics and
correlate share one team pipeline, _team_options then _team_signals, whose
TeamSignals come in roster order: parse_teams sorts it by team id.

A command warns with a UserWarning and fails with an exception; only main
writes stderr: a `warning: ...` line per warning, in the order raised,
then any `error: ...` (USER_ERRORS) or `internal error: ...` line.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings
from array import array
from itertools import repeat
from pathlib import Path

from .ingest import (
    ParseError,
    format_timestamp,
    parse_dependent_variables,
    parse_events,
    parse_teams,
)
from .model import (
    CleanedLog,
    EmptyLogError,
    EventColumns,
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
    """Write a CSV, making its directory, via temp file + rename: no reader sees part of it."""
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _fmt(value: float | None, places: int = 6) -> str:
    return "" if value is None else f"{value:.{places}f}"


def _load_log(args) -> CleanedLog:
    try:
        return validate_log(parse_events(args.events, args.format))
    except EmptyLogError as err:
        raise EmptyLogError(f"{args.events}: {err}") from None


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
    cleaned = _load_log(args)
    log = cleaned.log
    print(f"events: {len(log.stamps)}")
    print(f"actors: {len(log.names)}")
    print(f"range: {format_timestamp(log.t_start)} .. {format_timestamp(log.t_end)}")
    print(f"dropped self-loops: {cleaned.dropped_self_loops}")
    print(f"collapsed duplicates: {cleaned.collapsed_duplicates}")
    return 0


def _team_options(args) -> tuple[list[Team] | None, WindowConfig]:
    """metrics' and correlate's options, checked before the events file: --jobs, roster, grid."""
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    teams = parse_teams(args.teams) if args.teams else None
    return teams, _window_config(args)


def _team_signals(
    args, teams: list[Team] | None, cfg: WindowConfig
) -> tuple[dict[str, TeamSignals], list[str]]:
    """Each team's signals, and the ids of teams with no events, both in roster order."""
    log = _load_log(args).log
    n_windows = len(_grid(log, cfg))
    if n_windows < MIN_PRESENCE_RUN:
        # every team log spans the full log's range, so shares this grid
        warnings.warn(
            f"the window grid has {n_windows} window(s), fewer than "
            f"{MIN_PRESENCE_RUN}: RL and RC are 0 for every team"
        )
    team_logs, skipped = partition_by_team(log, teams) if teams else ({"ALL": log}, [])
    if args.jobs > 1 and len(team_logs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        workers = min(args.jobs, len(team_logs))
        # the chunks of multiprocessing.Pool.map, ceil(teams / (4 * workers)): a
        # round trip to a worker per team costs more than a small team's signals
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(team_signals, team_logs.values(), repeat(cfg),
                                    chunksize=-(-len(team_logs) // (4 * workers))))
    else:
        results = map(team_signals, team_logs.values(), repeat(cfg))
    return dict(zip(team_logs, results)), skipped


def cmd_metrics(args) -> int:
    signals, skipped = _team_signals(args, *_team_options(args))
    for team_id in skipped:
        warnings.warn(f"team {team_id!r} has no events, row skipped")
    if not signals:
        raise EmptyLogError("every team produced an empty log")
    _write_csv(
        Path(args.out) / "signals.csv",
        ["team_id", "n_actors", "n_events", "rl", "rc", "prt_fn", "prt_et_seconds", "n_closed_frames"],
        (
            [team_id, s.n_actors, s.n_events, _fmt(s.rl), _fmt(s.rc),
             _fmt(s.prt_fn), _fmt(s.prt_et), s.n_closed_frames]
            for team_id, s in signals.items()
        ),
    )
    return 0


def _team_series(args):
    if args.team and not args.teams:
        raise ConfigError("--team requires --teams")
    team = _pick_team(parse_teams(args.teams), args.team) if args.teams else None
    cfg = _window_config(args)
    log = _load_log(args).log
    if team is not None:
        log = restrict_to_team(log, team)
    return list(log.names), series(log, cfg, args.metric)


def cmd_series(args) -> int:
    actors, rows = _team_series(args)
    _write_csv(
        Path(args.out) / "series.csv",
        ["window_end"] + actors,
        ([format_timestamp(end)] + [_fmt(v) for v in values] for end, _, values in rows),
    )
    return 0


def cmd_surface(args) -> int:
    from .surfaces import surface

    actors, rows = _team_series(args)
    _write_csv(
        Path(args.out) / "surface.csv",
        ["window_end"] + [f"rank_{i + 1}" for i in range(len(actors))],
        ([format_timestamp(end)] + [f"{v:.6f}" for v in row] for end, row in surface(rows)),
    )
    return 0


def cmd_correlate(args) -> int:
    if not args.depvars:
        raise ConfigError("correlate requires --depvars")
    teams, cfg = _team_options(args)
    depvars = parse_dependent_variables(args.depvars)
    # no roster-sized set outlives this line: one held through the team
    # pipeline raises correlate's peak RSS
    unknown = sorted({team_id for team_id, _ in depvars}.difference(
        [team.team_id for team in teams] if teams else ["ALL"]))
    if unknown:
        warnings.warn(f"{args.depvars}: {len(unknown)} team id(s) not in the roster, ignored: "
                      + ", ".join(map(repr, unknown[:5])))
    signals, skipped = _team_signals(args, teams, cfg)
    for team_id in skipped:
        warnings.warn(f"team {team_id!r} has no events, excluded")
    cells = correlate(signals, depvars)
    _write_csv(
        Path(args.out) / "correlations.csv",
        ["variable_name", "signal_name", "r", "p", "n", "stars"],
        (
            [cell.variable_name, cell.signal_name, _fmt(cell.r, 3),
             _fmt(cell.p_two_tailed, 3), cell.n, cell.stars]
            for cell in cells
        ),
    )
    return 0


def cmd_synth(args) -> int:
    from dataclasses import replace  # here only: no other command imports dataclasses

    from .synth import generate, load_scenario_file

    entries = load_scenario_file(args.scenario)
    if args.seed is not None:
        entries = [(t, replace(sc, seed=args.seed + i)) for i, (t, sc) in enumerate(entries)]
    out_dir = Path(args.out)
    names: list[str] = []
    stamps, senders, recipients = array("q"), array("i"), array("i")
    rosters: list[tuple[str, str]] = []
    for team_id, scenario in entries:
        log = generate(scenario, actor_prefix=f"{team_id}.")
        offset = len(names)  # the team's ids follow those of the teams before it
        names.extend(log.names)
        stamps.extend(log.stamps)
        senders.extend(s + offset for s in log.senders)
        recipients.extend(r + offset for r in log.recipients)
        rosters.extend((team_id, actor) for actor in log.names)
    merged = validate_log(EventColumns(tuple(names), stamps, senders, recipients)).log
    _write_csv(
        out_dir / "events.csv",
        ["timestamp", "sender", "recipients"],
        ([format_timestamp(t), merged.names[s], merged.names[r]]
         for t, s, r in zip(merged.stamps, merged.senders, merged.recipients)),
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

    def add_common(p, windowed=True):
        p.add_argument("--events", required=True, help="events file (csv or jsonl)")
        p.add_argument("--format", choices=["csv", "jsonl"], default=None,
                       help="events file format (default: by extension)")
        if windowed:
            p.add_argument("--teams", default=None, help="teams.csv roster")
            p.add_argument("--window", default="7d", help="window size, e.g. 12h (default 7d)")
            p.add_argument("--step", default="1d", help="grid step, e.g. 1h (default 1d)")
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("validate", help="parse and sanity-check an events file")
    add_common(p, windowed=False)
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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # every one, whatever the filters say
        try:
            code, failure = args.func(args), None
        except USER_ERRORS as exc:
            code, failure = 2, f"error: {exc}"
        except Exception as exc:  # pragma: no cover - defensive
            code, failure = 1, f"internal error: {exc}"
    for w in caught:
        if issubclass(w.category, UserWarning):
            print(f"warning: {w.message}", file=sys.stderr)
        else:  # another category is shown as Python shows it
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if failure:
        print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
