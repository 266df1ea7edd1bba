"""Check that no benchmark workload's output depends on --jobs, hash seed, names, row order,
the Python version, the events file's format and stamp style, or where its stamps lie in time.

Per workload (seed 1) the inputs are written once, and each command runs once
under PYTHONHASHSEED=1 as the baseline. metrics and correlate at --jobs 2
(and at --jobs 3 on the workload with a roster, whose teams the pool then
sends in chunks of another size: 84 teams, not 125), every command under
PYTHONHASHSEED=2 (rosters are frozensets of strings), on the inputs
with the rows of every file shuffled, on the events written in each of the
three other (CSV or JSON Lines, RFC 3339 or epoch seconds) pairs, and on
every stamp shifted by SHIFT seconds (surface.csv's window_end shifted
back) must give its exit code (0), stderr and output files. The generated
events are time-ordered, so the shuffle holds validate_log's block sort
against its whole-log sort. Every command must give them too under each
other Python of 3.10 to 3.13 that is found (pyenv's copy, else python3.X on
PATH, as tests/test_versions.py finds them); one line per version says which
ran and which was not found. Under three seeded actor relabellings, metrics
must give the same teams the same rl and rc, and on email_all and
badge_surface, series --metric bc must give each actor the column it had
under its old name and surface --metric bc the same surface.csv: the exact
betweenness kernel's snapped scores do not depend on names (README, on
betweenness).
validate's event and actor counts and each team's PRT (et and fn) must equal
bench/reference.py's, computed from the generated rows without the program.
Prints one line per comparison and a FAILED line per failure; exits 1 on any
failure. Run from the root:
PYTHONPATH=src python3 -B .github/workload_checks.py
"""

import calendar, csv, dataclasses, io, json, os, random, subprocess, sys  # noqa: E401
import tempfile, time  # noqa: E401
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT)]
import workloads  # noqa: E402
from reference import clean_events, compute  # noqa: E402
from teamsignals.ingest import parse_events, parse_teams  # noqa: E402
from teamsignals.model import partition_by_team, validate_log  # noqa: E402
from teamsignals.signals import prompt_response_time  # noqa: E402
from tests.pythons import CURRENT, OTHERS, find_python  # noqa: E402

failed: list[str] = []
SHIFT = 12_345_678  # seconds, not a whole hour: a grid anchored anywhere but t_start moves


def check(label: str, problems: list[str]) -> None:
    print(label)
    if problems:
        failed.append(label)
        print(f"FAILED {label}: {'; '.join(problems)}")


PYTHONS = {version: find_python(version) for version in OTHERS}


def cli(args: list[str], hashseed: str = "1",
        python: str = sys.executable) -> subprocess.CompletedProcess:
    return subprocess.run([python, "-m", "teamsignals.cli", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONHASHSEED": hashseed})


def run(cmd: list[str], out: Path, hashseed: str = "1", jobs: str = "1",
        python: str = sys.executable):
    """(exit code, stderr, {file name: bytes}) of cmd writing into out."""
    args = list(cmd)
    args[args.index("--out") + 1] = str(out)
    if "--jobs" in args:
        args[args.index("--jobs") + 1] = jobs
    done = cli(args, hashseed, python)
    return done.returncode, done.stderr, {p.name: p.read_bytes() for p in sorted(out.glob("*"))}


def compare(label: str, base, got) -> None:
    (code, err, files), (code2, err2, files2) = base, got
    problems = [f"exit code {c}" for c in {code, code2} if c != 0]
    problems += ["stderr differs"] * (err != err2) + ["no output files"] * (not files)
    problems += [f"{f} differs" for f in files | files2 if files.get(f) != files2.get(f)]
    check(f"{label}: the same exit code, stderr and {', '.join(files) or 'files'}", problems)


def write_events(wl: workloads.Workload, path: Path) -> None:
    """wl's rows as CSV or JSON Lines by path's suffix, stamped in epoch seconds if wl.epoch."""
    stamp = (lambda ts: ts) if wl.epoch else workloads.rfc3339
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if path.suffix == ".jsonl":
            for r in wl.rows:
                fh.write(json.dumps({"timestamp": stamp(r.ts), "sender": r.sender,
                                     "recipients": list(r.recipients)}) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["timestamp", "sender", "recipients"])
            writer.writerows([stamp(r.ts), r.sender, ";".join(r.recipients)] for r in wl.rows)


def unshift(files: dict[str, bytes]) -> dict[str, bytes]:
    """files with surface.csv's window_end column moved back by SHIFT seconds."""
    if "surface.csv" not in files:
        return files
    head, *rows = files["surface.csv"].decode().splitlines(keepends=True)
    body = []
    for row in rows:
        end, rest = row.split(",", 1)
        ts = calendar.timegm(time.strptime(end, "%Y-%m-%dT%H:%M:%SZ")) - SHIFT
        body.append(f"{workloads.rfc3339(ts)},{rest}")
    return {**files, "surface.csv": "".join([head, *body]).encode()}


def rl_rc(files: dict[str, bytes]) -> dict[str, tuple[str, str]]:
    rows = csv.DictReader(io.StringIO(files.get("signals.csv", b"").decode()))
    return {row["team_id"]: (row["rl"], row["rc"]) for row in rows}


def bc_commands(wl: workloads.Workload) -> list[list[str]]:
    """series and surface of betweenness, with the options of wl's metrics command."""
    metrics = wl.commands[0]
    common = metrics[1:metrics.index("--jobs")]
    return [[cmd, *common, "--metric", "bc"] for cmd in ("series", "surface")]


def series_columns(files: dict[str, bytes], old=lambda a: a) -> dict[str, list[str]]:
    """series.csv's columns by header, each actor's under old(actor)."""
    head, *rows = list(csv.reader(io.StringIO(files.get("series.csv", b"").decode()))) or [[]]
    return {old(a) if i else a: [row[i] for row in rows] for i, a in enumerate(head)}


def check_workload(name: str, work: Path) -> None:
    wl = workloads.build(name, 1, work / "in")
    base = {cmd[0]: run(cmd, work / f"base-{cmd[0]}") for cmd in wl.commands}
    with_bc = name in ("email_all", "badge_surface")
    base_bc = {cmd[0]: run(cmd, work / f"base-bc-{cmd[0]}")
               for cmd in (bc_commands(wl) if with_bc else [])}
    for cmd in wl.commands:
        if cmd[0] in ("metrics", "correlate"):
            # a roster's teams go to the pool in chunks, cut differently for 2 and 3 workers
            for jobs in ("2", "3") if wl.teams else ("2",):
                compare(f"{name} {cmd[0]}, --jobs {jobs}", base[cmd[0]],
                        run(cmd, work / f"jobs{jobs}-{cmd[0]}", jobs=jobs))
        compare(f"{name} {cmd[0]}, PYTHONHASHSEED=2", base[cmd[0]],
                run(cmd, work / f"hashseed2-{cmd[0]}", hashseed="2"))
        for version, python in PYTHONS.items():
            if python:
                compare(f"{name} {cmd[0]}, Python {version}", base[cmd[0]],
                        run(cmd, work / f"py{version}-{cmd[0]}", python=python))

    shuffled = dataclasses.replace(wl)
    workloads.write(shuffled, work / "shuffled")
    for path in (work / "shuffled").iterdir():
        lines = path.read_bytes().splitlines(keepends=True)
        head = 1 if path.suffix == ".csv" else 0
        body = random.Random(1).sample(lines[head:], len(lines) - head)
        path.write_bytes(b"".join(lines[:head] + body))
    for cmd in shuffled.commands:
        compare(f"{name} {cmd[0]}, shuffled input rows", base[cmd[0]],
                run(cmd, work / f"shuffled-{cmd[0]}"))

    for suffix, epoch in ((".csv", False), (".csv", True), (".jsonl", False), (".jsonl", True)):
        if (Path(wl.events_file).suffix, wl.epoch) == (suffix, epoch):
            continue  # the baseline's own format and stamps
        variant = dataclasses.replace(wl, events_file="events" + suffix, epoch=epoch)
        style = "epoch" if epoch else "rfc3339"
        tag = f"{suffix[1:]}-{style}"
        workloads.write(variant, work / tag)
        # write() stamps JSON Lines in RFC 3339 only
        write_events(variant, work / tag / variant.events_file)
        for cmd in variant.commands:
            compare(f"{name} {cmd[0]}, {suffix[1:]} events with {style} stamps", base[cmd[0]],
                    run(cmd, work / f"{tag}-{cmd[0]}"))

    shifted = dataclasses.replace(
        wl, rows=[workloads.Row(r.ts + SHIFT, r.sender, r.recipients) for r in wl.rows])
    workloads.write(shifted, work / "shifted")
    for cmd in shifted.commands:
        code, err, files = run(cmd, work / f"shifted-{cmd[0]}")
        compare(f"{name} {cmd[0]}, every stamp +{SHIFT} s", base[cmd[0]],
                (code, err, unshift(files)))

    expected = rl_rc(base["metrics"][2])
    actors = sorted({a for r in wl.rows for a in (r.sender, *r.recipients)}
                    | {a for members in wl.teams.values() for a in members})
    for seed in (1, 2, 3):
        names = actors.copy()
        random.Random(seed).shuffle(names)
        new = dict(zip(actors, names)).get
        relabelled = dataclasses.replace(
            wl, teams={t: tuple(map(new, m)) for t, m in wl.teams.items()},
            rows=[workloads.Row(r.ts, new(r.sender), tuple(map(new, r.recipients)))
                  for r in wl.rows])
        workloads.write(relabelled, work / f"relabelled{seed}")
        got = rl_rc(run(relabelled.commands[0], work / f"relabelled{seed}-metrics")[2])
        moved = sorted(t for t in expected if got.get(t) != expected[t])
        check(f"{name} metrics, relabelling {seed}: each of {len(expected)} teams' rl and rc",
              [f"{t} {expected[t]} -> {got.get(t)}" for t in moved[:5]]
              + ["the team set differs"] * (got.keys() != expected.keys()))
        if not with_bc:
            continue
        series_cmd, surface_cmd = bc_commands(relabelled)
        code, err, files = run(series_cmd, work / f"relabelled{seed}-series")
        base_code, base_err, base_files = base_bc["series"]
        want = series_columns(base_files)
        columns = series_columns(files, dict(zip(names, actors)).get)
        check(f"{name} series --metric bc, relabelling {seed}: each actor's column",
              [f"exit code {c}" for c in {code, base_code} if c != 0]
              + ["stderr differs"] * (err != base_err)
              + [f"{a} differs" for a in sorted(want) if columns.get(a) != want[a]][:5]
              + ["the actor set differs"] * (columns.keys() != want.keys()))
        compare(f"{name} surface --metric bc, relabelling {seed}", base_bc["surface"],
                run(surface_cmd, work / f"relabelled{seed}-surface"))

    events_file = work / "in" / wl.events_file
    done = cli(["validate", "--events", str(events_file)])
    counts = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    events = clean_events(wl.rows)
    want = {"events": str(len(events)), "actors": str(len({a for e in events for a in e[1:]}))}
    check(f"{name} validate: the reference's {want['events']} events and {want['actors']} actors",
          [f"exit code {done.returncode}"] * (done.returncode != 0)
          + [f"{key} {counts.get(key)}" for key in want if counts.get(key) != want[key]])

    log = validate_log(parse_events(events_file)).log  # without a roster, the one team ALL
    team_logs = (partition_by_team(log, parse_teams(work / "in" / "teams.csv"))[0]
                 if wl.teams else {"ALL": log})
    ref = compute(wl)["teams"]
    missed = [t for t, log in team_logs.items() if t not in ref
              or prompt_response_time(log)[:2] != (ref[t]["prt_et"], ref[t]["prt_fn"])]
    check(f"{name} PRT: each of {len(team_logs)} teams' et and fn == the reference's",
          [f"{len(missed)} teams differ, such as {missed[:5]}"] * bool(missed)
          + ["the team set differs"] * (team_logs.keys() != ref.keys()))


print(f"baseline: Python {CURRENT} at {sys.executable}")
for version, python in PYTHONS.items():
    print(f"Python {version}: {python or 'not found'}")
for name in ("email_all", "many_teams", "badge_surface"):
    with tempfile.TemporaryDirectory(prefix=f"{name}-") as tmp:
        check_workload(name, Path(tmp))
sys.exit(1 if failed else 0)
