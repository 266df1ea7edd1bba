"""Check that no benchmark workload's output depends on --jobs, hash seed, names or row order.

Per workload (seed 1) the inputs are written once, and each command runs once
under PYTHONHASHSEED=1 as the baseline. metrics and correlate at --jobs 2,
every command under PYTHONHASHSEED=2 (rosters are frozensets of strings) and
on the inputs with the rows of every file shuffled must give its exit code
(0), stderr and output files; the generated events are time-ordered, so this
holds validate_log's block sort against its whole-log sort. Under three
seeded actor relabellings, metrics must give the same teams the same rl and
rc (the 1e-9 snap of betweenness hides the summation order that names set).
validate's event and actor counts and each team's PRT (et and fn) must equal
bench/reference.py's, computed from the generated rows without the program.
Prints one line per comparison and a FAILED line per failure; exits 1 on any
failure. Run from the root:
PYTHONPATH=src python3 -B .github/workload_checks.py
"""

import csv, dataclasses, io, os, random, subprocess, sys, tempfile  # noqa: E401
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402
from reference import clean_events, compute  # noqa: E402
from teamsignals.ingest import parse_events, parse_teams  # noqa: E402
from teamsignals.model import partition_by_team, validate_log  # noqa: E402
from teamsignals.signals import prompt_response_time  # noqa: E402

failed: list[str] = []


def check(label: str, problems: list[str]) -> None:
    print(label)
    if problems:
        failed.append(label)
        print(f"FAILED {label}: {'; '.join(problems)}")


def cli(args: list[str], hashseed: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "teamsignals.cli", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONHASHSEED": hashseed})


def run(cmd: list[str], out: Path, hashseed: str = "1", jobs: str = "1"):
    """(exit code, stderr, {file name: bytes}) of cmd writing into out."""
    args = list(cmd)
    args[args.index("--out") + 1] = str(out)
    if "--jobs" in args:
        args[args.index("--jobs") + 1] = jobs
    done = cli(args, hashseed)
    return done.returncode, done.stderr, {p.name: p.read_bytes() for p in sorted(out.glob("*"))}


def compare(label: str, base, got) -> None:
    (code, err, files), (code2, err2, files2) = base, got
    problems = [f"exit code {c}" for c in {code, code2} if c != 0]
    problems += ["stderr differs"] * (err != err2) + ["no output files"] * (not files)
    problems += [f"{f} differs" for f in files | files2 if files.get(f) != files2.get(f)]
    check(f"{label}: the same exit code, stderr and {', '.join(files) or 'files'}", problems)


def rl_rc(files: dict[str, bytes]) -> dict[str, tuple[str, str]]:
    rows = csv.DictReader(io.StringIO(files.get("signals.csv", b"").decode()))
    return {row["team_id"]: (row["rl"], row["rc"]) for row in rows}


def check_workload(name: str, work: Path) -> None:
    wl = workloads.build(name, 1, work / "in")
    base = {cmd[0]: run(cmd, work / f"base-{cmd[0]}") for cmd in wl.commands}
    for cmd in wl.commands:
        if cmd[0] in ("metrics", "correlate"):
            compare(f"{name} {cmd[0]}, --jobs 2", base[cmd[0]],
                    run(cmd, work / f"jobs2-{cmd[0]}", jobs="2"))
        compare(f"{name} {cmd[0]}, PYTHONHASHSEED=2", base[cmd[0]],
                run(cmd, work / f"hashseed2-{cmd[0]}", hashseed="2"))

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
              or (prompt_response_time(log, "et"), prompt_response_time(log, "fn"))
              != (ref[t]["prt_et"], ref[t]["prt_fn"])]
    check(f"{name} PRT: each of {len(team_logs)} teams' et and fn == the reference's",
          [f"{len(missed)} teams differ, such as {missed[:5]}"] * bool(missed)
          + ["the team set differs"] * (team_logs.keys() != ref.keys()))


for name in ("email_all", "many_teams", "badge_surface"):
    with tempfile.TemporaryDirectory(prefix=f"{name}-") as tmp:
        check_workload(name, Path(tmp))
sys.exit(1 if failed else 0)
