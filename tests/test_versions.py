"""The CLI gives the same bytes on every supported Python version.

Each command runs with PYTHONPATH=src under the interpreter running the
tests and under each other version from 3.10 to 3.13 that is installed
(pyenv's versions directory or PATH); every output file, stdout, stderr and
exit code must match byte for byte. The CLI rounds what it prints, so a
last-bit difference rarely shows there; FLOATS prints pearson_r, both
PRT variants, p_value's series, and betweenness scores, in full. A
version that is not installed is skipped by name.
"""

import os
import random
import shutil
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CURRENT = "%d.%d" % sys.version_info[:2]
# the interpreter running the tests gives the reference
OTHERS = [v for v in ("3.10", "3.11", "3.12", "3.13") if v != CURRENT]

WINDOW = ["--window", "6h", "--step", "1h"]
COMMANDS = [
    ["validate", "--events", "events.csv"],
    ["validate", "--events", "events.jsonl"],
    ["metrics", "--events", "events.csv", "--teams", "teams.csv", *WINDOW, "--out", "m"],
    ["metrics", "--events", "events.jsonl", "--teams", "teams.csv", *WINDOW, "--out", "mj"],
    ["correlate", "--events", "events.csv", "--teams", "teams.csv", "--depvars", "depvars.csv",
     *WINDOW, "--out", "c"],
    ["series", "--events", "events.csv", "--metric", "bc", *WINDOW, "--out", "sb"],
    ["series", "--events", "events.jsonl", "--metric", "ci", *WINDOW, "--out", "sc"],
    ["surface", "--events", "events.csv", "--metric", "bc", *WINDOW, "--out", "sf"],
    # errors: their messages must match too
    ["validate", "--events", "basic.csv"],
    ["validate", "--events", "week.csv"],
    ["validate", "--events", "minute60.csv"],
    ["validate", "--events", "epoch.csv"],
    ["validate", "--events", "long_epoch.csv"],
    ["validate", "--events", "long_epoch.jsonl"],
    ["metrics", "--events", "events.csv", "--teams", "dup_teams.csv", *WINDOW, "--out", "d"],
    # a duration count and a scenario integer past int()'s 4300-digit limit
    ["metrics", "--events", "events.csv", "--window", "1" * 4401 + "h", "--out", "w"],
    ["synth", "--scenario", "long_seed.json", "--out", "s"],
]

# floats printed in full: pearson_r, its p_value (n from 3 to 30, so both
# parities of n - 2) and both PRT variants on seeded random samples and
# logs, and betweenness on seeded random graphs and on a layered graph with
# more than 2**53 shortest paths, whose counts mix floats and ints
FLOATS = """
import random
from array import array
from teamsignals.model import EventColumns, validate_log
from teamsignals.signals import prompt_response_time
from teamsignals.stats import p_value, pearson_r
from teamsignals.windows import brandes_betweenness
from tests.graphs import layered_graph, random_graph
rng = random.Random(3)
for _ in range(200):
    n = 3 + int(rng.random() * 28)
    x = [rng.random() for _ in range(n)]
    y = [rng.random() for _ in range(n)]
    r = pearson_r(x, y)
    senders = [int(rng.random() * 8) for _ in range(2 * n)]
    log = validate_log(EventColumns(
        tuple("abcdefgh"), array("q", [int(rng.random() * 1e9) for _ in senders]),
        array("i", senders), array("i", [(s + 1 + int(rng.random() * 7)) % 8 for s in senders]),
    )).log
    print(repr(r), repr(p_value(r, n)), repr(prompt_response_time(log, "et")),
          repr(prompt_response_time(log, "fn")))
for _ in range(50):
    n = 2 + int(rng.random() * 39)
    print(repr(brandes_betweenness(random_graph(rng, n, 0.03 + rng.random() * 0.3))))
print(repr(brandes_betweenness(layered_graph(27))))
"""

_START = datetime(2010, 6, 13, 8, 0, tzinfo=timezone.utc)
# RFC 3339 spellings of one instant: offsets, z, fractions, space, no offset
_STYLES = [
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%SZ"),
    lambda t: t.strftime("%Y-%m-%dt%H:%M:%Sz"),
    lambda t: t.strftime("%Y-%m-%d %H:%M:%S.375Z"),
    lambda t: (t + timedelta(hours=2)).strftime("%Y-%m-%dT%H:%M:%S+02:00"),
    lambda t: (t - timedelta(hours=5, minutes=30)).strftime("%Y-%m-%dT%H:%M:%S.999999-05:30"),
    lambda t: t.strftime("%Y-%m-%dT%H:%M:%S"),
]


def _write_fixture(root: Path) -> None:
    rng = random.Random(7)
    actors = ["a", "b", "c", "d", "e", "f", "g", "h"]
    csv_rows = ["timestamp,sender,recipients"]
    json_rows = []
    for k in range(160):
        sender = rng.choice(actors)
        recipients = rng.sample([a for a in actors if a != sender], rng.choice([1, 1, 1, 2]))
        stamp = _STYLES[k % len(_STYLES)](_START + timedelta(minutes=17 * k))
        csv_rows.append(f"{stamp},{sender.upper() if k % 5 == 0 else sender},{';'.join(recipients)}")
        json_rows.append(
            '{"timestamp": "%s", "sender": "%s", "recipients": [%s]}'
            % (stamp, sender, ", ".join(f'"{r}"' for r in recipients))
        )
    files = {
        "events.csv": "\n".join(csv_rows) + "\n",
        "events.jsonl": "\n".join(json_rows) + "\n",
        # overlapping rosters
        "teams.csv": "team_id,member\n" + "".join(
            f"{team},{m}\n"
            for team, members in [("t1", "abcd"), ("t2", "cdef"), ("t3", "efgh"),
                                  ("t4", "abgh"), ("t5", "aceg")]
            for m in members
        ),
        "dup_teams.csv": "team_id,member\nt1,a\nt1,b\nt1,a\nt1,c\n",
        # y has only two teams, so its cells are skipped with a warning
        "depvars.csv": "team_id,variable_name,value\n" + "".join(
            f"{team},x,{value}\n"
            for team, value in [("t1", 0.5), ("t2", 1.25), ("t3", -2.0), ("t4", 3.5), ("t5", 0.1)]
        ) + "t1,y,1.0\nt2,y,2.0\n",
        "basic.csv": "timestamp,sender,recipients\n2010-01-01T00:00:00Z,a,b\n20100101T000000Z,a,b\n",
        "week.csv": "timestamp,sender,recipients\n2010-W01-2T00:00:00Z,a,b\n",
        "minute60.csv": "timestamp,sender,recipients\n2010-01-01T00:00:00+01:60,a,b\n",
        "epoch.csv": "timestamp,sender,recipients\n100,a,b\n1_000,a,b\n",
        # past int()'s 4300-digit limit, whose message differs between versions
        "long_epoch.csv": "timestamp,sender,recipients\n100,a,b\n" + "1" * 4401 + ",a,b\n",
        # the same, as a JSON number: json.loads reads it with int()
        "long_epoch.jsonl": '{"timestamp": 100, "sender": "a", "recipients": ["b"]}\n'
        '{"timestamp": %s, "sender": "a", "recipients": ["b"]}\n' % ("1" * 4401),
        "long_seed.json": '{"teams": [{"team_id": "a", "n_actors": 3, "duration": "1d", '
        '"mean_event_rate": 12.0, "reply_delay": {"kind": "fixed", "seconds": 45}, "seed": %s}]}'
        % ("1" * 4401),
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def _run_all(python: str, root: Path) -> list:
    """(exit code, stdout, stderr, {output file: bytes}) per command, then FLOATS."""
    _write_fixture(root)
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    results = []
    for cmd in COMMANDS:
        done = subprocess.run([python, "-m", "teamsignals.cli", *cmd], cwd=root, env=env,
                              capture_output=True, timeout=120)
        out = root / cmd[cmd.index("--out") + 1] if "--out" in cmd else None
        files = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out else {}
        results.append((done.returncode, done.stdout, done.stderr, files))
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])  # FLOATS imports tests.graphs
    done = subprocess.run([python, "-c", FLOATS], env=env, capture_output=True, timeout=120)
    results.append((done.returncode, done.stdout, done.stderr, {}))
    return results


def _find_python(version: str) -> str | None:
    """An interpreter that reports this version: pyenv's copy first, then PATH."""
    candidates = [str(p) for p in sorted(
        (Path.home() / ".pyenv" / "versions").glob(f"{version}.*/bin/python{version}"))]
    on_path = shutil.which(f"python{version}")
    if on_path:
        candidates.append(on_path)
    for exe in candidates:
        probe = subprocess.run([exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                               capture_output=True, text=True)
        if probe.returncode == 0 and probe.stdout.strip() == version:
            return exe
    return None


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    results = _run_all(sys.executable, tmp_path_factory.mktemp(f"py{CURRENT}"))
    codes = [code for code, *_ in results]
    # the fixture exercises both outcomes: the six malformed files and the two
    # overlong numbers fail, the rest succeed
    assert codes == [0] * 8 + [2] * 6 + [0] + [2] * 2 + [0]
    assert results[4][3]["correlations.csv"].count(b"\n") > 1
    assert b"warning: " in results[4][2] and b"warning: " in results[14][2]
    return results


@pytest.mark.parametrize("version", OTHERS)
def test_cli_bytes_match_across_versions(version, reference, tmp_path):
    python = _find_python(version)
    if python is None:
        pytest.skip(f"python{version} not found")
    results = _run_all(python, tmp_path)
    for cmd, got, want in zip(COMMANDS + [["FLOATS"]], results, reference):
        assert got == want, f"python{version}: {' '.join(cmd)}"
