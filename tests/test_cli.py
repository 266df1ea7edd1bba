import concurrent.futures
import json
import random
import warnings

import pytest

from teamsignals import cli
from teamsignals.cli import main
from teamsignals.ingest import parse_events, parse_teams
from teamsignals.model import partition_by_team, validate_log
from teamsignals.stats import SIGNAL_FIELDS
from teamsignals.synth import generate, load_scenario_file

from .oracles import InteractionEvent, event_objects_built

EVENTS_HEADER = "timestamp,sender,recipients\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def clean_events_file(tmp_path, rows=100):
    lines = [EVENTS_HEADER.strip()]
    for i in range(rows):
        a, b = f"u{i % 5}", f"u{(i + 1) % 5}"
        lines.append(f"{1000 + i * 600},{a},{b}")
    return write(tmp_path, "events.csv", "\n".join(lines) + "\n")


def alternating_events_file(tmp_path):
    rows = [EVENTS_HEADER.strip()]
    for k in range(8):
        src, dst = ("a", "b") if k % 2 == 0 else ("b", "a")
        rows.append(f"{k * 3600},{src},{dst}")
    return write(tmp_path, "events.csv", "\n".join(rows) + "\n")


class TestValidate:
    def test_clean_file(self, tmp_path, capsys):
        path = clean_events_file(tmp_path)
        assert main(["validate", "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "events: 100" in out
        assert "actors: 5" in out
        assert "range:" in out

    def test_bad_timestamp_names_line(self, tmp_path, capsys):
        path = write(tmp_path, "events.csv", EVENTS_HEADER + "100,a,b\nbogus,a,b\n")
        assert main(["validate", "--events", str(path)]) == 2
        assert ":3" in capsys.readouterr().err

    def test_empty_log(self, tmp_path, capsys):
        path = write(tmp_path, "events.csv", EVENTS_HEADER)
        assert main(["validate", "--events", str(path)]) == 2
        assert "empty log" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--events", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize(
        "row",
        [
            '{"timestamp": 200, "sender": null, "recipients": ["b"]}',
            '{"timestamp": 200, "sender": "a", "recipients": ["b", 5]}',
            '{"timestamp": 200, "sender": "a", "recipients": [true]}',
            '{"timestamp": 200, "sender": "a", "recipients": [{"id": "b"}]}',
        ],
    )
    def test_non_string_actor_names_line(self, tmp_path, capsys, row):
        good = '{"timestamp": 100, "sender": "a", "recipients": ["b"]}'
        path = write(tmp_path, "events.jsonl", f"{good}\n{row}\n")
        assert main(["validate", "--events", str(path)]) == 2
        err = capsys.readouterr().err
        assert "events.jsonl:2:" in err
        assert "must be a string" in err


class TestMetrics:
    def test_default_single_team_all(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(
            ["metrics", "--events", str(events), "--window", "1h", "--step", "1h",
             "--out", str(out_dir)]
        )
        assert rc == 0
        lines = (out_dir / "signals.csv").read_text().splitlines()
        assert lines[0] == "team_id,n_actors,n_events,rl,rc,prt_fn,prt_et_seconds,n_closed_frames"
        assert lines[1].startswith("ALL,2,8,0.000000,")

    def test_byte_identical_runs(self, tmp_path):
        events = clean_events_file(tmp_path)
        teams = write(
            tmp_path, "teams.csv",
            "team_id,member\n" + "\n".join(f"g1,u{i}" for i in range(5)) + "\n",
        )
        args = ["metrics", "--events", str(events), "--teams", str(teams),
                "--window", "2h", "--step", "1h"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "signals.csv").read_bytes() == (out2 / "signals.csv").read_bytes()

    def test_empty_team_skipped_with_warning(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        teams = write(tmp_path, "teams.csv", "team_id,member\ng1,a\ng1,b\ng2,zz\n")
        rc = main(
            ["metrics", "--events", str(events), "--teams", str(teams),
             "--window", "1h", "--step", "1h", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "g2" in captured.err
        rows = (tmp_path / "o" / "signals.csv").read_text().splitlines()
        assert len(rows) == 2  # header + g1

    def test_too_short_grid_warns(self, tmp_path, capsys):
        path = write(tmp_path, "events.csv", EVENTS_HEADER + "0,a,b\n200,b,c\n400,c,a\n")
        args = ["metrics", "--events", str(path), "--out", str(tmp_path / "o")]
        assert main(args + ["--window", "1h", "--step", "1h"]) == 0
        err = capsys.readouterr().err
        assert err == (  # ends at 0 and 1h: the event at t_start gets the window ending there
            "warning: the window grid has 2 window(s), fewer than 3: "
            "RL and RC are 0 for every team\n"
        )
        rows = (tmp_path / "o" / "signals.csv").read_text().splitlines()
        assert rows[1].startswith("ALL,3,3,0.000000,0.000000,")
        # a grid of three windows is long enough
        assert main(args + ["--window", "200s", "--step", "100s"]) == 0
        assert capsys.readouterr().err == ""

    def test_duplicate_roster_row_is_a_warning_line(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        teams = write(tmp_path, "teams.csv", "team_id,member\ng,a\ng,b\ng,a\n")
        rc = main(
            ["metrics", "--events", str(events), "--teams", str(teams),
             "--window", "1h", "--step", "1h", "--out", str(tmp_path / "o")]
        )
        assert rc == 0
        assert capsys.readouterr().err == f"warning: {teams}:4: duplicate member 'a' in team 'g'\n"

    def test_all_teams_empty(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        teams = write(tmp_path, "teams.csv", "team_id,member\ng2,zz\n")
        rc = main(
            ["metrics", "--events", str(events), "--teams", str(teams),
             "--window", "1h", "--step", "1h", "--out", str(tmp_path / "o")]
        )
        assert rc == 2


    def test_makes_a_nested_out_directory(self, tmp_path):
        events = alternating_events_file(tmp_path)
        out_dir = tmp_path / "a" / "b" / "c"
        rc = main(["metrics", "--events", str(events), "--window", "1h", "--step", "1h",
                   "--out", str(out_dir)])
        assert rc == 0
        assert (out_dir / "signals.csv").is_file()


class TestStderr:
    """main prints every warning as a warning: line, in order, before any error: line."""

    def test_correlate_warnings_come_before_its_error(self, tmp_path, capsys):
        events = write(tmp_path, "events.csv", EVENTS_HEADER + "0,a,b\n3600,b,a\n7200,c,d\n10800,d,c\n")
        teams = write(tmp_path, "teams.csv", "team_id,member\ng1,a\ng1,b\ng2,c\ng2,d\n")
        depvars = write(tmp_path, "depvars.csv", "team_id,variable_name,value\ng1,perf,1\ng2,perf,2\n")
        rc = main(["correlate", "--events", str(events), "--teams", str(teams),
                   "--depvars", str(depvars), "--window", "2h", "--step", "1h",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "".join(
            f"warning: skipping (perf, {signal}): only 2 paired teams\n" for signal in SIGNAL_FIELDS
        ) + "error: no (variable, signal) cell with 3+ jointly defined teams\n"
        assert not (tmp_path / "o").exists()

    def test_roster_warning_comes_before_a_window_error(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        teams = write(tmp_path, "teams.csv", "team_id,member\ng,a\ng,b\ng,a\n")
        rc = main(["metrics", "--events", str(events), "--teams", str(teams),
                   "--window", "soon", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"warning: {teams}:4: duplicate member 'a' in team 'g'\n"
            "error: cannot parse duration 'soon' (use e.g. 45s, 90m, 12h, 7d)\n"
        )

    @pytest.mark.parametrize("command", ["metrics", "correlate", "series", "surface"])
    def test_a_bad_window_fails_before_the_events_file_is_read(self, tmp_path, capsys, command):
        events = write(tmp_path, "events.csv", EVENTS_HEADER + "100,a,b\nbogus,a,b\n")
        depvars = write(tmp_path, "depvars.csv", "team_id,variable_name,value\nALL,perf,1\n")
        extra = ["--depvars", str(depvars)] if command == "correlate" else []
        rc = main([command, "--events", str(events), "--window", "soon", *extra,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: cannot parse duration 'soon' (use e.g. 45s, 90m, 12h, 7d)\n"
        )

    def test_other_warning_categories_are_not_warning_lines(self, tmp_path, capsys, monkeypatch):
        def deprecated_validate_log(events):
            warnings.warn("an old call", DeprecationWarning)
            return validate_log(events)

        monkeypatch.setattr(cli, "validate_log", deprecated_validate_log)
        path = clean_events_file(tmp_path)
        with pytest.warns(DeprecationWarning, match="an old call"):  # passed on, not swallowed
            assert main(["validate", "--events", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestNoEventObjects:
    def test_no_command_builds_an_interaction_event(self, tmp_path, capsys):
        rng = random.Random(7)
        events = write(tmp_path, "events.csv", EVENTS_HEADER + "".join(
            f"{i * 300},{a},{b}\n" for i, (a, b) in
            enumerate(rng.sample(["u0", "u1", "u2", "u3", "u4"], 2) for _ in range(300))
        ))
        teams = write(tmp_path, "teams.csv", "team_id,member\n" + "".join(
            f"{team},{member}\n"
            for team, members in (("g1", "u0 u1 u2"), ("g2", "u2 u3 u4"), ("g3", "u3 u4 u0"))
            for member in members.split()
        ))
        depvars = write(tmp_path, "depvars.csv",
                        "team_id,variable_name,value\ng1,perf,1\ng2,perf,3\ng3,perf,2\n")
        scenario = write(tmp_path, "scenario.json", json.dumps({"teams": [
            {"team_id": "s1", "n_actors": 3, "duration": "1d", "mean_event_rate": 12.0,
             "rotation_period": "6h", "reply_delay": {"kind": "uniform", "lo": 30, "hi": 90},
             "seed": 3},
        ]}))
        common = ["--events", str(events), "--teams", str(teams), "--window", "2h", "--step", "1h",
                  "--out", str(tmp_path / "o")]
        with event_objects_built() as built:
            InteractionEvent("u0", "u1", 0)  # the guard sees the object form
            assert len(built) == 1
            for argv in (
                ["validate", "--events", str(events)],
                ["metrics", *common, "--jobs", "1"],
                ["correlate", *common, "--depvars", str(depvars)],
                ["series", *common, "--team", "g1"],
                ["surface", *common, "--team", "g2", "--metric", "ci"],
                ["synth", "--scenario", str(scenario), "--out", str(tmp_path / "s")],
            ):
                assert main(argv) == 0, capsys.readouterr().err
        assert built[1:] == []


class TestSeries:
    def test_fifteen_actor_header_shape(self, tmp_path):
        # 15 actors in a ring, 12 h window / 1 h step
        rows = [EVENTS_HEADER.strip()]
        for i in range(60):
            rows.append(f"{i * 1800},p{i % 15:02d},p{(i + 1) % 15:02d}")
        events = write(tmp_path, "events.csv", "\n".join(rows) + "\n")
        out_dir = tmp_path / "out"
        rc = main(
            ["series", "--events", str(events), "--metric", "bc",
             "--window", "12h", "--step", "1h", "--out", str(out_dir)]
        )
        assert rc == 0
        header = (out_dir / "series.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "window_end"
        assert len(header) == 1 + 15

    def test_team_without_teams_file(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        rc = main(
            ["series", "--events", str(events), "--team", "g1",
             "--window", "1h", "--step", "1h", "--out", str(tmp_path / "o")]
        )
        assert rc == 2
        assert "--teams" in capsys.readouterr().err

    def test_team_may_be_left_out_of_a_one_team_roster(self, tmp_path):
        events = alternating_events_file(tmp_path)
        teams = write(tmp_path, "teams.csv", "team_id,member\ng1,a\ng1,b\n")
        common = ["series", "--events", str(events), "--teams", str(teams),
                  "--window", "1h", "--step", "1h"]
        assert main(common + ["--out", str(tmp_path / "implicit")]) == 0
        assert main(common + ["--team", "g1", "--out", str(tmp_path / "named")]) == 0
        assert (tmp_path / "implicit" / "series.csv").read_bytes() == (
            tmp_path / "named" / "series.csv").read_bytes()

    def test_unknown_team(self, tmp_path):
        events = alternating_events_file(tmp_path)
        teams = write(tmp_path, "teams.csv", "team_id,member\ng1,a\ng1,b\n")
        rc = main(
            ["series", "--events", str(events), "--teams", str(teams), "--team", "nope",
             "--window", "1h", "--step", "1h", "--out", str(tmp_path / "o")]
        )
        assert rc == 2


class TestSurface:
    def test_rows_sorted(self, tmp_path):
        events = clean_events_file(tmp_path)
        out_dir = tmp_path / "out"
        rc = main(
            ["surface", "--events", str(events), "--metric", "ci",
             "--window", "2h", "--step", "1h", "--out", str(out_dir)]
        )
        assert rc == 0
        lines = (out_dir / "surface.csv").read_text().splitlines()
        assert lines[0].startswith("window_end,rank_1")
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")[1:]]
            assert values == sorted(values, reverse=True)

    def test_csv_format(self, tmp_path):
        # ci per window: (10:37, 12:37] a sends twice; (11:37, 13:37] a 1:2 b
        rows = ["2010-06-13T11:37:00Z,a,b", "2010-06-13T12:37:00Z,a,b",
                "2010-06-13T13:00:00Z,b,a", "2010-06-13T13:10:00Z,b,a"]
        events = write(tmp_path, "events.csv", EVENTS_HEADER + "\n".join(rows) + "\n")
        rc = main(["surface", "--events", str(events), "--metric", "ci",
                   "--window", "2h", "--step", "1h", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "surface.csv").read_text().splitlines()
        assert lines[0] == "window_end,rank_1,rank_2"
        assert lines[1] == "2010-06-13T12:37:00Z,1.000000,-1.000000"
        assert lines[2] == "2010-06-13T13:37:00Z,0.333333,-0.333333"
        assert len(lines) == 3


class TestCorrelate:
    def test_requires_depvars(self, tmp_path, capsys):
        events = alternating_events_file(tmp_path)
        rc = main(["correlate", "--events", str(events), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "depvars" in capsys.readouterr().err

    @staticmethod
    def four_teams(tmp_path):
        """Options that read 4 synthetic teams, t0 and t2 rotating, at 12h/3h windows."""
        scenario = {
            "teams": [
                {"team_id": f"t{i}", "n_actors": 4 + i, "duration": "4d",
                 "mean_event_rate": 12.0,
                 "rotation_period": "1d" if i % 2 == 0 else None,
                 "reply_delay": {"kind": "fixed", "seconds": 60}, "seed": 20 + i}
                for i in range(4)
            ]
        }
        scen_path = write(tmp_path, "scenario.json", json.dumps(scenario))
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(synth_dir)]) == 0
        return ["--events", str(synth_dir / "events.csv"), "--teams", str(synth_dir / "teams.csv"),
                "--window", "12h", "--step", "3h"]

    def test_planted_linear_dependency(self, tmp_path):
        # depvar is an exact linear function of RL
        base = self.four_teams(tmp_path)
        metrics_dir = tmp_path / "metrics"
        assert main(["metrics", *base, "--out", str(metrics_dir)]) == 0
        rows = (metrics_dir / "signals.csv").read_text().splitlines()[1:]
        rl_by_team = {row.split(",")[0]: float(row.split(",")[3]) for row in rows}
        # rotating teams (t0, t2) out-rotate the static ones (t1, t3)
        assert min(rl_by_team["t0"], rl_by_team["t2"]) > max(rl_by_team["t1"], rl_by_team["t3"])
        depvar_lines = ["team_id,variable_name,value"]
        for row in rows:
            cols = row.split(",")
            depvar_lines.append(f"{cols[0]},creativity,{2.0 * float(cols[3]) + 1.0}")
        depvars = write(tmp_path, "depvars.csv", "\n".join(depvar_lines) + "\n")

        out_dir = tmp_path / "corr"
        assert main(["correlate", *base, "--depvars", str(depvars), "--out", str(out_dir)]) == 0
        lines = (out_dir / "correlations.csv").read_text().splitlines()
        assert lines[0] == "variable_name,signal_name,r,p,n,stars"
        rl_row = next(line for line in lines if ",RL," in line)
        cols = rl_row.split(",")
        assert float(cols[2]) >= 0.9
        assert cols[4] == "4"

    @pytest.mark.parametrize("exponent", ["e200", "e-320"])
    def test_depvars_of_any_finite_magnitude(self, tmp_path, exponent):
        # unscaled, Pearson's sums overflow at 1e200 (an internal error) and
        # underflow to zero variance for subnormal 1e-320 (no cells, exit 2)
        base = self.four_teams(tmp_path)
        written = []
        for suffix in ("", exponent):
            depvars = write(tmp_path, f"depvars{suffix}.csv", "team_id,variable_name,value\n"
                            + "".join(f"t{i},y,{v}{suffix}\n" for i, v in enumerate([1, 2, 3, 5])))
            out = tmp_path / f"corr{suffix}"
            assert main(["correlate", *base, "--depvars", str(depvars), "--out", str(out)]) == 0
            written.append((out / "correlations.csv").read_text())
        assert written[1] == written[0]
        assert len(written[0].splitlines()) == 1 + len(SIGNAL_FIELDS)

    def test_jobs_flag_equivalent(self, tmp_path):
        scenario = {
            "teams": [
                {"team_id": f"t{i}", "n_actors": 4, "duration": "2d",
                 "mean_event_rate": 12.0, "rotation_period": "12h",
                 "reply_delay": {"kind": "fixed", "seconds": 60}, "seed": 30 + i}
                for i in range(3)
            ]
        }
        scen_path = write(tmp_path, "scenario.json", json.dumps(scenario))
        synth_dir = tmp_path / "synth"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(synth_dir)]) == 0
        base = ["metrics", "--events", str(synth_dir / "events.csv"),
                "--teams", str(synth_dir / "teams.csv"), "--window", "6h", "--step", "90m"]
        assert main(base + ["--out", str(tmp_path / "j1"), "--jobs", "1"]) == 0
        assert main(base + ["--out", str(tmp_path / "j2"), "--jobs", "2"]) == 0
        assert (tmp_path / "j1" / "signals.csv").read_bytes() == (
            tmp_path / "j2" / "signals.csv"
        ).read_bytes()

    def test_team_without_events_is_excluded_with_a_warning(self, tmp_path, capsys):
        events = write(tmp_path, "events.csv", EVENTS_HEADER + "0,a,b\n3600,b,a\n7200,a,b\n")
        teams = write(tmp_path, "teams.csv", "team_id,member\ng1,a\ng1,b\ng2,zz\n")
        depvars = write(tmp_path, "depvars.csv", "team_id,variable_name,value\ng1,y,1\ng2,y,2\n")
        rc = main(["correlate", "--events", str(events), "--teams", str(teams),
                   "--depvars", str(depvars), "--window", "1h", "--step", "1h",
                   "--out", str(tmp_path / "o")])
        assert rc == 2  # one team with events pairs with no cell
        assert capsys.readouterr().err == "warning: team 'g2' has no events, excluded\n" + "".join(
            f"warning: skipping (y, {signal}): only 1 paired teams\n" for signal in SIGNAL_FIELDS
        ) + "error: no (variable, signal) cell with 3+ jointly defined teams\n"

    def test_rows_and_warnings_in_roster_id_order(self, tmp_path, capsys):
        # a roster listed out of id order, with two teams that have no events
        base = self.four_teams(tmp_path)
        teams = tmp_path / "synth" / "teams.csv"
        rows = teams.read_text().splitlines()[1:]
        by_team = {}
        for row in rows:
            by_team.setdefault(row.split(",")[0], []).append(row)
        shuffled = [*by_team["t3"], "e2,ghost2", *by_team["t0"], "e1,ghost1",
                    *by_team["t2"], *by_team["t1"]]
        teams.write_text("team_id,member\n" + "\n".join(shuffled) + "\n")
        depvars = write(tmp_path, "depvars.csv", "team_id,variable_name,value\n"
                        + "".join(f"t{i},y,{v}\n" for i, v in enumerate([3, 1, 4, 2])))
        written = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            for command, extra in (("metrics", []), ("correlate", ["--depvars", str(depvars)])):
                assert main([command, *base, *extra, "--jobs", jobs, "--out", str(out)]) == 0
                err = capsys.readouterr().err
                reason = "row skipped" if command == "metrics" else "excluded"
                assert [line for line in err.splitlines() if line.startswith("warning: team")] == [
                    f"warning: team 'e1' has no events, {reason}",
                    f"warning: team 'e2' has no events, {reason}",
                ]
                written[jobs, command] = err
            signals = (out / "signals.csv").read_text().splitlines()
            assert [row.split(",")[0] for row in signals[1:]] == ["t0", "t1", "t2", "t3"]
            written[jobs, "files"] = [(out / name).read_bytes()
                                      for name in ("signals.csv", "correlations.csv")]
        for key in ("metrics", "correlate", "files"):
            assert written["1", key] == written["2", key]

    def test_jobs_capped_at_team_count(self, tmp_path, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        events = write(tmp_path, "events.csv", EVENTS_HEADER + "0,a,b\n3600,c,d\n7200,b,a\n")
        teams = write(tmp_path, "teams.csv", "team_id,member\ng1,a\ng1,b\ng2,c\ng2,d\n")
        rc = main(["metrics", "--events", str(events), "--teams", str(teams),
                   "--window", "2h", "--step", "1h", "--jobs", "64", "--out", str(tmp_path)])
        assert rc == 0
        assert started == [2]
        assert len((tmp_path / "signals.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("command", ["metrics", "correlate"])
    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_rejected(self, tmp_path, capsys, command, jobs):
        events = alternating_events_file(tmp_path)
        depvars = write(tmp_path, "depvars.csv", "team_id,variable_name,value\nALL,y,1\n")
        extra = ["--depvars", str(depvars)] if command == "correlate" else []
        rc = main([command, "--events", str(events), "--jobs", jobs, *extra,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / "o").exists()


class TestSynthCommand:
    def test_writes_events_and_teams(self, tmp_path):
        scenario = {
            "teams": [
                {"team_id": "alpha", "n_actors": 3, "duration": "1d",
                 "mean_event_rate": 12.0, "rotation_period": None,
                 "reply_delay": {"kind": "fixed", "seconds": 45}, "seed": 3}
            ]
        }
        scen_path = write(tmp_path, "scenario.json", json.dumps(scenario))
        out_dir = tmp_path / "out"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out_dir)]) == 0
        events = (out_dir / "events.csv").read_text().splitlines()
        teams = (out_dir / "teams.csv").read_text().splitlines()
        assert events[0] == "timestamp,sender,recipients"
        assert teams[0] == "team_id,member"
        assert all(line.startswith("alpha,alpha.") for line in teams[1:])
        # events.csv parses back to exactly the generated log
        [(_, scen)] = load_scenario_file(scen_path)
        assert validate_log(parse_events(out_dir / "events.csv")).log == generate(
            scen, actor_prefix="alpha."
        )
        # deterministic re-run
        out2 = tmp_path / "out2"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out2)]) == 0
        assert (out_dir / "events.csv").read_bytes() == (out2 / "events.csv").read_bytes()

    def test_each_team_reads_back_as_generated(self, tmp_path):
        # "a" and "a.a" share a prefix, and "b,c" is quoted in the CSV files
        teams = [
            {"team_id": team_id, "n_actors": n, "duration": "1d", "mean_event_rate": 12.0,
             "rotation_period": "6h", "reply_delay": {"kind": "uniform", "lo": 30, "hi": 90},
             "seed": seed}
            for team_id, n, seed in (("a", 4, 1), ("a.a", 3, 2), ("b,c", 5, 3))
        ]
        scen_path = write(tmp_path, "scenario.json", json.dumps({"teams": teams}))
        out_dir = tmp_path / "out"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out_dir)]) == 0
        cleaned = validate_log(parse_events(out_dir / "events.csv"))
        assert (cleaned.dropped_self_loops, cleaned.collapsed_duplicates) == (0, 0)
        team_logs, skipped = partition_by_team(cleaned.log, parse_teams(out_dir / "teams.csv"))
        assert skipped == []
        assert sum(map(len, team_logs.values())) == len(cleaned.log)
        for team_id, scen in load_scenario_file(scen_path):
            ours, theirs = team_logs[team_id], generate(scen, actor_prefix=f"{team_id}.")
            assert (ours.names, ours.stamps, ours.senders, ours.recipients) == (
                theirs.names, theirs.stamps, theirs.senders, theirs.recipients)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        scenario = {
            "teams": [
                {"team_id": "alpha", "n_actors": 3, "duration": "1d",
                 "mean_event_rate": 12.0, "reply_delay": {"kind": "fixed", "seconds": 45}}
            ]
        }
        scen_path = write(tmp_path, "scenario.json", json.dumps(scenario))
        rows = []

        def failing_format(ts):
            rows.append(ts)
            if len(rows) == 3:
                raise RuntimeError("disk gone")
            return str(ts)

        monkeypatch.setattr(cli, "format_timestamp", failing_format)
        out_dir = tmp_path / "out"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out_dir)]) == 1
        assert list(out_dir.iterdir()) == []

    def test_makes_a_nested_out_directory(self, tmp_path):
        scenario = {
            "teams": [
                {"team_id": "alpha", "n_actors": 3, "duration": "1d",
                 "mean_event_rate": 12.0, "reply_delay": {"kind": "fixed", "seconds": 45}}
            ]
        }
        scen_path = write(tmp_path, "scenario.json", json.dumps(scenario))
        out_dir = tmp_path / "a" / "b"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["events.csv", "teams.csv"]

    def test_seed_override_changes_log(self, tmp_path):
        scenario = {
            "teams": [
                {"team_id": "alpha", "n_actors": 3, "duration": "1d",
                 "mean_event_rate": 12.0, "rotation_period": "6h",
                 "reply_delay": {"kind": "uniform", "lo": 30, "hi": 90}, "seed": 3}
            ]
        }
        scen_path = write(tmp_path, "scenario.json", json.dumps(scenario))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out1)]) == 0
        assert main(["synth", "--scenario", str(scen_path), "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "events.csv").read_bytes() != (out2 / "events.csv").read_bytes()


class TestFormatOverride:
    def test_jsonl_with_misleading_extension(self, tmp_path, capsys):
        path = write(
            tmp_path, "events.data",
            '{"timestamp": 100, "sender": "a", "recipients": ["b"]}\n'
            '{"timestamp": 200, "sender": "b", "recipients": ["a"]}\n',
        )
        assert main(["validate", "--events", str(path), "--format", "jsonl"]) == 0
        assert "events: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("name, text", [
        ("events.csv", EVENTS_HEADER + "\n100,a,b\n\n  \n200,b,a\n\n"),
        ("events.jsonl", '\n{"timestamp": 100, "sender": "a", "recipients": ["b"]}\n  \n\n'
                         '{"timestamp": 200, "sender": "b", "recipients": ["a"]}\n\n'),
    ])
    def test_blank_rows_are_skipped(self, tmp_path, capsys, name, text):
        path = write(tmp_path, name, text)
        assert main(["validate", "--events", str(path)]) == 0
        captured = capsys.readouterr()
        assert "events: 2\n" in captured.out
        assert captured.err == ""

    def test_extension_inference(self, tmp_path, capsys):
        path = write(
            tmp_path, "events.jsonl",
            '{"timestamp": 100, "sender": "a", "recipients": ["b"]}\n',
        )
        assert main(["validate", "--events", str(path)]) == 0
        assert "events: 1" in capsys.readouterr().out


class TestInputErrorsExitTwo:
    """Bad input files exit 2 with a message naming the file."""

    def run(self, capsys, argv, name):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert name in err
        return err

    def test_csv_field_over_limit(self, tmp_path, capsys):
        path = write(tmp_path, "events.csv", EVENTS_HEADER + "100,a,b\n200,a," + "b" * 200_000 + "\n")
        err = self.run(capsys, ["validate", "--events", str(path)], "events.csv:3:")
        assert "field larger than field limit" in err

    @pytest.mark.parametrize("name", ["events.csv", "events.jsonl", "teams.csv", "depvars.csv"])
    def test_not_utf8(self, tmp_path, capsys, name):
        files = {
            "events.csv": EVENTS_HEADER + "0,a,b\n",
            "events.jsonl": '{"timestamp": 0, "sender": "a", "recipients": ["b"]}\n',
            "teams.csv": "team_id,member\ng1,a\n",
            "depvars.csv": "team_id,variable_name,value\ng1,y,1\n",
        }
        for n, text in files.items():
            (tmp_path / n).write_bytes(text.encode() + (b"\xff\n" if n == name else b""))
        events = "events.jsonl" if name == "events.jsonl" else "events.csv"
        argv = ["correlate", "--events", str(tmp_path / events), "--teams", str(tmp_path / "teams.csv"),
                "--depvars", str(tmp_path / "depvars.csv"), "--out", str(tmp_path / "o")]
        err = self.run(capsys, argv, name)
        assert "not UTF-8" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"teams": [{"team_id": "a", "duration": "1d", "mean_event_rate": 12.0, '
             '"reply_delay": {"kind": "fixed", "seconds": 45}}]}', "n_actors"),
            ('[{"team_id": "a"}]', "'teams' list"),
            ('{"teams": [{"team_id": "a", "n_actors": "three", "duration": "1d", '
             '"mean_event_rate": 12.0, "reply_delay": {"kind": "fixed", "seconds": 45}}]}', "three"),
            ('{"teams": [', "not a JSON scenario"),
            ('{"teams": [{"team_id": "a", "n_actors": 1e400, "duration": "1d", '
             '"mean_event_rate": 12.0, "reply_delay": {"kind": "fixed", "seconds": 45}}]}', "infinity"),
            ('{"teams": [{"team_id": "a", "n_actors": 3, "duration": "1d", "mean_event_rate": 12.0, '
             '"reply_delay": {"kind": "uniform", "lo": 30, "hi": NaN}}]}', "out of order"),
            ('{"teams": [{"team_id": "Alpha", "n_actors": 3, "duration": "1d", "mean_event_rate": 12.0, '
             '"reply_delay": {"kind": "fixed", "seconds": 45}}]}', "team 'Alpha': team_id must be lowercase"),
            ('{"teams": [{"team_id": "g;h", "n_actors": 3, "duration": "1d", "mean_event_rate": 12.0, '
             '"reply_delay": {"kind": "fixed", "seconds": 45}}]}', "team 'g;h': team_id must be lowercase, with no ';'"),
            pytest.param(
                '{"teams": [{"team_id": "a", "n_actors": 3, "duration": "1d", "mean_event_rate": 12.0, '
                '"reply_delay": {"kind": "fixed", "seconds": 45}, "seed": %s}]}' % ("1" * 5001),
                "scenario.json: a JSON number has too many digits\n", id="seed-digits"),
            pytest.param(
                '{"teams": [{"team_id": "a", "n_actors": 3, "duration": "\u0661d", "mean_event_rate": 12.0, '
                '"reply_delay": {"kind": "fixed", "seconds": 45}}]}',
                "team 'a': cannot parse duration '\u0661d'", id="duration-digits"),
            pytest.param(
                '{"teams": [{"team_id": "a", "n_actors": 3, "duration": "%sd", "mean_event_rate": 12.0, '
                '"reply_delay": {"kind": "fixed", "seconds": 45}}]}' % ("1" * 5000),
                f"team 'a': duration {'1' * 40 + '…'!r} has more than 4300 digits\n", id="duration-long-count"),
        ],
    )
    def test_bad_scenario(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "scenario.json", text)
        err = self.run(capsys, ["synth", "--scenario", str(path), "--out", str(tmp_path)], "scenario.json")
        assert message in err

    @pytest.mark.parametrize(
        "argv, name, text, message",
        [
            (["validate", "--events", "{file}"], "empty.csv", "", "{file}: empty file"),
            (["validate", "--events", "{file}"], "badhdr.csv", "time,sender,recipients\n0,a,b\n",
             "{file}:1: expected header timestamp,sender,recipients, "
             "got ['time', 'sender', 'recipients']"),
            (["validate", "--events", "{file}"], "nokeys.jsonl", '{"timestamp": 0, "sender": "a"}\n',
             "{file}:1: object needs timestamp, sender, recipients"),
            (["metrics", "--events", "{events}", "--teams", "{file}", "--out", "{out}"],
             "teams.csv", "team_id,member\n ,a\n", "{file}:2: empty team_id"),
            (["correlate", "--events", "{events}", "--depvars", "{file}", "--out", "{out}"],
             "depvars.csv", "team_id,variable_name,value\ng1, ,1\n",
             "{file}:2: empty team_id or variable_name"),
            (["correlate", "--events", "{events}", "--depvars", "{file}", "--out", "{out}"],
             "depvars.csv", "team_id,variable_name,value\n\n", "{file}: no data rows"),
            (["series", "--events", "{events}", "--teams", "{file}", "--out", "{out}"],
             "teams.csv", "team_id,member\ng1,a\ng2,b\n", "--team required: file defines 2 teams"),
            (["validate", "--events", "{file}"], "events.csv",
             "timestamp,sender,recipients\n2010-01-01T00:00:00Z,alice,bob,carol\n",
             "{file}:2: expected 3 columns, got 4"),
            (["correlate", "--events", "{events}", "--depvars", "{file}", "--out", "{out}"],
             "depvars.csv", "team_id,variable_name,value\ng1,x,1,5\n", "{file}:2: expected 3 columns, got 4"),
            (["metrics", "--events", "{events}", "--teams", "{file}", "--out", "{out}"],
             "teams.csv", "team_id,member\ng1,a,zzz\n", "{file}:2: expected 2 columns, got 3"),
            (["validate", "--events", "{file}"], "events.jsonl",
             '{"timestamp": 0, "sender": "a", "sender": "b", "recipients": ["c"]}\n',
             "{file}:1: duplicate key 'sender'"),
            (["validate", "--events", "{file}"], "events.jsonl",
             '\ufeff{"timestamp": 0, "sender": "a", "recipients": ["b"]}\n',
             "{file}:1: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            (["metrics", "--events", "{events}", "--window", "\u0667h", "--step", "1h", "--out", "{out}"],
             "unused.txt", "", "cannot parse duration '\u0667h' (use e.g. 45s, 90m, 12h, 7d)"),
            (["metrics", "--events", "{events}", "--window", "1" * 5000 + "h", "--out", "{out}"],
             "unused.txt", "", f"duration {'1' * 40 + '…'!r} has more than 4300 digits"),
        ],
        ids=["empty", "header", "jsonl-keys", "team-id", "depvar-key", "no-depvars", "pick-team",
             "events-width", "depvars-width", "teams-width", "jsonl-duplicate-key", "jsonl-bom",
             "duration-digits", "duration-long-count"],
    )
    def test_error_line(self, tmp_path, capsys, argv, name, text, message):
        where = {"events": alternating_events_file(tmp_path), "file": write(tmp_path, name, text),
                 "out": tmp_path / "o"}
        assert main([arg.format(**where) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**where)}\n"
        assert not (tmp_path / "o").exists()

    def test_internal_value_error_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "validate_log", broken)
        path = clean_events_file(tmp_path)
        assert main(["validate", "--events", str(path)]) == 1
        assert capsys.readouterr().err == "internal error: bug\n"


class TestTimestampRange:
    @pytest.mark.parametrize(
        "stamp",
        ["100000000000000", "99999999999999999999999", "-62135596801"],
    )
    def test_epoch_out_of_range(self, tmp_path, capsys, stamp):
        path = write(tmp_path, "events.csv", EVENTS_HEADER + f"100,a,b\n{stamp},b,a\n")
        assert main(["validate", "--events", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "events.csv:3:" in captured.err
        assert "outside 0001-01-01T00:00:00Z..9999-12-31T23:59:59Z" in captured.err

    def test_rfc3339_out_of_range(self, tmp_path, capsys):
        path = write(tmp_path, "events.csv", EVENTS_HEADER + "0001-01-01T00:30:00+01:00,a,b\n")
        assert main(["metrics", "--events", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "events.csv:2:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_range_ends_render(self, tmp_path, capsys):
        path = write(
            tmp_path, "events.csv",
            EVENTS_HEADER + "0001-01-01T00:00:00Z,a,b\n9999-12-31T23:59:59Z,b,a\n",
        )
        assert main(["validate", "--events", str(path)]) == 0
        assert "range: 0001-01-01T00:00:00Z .. 9999-12-31T23:59:59Z" in capsys.readouterr().out

    def test_step_past_range(self, tmp_path, capsys):
        path = clean_events_file(tmp_path)
        argv = ["series", "--events", str(path), "--window", "4000000d", "--step", "4000000d",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "9999-12-31T23:59:59Z" in capsys.readouterr().err
        assert not (tmp_path / "o" / "series.csv").exists()
