import json

import pytest

from teamsignals.model import validate_log
from teamsignals.synth import ReplyDelay, SynthScenario, generate, load_scenario_file
from teamsignals.windows import ConfigError, WindowConfig, build_snapshots

from .oracles import events_of

DAY = 86400


def scenario(**overrides):
    base = dict(
        n_actors=5,
        duration=2 * DAY,
        mean_event_rate=6.0,
        reply_delay=ReplyDelay.fixed(60),
        rotation_period=None,
        leader_share=1.0,
        seed=1,
    )
    base.update(overrides)
    return SynthScenario(**base)


class TestScenarioValidation:
    def test_too_few_actors(self):
        with pytest.raises(ConfigError):
            scenario(n_actors=1)

    def test_bad_leader_share(self):
        with pytest.raises(ConfigError):
            scenario(leader_share=0.0)
        with pytest.raises(ConfigError):
            scenario(leader_share=1.5)

    def test_bad_rotation(self):
        with pytest.raises(ConfigError):
            scenario(rotation_period=0)

    def test_delay_bounds(self):
        with pytest.raises(ConfigError):
            ReplyDelay.uniform(90, 30)
        with pytest.raises(ConfigError):
            ReplyDelay.fixed(1)

    @pytest.mark.parametrize("overrides", [dict(duration=0), dict(duration=-DAY),
                                           dict(mean_event_rate=0.0),
                                           dict(mean_event_rate=-6.0)])
    def test_duration_and_rate_must_be_positive(self, overrides):
        with pytest.raises(ConfigError, match="must be positive"):
            scenario(**overrides)

    def test_unknown_delay_kind(self):
        with pytest.raises(ConfigError, match="unknown reply delay kind 'gamma'"):
            ReplyDelay("gamma", 30, 90)

    def test_delay_must_fit_gap(self):
        # 3600 events/h -> 3 s between exchanges, too tight for a 60 s reply
        with pytest.raises(ConfigError):
            generate(scenario(mean_event_rate=3600.0))


class TestGenerate:
    def test_same_seed_bit_identical(self):
        sc = scenario(rotation_period=DAY, reply_delay=ReplyDelay.uniform(30, 90))
        assert generate(sc) == generate(sc)

    def test_different_seed_differs(self):
        assert generate(scenario(seed=1)) != generate(scenario(seed=2))

    def test_log_is_already_clean(self):
        log = generate(scenario())
        again = validate_log(log)
        assert again.log == log
        assert again.dropped_self_loops == 0
        assert again.collapsed_duplicates == 0

    def test_static_hub_has_max_degree_every_window(self):
        log = generate(scenario(seed=9))
        cfg = WindowConfig(window_size=6 * 3600, step=6 * 3600)
        for snap in build_snapshots(log, cfg):
            degree: dict[str, int] = {}
            for (src, dst), count in snap.edges.items():
                degree[src] = degree.get(src, 0) + count
                degree[dst] = degree.get(dst, 0) + count
            if len(degree) < 3:  # the window ending at t_start holds one event: a tie
                continue
            top = max(degree.values())
            assert degree.get("a000") == top
            assert sum(1 for v in degree.values() if v == top) == 1

    def test_leader_share_controls_hub_fraction(self):
        sc = scenario(n_actors=6, leader_share=0.6, duration=4 * DAY, seed=5)
        log = generate(sc)
        hub_events = sum(1 for e in events_of(log) if "a000" in (e.sender, e.recipient))
        frac = hub_events / len(log.stamps)
        assert abs(frac - 0.6) < 0.08

    def test_actor_prefix(self):
        log = generate(scenario(), actor_prefix="team7.")
        assert all(a.startswith("team7.") for a in log.names)

    def test_reply_delay_is_exact_frame_elapsed_time(self):
        from .oracles import segment_frames

        sc = scenario(n_actors=30, duration=29 * 1800, mean_event_rate=6.0)
        log = generate(sc)
        for spoke in sorted(set(log.names) - {"a000"}):
            for frame in segment_frames(log, "a000", spoke):
                if frame.closed:
                    assert frame.elapsed_time == 60
                    assert frame.event_count == 3


class TestScenarioFile:
    def test_round_trip(self, tmp_path):
        payload = {
            "teams": [
                {
                    "team_id": "t1",
                    "n_actors": 4,
                    "duration": "2d",
                    "mean_event_rate": 6.0,
                    "rotation_period": "12h",
                    "leader_share": 0.9,
                    "reply_delay": {"kind": "uniform", "lo": 30, "hi": 90},
                    "seed": 7,
                },
                {
                    "team_id": "t2",
                    "n_actors": 3,
                    "duration": 86400,
                    "mean_event_rate": 12.0,
                    "rotation_period": None,
                    "reply_delay": {"kind": "fixed", "seconds": 45},
                },
            ]
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        entries = load_scenario_file(path)
        assert [team_id for team_id, _ in entries] == ["t1", "t2"]
        t1 = entries[0][1]
        assert t1.duration == 2 * DAY
        assert t1.rotation_period == 12 * 3600
        assert t1.reply_delay == ReplyDelay.uniform(30, 90)
        t2 = entries[1][1]
        assert t2.rotation_period is None
        assert t2.seed == 0

    def test_duplicate_team_id(self, tmp_path):
        entry = {
            "team_id": "t1", "n_actors": 3, "duration": 3600,
            "mean_event_rate": 30.0, "reply_delay": {"kind": "fixed", "seconds": 30},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": [entry, entry]}))
        with pytest.raises(ConfigError, match="duplicate"):
            load_scenario_file(path)

    def test_missing_teams_key(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            load_scenario_file(path)

    def test_bad_delay_kind(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": [{
            "team_id": "t1", "n_actors": 3, "duration": 3600,
            "mean_event_rate": 30.0, "reply_delay": {"kind": "gamma"},
        }]}))
        with pytest.raises(ConfigError):
            load_scenario_file(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_actors", 3.9),
            ("n_actors", "4"),
            ("n_actors", True),
            ("seed", 1.5),
            ("seed", "1"),
            ("duration", True),
            ("duration", 3600.5),
            ("rotation_period", True),
            ("mean_event_rate", "30"),
            ("mean_event_rate", True),
            ("leader_share", "1.0"),
            ("reply_delay.seconds", "30"),
            ("reply_delay.lo", True),
            ("reply_delay.hi", "60"),
            ("reply_delay", 60),
            ("reply_delay", [30]),
        ],
    )
    def test_value_of_the_wrong_json_type(self, tmp_path, key, value):
        # a bool, a string or a fraction is never read as a number or an integer
        entry = {
            "team_id": "t1", "n_actors": 3, "duration": 3600, "mean_event_rate": 30.0,
            "reply_delay": {"kind": "uniform", "lo": 30, "hi": 60},
        }
        if key.startswith("reply_delay."):
            sub = key.split(".")[1]
            if sub == "seconds":
                entry["reply_delay"] = {"kind": "fixed", "seconds": 30}
            entry["reply_delay"][sub] = value
        else:
            entry[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": [entry]}))
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        message = str(info.value)
        assert message.startswith(f"{path}: team 't1': {key} must be a JSON ")
        assert message.endswith(f", got {json.dumps(value)}")

    @pytest.mark.parametrize("value", [True, 7, None, ["t1"]])
    def test_team_id_of_the_wrong_json_type(self, tmp_path, value):
        # never str()-ed into a team such as "True" or "7"
        entry = {
            "team_id": value, "n_actors": 3, "duration": 3600, "mean_event_rate": 30.0,
            "reply_delay": {"kind": "fixed", "seconds": 30},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": [entry]}))
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        assert str(info.value) == f"{path}: team_id must be a JSON string, got {json.dumps(value)}"

    @pytest.mark.parametrize("team_id", ["Alpha", "g;h", "ÄB"])
    def test_team_id_whose_actor_names_do_not_read_back(self, tmp_path, team_id):
        # events.csv is read back lowercased and with recipients split on ";"
        entry = {
            "team_id": team_id, "n_actors": 3, "duration": 3600, "mean_event_rate": 30.0,
            "reply_delay": {"kind": "fixed", "seconds": 30},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": [entry]}))
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        assert str(info.value) == (
            f"{path}: team {team_id!r}: team_id must be lowercase, with no ';', "
            "so that its actors' names read back as written"
        )

    @pytest.mark.parametrize("entry", [{}, {"team_id": ""}, {"team_id": "  "}])
    def test_missing_or_blank_team_id(self, tmp_path, entry):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": [entry]}))
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        assert str(info.value) == f"{path}: each team needs a team_id"

    def test_team_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"teams": ["t1"]}))
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        assert str(info.value) == f"{path}: each team must be a JSON object"

    @pytest.mark.parametrize(
        "level, first, where",
        [
            ("top", "zextra", ""),
            ("team", "leader_shar", " team 't1':"),
            ("fixed", "lo", " team 't1': reply_delay:"),
            ("uniform", "seconds", " team 't1': reply_delay:"),
        ],
        ids=["top", "team", "fixed-delay", "uniform-delay"],
    )
    def test_unknown_key(self, tmp_path, level, first, where):
        # the first unknown key in file order is named, and none is ignored
        entry = {
            "team_id": "t1", "n_actors": 3, "duration": 3600, "mean_event_rate": 30.0,
            "reply_delay": {"kind": "fixed", "seconds": 30}, "seed": 2,
        }
        data = {"teams": [entry]}
        if level == "top":
            data.update(zextra=1, extra=2)
        elif level == "team":
            entry.update(leader_shar=0.2, seeed=3)
        elif level == "fixed":
            entry["reply_delay"].update(lo=5, hi=90)
        else:
            entry["reply_delay"] = {"kind": "uniform", "seconds": 45, "lo": 30, "hi": 60}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        assert str(info.value) == f"{path}:{where} unknown key {first!r}"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"teams": [], "teams": [{}]}', "teams"),
            ('{"teams": [{"team_id": "t1", "n_actors": 3, "duration": 3600, "mean_event_rate": 30.0, '
             '"reply_delay": {"kind": "fixed", "seconds": 30}, "seed": 1, "seed": 5}]}', "seed"),
            ('{"teams": [{"team_id": "t1", "n_actors": 3, "duration": 3600, "mean_event_rate": 30.0, '
             '"reply_delay": {"kind": "fixed", "seconds": 30, "seconds": 60}}]}', "seconds"),
        ],
        ids=["top", "team", "reply-delay"],
    )
    def test_duplicate_key(self, tmp_path, text, key):
        # json.loads would keep the last value of a repeated key
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_scenario_file(path)
        assert str(info.value) == f"{path}: duplicate key {key!r}"
