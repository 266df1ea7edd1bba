import json

import pytest

from teamsignals.model import validate_log
from teamsignals.synth import ReplyDelay, SynthScenario, generate, load_scenario_file
from teamsignals.windows import ConfigError, WindowConfig, build_snapshots

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
        again = validate_log(log.events)
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
            if not degree:
                continue
            top = max(degree.values())
            assert degree.get("a000") == top
            assert sum(1 for v in degree.values() if v == top) == 1

    def test_leader_share_controls_hub_fraction(self):
        sc = scenario(n_actors=6, leader_share=0.6, duration=4 * DAY, seed=5)
        log = generate(sc)
        hub_events = sum(1 for e in log.events if "a000" in (e.sender, e.recipient))
        frac = hub_events / len(log.events)
        assert abs(frac - 0.6) < 0.08

    def test_actor_prefix(self):
        log = generate(scenario(), actor_prefix="team7.")
        assert all(a.startswith("team7.") for a in log.actors())

    def test_reply_delay_is_exact_frame_elapsed_time(self):
        from .oracles import segment_frames

        sc = scenario(n_actors=30, duration=29 * 1800, mean_event_rate=6.0)
        log = generate(sc)
        for spoke in sorted(log.actors() - {"a000"}):
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
