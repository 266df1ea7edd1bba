"""Seeded synthetic team logs with known ground truth.

The generator emits a star-topology exchange every ``gap`` seconds: the
current hub sends two pings to a spoke (one second apart) and the spoke
replies after a draw from the reply-delay distribution. Spokes are served
in seeded shuffled round-robin order, so every spoke is active in every
reasonably sized window. With a rotation period the hub advances round-robin
through the team each period; without one the first actor stays hub.

This construction pins the ground truth: the hub is the unique betweenness
hub of each window, senders run at a contribution index of +1/3 against
-1/3 for receivers, and every closed communication frame's elapsed time
equals the drawn reply delay exactly.
"""

from __future__ import annotations

import json
import math
import random
from array import array
from dataclasses import dataclass, fields
from pathlib import Path

from .ingest import JSONValueError, load_json
from .model import EventColumns, EventLog, validate_log
from .windows import ConfigError, parse_duration


@dataclass(frozen=True)
class ReplyDelay:
    """Reply latency distribution: fixed(d) or uniform(lo, hi), in seconds."""

    kind: str
    lo: float
    hi: float

    @classmethod
    def fixed(cls, seconds: float) -> "ReplyDelay":
        return cls("fixed", seconds, seconds)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "ReplyDelay":
        return cls("uniform", lo, hi)

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform"):
            raise ConfigError(f"unknown reply delay kind {self.kind!r}")
        if not self.lo >= 2:  # also rejects NaN
            raise ConfigError("reply delay must be at least 2 seconds")
        if not self.hi >= self.lo:
            raise ConfigError(f"reply delay bounds out of order: {self.lo} > {self.hi}")

    def draw(self, rng: random.Random) -> int:
        if self.kind == "fixed":
            return round(self.lo)
        return round(rng.uniform(self.lo, self.hi))


@dataclass(frozen=True)
class SynthScenario:
    """Parameters of one generated team log."""

    n_actors: int
    duration: int
    mean_event_rate: float
    reply_delay: ReplyDelay
    rotation_period: int | None = None
    leader_share: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_actors < 2:
            raise ConfigError(f"need at least 2 actors, got {self.n_actors}")
        if self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if not self.mean_event_rate > 0:  # also rejects NaN
            raise ConfigError(f"mean_event_rate must be positive, got {self.mean_event_rate}")
        if self.rotation_period is not None and self.rotation_period <= 0:
            raise ConfigError(f"rotation_period must be positive, got {self.rotation_period}")
        if not 0.0 < self.leader_share <= 1.0:
            raise ConfigError(f"leader_share must be in (0, 1], got {self.leader_share}")

    @property
    def exchange_gap(self) -> int:
        """Seconds between exchange starts; each exchange is 3 events."""
        return max(1, round(3 * 3600 / self.mean_event_rate))


def generate(scenario: SynthScenario, actor_prefix: str = "") -> EventLog:
    """Deterministic synthetic log for one scenario.

    The same (scenario, seed) always yields a bit-identical log. Reply
    delays must stay below the exchange gap so exchanges never collide.
    """
    gap = scenario.exchange_gap
    if scenario.reply_delay.hi >= gap:
        raise ConfigError(
            f"reply delay up to {scenario.reply_delay.hi}s does not fit the "
            f"{gap}s exchange gap at rate {scenario.mean_event_rate}/h"
        )
    rng = random.Random(scenario.seed)
    n = scenario.n_actors
    stamps, senders, recipients = array("q"), array("i"), array("i")
    spoke_queue: list[int] = []
    prev_hub: int | None = None
    t = 0
    while t < scenario.duration:
        hub = 0 if scenario.rotation_period is None else (t // scenario.rotation_period) % n
        if hub != prev_hub:
            spoke_queue = []
            prev_hub = hub
        hub_turn = rng.random() < scenario.leader_share or n < 3
        if hub_turn:
            if not spoke_queue:
                spoke_queue = [a for a in range(n) if a != hub]
                rng.shuffle(spoke_queue)
            src, dst = hub, spoke_queue.pop()
        else:
            src, dst = rng.sample([a for a in range(n) if a != hub], 2)
        delay = scenario.reply_delay.draw(rng)
        stamps.extend((t, t + 1, t + delay))
        senders.extend((src, src, dst))
        recipients.extend((dst, dst, src))
        t += gap
    names = tuple(f"{actor_prefix}a{i:03d}" for i in range(n))
    return validate_log(EventColumns(names, stamps, senders, recipients)).log


def _shown(value) -> str:
    """value as JSON text; a number too large for a float, such as 1e400, loads as infinity."""
    if isinstance(value, float) and math.isinf(value):
        return "infinity" if value > 0 else "-infinity"
    return json.dumps(value)


def _integer(key: str, value, what: str = "a JSON integer") -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{key} must be {what}, got {_shown(value)}")


def _number(key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key} must be a JSON number, got {_shown(value)}")


def _duration(key: str, value) -> int:
    if isinstance(value, str):
        return parse_duration(value)
    return _integer(key, value, 'a JSON integer of seconds or a string such as "16d"')


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    """Raise ConfigError at obj's first key, in file order, that is not in allowed."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")


def _parse_reply_delay(obj) -> ReplyDelay:
    if not isinstance(obj, dict):
        raise ConfigError(f"reply_delay must be a JSON object, got {_shown(obj)}")
    kind = obj.get("kind")
    if kind == "fixed":
        _check_keys(obj, ("kind", "seconds"), "reply_delay")
        return ReplyDelay.fixed(_number("reply_delay.seconds", obj["seconds"]))
    if kind == "uniform":
        _check_keys(obj, ("kind", "lo", "hi"), "reply_delay")
        lo, hi = _number("reply_delay.lo", obj["lo"]), _number("reply_delay.hi", obj["hi"])
        return ReplyDelay.uniform(lo, hi)
    raise ConfigError(f"reply_delay kind must be fixed or uniform, got {kind!r}")


def load_scenario_file(path) -> list[tuple[str, SynthScenario]]:
    """Parse a scenario JSON file into (team_id, scenario) pairs.

    Layout: {"teams": [{"team_id": ..., "n_actors": ..., "duration": "16d",
    "mean_event_rate": 6.0, "rotation_period": "4d" | null,
    "leader_share": 1.0, "reply_delay": {"kind": "fixed", "seconds": 60},
    "seed": 1}, ...]}. Durations accept JSON integer seconds or suffixed
    strings; team_id must be a JSON string in lowercase with no ";" (the
    actors are named "{team_id}.aNNN", and events.csv is read back
    lowercased and split on ";"), reply_delay a JSON object,
    n_actors and seed JSON integers and the rates, shares and delays JSON
    numbers, never bools or strings. A key outside this layout is an error,
    not ignored, and so is a key repeated in one object. Any file that is
    not such a layout raises ConfigError naming the file (and the team and
    key of a bad value, the first unknown key in file order, or a repeated
    key).
    """
    try:
        with open(Path(path), encoding="utf-8") as fh:
            data = load_json(fh.read())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: not a JSON scenario file: {exc}") from None
    except JSONValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    entries = data.get("teams") if isinstance(data, dict) else None
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: scenario file needs a non-empty 'teams' list")
    _check_keys(data, ("teams",), str(path))
    out: list[tuple[str, SynthScenario]] = []
    seen: set[str] = set()
    team_keys = ("team_id", *(f.name for f in fields(SynthScenario)))
    for entry in entries:
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: each team must be a JSON object")
        team_id = entry.get("team_id", "")
        if not isinstance(team_id, str):
            raise ConfigError(f"{path}: team_id must be a JSON string, got {_shown(team_id)}")
        team_id = team_id.strip()
        if not team_id:
            raise ConfigError(f"{path}: each team needs a team_id")
        if team_id != team_id.lower() or ";" in team_id:
            raise ConfigError(f"{path}: team {team_id!r}: team_id must be lowercase, with no ';', "
                              "so that its actors' names read back as written")
        if team_id in seen:
            raise ConfigError(f"{path}: duplicate team_id {team_id!r}")
        seen.add(team_id)
        _check_keys(entry, team_keys, f"{path}: team {team_id!r}")
        period = entry.get("rotation_period")
        try:
            scenario = SynthScenario(
                n_actors=_integer("n_actors", entry["n_actors"]),
                duration=_duration("duration", entry["duration"]),
                mean_event_rate=_number("mean_event_rate", entry["mean_event_rate"]),
                reply_delay=_parse_reply_delay(entry["reply_delay"]),
                rotation_period=None if period is None else _duration("rotation_period", period),
                leader_share=_number("leader_share", entry.get("leader_share", 1.0)),
                seed=_integer("seed", entry.get("seed", 0)),
            )
        except KeyError as exc:
            raise ConfigError(f"{path}: team {team_id!r} needs key {exc}") from None
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: team {team_id!r}: {exc}") from None
        out.append((team_id, scenario))
    return out
