"""The records are immutable NamedTuples, and starting the CLI imports no dataclasses."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from teamsignals.model import Team, validate_log
from teamsignals.signals import team_signals
from teamsignals.stats import CorrelationCell
from teamsignals.windows import ConfigError, WindowConfig, build_snapshots

from .oracles import InteractionEvent, columns

SRC = Path(__file__).resolve().parent.parent / "src"

# dataclasses and the modules it pulls in, which no command but synth needs
SLOW_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

EVENTS = [InteractionEvent("a", "b", 0), InteractionEvent("b", "a", 60),
          InteractionEvent("a", "c", 3600), InteractionEvent("c", "a", 3700)]


def records():
    """One value of each record on the command path, by name."""
    cleaned = validate_log(columns(EVENTS))
    cfg = WindowConfig(3600, 1800)
    return {
        "EventLog": cleaned.log,
        "CleanedLog": cleaned,
        "Team": Team("t", frozenset({"a", "b"})),
        "WindowConfig": cfg,
        "GraphSnapshot": build_snapshots(cleaned.log, cfg)[0],
        "TeamSignals": team_signals(cleaned.log, cfg),
        "CorrelationCell": CorrelationCell("score", "rl", 0.5, 0.2, 10),
    }


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, teamsignals.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "teamsignals.cli" in loaded
    assert sorted(SLOW_MODULES & loaded) == []


@pytest.mark.parametrize("name", sorted(records()))
def test_no_field_can_be_assigned(name):
    record = records()[name]
    for field in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


@pytest.mark.parametrize("name", ["EventLog", "TeamSignals"])
def test_pickle_round_trip(name):
    # the --jobs pool sends team logs to its workers and their signals back
    record = records()[name]
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("make, error, text", [
    (lambda: WindowConfig(0, 1), ConfigError, "window_size must be positive, got 0"),
    (lambda: WindowConfig(1, 0), ConfigError, "step must be positive, got 0"),
    (lambda: WindowConfig(1, 2), ConfigError, "step (2) larger than window_size (1) leaves gaps"),
    (lambda: WindowConfig(2, 1)._replace(step=3), ConfigError,
     "step (3) larger than window_size (2) leaves gaps"),
    (lambda: Team("", frozenset({"a"})), ValueError, "team_id must be non-empty"),
    (lambda: Team("t", frozenset({"a"}))._replace(team_id=""), ValueError,
     "team_id must be non-empty"),
])
def test_checked_records_refuse_as_before(make, error, text):
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == text


def test_replace_copies_with_a_changed_field():
    log = records()["EventLog"]
    moved = log._replace(t_start=log.t_start - 60)
    assert moved.t_start == log.t_start - 60
    assert moved._replace(t_start=log.t_start) == log
    assert WindowConfig(2, 1)._replace(step=2) == WindowConfig(2, 2)
