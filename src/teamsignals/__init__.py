"""Longitudinal social-network signals from interaction logs.

Computes Rotating Leadership, Rotating Contribution and Prompt Response
Time for teams of communicating actors, and correlates them against
per-team outcome variables. The names below are the documented API; the
rest lives in the submodules.
"""

from .ingest import ParseError, parse_dependent_variables, parse_events, parse_teams
from .model import EmptyLogError, Team, partition_by_team, restrict_to_team, validate_log
from .signals import TeamSignals, team_signals
from .stats import NoOverlapError, correlate
from .windows import ConfigError, WindowConfig

__version__ = "0.1.0"

__all__ = [
    "parse_events",
    "parse_teams",
    "parse_dependent_variables",
    "validate_log",
    "Team",
    "restrict_to_team",
    "partition_by_team",
    "WindowConfig",
    "team_signals",
    "TeamSignals",
    "correlate",
    "ParseError",
    "ConfigError",
    "EmptyLogError",
    "NoOverlapError",
]
