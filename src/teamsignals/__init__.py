"""Longitudinal social-network signals from interaction logs.

Computes Rotating Leadership, Rotating Contribution and Prompt Response
Time for teams of communicating actors, and correlates them against
per-team outcome variables.
"""

from .ingest import (
    DependentVariableTable,
    ParseError,
    parse_dependent_variables,
    parse_events,
    parse_teams,
    write_events_csv,
)
from .model import (
    ActorId,
    CleanedLog,
    EmptyLogError,
    EventLog,
    InteractionEvent,
    Team,
    normalize_actor,
    partition_by_team,
    restrict_to_team,
    validate_log,
)
from .signals import (
    CommunicationFrame,
    ExtremaPolicy,
    TeamSignals,
    count_extrema,
    prompt_response_time,
    responsiveness,
    rotating_signal,
    segment_frames,
    team_signals,
)
from .stats import (
    CorrelationCell,
    DegenerateSampleError,
    InsufficientDataError,
    NoOverlapError,
    correlate,
    p_value,
    pearson_r,
    t_cdf,
)
from .surfaces import SurfaceMatrix, surface
from .synth import ReplyDelay, SynthScenario, generate, load_scenario_file
from .windows import (
    ConfigError,
    GraphSnapshot,
    WindowConfig,
    WindowedSeries,
    betweenness,
    brandes_betweenness,
    build_snapshots,
    contribution_index,
    parse_duration,
    series,
    series_by_metric,
)

__version__ = "0.1.0"

__all__ = [
    "ActorId",
    "CleanedLog",
    "CommunicationFrame",
    "ConfigError",
    "CorrelationCell",
    "DegenerateSampleError",
    "DependentVariableTable",
    "EmptyLogError",
    "EventLog",
    "ExtremaPolicy",
    "GraphSnapshot",
    "InsufficientDataError",
    "InteractionEvent",
    "NoOverlapError",
    "ParseError",
    "ReplyDelay",
    "SurfaceMatrix",
    "SynthScenario",
    "Team",
    "TeamSignals",
    "WindowConfig",
    "WindowedSeries",
    "betweenness",
    "brandes_betweenness",
    "build_snapshots",
    "contribution_index",
    "correlate",
    "count_extrema",
    "generate",
    "load_scenario_file",
    "normalize_actor",
    "p_value",
    "parse_dependent_variables",
    "parse_duration",
    "parse_events",
    "parse_teams",
    "partition_by_team",
    "pearson_r",
    "prompt_response_time",
    "responsiveness",
    "restrict_to_team",
    "rotating_signal",
    "segment_frames",
    "series",
    "series_by_metric",
    "surface",
    "t_cdf",
    "team_signals",
    "validate_log",
    "write_events_csv",
]
