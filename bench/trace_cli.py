"""Run one teamsignals CLI command with the package's public functions traced.

    python3 bench/trace_cli.py SPANS.json <teamsignals CLI arguments>

Every public module-level function of the layers on the CLI path is wrapped
from outside, and the wrapper replaces the function wherever the package
holds a reference to it (so `signals.series` and `cli.parse_events`, bound
by `from .x import y`, are traced too). Each wrapper adds its span to
per-function totals in memory: calls, inclusive seconds, and the seconds
its traced children took. The totals and a few work counters are written
to SPANS.json once, when the command ends. Nothing in the program changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("ingest", "model", "windows", "signals", "surfaces", "stats", "cli")
# Called once per token or per actor and window: a span each would cost more
# than the work it measures.
PER_ITEM = {"model.normalize_actor", "windows.contribution_index"}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _count_partition(counts, args, kwargs, result) -> None:
    team = _arg(args, kwargs, 1, "team")
    if team.members:  # an empty roster returns the log without scanning it
        counts["partition_events_scanned"] += len(_arg(args, kwargs, 0, "log").events)
        counts["partition_events_kept"] += len(result.events)


def _count_snapshots(counts, args, kwargs, result) -> None:
    counts["snapshots_built"] += len(result)


def _count_betweenness(counts, args, kwargs, result) -> None:
    counts["betweenness_edges"] += len(_arg(args, kwargs, 0, "snapshot").edges)


COUNTERS = {
    "model.restrict_to_team": _count_partition,
    "windows.build_snapshots": _count_snapshots,
    "windows.betweenness": _count_betweenness,
}


class Tracer:
    """Per-function span totals: name -> [calls, inclusive s, children s]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child seconds of each open span

    def wrap(self, name: str, fn):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        opened = self._open
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            opened.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                children = opened.pop()
                if opened:
                    opened[-1] += took
                totals[0] += 1
                totals[1] += took
                totals[2] += children
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("teamsignals")]
        modules += [importlib.import_module(f"teamsignals.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in PER_ITEM):
                    wrapped[id(obj)] = self.wrap(name, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    setattr(module, attr, wrapped[id(obj)])


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("teamsignals.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
