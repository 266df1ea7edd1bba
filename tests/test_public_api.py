"""The package's top-level names agree with the README's Library section and the bench."""

import ast
import importlib
import re
import types
from pathlib import Path

import teamsignals
from teamsignals import TeamSignals

README = Path(__file__).resolve().parent.parent / "README.md"
BENCH_RUN = README.parent / "bench" / "run.py"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_all_matches_readme_list():
    bullets = [line for line in library_section().splitlines() if line.startswith("- ")]
    listed = re.findall(r"`(\w+)`", "\n".join(bullets))
    assert len(listed) == len(set(listed))
    assert sorted(teamsignals.__all__) == sorted(listed)


def test_every_name_resolves():
    for name in teamsignals.__all__:
        assert getattr(teamsignals, name) is not None


def test_readme_snippet_runs(tmp_path, monkeypatch):
    [snippet] = re.findall(r"```python\n(.*?)```", library_section(), re.S)
    (tmp_path / "events.csv").write_text(
        "timestamp,sender,recipients\n"
        "2010-06-13T00:00:00Z,alice,bob\n"
        "2010-06-13T01:00:00Z,bob,alice\n"
        "2010-06-13T02:00:00Z,bob,carol\n"
        "2010-06-13T03:00:00Z,carol,bob\n"
        "2010-06-13T04:00:00Z,carol,dave\n"
        "2010-06-13T05:00:00Z,dave,alice\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(snippet, namespace)
    assert isinstance(namespace["sig"], TeamSignals)
    assert namespace["sig"].n_actors == 4
    assert namespace["core"].n_actors == 3


def _bench_traced_names() -> list[str]:
    """Every function bench/run.py's _layer_metrics reads a span or count of, and cli.main."""
    source = BENCH_RUN.read_text(encoding="utf-8")
    body = source.split("def _layer_metrics(", 1)[1].split("\ndef ", 1)[0]
    names = re.findall(r'\bspan\("([\w.]+)"', body) + re.findall(r'\bcount\("\w+", "([\w.]+)"', body)
    return sorted(set(names) | {"cli.main"})


def test_bench_traced_names_resolve():
    # bench/trace_cli.py wraps only public functions defined in their own
    # module; a name it cannot wrap makes its per-layer metrics read null
    names = _bench_traced_names()
    assert {"windows.build_snapshots", "surfaces.surface", "stats.correlate"} <= set(names)
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"teamsignals.{layer}")
        fn = getattr(module, attr, None)
        assert isinstance(fn, types.FunctionType), name
        assert fn.__module__ == module.__name__, name
        assert not attr.startswith("_"), name


def test_every_public_function_is_used():
    # a public module-level function is documented API, read by the bench,
    # or called from the package's own code; docstrings do not count
    src = README.parent / "src" / "teamsignals"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    allowed = set(teamsignals.__all__) | used
    traced = set(_bench_traced_names())
    unused = [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in allowed and f"{module}.{node.name}" not in traced
    ]
    assert unused == []
