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
    # a public module-level function, or a public method or property of a
    # class, is documented API, read by the bench, or used from the
    # package's own code; docstrings do not count
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
    defined = [
        (f"{module}.{node.name}", node)
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    defined += [
        (f"{name}.{node.name}", node)
        for name, cls in defined
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]
    unused = [
        name
        for name, node in defined
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and node.name not in allowed and name not in traced
    ]
    assert unused == []


def test_every_oracle_is_used():
    # a public function or class of tests/oracles.py is read by some
    # tests/test_*.py, by a name imported from oracles or as oracles.<name>;
    # an import alone does not count, nor a use inside oracles.py
    tests = README.parent / "tests"
    used = set()
    for path in tests.glob("test_*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {
            alias.asname or alias.name: alias.name
            for node in nodes
            if isinstance(node, ast.ImportFrom) and node.module == "oracles"
            for alias in node.names
        }
        used |= {imported[node.id] for node in nodes
                 if isinstance(node, ast.Name) and node.id in imported}
        used |= {node.attr for node in nodes
                 if isinstance(node, ast.Attribute) and _name(node.value) == "oracles"}
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    orphans = [
        node.name
        for node in oracles.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in used
    ]
    assert orphans == []


def _name(expr: ast.expr) -> str | None:
    """The name a Name or an Attribute ends in, such as replace for dataclasses.replace."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _is_record(node: ast.ClassDef) -> bool:
    """A @dataclass or a typing.NamedTuple class."""
    return any(
        _name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"
        for deco in node.decorator_list
    ) or any(_name(base) == "NamedTuple" for base in node.bases)


def test_every_defaulted_dataclass_field_is_set_somewhere():
    # a field with a default that no call in the package ever passes is a
    # setting with one value in use: a constant, not an option. Records are
    # dataclasses and NamedTuples, and a subclass that checks a NamedTuple's
    # fields in __new__ (WindowConfig of _WindowConfig) is called for them
    src = README.parent / "src" / "teamsignals"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    fields: dict[str, list[tuple[str, bool]]] = {}  # class -> (field, has a default), in order
    classes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for node in classes:
        if _is_record(node):
            fields[node.name] = [
                (stmt.target.id, stmt.value is not None)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    for node in classes:
        record_bases = [_name(base) for base in node.bases if _name(base) in fields]
        if record_bases and node.name not in fields:
            fields[node.name] = fields[record_bases[0]]
    passed: set[tuple[str, str]] = set()
    for node in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        name = _name(node.func)
        keywords = {kw.arg for kw in node.keywords}
        if name in ("replace", "_replace"):  # dataclasses.replace or NamedTuple._replace
            passed |= {(c, f) for c, fs in fields.items() for f, _ in fs if f in keywords}
        elif name in fields:
            by_position = [f for f, _ in fields[name][: len(node.args)]]
            passed |= {(name, f) for f in [*by_position, *keywords]}
    never_set = [
        f"{name}.{field}"
        for name, fs in sorted(fields.items())
        for field, has_default in fs
        if has_default and (name, field) not in passed
    ]
    assert never_set == []


EVENT_FIELDS = {"sender", "recipient", "timestamp"}  # one event's, where a log has columns


def test_no_module_defines_or_imports_a_per_event_class():
    # events are rows of EventColumns and EventLog; InteractionEvent, the
    # object form, lives in tests/oracles.py, and no module of the package
    # may name it or define a class that holds one event's fields
    src = README.parent / "src" / "teamsignals"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                fields = {stmt.target.id for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
                fields |= {t.attr for t in ast.walk(node) if isinstance(t, ast.Attribute)
                           and isinstance(t.ctx, ast.Store) and _name(t.value) == "self"}
                if fields & EVENT_FIELDS:
                    found.append(f"{path.name}:{node.lineno}: class {node.name}")
            elif isinstance(node, (ast.alias, ast.Name, ast.Attribute)):
                name = node.name if isinstance(node, ast.alias) else _name(node)
                if name.rsplit(".", 1)[-1] == "InteractionEvent":
                    found.append(f"{path.name}: {name}")
    assert found == []
