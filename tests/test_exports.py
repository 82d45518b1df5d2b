import ast
import importlib
import pkgutil
import types
from pathlib import Path

import suitcap


def test_every_exported_name_resolves():
    # __main__ is skipped: importing it runs the CLI
    names = ["suitcap"] + [
        f"suitcap.{m.name}" for m in pkgutil.iter_modules(suitcap.__path__) if m.name != "__main__"
    ]
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        unresolved = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if unresolved:
            missing[name] = unresolved
    assert len(names) > 10
    assert not missing


def test_benchmark_span_names_resolve():
    # the benchmark's layer trace replaces these attributes by name; run its
    # module from source so that nothing is written next to it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    layertrace = types.ModuleType("layertrace")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), layertrace.__dict__)
    spans = [(module, attr) for entries in layertrace.SPANS.values() for module, attr, _, _ in entries]
    assert len(spans) > 20
    missing = [(m, a) for m, a in spans if not hasattr(importlib.import_module(m), a)]
    assert not missing


def test_benchmark_workloads_names_resolve():
    # running the benchmark's workloads module from source (nothing is written next
    # to it) resolves its package imports; the cli/simulator attributes it calls by
    # name are checked here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    source = path.read_text(encoding="utf-8")
    exec(compile(source, str(path), "exec"), types.ModuleType("workloads").__dict__)
    used = {
        (f"suitcap.{node.value.id}", node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("cli", "simulator")
    }
    assert len(used) > 3
    missing = [(m, a) for m, a in sorted(used) if not hasattr(importlib.import_module(m), a)]
    assert not missing
