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


# exported names that only tests use, each kept for its reason
EXEMPT = {
    # the writer half of the detection file format that `read_detections` reads
    ("detection", "write_detections"),
    # the tests' reference energy for the inpainting solve
    ("inpaint", "spatiotemporal_objective"),
}


def _references(tree, strings):
    """Names the module's code refers to, leaving out each top-level definition's uses of its own name.

    With `strings`, string constants count too: the benchmark harness names the
    functions it wraps by string.
    """
    names = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                names.add(name)
    return names


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _public_methods(tree):
    """(class, name) of each public method and property of the module's classes."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield cls.name, node.name


def test_every_exported_name_has_a_caller():
    # a name in `__all__`, or a public method or property of a class the package
    # defines, that no module of the package and no benchmark script uses is code
    # that the pipeline never calls; methods are matched by attribute name alone
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(suitcap.__file__).parent.glob("*.py")}
    used = set().union(*(_references(tree, False) for tree in modules.values()))
    for path in (Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        if path.name != "test_perfbench.py":
            used |= _references(ast.parse(path.read_text(encoding="utf-8")), True)
    exported = {(m, name) for m, tree in modules.items() for name in _exports(tree)}
    methods = {(m, f"{cls}.{name}") for m, tree in modules.items() for cls, name in _public_methods(tree)}
    assert len(exported) > 50 and len(methods) > 10
    assert EXEMPT <= exported
    uncalled = sorted(e for e in exported - EXEMPT if e[1] not in used)
    uncalled += sorted(e for e in methods if e[1].split(".")[1] not in used)
    assert not uncalled, f"exported names and methods that nothing in src/ or perfbench/ uses: {uncalled}"


def test_every_module_level_import_is_used():
    # a name is used when the module's code reads it or lists it in `__all__` (a re-export)
    unused = []
    for path in sorted(Path(suitcap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_exports(tree))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}: {name}")
    assert not unused
