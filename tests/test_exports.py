import importlib
import pkgutil

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
