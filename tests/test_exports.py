import importlib
import pkgutil

import sraar


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only when something star-imports the module
    modules = [sraar] + [importlib.import_module(f"sraar.{info.name}")
                         for info in pkgutil.iter_modules(sraar.__path__)]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
