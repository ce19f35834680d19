"""The package exports exactly what its submodules declare in __all__."""

import importlib
import pkgutil
import types

import sigmak_lab as sl

_SUBMODULES = {info.name: importlib.import_module(f"sigmak_lab.{info.name}")
               for info in pkgutil.iter_modules(sl.__path__)}
_DECLARED = {name: mod.__all__ for name, mod in _SUBMODULES.items()
             if hasattr(mod, "__all__")}


def test_every_declared_name_exists_in_its_submodule():
    missing = [f"{mod}.{name}" for mod, names in _DECLARED.items()
               for name in names if not hasattr(_SUBMODULES[mod], name)]
    assert not missing


def test_every_declared_name_is_reexported_by_the_package():
    absent = [f"{mod}.{name}" for mod, names in _DECLARED.items()
              for name in names if getattr(sl, name, None) is not getattr(_SUBMODULES[mod], name)]
    assert not absent


def test_the_package_exports_no_undeclared_name():
    declared = {name for names in _DECLARED.values() for name in names}
    extra = [name for name in dir(sl) if not name.startswith("_")
             and name not in declared and not isinstance(getattr(sl, name), types.ModuleType)]
    assert not extra
