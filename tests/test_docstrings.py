"""Documentation-coverage meta-tests.

Every public module, class, and function in the library must carry a
docstring — enforced here so the guarantee survives future edits — and
every name a module lists in ``__all__`` must exist on it, so deleting
a definition cannot leave a dangling re-export behind.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro


def _public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if not any(part.startswith("_") for part in info.name.split(".")):
            names.append(info.name)
    return sorted(names)


MODULES = _public_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [
        name for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"


def _method_documented(cls, method_name) -> bool:
    """A method counts as documented when it or any base-class override
    of the same name carries a docstring (the interface contract)."""
    for base in cls.__mro__:
        candidate = vars(base).get(method_name)
        if candidate is None:
            continue
        doc = getattr(candidate, "__doc__", None)
        if doc and doc.strip():
            return True
    return False


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-exports are documented at their home module
        if not (obj.__doc__ and obj.__doc__.strip()):
            undocumented.append(name)
        if inspect.isclass(obj):
            for method_name, method in vars(obj).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method):
                    continue
                if not _method_documented(obj, method_name):
                    undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{module_name} has undocumented public members: {undocumented}"
    )


def test_module_count_sanity():
    # The library spans six subpackages; a collapse in discovered
    # modules would mean the walk (or the package) broke.
    assert len(MODULES) > 35
