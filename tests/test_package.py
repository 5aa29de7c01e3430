"""The package's public names are its modules' ``__all__`` lists, joined."""

import importlib
import pkgutil
from itertools import combinations

import multitask_irl


def _listing_modules():
    """Every submodule that declares ``__all__``, in file-name order."""
    modules = [importlib.import_module(f"multitask_irl.{info.name}")
               for info in pkgutil.iter_modules(multitask_irl.__path__)]
    return [module for module in modules if hasattr(module, "__all__")]


def test_package_exports_each_module_list_once():
    modules = _listing_modules()
    assert len(modules) == 10
    # A name in two lists would be shadowed by the later star import.
    for first, second in combinations(modules, 2):
        shared = set(first.__all__) & set(second.__all__)
        assert not shared, (first.__name__, second.__name__, shared)
    joined = [name for module in modules for name in module.__all__]
    assert multitask_irl.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in modules:
        for name in module.__all__:
            assert getattr(multitask_irl, name) is getattr(module, name)


def test_harness_internals_stay_out_of_the_package():
    from multitask_irl.bench import METHODS, Environment  # noqa: F401

    for name in ("METHODS", "Environment"):
        assert name not in multitask_irl.__all__
        assert not hasattr(multitask_irl, name)
