"""The package exports the public names of its library modules, each declared once in ``__all__``."""

import importlib
import inspect

import maxrand

MODULES = ("audit", "dist", "errors", "oracle", "orderstat")


def test_the_package_exports_every_module_all_once():
    modules = [importlib.import_module(f"maxrand.{name}") for name in MODULES]
    assert all("__all__" in vars(module) for module in modules)
    assert maxrand.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(maxrand.__all__)) == len(maxrand.__all__)
    for module in modules:
        for name in module.__all__:
            value = vars(module)[name]
            assert getattr(maxrand, name) is value, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name
