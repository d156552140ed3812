"""The public surface: every exported name resolves, and the checks that only
the tests use (`helpers`) are exported nowhere."""

from __future__ import annotations

import importlib
import pkgutil

import blaschkelab

_MODULES = [blaschkelab] + [
    importlib.import_module(f"blaschkelab.{info.name}")
    for info in pkgutil.iter_modules(blaschkelab.__path__)
]
_TEST_ONLY = {
    "winding_number",
    "separation_slope",
    "loop_permutation",
    "partition_check",
    "is_transitive",
    "orbital_count",
}


def test_every_exported_name_resolves():
    for module in _MODULES:
        exported = module.__all__
        assert len(set(exported)) == len(exported), module.__name__
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_test_only_checks_are_not_exported():
    for module in _MODULES:
        assert not _TEST_ONLY & set(module.__all__), module.__name__
        assert not [name for name in _TEST_ONLY if hasattr(module, name)], module.__name__
