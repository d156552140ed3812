"""The public surface: every exported name resolves, and the checks that only
the tests use (`helpers`) and the names of removed code are defined nowhere."""

from __future__ import annotations

import importlib
import pkgutil

import blaschkelab

_MODULES = [blaschkelab] + [
    importlib.import_module(f"blaschkelab.{info.name}")
    for info in pkgutil.iter_modules(blaschkelab.__path__)
]
# The test-only checks, the error of the generic element the minimal
# projections no longer draw, the error of the step floor that lane steps no
# longer retry down to, the settings record no function takes, and the
# records that only echoed or validated their caller's arguments.
_EXPORTED_NOWHERE = {
    "winding_number",
    "separation_slope",
    "loop_permutation",
    "partition_check",
    "is_transitive",
    "orbital_count",
    "DegenerateGenericElement",
    "StepFloorReached",
    "Settings",
    "DEFAULTS",
    "GammaSample",
    "ZnCase",
}


def test_every_exported_name_resolves():
    for module in _MODULES:
        exported = module.__all__
        assert len(set(exported)) == len(exported), module.__name__
        for name in exported:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_test_only_checks_are_not_exported():
    for module in _MODULES:
        assert not _EXPORTED_NOWHERE & set(module.__all__), module.__name__
        assert not [n for n in _EXPORTED_NOWHERE if hasattr(module, n)], module.__name__
