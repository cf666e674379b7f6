"""The package surface: every name a package lists in ``__all__`` resolves,
so a re-export left behind by a deleted module fails here."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.predictors",
    "repro.sim",
    "repro.traces",
    "repro.verify",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{package}.__all__ lists unresolvable names: {missing}"
