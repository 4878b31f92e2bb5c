"""Every public name the packages export resolves."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["pspin", "pspin.simulator"])
def test_all_names_resolve(module):
    namespace = {}
    exec(f"from {module} import *", namespace)  # AttributeError on a stale __all__ entry
    assert set(importlib.import_module(module).__all__) <= set(namespace)
