"""Run the docstring examples of every ``nilhom`` module."""

import doctest
import importlib
import pkgutil

import pytest

import nilhom

MODULES = ["nilhom"] + sorted(
    info.name for info in pkgutil.iter_modules(nilhom.__path__, "nilhom."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
