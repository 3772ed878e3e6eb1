"""The examples in the crystor docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import crystor

MODULES = ["crystor"] + [
    f"crystor.{info.name}" for info in pkgutil.iter_modules(crystor.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
