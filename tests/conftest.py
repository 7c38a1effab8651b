"""Test setup shared by every test file.

hypothesis is a test-only dependency.  When it is not installed, a stand-in
module takes its place: strategies built at import time become inert
placeholders and every ``@given`` test is skipped, so the other tests of
each file still collect and run.
"""

import sys
import types

import pytest

try:
    import hypothesis  # noqa: F401
except ImportError:

    class _Strategy:
        """Accepts every strategy constructor and combinator; never drawn."""

        def __call__(self, *args, **kwargs):
            return self

        def __getattr__(self, name):
            return self

        def __or__(self, other):
            return self

    def _given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")

    def _unchanged(*args, **kwargs):
        return lambda f: f

    strategies = types.ModuleType("hypothesis.strategies")
    strategies.__getattr__ = lambda name: _Strategy()
    stub = types.ModuleType("hypothesis")
    stub.given = _given
    stub.settings = _unchanged
    stub.example = _unchanged
    stub.assume = lambda condition: True
    stub.strategies = strategies
    sys.modules["hypothesis"] = stub
    sys.modules["hypothesis.strategies"] = strategies
