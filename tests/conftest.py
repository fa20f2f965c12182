"""Fixtures shared by the test modules."""

import types

import numpy as np
import pytest

# numpy's module-level forms of these re-dispatch in Python to the array
# method or ufunc, which at a generation's or an update's array sizes costs
# more than the reduction itself; the hot paths call the method
NUMPY_WRAPPERS = ("sum", "all", "any", "min", "max", "mean", "clip", "flatnonzero", "stack",
                  "sort", "atleast_1d", "take_along_axis")


@pytest.fixture
def numpy_wrapper_calls(monkeypatch):
    """``watch(*modules)`` gives each program module a numpy whose
    NUMPY_WRAPPERS are counted, and returns the list their calls go into;
    numpy's own internals (Generator.uniform's bound checks) keep the real ones."""
    calls = []
    counted = types.ModuleType("numpy")
    counted.__getattr__ = lambda attr: getattr(np, attr)
    for wrapper in NUMPY_WRAPPERS:
        def count(*args, _name=wrapper, **kwargs):
            calls.append(_name)
            return getattr(np, _name)(*args, **kwargs)
        setattr(counted, wrapper, count)

    def watch(*modules):
        for module in modules:
            monkeypatch.setattr(module, "np", counted)
        return calls
    return watch
