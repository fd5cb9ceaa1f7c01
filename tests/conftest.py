"""Shared fixtures."""

import numpy as np
import pytest

from spheremap.spectral import Grid


def _record_transforms(monkeypatch, entry):
    """Replace the Grid transform methods by ones that append
    ``entry(method name, grid, transformed array)`` to the returned list."""
    calls = []
    for name in ("rfft", "irfft"):
        def counted(self, f, *args, _method=getattr(Grid, name), _name=name, **kwargs):
            calls.append(entry(_name, self, f))
            return _method(self, f, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return calls


@pytest.fixture
def transform_calls(monkeypatch):
    """Names of the Grid transform methods called during the test, in order."""
    return _record_transforms(monkeypatch, lambda name, grid, f: name)


@pytest.fixture
def transform_fields(monkeypatch):
    """(method name, number of fields) of each Grid transform called during
    the test, in order; a field is one n^d block of the transformed stack."""
    return _record_transforms(
        monkeypatch, lambda name, grid, f: (name, int(np.prod(np.shape(f)[:-grid.d]))))
