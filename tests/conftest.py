"""Shared fixtures."""

import pytest

from spheremap.spectral import Grid


@pytest.fixture
def transform_calls(monkeypatch):
    """Names of the Grid transform methods called during the test, in order."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(self, f, _method=getattr(Grid, name), _name=name):
            calls.append(_name)
            return _method(self, f)

        monkeypatch.setattr(Grid, name, counted)
    return calls
