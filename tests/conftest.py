"""Shared fixtures."""

import pytest

from spheremap.spectral import Grid


@pytest.fixture
def transform_calls(monkeypatch):
    """Names of the Grid transform methods called during the test, in order."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(self, *args, _method=getattr(Grid, name), _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(Grid, name, counted)
    return calls
