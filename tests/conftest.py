import pytest

from sympectra import spectral


@pytest.fixture(autouse=True)
def _empty_reuse_entry(monkeypatch):
    """Each test starts with spectral's reuse entry empty, so a fault that
    a test injects below it is reached whatever test ran before it."""
    monkeypatch.setattr(spectral, "_LAST", None)
