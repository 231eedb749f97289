import pytest

from sympectra import spectral


@pytest.fixture(autouse=True)
def _empty_reuse_slots(monkeypatch):
    """Each test starts with spectral's reuse slots empty, so a fault that
    a test injects below them is reached whatever test ran before it."""
    monkeypatch.setattr(spectral, "_SLOTS", {})
