import pytest

from quandles import quandle


@pytest.fixture
def empty_store(monkeypatch):
    """An empty per-input store for one test; the shared one is back after it."""
    monkeypatch.setattr(quandle, "_STORE", {})
