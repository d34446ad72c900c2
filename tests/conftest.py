import pytest

from rpentropy import positivity


@pytest.fixture(autouse=True)
def no_live_pool():
    """Shut the sweep and search pool down after each test, so that a
    worker forked before a test's monkeypatch never serves that test."""
    yield
    positivity._shutdown_pool()
