import pytest

from faultsched import game


@pytest.fixture
def validations(monkeypatch):
    """Schedules passed to ``game.validate_schedule`` while the test runs."""
    seen = []
    real = game.validate_schedule

    def counting(s):
        seen.append(s)
        return real(s)

    monkeypatch.setattr(game, "validate_schedule", counting)
    return seen
