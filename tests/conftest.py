import signal

import pytest

from faultsched import game

# Wall-clock seconds any one test may run, set-up and tear-down included.
# The slowest test takes about 4 s; a fault that makes a loop run forever
# (a pivot rule that cycles, say) then fails its test instead of hanging
# the run.  pytest-timeout would do this, but the suite needs only pytest
# and hypothesis, so this uses the standard library's SIGALRM (POSIX only).
TEST_SECONDS = 60


@pytest.fixture(autouse=True)
def _wall_clock_guard():
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TEST_SECONDS} s wall-clock guard")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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
