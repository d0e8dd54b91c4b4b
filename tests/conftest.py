import signal

import pytest


@pytest.fixture
def hang_guard():
    """Fails a test that runs 60 s: a hung pipe read would never end."""
    def hung(signum, frame):
        pytest.fail("test hung")  # not an Exception, so main lets it by

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 60)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
