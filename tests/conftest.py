import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds, what):`` raises TimeoutError naming ``what`` once that much wall time passes."""

    @contextlib.contextmanager
    def guard(seconds: float, what: str):
        def expire(signum, frame):
            raise TimeoutError(f"{what} did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return guard
