import contextlib
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).resolve().parent))

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def deadline():
    """`with deadline(seconds):` fails the test with an AssertionError when
    the block runs longer, through SIGALRM, instead of waiting it out; the
    previous handler is restored afterwards. An alarm that lands in a
    callback whose exceptions are ignored (hypothesis times the garbage
    collector in one) still fails the test when the block ends."""

    @contextlib.contextmanager
    def limit(seconds):
        fired = []

        def too_slow(signum, frame):
            fired.append(signum)
            raise AssertionError("ran for more than %g s" % seconds)

        previous = signal.signal(signal.SIGALRM, too_slow)
        try:
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        if fired:
            raise AssertionError("ran for more than %g s" % seconds)

    return limit
