"""The `deadline` fixture of conftest.py: a block that runs past its limit
fails the test, even when the alarm's exception is swallowed."""

import signal
import time

import pytest


def test_a_slow_block_fails_and_the_handler_is_restored(deadline):
    before = signal.getsignal(signal.SIGALRM)
    with pytest.raises(AssertionError, match="more than 0.05 s"):
        with deadline(0.05):
            time.sleep(2)
    assert signal.getsignal(signal.SIGALRM) is before


def test_a_swallowed_alarm_still_fails_when_the_block_ends(deadline):
    with pytest.raises(AssertionError, match="more than 0.05 s"):
        with deadline(0.05):
            try:
                time.sleep(2)
            except AssertionError:
                pass


def test_a_quick_block_passes(deadline):
    with deadline(5):
        pass
