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


@pytest.fixture(params=[
    ([1.0, 0.75], [0.0, 0.25], "correlation paths disagree: 0.75 vs 0.5"),
    ([1.0, 1.5], [0.0, 2.25], "correlation exceeded 1 beyond tolerance"),
], ids=["paths disagree", "above one"])
def rho_fault(request, monkeypatch):
    """The two ways `correlation_rho` fails its own result: the paths
    disagree, or they agree on a value above 1 + tol. numpy's `svd` and
    `eigvalsh` are patched to return the case's spectra; the fixture's value
    is the GuaranteeError message that must follow."""
    import numpy

    svals, eigs, message = request.param
    monkeypatch.setattr(numpy.linalg, "svd",
                        lambda mat, compute_uv: numpy.array(svals))
    monkeypatch.setattr(numpy.linalg, "eigvalsh",
                        lambda gram: numpy.array(eigs))
    return message
