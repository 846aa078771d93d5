"""Shared pytest configuration.

Besides registering markers and turning every ``DeprecationWarning`` into
an error, this conftest wires a CI-friendly per-test timeout: a solver
regression that would previously hang the whole tier-1 run indefinitely
(the eager-DNF era symptom) now fails fast with a clear message.
``pytest-timeout`` is not available in the environment, so the guard is a
conftest-level ``SIGALRM`` alarm; it is skipped on platforms without the
signal (Windows) and on non-main threads, where alarms cannot be delivered.

Override the default per test with ``@pytest.mark.timeout(seconds)``.
"""

import math
import signal
import threading

import pytest

#: Default per-test budget.  The whole suite runs in seconds; any single test
#: taking this long is a hang, not a slow test.
DEFAULT_TEST_TIMEOUT = 120


def pytest_configure(config):
    # Tier-1 stays deprecation-free: any DeprecationWarning fails its test.
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")
    config.addinivalue_line(
        "markers", "slow: end-to-end CEGAR runs that take tens of seconds"
    )
    config.addinivalue_line(
        "markers", "timeout(seconds): override the per-test SIGALRM budget"
    )


@pytest.fixture(scope="session", autouse=True)
def _stop_serve_oracle():
    """Stop the ``serve`` fuzz oracle's shared daemon (and close its client
    socket) once the session ends; it otherwise lives until process exit."""
    yield
    from repro.testgen import shutdown_serve_oracle

    shutdown_serve_oracle()


def _timeout_for(item) -> int:
    marker = item.get_closest_marker("timeout")
    if marker and marker.args:
        value = marker.args[0]
        if value <= 0:
            return 0  # pytest-timeout convention: zero disables the guard
        # signal.alarm only takes whole seconds; round fractional budgets up
        # so a sub-second request still arms the guard instead of disabling it.
        return max(1, math.ceil(value))
    return DEFAULT_TEST_TIMEOUT


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    seconds = _timeout_for(item)
    use_alarm = (
        seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {seconds}s conftest timeout guard "
            "(likely a solver hang; see tests/conftest.py)"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
