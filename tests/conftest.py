import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail a test that leaves running a thread started during it, such as a helper
    of montecarlo._on_two_threads or a pool's handler not joined at its shutdown."""
    before = set(threading.enumerate())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"thread(s) still running after the test: {', '.join(left)}")
