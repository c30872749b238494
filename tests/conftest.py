import threading

import pytest


@pytest.fixture(autouse=True)
def no_helper_thread_outlives_a_test():
    """Fail a test that leaves a helper of montecarlo._on_two_threads running."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate()
            if thread.name == "zipfks-spans" and thread not in before]
    if left:
        pytest.fail(f"{len(left)} zipfks-spans helper thread(s) still running after the test")
