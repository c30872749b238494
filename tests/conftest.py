import multiprocessing
import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail a test that leaves running a thread started during it, such as a helper
    of montecarlo._on_two_threads or a pool's handler not joined at its shutdown,
    or a child process, such as a pool worker."""
    before = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    left = [thread.name for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"thread(s) still running after the test: {', '.join(left)}")
    left = [child.name for child in multiprocessing.active_children() if child not in children]
    if left:
        pytest.fail(f"child process(es) still running after the test: {', '.join(left)}")
