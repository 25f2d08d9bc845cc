import pytest

from sonfis.dataset import SplitSpec, gen_synthetic, min_max_normalize, split


@pytest.fixture(scope="session")
def synth_train_test():
    """600/93 split of the normalized synthetic benchmark."""
    ds = min_max_normalize(gen_synthetic(693, 0.05, 7))
    return split(ds, SplitSpec(600, 93))


@pytest.fixture
def settled():
    """Waits for the threads and child processes that earlier tests' pools
    may still be ending (a pool released at its last submit outlives its
    call by a few ms), so that a test sees only what it leaves itself."""
    import multiprocessing
    import threading

    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(10)
    for child in multiprocessing.active_children():
        child.join(10)
