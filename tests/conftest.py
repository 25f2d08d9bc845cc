import pytest

from sonfis.dataset import SplitSpec, gen_synthetic, min_max_normalize, split


@pytest.fixture(scope="session")
def synth_train_test():
    """600/93 split of the normalized synthetic benchmark."""
    ds = min_max_normalize(gen_synthetic(693, 0.05, 7))
    return split(ds, SplitSpec(600, 93))

