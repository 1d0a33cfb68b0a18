import os

import pytest

from weiltrace import explicit, load_zeros

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def reference_zeros():
    """Zero ordinates up to height 60, from an independent bisection
    oracle at 15 significant digits."""
    return load_zeros(os.path.join(DATA_DIR, "zeros_ref_60.txt"))


@pytest.fixture
def cold_weight_cache():
    """W_infty's digamma weight is cached per grid size; clear it before
    and after the test, so a patched digamma reaches W_infty and its
    weights do not outlive the patch."""
    explicit._archimedean_weight.cache_clear()
    yield
    explicit._archimedean_weight.cache_clear()
