import tracemalloc

import numpy as np
import pytest

from neargroup import corpus
from neargroup.tuples import to_tuple


@pytest.fixture(scope="session")
def corpus_mn():
    return corpus.corpus_mn()


@pytest.fixture(scope="session")
def corpus_all():
    return corpus.corpus_all()


@pytest.fixture(scope="session")
def corpus_tuples(corpus_all):
    """Exported admissible tuples for every bundled solution."""
    return {name: to_tuple(s) for name, s in corpus_all.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def traced_peak_mb():
    """Call f(*args) and return its tracemalloc peak in MB (2^20 bytes)."""
    def peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peak
