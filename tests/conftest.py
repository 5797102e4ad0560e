import tracemalloc

import pytest


def _traced_peak(fn):
    """(fn(), the peak of tracemalloc's traced memory while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
