import pytest

from hypergeo import sampling


@pytest.fixture(autouse=True)
def _cold_haar_memo():
    """Each test starts with no Haar draws kept, so a test that counts or
    forbids stream opens checks its own calls, whatever ran before it."""
    sampling._haar_memo.cache_clear()
