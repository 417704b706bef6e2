import pytest

from strandcontact.arcdiag import release_caches


@pytest.fixture
def fresh_caches():
    """Empty the caches around a test whose patched table, grading or
    kernel would otherwise poison them; no cache holds contact-side
    results."""
    release_caches()
    yield
    release_caches()
