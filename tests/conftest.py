import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import quadloci  # noqa: E402


@pytest.fixture(scope="session")
def caches():
    """Every per-process cache of the library, found by one scan: each
    object with a `cache_clear` in a quadloci module, once, however many
    modules import it.  The scan is the registry, so a new cache needs no
    list; `test_shared_values.py` holds it to the decorated functions of the
    source."""
    found = {}
    for info in pkgutil.iter_modules(quadloci.__path__, "quadloci."):
        for value in vars(importlib.import_module(info.name)).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return tuple(found.values())


@pytest.fixture(scope="session")
def clear_caches(caches):
    """Empty every cache; a test asks for this to clear between its own
    requests."""
    def clear():
        for derived in caches:
            derived.cache_clear()

    return clear


@pytest.fixture(autouse=True)
def _fresh_derivations(clear_caches):
    """Clear every cache before and after each test, so a test that patches
    what a derivation reads neither sees one made before it nor leaves a
    faulty one to the tests after it."""
    clear_caches()
    yield
    clear_caches()
