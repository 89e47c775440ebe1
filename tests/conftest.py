import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadloci import cli, moduli  # noqa: E402

# the derivations that take no input and are made once per process, and the
# one rendering made from them
_DERIVED_ONCE = (moduli.hurwitz_report, moduli.fit_calibration,
                 moduli._k3_rank4_symbolic, moduli._series_slope, cli._hurwitz_shared)


@pytest.fixture(autouse=True)
def _fresh_derivations():
    """Clear the once-per-process derivations before and after each test,
    so a test that patches what they read neither sees a report derived
    before it nor leaves a faulty one to the tests after it."""
    for derive in _DERIVED_ONCE:
        derive.cache_clear()
    yield
    for derive in _DERIVED_ONCE:
        derive.cache_clear()
