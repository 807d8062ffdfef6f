import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


@pytest.fixture(scope="session")
def tp():
    import tripencil
    import tripencil.cli  # noqa: F401
    return tripencil
