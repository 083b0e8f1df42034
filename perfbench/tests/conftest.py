import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))


@pytest.fixture(scope="session")
def P():
    import run

    return run.import_package()
