import pytest

import vvmf.classical
from vvmf import ClassicalCatalog


@pytest.fixture(autouse=True)
def cleared_exact_series():
    # every catalog series, f, g, h and Z included, and the lowest order at
    # which Z overflowed live for the process; a test that patches a
    # builder, or counts the work of a build, must not read another test's
    vvmf.classical._EXACT_SERIES.clear()
    yield
    vvmf.classical._EXACT_SERIES.clear()


@pytest.fixture(scope="session")
def catalog40():
    return ClassicalCatalog(40)


@pytest.fixture(scope="session")
def catalog60():
    return ClassicalCatalog(60)


@pytest.fixture(scope="session")
def catalog800():
    return ClassicalCatalog(800)
