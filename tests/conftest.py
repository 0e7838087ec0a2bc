import pytest

from vvmf import ClassicalCatalog


@pytest.fixture(scope="session")
def catalog40():
    return ClassicalCatalog(40)


@pytest.fixture(scope="session")
def catalog60():
    return ClassicalCatalog(60)


@pytest.fixture(scope="session")
def catalog800():
    return ClassicalCatalog(800)
