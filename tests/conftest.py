import pytest

from eosieve.experiments import exceptional_scan
from eosieve.obstruction import enumerate_Pg


@pytest.fixture(scope="session")
def pg4_to_1e7():
    return enumerate_Pg(4, 6, 10**7)


@pytest.fixture(scope="session")
def exceptional_4_1e5():
    return exceptional_scan(4, 10**5, [10**3, 10**4, 10**5])
