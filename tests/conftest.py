import pytest

from beideals import RunConfig, classify_range


@pytest.fixture(scope="session")
def classification_rows():
    """One report row per connected isomorphism class with n <= 6 (143 rows).

    Shared by the acceptance tests, so it is built once per session.
    """
    return classify_range(RunConfig(1, 6))
