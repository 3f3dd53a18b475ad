import pytest

from hamclass.generate import generate_connected


@pytest.fixture(scope="session")
def corpus():
    """Every connected graph of order 1..8, one per isomorphism class."""
    return {n: list(generate_connected(n)) for n in range(1, 9)}
