import pytest
from hypothesis import settings

from latdisc.corpus import (
    named_alphas,
    random_irrational_alphas,
    random_rational_alphas,
)

# every run draws the same examples, so a tier-1 pass and its wall time do
# not depend on the draw; each test's own max_examples still holds
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def named():
    return named_alphas()


@pytest.fixture(scope="session")
def rationals():
    return random_rational_alphas()


@pytest.fixture(scope="session")
def irrationals():
    return random_irrational_alphas()


@pytest.fixture(scope="session")
def corpus(named, rationals, irrationals):
    return named + rationals + irrationals
