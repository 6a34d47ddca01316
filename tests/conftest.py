from fractions import Fraction

import pytest

from hypomean import FactorableGenerators, LinearWeights


@pytest.fixture(scope="session")
def odd_gens() -> FactorableGenerators:
    """Generators for the flagship odd weights w_n = 2n+1."""
    return FactorableGenerators(LinearWeights(2, 1))


@pytest.fixture(scope="session")
def natural_gens() -> FactorableGenerators:
    """Generators for w_n = n+1 (linear:1,1)."""
    return FactorableGenerators(LinearWeights(1, 1))


@pytest.fixture(scope="session")
def cesaro_gens() -> FactorableGenerators:
    """Generators for the Cesàro weights w_n = 1 (linear:0,1)."""
    return FactorableGenerators(LinearWeights(0, 1))


@pytest.fixture(scope="session")
def steep_gens() -> FactorableGenerators:
    """Generators for w_n = 3n+1."""
    return FactorableGenerators(LinearWeights(3, 1))


@pytest.fixture(scope="session")
def all_families(odd_gens, natural_gens, steep_gens):
    return (odd_gens, natural_gens, steep_gens)


def F(num, den=1) -> Fraction:
    return Fraction(num, den)
