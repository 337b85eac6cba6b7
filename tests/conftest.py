import numpy as np
import pytest

from wsol.threshold import ThresholdDistribution


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def uniform01() -> ThresholdDistribution:
    return ThresholdDistribution.uniform()


@pytest.fixture
def beta22() -> ThresholdDistribution:
    return ThresholdDistribution.beta_prior(2.0, 2.0)


@pytest.fixture
def both_priors(uniform01, beta22):
    return [uniform01, beta22]
