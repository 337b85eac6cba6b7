import numpy as np
import pytest

from wsol.series import LabeledSeries
from wsol.threshold import ThresholdDistribution
from wsol.verify import random_omega, random_series, weight_menu  # noqa: F401


def make_series(
    rng: np.random.Generator,
    n: int | None = None,
    lo: float = 0.02,
    hi: float = 0.98,
) -> LabeledSeries:
    """``random_series`` of 8-39 samples (or ``n``), predictions moved onto (lo, hi)."""
    series = random_series(rng, n or int(rng.integers(8, 40)))
    if (lo, hi) == (0.02, 0.98):
        return series
    return series.with_predictions(lo + (hi - lo) * (series.predictions - 0.02) / 0.96)


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
