import numpy as np
import pytest

import copulabounds as cb


@pytest.fixture(scope="session")
def exp_marginals():
    return cb.Exponential(0.2), cb.Exponential(0.3)


@pytest.fixture(scope="session")
def lognormal_marginals():
    return (
        cb.LognormalMartingale(0.2, 100.0, 1.0),
        cb.LognormalMartingale(0.3, 100.0, 1.0),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def unit_grid_41():
    g = np.linspace(0.0, 1.0, 41)
    return np.meshgrid(g, g, indexing="ij")
