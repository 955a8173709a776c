import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture(scope="session")
def kmb_3f2_rows():
    """(numerators, denominators) of the KMB <r>'s 3F2 factor on a beta
    grid as unit-argument series, one row per beta, for a batched
    ``hyp_pfq_at_1`` call or one call per row: 3F2({1/2,1,2};{3/2,2+beta};1) from beta = 2.65
    up and its Thomae image 3F2({-1/2,beta,beta};{1+beta,1/2+beta};1)
    below.  The library reaches that factor by a contiguous relation;
    these rows are a workload whose term counts the summator's tests
    pin."""
    def rows(beta):
        direct = beta >= 2.65
        nums = [np.where(direct, 0.5, -0.5), np.where(direct, 1.0, beta),
                np.where(direct, 2.0, beta)]
        dens = [np.where(direct, 1.5, 1.0 + beta),
                np.where(direct, 2.0 + beta, 0.5 + beta)]
        return nums, dens
    return rows


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)
