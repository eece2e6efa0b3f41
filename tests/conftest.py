import numpy as np
import pytest
from hypothesis import settings

from farmap import presets
from farmap.cutlocus import build_regions, region_isometries

# property tests draw the same examples on every run and keep no database
settings.register_profile("farmap", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("farmap")


@pytest.fixture(scope="session")
def octa():
    s = presets.regular_octahedron()
    s.diameter  # warm the cache
    return s


@pytest.fixture(scope="session")
def cube():
    s = presets.cube()
    s.diameter
    return s


@pytest.fixture(scope="session")
def perturbed():
    s = presets.perturbed_octahedron(1)
    s.diameter
    return s


@pytest.fixture(scope="session")
def perturbed2():
    s = presets.perturbed_octahedron(2)
    s.diameter
    return s


@pytest.fixture(scope="session")
def octa_regions(octa):
    dec = build_regions(octa)
    for r in dec.regions:
        region_isometries(octa, r)
    return dec


@pytest.fixture(scope="session")
def perturbed_regions(perturbed):
    dec = build_regions(perturbed)
    for r in dec.regions:
        region_isometries(perturbed, r)
    return dec


def rng(seed=0):
    return np.random.default_rng(seed)


@pytest.fixture
def fresh_rng():
    return rng
