from __future__ import annotations

import json
from dataclasses import replace

import pytest

from blaschkelab import DEFAULTS, BlaschkeProduct, compute_representation, to_spec


@pytest.fixture(scope="session")
def square() -> BlaschkeProduct:
    return BlaschkeProduct(0.0, [0.0, 0.0])


@pytest.fixture(scope="session")
def cube() -> BlaschkeProduct:
    return BlaschkeProduct(0.0, [0.0, 0.0, 0.0])


@pytest.fixture(scope="session")
def order3() -> BlaschkeProduct:
    return BlaschkeProduct(0.0, [0.0, 0.0, 0.5])


@pytest.fixture(scope="session")
def order4() -> BlaschkeProduct:
    return BlaschkeProduct(0.0, [0.0, 0.0, 0.5, -0.5])


@pytest.fixture(scope="session")
def mobius() -> BlaschkeProduct:
    return BlaschkeProduct(0.0, [0.3])


@pytest.fixture(scope="session")
def rep_of():
    """Memoized monodromy computation shared across test modules."""
    cache = {}

    def get(b: BlaschkeProduct, seed: int = 0):
        key = (json.dumps(to_spec(b), sort_keys=True), seed)
        if key not in cache:
            cache[key] = compute_representation(b, replace(DEFAULTS, seed=seed))
        return cache[key]

    return get
