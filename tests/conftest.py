from __future__ import annotations

import os

# One BLAS thread, as in CI, set before numpy loads: under OpenBLAS's default
# of two on a 2-core machine, one suite's commutant solves took 0.04 s in one
# run and 1.0 s in another.  A value already in the environment is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
import sys  # noqa: E402

import pytest  # noqa: E402

from blaschkelab import BlaschkeProduct, compute_representation, to_spec, tracking  # noqa: E402


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

    def get(b: BlaschkeProduct):
        key = json.dumps(to_spec(b), sort_keys=True)
        if key not in cache:
            cache[key] = compute_representation(b)
        return cache[key]

    return get


@pytest.fixture
def lane_steps(monkeypatch) -> list:
    """The codes `tracking._ball_test` returns, one array per lockstep lane
    step of the test (0 where a lane's step is certified).  Its calls from
    `track_paths`, which judge the junctions, are not counted."""
    codes = []
    test = tracking._ball_test

    def recording(*args):
        out = test(*args)
        if sys._getframe(1).f_code is tracking._continue_lanes.__code__:
            codes.append(out)
        return out

    monkeypatch.setattr(tracking, "_ball_test", recording)
    return codes
