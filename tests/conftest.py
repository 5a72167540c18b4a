import pytest

from ribboncoh.checks import CheckBounds, run_check
from ribboncoh.samples import (
    BANANA,
    DOUBLELOOP,
    DUMBBELL,
    LOOP,
    NAMED,
    THETA0,
    THETA1,
    TRIANGLE,
)


@pytest.fixture
def named_graphs():
    return dict(NAMED)


@pytest.fixture
def loop():
    return LOOP


@pytest.fixture
def theta1():
    return THETA1


@pytest.fixture
def theta0():
    return THETA0


@pytest.fixture
def doubleloop():
    return DOUBLELOOP


@pytest.fixture
def dumbbell():
    return DUMBBELL


@pytest.fixture
def banana():
    return BANANA


@pytest.fixture
def triangle():
    return TRIANGLE


@pytest.fixture(scope="session")
def default_check_report():
    # `run_check` at default bounds, both parities: acceptance criteria 1-3
    # read their suites' reports from it, and the [both] payload digest in
    # test_checks.py hashes it, so the tier runs the suites once
    return run_check(CheckBounds())
