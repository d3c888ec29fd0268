import pytest

from epidetect import CostParams, EpidemicParams, ReducedState

from .forking import forked_spans


@pytest.fixture(scope="session")
def case_params() -> EpidemicParams:
    """Case-study outbreak parameters."""
    return EpidemicParams(
        beta=0.75, gamma=0.5, alpha=0.01, pool_sizes=(2000, 2000), sigma_delta=0.01
    )


@pytest.fixture(scope="session")
def case_costs() -> CostParams:
    return CostParams(c_fa=20.0, c_delay=1.0)


@pytest.fixture(scope="session")
def case_x0() -> ReducedState:
    return ReducedState(1990, 10, 0.1)


@pytest.fixture
def forks():
    """Spans forked during the test, with the fork floor lowered to 16."""
    with forked_spans() as spans:
        yield spans
