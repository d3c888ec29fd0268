"""The exact lp2d oracle (`tests/lp2d_oracle.py`) against its reference values."""
import math

import numpy as np
import pytest

from . import lp2d_oracle as oracle

COARSE = (200, 500)  # I1 = 0..200, P step 2e-3
FINE = (300, 1000)   # I1 = 0..300, P step 1e-3


def test_one_ancestor_law_and_transition_rows():
    pmf = oracle.one_ancestor_pmf(0.75, 0.5, 80)
    # Kendall's (a, b) at the case-study rates
    assert pmf[0] == pytest.approx(0.3067, abs=1e-4)
    assert pmf[2] / pmf[1] == pytest.approx(0.4601, abs=1e-4)
    T = oracle.transition(0.75, 0.5, 80)
    np.testing.assert_allclose(T.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert T[0, 0] == 1.0  # I1 = 0 is absorbing
    # a line of i ancestors has mean i e^{beta - gamma} over one stage
    # (the lumped tail is below 1e-9 for these rows)
    for i in (1, 2, 5):
        assert T[i] @ np.arange(81) == pytest.approx(i * math.exp(0.25), rel=1e-9)


def test_one_stage_boundary_at_i1_10():
    # the root of P = (C_FA / C_Delay) alpha beta I1 (1 - P), where the
    # clamp of delta does not reach
    margin = oracle.margins(20, *COARSE)[0]
    assert oracle.boundary(margin)[10] == pytest.approx(0.600, abs=1e-9)


def test_twenty_stage_value_and_extinct_root():
    assert oracle.value(20, 10, 0.1, *COARSE) == pytest.approx(5.8445, abs=1e-4)
    # the root moves by about 1e-4 between grids (0.03382 here, 0.03373 on FINE)
    margin = oracle.margins(20, *COARSE)[19]
    assert oracle.boundary(margin)[0] == pytest.approx(0.0339, abs=1.5e-4)


@pytest.mark.acceptance
def test_grid_error_of_the_twenty_stage_boundary():
    """The t = 20 boundary on I1 = 1..100 moves by at most 1e-4 between grids."""
    coarse, fine = (oracle.boundary(oracle.margins(20, *grid)[19])[1:101]
                    for grid in (COARSE, FINE))
    assert np.abs(fine - coarse).max() <= 1e-4
    assert oracle.value(20, 10, 0.1, *FINE) == pytest.approx(5.8445, abs=2e-4)
