import math

import numpy as np
import pytest

from epidetect import CostParams
from epidetect.costs import immediate_cost, pathwise_cost


class TestImmediateCost:
    def test_certain_outbreak_costs_nothing(self, case_costs):
        assert immediate_cost(1.0, case_costs) == 0.0

    def test_clean_pool_costs_full_penalty(self, case_costs):
        assert immediate_cost(0.0, case_costs) == 20.0

    def test_hand_value(self, case_costs):
        assert immediate_cost(0.1, case_costs) == pytest.approx(18.0, rel=1e-12)

    def test_vectorized(self, case_costs):
        p = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(immediate_cost(p, case_costs), [20.0, 10.0, 0.0])


class TestPathwiseCost:
    def test_stop_now_equals_immediate(self, case_costs):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p0 = rng.random()
            assert pathwise_cost([p0], 0, case_costs) == immediate_cost(p0, case_costs)

    def test_hand_value(self):
        costs = CostParams(c_fa=20.0, c_delay=1.0)
        assert pathwise_cost([0.1, 0.3], 1, costs) == pytest.approx(14.1, rel=1e-12)

    def test_path_ending_certain_is_pure_delay(self, case_costs):
        p_path = [0.2, 0.5, 0.9, 1.0]
        got = pathwise_cost(p_path, 3, case_costs)
        assert got == pytest.approx(sum(p_path[:3]), rel=1e-12)

    def test_tau_out_of_range(self, case_costs):
        with pytest.raises(ValueError):
            pathwise_cost([0.1, 0.2], 2, case_costs)
        with pytest.raises(ValueError):
            pathwise_cost([0.1], -1, case_costs)

    def test_bounds(self, case_costs):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tau = int(rng.integers(0, 12))
            p_path = rng.random(tau + 1)
            q = pathwise_cost(p_path, tau, case_costs)
            assert 0.0 <= q <= case_costs.c_delay * tau + case_costs.c_fa

    def test_affine_in_c_fa_with_slope_one_minus_p_tau(self):
        rng = np.random.default_rng(2)
        p_path = rng.random(6)
        tau = 5
        lo = pathwise_cost(p_path, tau, CostParams(c_fa=10.0, c_delay=1.0))
        hi = pathwise_cost(p_path, tau, CostParams(c_fa=30.0, c_delay=1.0))
        assert hi - lo == pytest.approx(20.0 * (1.0 - p_path[tau]), rel=1e-12)


class TestCostParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            CostParams(c_fa=0.0, c_delay=1.0)
        with pytest.raises(ValueError):
            CostParams(c_fa=10.0, c_delay=-1.0)

    @pytest.mark.parametrize("key", ["c_fa", "c_delay"])
    def test_infinite_costs_are_refused(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be finite, got inf$"):
            CostParams(**{"c_fa": 20.0, "c_delay": 1.0, key: math.inf})
