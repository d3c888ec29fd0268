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


def one_path(p_path, tau, costs):
    """`pathwise_cost` of a one-row block."""
    return float(pathwise_cost([p_path], [tau], costs)[0])


def left_to_right_cost(p_path, tau, costs):
    """Delay summed stage by stage from 0, then the false-alarm term."""
    waiting = 0.0
    for s in range(tau):
        waiting += p_path[s]
    return costs.c_delay * waiting + costs.c_fa * (1.0 - p_path[tau])


class TestPathwiseCost:
    def test_stop_now_equals_immediate(self, case_costs):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p0 = rng.random()
            assert one_path([p0], 0, case_costs) == immediate_cost(p0, case_costs)

    def test_hand_value(self):
        costs = CostParams(c_fa=20.0, c_delay=1.0)
        assert one_path([0.1, 0.3], 1, costs) == pytest.approx(14.1, rel=1e-12)

    def test_path_ending_certain_is_pure_delay(self, case_costs):
        p_path = [0.2, 0.5, 0.9, 1.0]
        got = one_path(p_path, 3, case_costs)
        assert got == pytest.approx(sum(p_path[:3]), rel=1e-12)

    def test_tau_out_of_range(self, case_costs):
        with pytest.raises(ValueError):
            one_path([0.1, 0.2], 2, case_costs)
        with pytest.raises(ValueError):
            one_path([0.1], -1, case_costs)

    def test_bounds(self, case_costs):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tau = int(rng.integers(0, 12))
            p_path = rng.random(tau + 1)
            q = one_path(p_path, tau, case_costs)
            assert 0.0 <= q <= case_costs.c_delay * tau + case_costs.c_fa

    def test_affine_in_c_fa_with_slope_one_minus_p_tau(self):
        rng = np.random.default_rng(2)
        p_path = rng.random(6)
        tau = 5
        lo = one_path(p_path, tau, CostParams(c_fa=10.0, c_delay=1.0))
        hi = one_path(p_path, tau, CostParams(c_fa=30.0, c_delay=1.0))
        assert hi - lo == pytest.approx(20.0 * (1.0 - p_path[tau]), rel=1e-12)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_block_is_bit_identical_to_left_to_right_sums(self, seed, case_costs):
        rng = np.random.default_rng(seed)
        horizon = 30
        p = rng.random((2000, horizon + 1))
        tau = rng.integers(0, horizon + 1, 2000)
        tau[:5], tau[5:10] = 0, horizon
        for n in range(p.shape[0]):
            p[n, tau[n] + 1:] = np.nan  # never read: stages past the stop
        expected = [left_to_right_cost(p[n], tau[n], case_costs) for n in range(p.shape[0])]
        got = pathwise_cost(p, tau, case_costs)
        assert got.shape == (2000,)
        assert np.isfinite(got).all()
        assert got.tolist() == expected

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_block_refuses_a_stage_outside_the_row(self, bad, case_costs):
        p = np.full((3, 4), 0.5)
        with pytest.raises(ValueError, match="stop stage outside 0..3"):
            pathwise_cost(p, [0, bad, 3], case_costs)


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
