import numpy as np
import pytest
from scipy.integrate import solve_ivp

from epidetect import EpidemicParams, RngStream
from epidetect.sir import (
    MultiPoolState,
    PoolState,
    outbreak_time,
    simulate_interval,
    single_pool_interval,
)

from .sir_oracle import Channel, first_event, transition_rates


def two_pool_state(s1, i1, s2, i2, time=0.0):
    return MultiPoolState((PoolState(s1, i1), PoolState(s2, i2)), time)


class TestTransitionRates:
    def test_pool1_infection_rate_hand_value(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        rates = dict(transition_rates(st, case_params))
        assert rates[Channel("infection", 0)] == pytest.approx(7.4625, rel=1e-12)

    def test_cross_pool_transmission_hand_value(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        rates = dict(transition_rates(st, case_params))
        # alpha*beta*I1*S2/M2 = 0.01*0.75*10*2000/2000
        assert rates[Channel("transmission", 1, 0)] == pytest.approx(0.075, rel=1e-12)

    def test_all_rates_zero_without_infecteds(self, case_params):
        st = two_pool_state(2000, 0, 2000, 0)
        assert all(r == 0.0 for _, r in transition_rates(st, case_params))

    def test_rate_count_is_2k_plus_k_km1(self):
        for k in (1, 2, 3):
            params = EpidemicParams(0.5, 0.3, 0.05, tuple([100] * k))
            st = MultiPoolState(tuple(PoolState(90, 10) for _ in range(k)))
            assert len(transition_rates(st, params)) == 2 * k + k * (k - 1)

    def test_rates_nonnegative(self, case_params):
        st = two_pool_state(1200, 300, 1500, 250)
        assert all(r >= 0.0 for _, r in transition_rates(st, case_params))


class TestSimulateInterval:
    def test_zero_infection_state_only_advances_time(self, case_params):
        st = two_pool_state(2000, 0, 2000, 0, time=3.0)
        out = simulate_interval(st, case_params, 2.5, RngStream(1))
        assert out.pools == st.pools
        assert out.time == pytest.approx(5.5)

    def test_duration_must_be_positive(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        with pytest.raises(ValueError):
            simulate_interval(st, case_params, 0.0, RngStream(1))

    def test_determinism_same_stream(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        a = simulate_interval(st, case_params, 4.0, RngStream(77).derive(3))
        b = simulate_interval(st, case_params, 4.0, RngStream(77).derive(3))
        assert a == b

    def test_no_infection_channel_when_beta_scaled_out(self):
        # single pool, beta tiny enough to be irrelevant is not allowed (beta > 0),
        # so emulate "no infection" with S = 0: I can only fall, S stays 0.
        params = EpidemicParams(0.75, 0.5, 0.0, (2000,))
        st = MultiPoolState((PoolState(0, 50),))
        rng = RngStream(5)
        prev_i = 50
        state = st
        for _ in range(5):
            state = simulate_interval(state, params, 1.0, rng)
            assert state.pools[0].susceptible == 0
            assert state.pools[0].infected <= prev_i
            prev_i = state.pools[0].infected

    def test_conservation_and_monotone_s_along_path(self, case_params):
        state = two_pool_state(1990, 10, 2000, 0)
        rng = RngStream(11)
        prev_s = (1990, 2000)
        for _ in range(10):
            state = simulate_interval(state, case_params, 1.0, rng)
            for k, pool in enumerate(state.pools):
                assert pool.susceptible >= 0 and pool.infected >= 0
                assert pool.susceptible + pool.infected <= case_params.pool_sizes[k]
                assert pool.susceptible <= prev_s[k]
            prev_s = tuple(p.susceptible for p in state.pools)

    @pytest.mark.slow
    def test_mean_matches_sir_ode_oracle(self, case_params):
        """Mean infected after one unit vs the one-population mean-field ODE."""
        params = EpidemicParams(0.75, 0.5, 0.01, (2000,))
        m = 2000

        def ode(_t, y):
            s, i = y
            return [-params.beta * s * i / m, params.beta * s * i / m - params.gamma * i]

        sol = solve_ivp(ode, (0, 1.0), [1990.0, 10.0], rtol=1e-10, atol=1e-10)
        i_ode = sol.y[1, -1]

        n = 10_000
        root = RngStream(2024)
        st = MultiPoolState((PoolState(1990, 10),))
        draws = np.array([
            simulate_interval(st, params, 1.0, root.derive(n_)).pools[0].infected
            for n_ in range(n)
        ], dtype=float)
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - i_ode) < 3 * se, (draws.mean(), i_ode, se)

    @pytest.mark.slow
    def test_channel_selection_frequencies_small_instance(self):
        """Empirical first-event channel frequencies vs normalized rates (M <= 4)."""
        params = EpidemicParams(beta=1.0, gamma=0.7, alpha=0.3, pool_sizes=(4, 3))
        st = MultiPoolState((PoolState(2, 2), PoolState(2, 1)))
        pairs = transition_rates(st, params)
        rates = np.array([r for _, r in pairs])
        probs = rates / rates.sum()

        n = 100_000
        root = RngStream(31)
        index = {ch: j for j, (ch, _) in enumerate(pairs)}
        counts = np.zeros(len(pairs))
        for rep in range(n):
            ch, _dt, _state = first_event(st, params, root.derive(rep))
            counts[index[ch]] += 1
        freq = counts / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 3 * se + 1e-12), (freq, probs)

    def test_first_event_iteration_matches_simulate_interval(self, case_params):
        """Iterating first_event reproduces simulate_interval draw for draw."""
        for seed, k_pools in [(4, 2), (9, 2), (13, 1)]:
            params = case_params if k_pools == 2 else EpidemicParams(
                0.75, 0.5, 0.01, (2000,)
            )
            pools = (PoolState(1990, 10),) if k_pools == 1 else (
                PoolState(1990, 10), PoolState(1995, 5))
            st = MultiPoolState(pools)
            duration = 3.0
            direct = simulate_interval(st, params, duration, RngStream(seed))

            stream = RngStream(seed)
            state = st
            while True:
                nxt = first_event(state, params, stream)
                if nxt is None:
                    break
                _ch, _dt, new_state = nxt
                if new_state.time > duration:
                    break
                state = new_state
            assert state.pools == direct.pools

    def test_single_pool_matches_the_reduced_kernel(self):
        """On one pool the general loop makes the kernel's draws in its order."""
        cases = np.random.default_rng(2015)
        for n in range(300):
            m = int(cases.integers(1, 3001))
            s = 0 if n % 10 == 0 else int(cases.integers(0, m + 1))
            i = 0 if n % 10 == 1 else int(cases.integers(0, m - s + 1))
            beta, gamma = (float(v) for v in cases.uniform(0.05, 3.0, size=2))
            duration = float(cases.uniform(0.1, 3.0))
            params = EpidemicParams(beta=beta, gamma=gamma, alpha=0.01, pool_sizes=(m,))
            loop, kernel = RngStream(5, (n,)), RngStream(5, (n,)).generator
            out = simulate_interval(MultiPoolState((PoolState(s, i),)), params, duration, loop)
            expected = single_pool_interval(s, i, m, beta, gamma, duration, kernel)
            assert (out.pools[0].susceptible, out.pools[0].infected) == expected
            assert loop.generator.random() == kernel.random()  # same next draw


class TestOutbreakTime:
    def _traj(self, i2_values):
        return [two_pool_state(2000, 5, 2000 - i, i, time=float(t))
                for t, i in enumerate(i2_values)]

    def test_first_crossing(self):
        assert outbreak_time(self._traj([0, 0, 3, 5])) == 2

    def test_outbreak_present_from_start(self):
        assert outbreak_time(self._traj([4, 6, 9])) == 0

    def test_never_infected(self):
        assert outbreak_time(self._traj([0, 0, 0, 0])) is None

    def test_needs_two_pools(self):
        st = MultiPoolState((PoolState(10, 1),))
        with pytest.raises(ValueError):
            outbreak_time([st])


class TestValidation:
    def test_param_invariants(self):
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.0, gamma=0.5, alpha=0.01, pool_sizes=(100,))
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.5, gamma=-0.1, alpha=0.01, pool_sizes=(100,))
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.5, gamma=0.5, alpha=1.5, pool_sizes=(100,))
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.5, gamma=0.5, alpha=0.5, pool_sizes=())
        with pytest.raises(ValueError):
            EpidemicParams(beta=0.5, gamma=0.5, alpha=0.5, pool_sizes=(100,), sigma_delta=-1)

    def test_pool_state_invariants(self):
        with pytest.raises(ValueError):
            PoolState(-1, 0)
        assert PoolState(90, 5).recovered(100) == 5
        with pytest.raises(ValueError):
            PoolState(90, 20).recovered(100)

    @pytest.mark.parametrize("s, i", [(2000, 10), (-1, 5), (1990, -1)])
    def test_single_pool_kernel_rejects_impossible_state(self, s, i):
        gen = RngStream(1).generator
        with pytest.raises(ValueError, match="pool size 2000"):
            single_pool_interval(s, i, 2000, 0.75, 0.5, 1.0, gen)
