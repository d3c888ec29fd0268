import math

import numpy as np
import pytest

from epidetect import EpidemicParams, RngStream
from epidetect.sir import _CHUNK, outbreak_time, simulate_interval, single_pool_interval

from .sir_oracle import (
    Channel, ChunkDraws, first_event, scalar_single_pool_interval, transition_rates,
)


def two_pool_state(s1, i1, s2, i2):
    return (s1, s2), (i1, i2)


class TestTransitionRates:
    def test_pool1_infection_rate_hand_value(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        rates = dict(transition_rates(*st, case_params))
        assert rates[Channel("infection", 0)] == pytest.approx(7.4625, rel=1e-12)

    def test_cross_pool_transmission_hand_value(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        rates = dict(transition_rates(*st, case_params))
        # alpha*beta*I1*S2/M2 = 0.01*0.75*10*2000/2000
        assert rates[Channel("transmission", 1, 0)] == pytest.approx(0.075, rel=1e-12)

    def test_all_rates_zero_without_infecteds(self, case_params):
        st = two_pool_state(2000, 0, 2000, 0)
        assert all(r == 0.0 for _, r in transition_rates(*st, case_params))

    def test_rate_count_is_2k_plus_k_km1(self):
        for k in (1, 2, 3):
            params = EpidemicParams(0.5, 0.3, 0.05, tuple([100] * k))
            assert len(transition_rates((90,) * k, (10,) * k, params)) == 2 * k + k * (k - 1)

    def test_rates_nonnegative(self, case_params):
        st = two_pool_state(1200, 300, 1500, 250)
        assert all(r >= 0.0 for _, r in transition_rates(*st, case_params))


class TestSimulateInterval:
    def test_zero_infection_returns_the_counts_without_a_draw(self, case_params):
        st = two_pool_state(2000, 0, 2000, 0)
        rng, untouched = RngStream(1), RngStream(1).generator
        assert simulate_interval(*st, case_params, 2.5, rng) == st
        assert rng.generator.random() == untouched.random()  # no draw was taken

    def test_duration_must_be_positive(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        with pytest.raises(ValueError):
            simulate_interval(*st, case_params, 0.0, RngStream(1))

    def test_determinism_same_stream(self, case_params):
        st = two_pool_state(1990, 10, 2000, 0)
        a = simulate_interval(*st, case_params, 4.0, RngStream(77).derive(3))
        b = simulate_interval(*st, case_params, 4.0, RngStream(77).derive(3))
        assert a == b

    def test_no_infection_channel_when_beta_scaled_out(self):
        # single pool, beta tiny enough to be irrelevant is not allowed (beta > 0),
        # so emulate "no infection" with S = 0: I can only fall, S stays 0.
        params = EpidemicParams(0.75, 0.5, 0.0, (2000,))
        s, i = (0,), (50,)
        rng = RngStream(5)
        prev_i = 50
        for _ in range(5):
            s, i = simulate_interval(s, i, params, 1.0, rng)
            assert s[0] == 0
            assert i[0] <= prev_i
            prev_i = i[0]

    def test_conservation_and_monotone_s_along_path(self, case_params):
        s, i = two_pool_state(1990, 10, 2000, 0)
        rng = RngStream(11)
        prev_s = (1990, 2000)
        for _ in range(10):
            s, i = simulate_interval(s, i, case_params, 1.0, rng)
            for k in range(2):
                assert s[k] >= 0 and i[k] >= 0
                assert s[k] + i[k] <= case_params.pool_sizes[k]
                assert s[k] <= prev_s[k]
            prev_s = s

    @pytest.mark.slow
    def test_mean_matches_sir_ode_oracle(self, case_params):
        """Mean infected after one unit vs the one-population mean-field ODE."""
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        params = EpidemicParams(0.75, 0.5, 0.01, (2000,))
        m = 2000

        def ode(_t, y):
            s, i = y
            return [-params.beta * s * i / m, params.beta * s * i / m - params.gamma * i]

        sol = solve_ivp(ode, (0, 1.0), [1990.0, 10.0], rtol=1e-10, atol=1e-10)
        i_ode = sol.y[1, -1]

        n = 10_000
        root = RngStream(2024)
        draws = np.array([
            simulate_interval((1990,), (10,), params, 1.0, root.derive(n_))[1][0]
            for n_ in range(n)
        ], dtype=float)
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - i_ode) < 3 * se, (draws.mean(), i_ode, se)

    @pytest.mark.slow
    def test_channel_selection_frequencies_small_instance(self):
        """Empirical first-event channel frequencies vs normalized rates (M <= 4)."""
        params = EpidemicParams(beta=1.0, gamma=0.7, alpha=0.3, pool_sizes=(4, 3))
        st = ((2, 2), (2, 1))
        pairs = transition_rates(*st, params)
        rates = np.array([r for _, r in pairs])
        probs = rates / rates.sum()

        n = 100_000
        root = RngStream(31)
        index = {ch: j for j, (ch, _) in enumerate(pairs)}
        counts = np.zeros(len(pairs))
        for rep in range(n):
            ch, _dt, _s, _i = first_event(*st, params, root.derive(rep))
            counts[index[ch]] += 1
        freq = counts / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(freq - probs) <= 3 * se + 1e-12), (freq, probs)

    def test_first_event_iteration_matches_simulate_interval(self, case_params):
        """Iterating first_event reproduces simulate_interval draw for draw,
        across chunk refills (the last three cases take several chunks). Three
        pools are the first case where the order of the transmission pairs
        decides which pool a channel moves."""
        one_pool = EpidemicParams(0.75, 0.5, 0.01, (2000,))
        three_pools = EpidemicParams(0.75, 0.5, 0.3, (800, 600, 400))
        for seed, params, s, i, min_events in [
            (4, case_params, (1990, 1995), (10, 5), 0),
            (9, case_params, (1990, 1995), (10, 5), 0),
            (13, one_pool, (1990,), (10,), 0),
            (17, one_pool, (1100,), (900,), 2 * _CHUNK),
            (21, case_params, (1100, 1700), (900, 300), 2 * _CHUNK),
            (25, three_pools, (500, 450, 300), (200, 100, 50), 20 * _CHUNK),
        ]:
            duration = 3.0
            direct = simulate_interval(s, i, params, duration, RngStream(seed))

            stream = RngStream(seed)
            draws = ChunkDraws(stream)
            t, events = 0.0, 0
            while True:
                nxt = first_event(s, i, params, stream, draws)
                if nxt is None:
                    break
                _ch, dt, new_s, new_i = nxt
                t += dt
                if t > duration:
                    break
                s, i = new_s, new_i
                events += 1
            assert (s, i) == direct
            assert events >= min_events

    def test_single_pool_matches_the_reduced_kernel(self):
        """On one pool the general loop makes the kernel's draws in its order."""
        cases = np.random.default_rng(2015)
        random_cases = []
        for n in range(300):
            m = int(cases.integers(1, 3001))
            s = 0 if n % 10 == 0 else int(cases.integers(0, m + 1))
            i = 0 if n % 10 == 1 else int(cases.integers(0, m - s + 1))
            beta, gamma = (float(v) for v in cases.uniform(0.05, 3.0, size=2))
            duration = float(cases.uniform(0.1, 3.0))
            random_cases.append((m, s, i, beta, gamma, duration))
        # hundreds of events in one interval: the kernels refill their chunks
        refills = [(2000, 1100, 900, 0.75, 0.5, 3.0), (2000, 1000, 1000, 2.5, 0.3, 3.0)]
        for n, (m, s, i, beta, gamma, duration) in enumerate(random_cases + refills):
            params = EpidemicParams(beta=beta, gamma=gamma, alpha=0.01, pool_sizes=(m,))
            loop, kernel = RngStream(5, (n,)), RngStream(5, (n,)).generator
            (s_out,), (i_out,) = simulate_interval((s,), (i,), params, duration, loop)
            expected = single_pool_interval(s, i, m, beta, gamma, duration, kernel)
            assert (s_out, i_out) == expected
            assert loop.generator.random() == kernel.random()  # same next draw
            if n >= len(random_cases):
                assert 2 * (s - s_out) + i - i_out > 2 * _CHUNK  # events


    @pytest.mark.slow
    @pytest.mark.parametrize("s, i", [(1990, 10), (1700, 200), (1000, 900)])
    def test_chunked_kernel_matches_the_scalar_draw_sampler(self, s, i):
        """Two-sample KS tests of S' and I' after one unit: the chunked kernel
        against the scalar-draw loop, from independent streams. With 8000
        draws each side, every p-value must exceed 0.01."""
        ks_2samp = pytest.importorskip("scipy.stats").ks_2samp
        n, m, beta, gamma = 8000, 2000, 0.75, 0.5
        chunked = np.array([
            single_pool_interval(s, i, m, beta, gamma, 1.0, RngStream(61, (k,)).generator)
            for k in range(n)
        ])
        scalar = np.array([
            scalar_single_pool_interval(s, i, m, beta, gamma, 1.0,
                                        RngStream(62, (k,)).generator)
            for k in range(n)
        ])
        for col, name in ((1, "I'"), (0, "S'")):
            p_value = ks_2samp(chunked[:, col], scalar[:, col]).pvalue
            assert p_value > 0.01, (name, p_value)


class TestOutbreakTime:
    def test_first_crossing(self):
        assert outbreak_time([0, 0, 3, 5]) == 2

    def test_outbreak_present_from_start(self):
        assert outbreak_time([4, 6, 9]) == 0

    def test_never_infected(self):
        assert outbreak_time([0, 0, 0, 0]) is None


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

    def test_pool_sizes_refuse_fractions(self):
        with pytest.raises(ValueError, match=r"^pool_sizes must be positive integers, "
                                             r"got \(2000.7, 1999.2\)$"):
            EpidemicParams(beta=0.5, gamma=0.5, alpha=0.5, pool_sizes=(2000.7, 1999.2))
        params = EpidemicParams(beta=0.5, gamma=0.5, alpha=0.5, pool_sizes=(2000.0, 1999))
        assert params.pool_sizes == (2000, 1999)
        assert all(type(m) is int for m in params.pool_sizes)

    @pytest.mark.parametrize("key, value", [
        ("beta", math.inf), ("gamma", math.inf), ("sigma_delta", math.nan),
        ("sigma_delta", math.inf),
    ])
    def test_non_finite_params_are_refused(self, key, value):
        params = {"beta": 0.5, "gamma": 0.5, "alpha": 0.5, "pool_sizes": (100,),
                  "sigma_delta": 0.01, key: value}
        with pytest.raises(ValueError, match=f"^{key} must be finite, got {value}$"):
            EpidemicParams(**params)

    @pytest.mark.parametrize("s, i, message", [
        ((-1, 2000), (0, 0), "S=-1, I=0 does not fit pool size 2000"),
        ((1990, 2000), (10, -1), "S=2000, I=-1 does not fit pool size 2000"),
        ((1990, 2000), (20, 1), "S=1990, I=20 does not fit pool size 2000"),
        ((1990,), (10,), "state has 1 pools, params expect 2"),
        ((1990, 2000, 2000), (10, 0, 0), "state has 3 pools, params expect 2"),
        ((1990, 2000), (10,), "state has 1 pools, params expect 2"),
    ], ids=["negative_s", "negative_i", "over_pool_size", "too_few_pools", "too_many_pools",
            "unpaired_counts"])
    def test_simulate_interval_rejects_impossible_state(self, case_params, s, i, message):
        with pytest.raises(ValueError, match=message):
            simulate_interval(s, i, case_params, 1.0, RngStream(1))

    @pytest.mark.parametrize("s, i", [(2000, 10), (-1, 5), (1990, -1)])
    def test_single_pool_kernel_rejects_impossible_state(self, s, i):
        gen = RngStream(1).generator
        with pytest.raises(ValueError, match="pool size 2000"):
            single_pool_interval(s, i, 2000, 0.75, 0.5, 1.0, gen)
