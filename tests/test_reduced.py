import math

import numpy as np
import pytest

from epidetect import (
    EpidemicParams,
    ModelVariant,
    ReducedState,
    RngStream,
    simulate_paths,
)
from epidetect.reduced import _branching_unit, branching_law, drift
from epidetect.reduced import step as step_counts


def step(x: ReducedState, params, variant, rng) -> ReducedState:
    """`reduced.step` from and to a `ReducedState`."""
    return ReducedState(*step_counts(x.s1, x.i1, x.p, params, variant, rng))


class FixedNoiseStream:
    """A stream whose generator draws Pool-1 events as usual but returns a
    fixed increment from `normal`, for exact P updates."""

    def __init__(self, seed: int, increment: float):
        self._gen = RngStream(seed).generator
        self._increment = increment

    @property
    def generator(self):
        return self

    def normal(self, loc, scale):
        return self._increment

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.mark.parametrize("s1, i1", [(-1, 10), (1989.5, 10), (1990, 10.5),
                                    (1990, float("nan"))])
def test_start_state_counts_are_checked(s1, i1):
    with pytest.raises(ValueError, match=r"count in reduced state: ReducedState"):
        ReducedState(s1, i1, 0.1)


class TestDrift:
    def test_hand_value(self, case_params):
        x = ReducedState(1990, 10, 0.1)
        assert drift(x.i1, x.p, case_params) == pytest.approx(0.0675, rel=1e-12)

    def test_zero_at_certainty(self, case_params):
        assert drift(10, 1.0, case_params) == 0.0

    def test_zero_without_infecteds(self, case_params):
        assert drift(0, 0.3, case_params) == 0.0

    def test_monotone_in_i1_and_p(self, case_params):
        base = drift(50, 0.4, case_params)
        assert drift(80, 0.4, case_params) > base
        assert drift(50, 0.6, case_params) < base


def event_loop_unit(i: int, beta: float, gamma: float, duration: float, gen) -> int:
    """Reference sampler: the linear birth-death process simulated event by event.

    Each event draws one scalar exponential and then one scalar uniform.
    """
    t = 0.0
    next_exp = gen.standard_exponential
    next_u = gen.random
    while i > 0:
        r_birth = beta * i
        total = r_birth + gamma * i
        t += next_exp() / total
        if t > duration:
            break
        if next_u() * total < r_birth:
            i += 1
        else:
            i -= 1
    return i


class CallLog:
    """A generator that records the names of the draws made through it."""

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        draw = getattr(self._gen, name)

        def logged(*args):
            self.calls.append(name)
            return draw(*args)

        return logged


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between integer samples."""
    support = np.union1d(a, b)
    cdf_a = np.searchsorted(np.sort(a), support, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), support, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestBranchingLaw:
    """The one-stage law of the lp2d Pool-1 count and its exact draw."""

    def test_case_study_rates(self, case_params):
        a, b = branching_law(case_params.beta, case_params.gamma, 1.0)
        assert a == pytest.approx(0.3067, abs=5e-5)
        assert b == pytest.approx(0.4601, abs=5e-5)

    @pytest.mark.parametrize("beta, gamma, t", [(0.75, 0.5, 1.0), (0.5, 0.75, 1.0),
                                                (0.75, 0.5, 2.5), (0.3, 1.2, 0.7)])
    def test_matches_the_textbook_form(self, beta, gamma, t):
        """a = gamma (e^rt - 1) / (beta e^rt - gamma), b = beta (e^rt - 1) / (beta e^rt - gamma),
        and the mean (1 - a) / (1 - b) of one ancestor's line is e^rt, r = beta - gamma."""
        growth = math.exp((beta - gamma) * t)
        a, b = branching_law(beta, gamma, t)
        assert a == pytest.approx(gamma * (growth - 1) / (beta * growth - gamma), rel=1e-12)
        assert b == pytest.approx(beta * (growth - 1) / (beta * growth - gamma), rel=1e-12)
        assert (1 - a) / (1 - b) == pytest.approx(growth, rel=1e-12)

    def test_equal_rates(self):
        a, b = branching_law(0.6, 0.6, 2.0)
        assert a == b == pytest.approx(1.2 / 2.2, rel=1e-15)
        # continuous across beta = gamma
        near = branching_law(0.6 + 1e-9, 0.6, 2.0)
        assert near == pytest.approx((a, b), abs=1e-8)

    def test_no_time_no_change(self):
        assert branching_law(0.75, 0.5, 0.0) == (0.0, 0.0)
        gen = np.random.default_rng(4)
        assert [_branching_unit(i, 0.75, 0.5, 0.0, gen) for i in (1, 7, 300)] == [1, 7, 300]

    @pytest.mark.parametrize("i", [1, 10, 100])
    def test_moments_and_extinction(self, case_params, i):
        beta, gamma, n = case_params.beta, case_params.gamma, 40_000
        gen = np.random.default_rng([7, i])
        draws = np.array([_branching_unit(i, beta, gamma, 1.0, gen) for _ in range(n)])
        growth = math.exp(beta - gamma)
        mean = i * growth
        var = i * (beta + gamma) / (beta - gamma) * growth * (growth - 1)
        assert abs(draws.mean() - mean) < 5 * math.sqrt(var / n)
        central4 = np.mean((draws - draws.mean()) ** 4)
        assert abs(draws.var(ddof=1) - var) < 5 * math.sqrt((central4 - var ** 2) / n)
        extinct = branching_law(beta, gamma, 1.0)[0] ** i
        freq = np.mean(draws == 0)
        assert abs(freq - extinct) < 5 * math.sqrt(extinct * (1 - extinct) / n) + 1 / n

    @pytest.mark.parametrize("i", [1, 10, 40])
    def test_same_law_as_the_event_loop(self, case_params, i):
        beta, gamma, n = case_params.beta, case_params.gamma, 10_000
        exact = np.random.default_rng([8, i])
        loop = np.random.default_rng([9, i])
        a = [_branching_unit(i, beta, gamma, 1.0, exact) for _ in range(n)]
        b = [event_loop_unit(i, beta, gamma, 1.0, loop) for _ in range(n)]
        # KS critical distance at level 1e-3, conservative for discrete samples
        assert ks_statistic(a, b) < math.sqrt(-math.log(5e-4) / 2) * math.sqrt(2 / n)

    def test_draws(self, case_params):
        beta, gamma = case_params.beta, case_params.gamma
        gen = np.random.default_rng(12)
        state = gen.bit_generator.state
        assert _branching_unit(0, beta, gamma, 1.0, gen) == 0
        assert gen.bit_generator.state == state  # I1 = 0 draws nothing
        seen = set()
        for seed in range(40):
            log = CallLog(seed)
            i1 = _branching_unit(1, beta, gamma, 1.0, log)
            assert type(i1) is int
            # K = 0 stops after the binomial; K = 1 adds one negative binomial
            assert log.calls == (["binomial"] if i1 == 0
                                 else ["binomial", "negative_binomial"])
            seen.add(i1 == 0)
        assert seen == {True, False}


class TestStep:
    def test_absorbing_certainty(self, case_params):
        x = ReducedState(1990, 10, 1.0)
        rng = RngStream(3)
        for variant in ModelVariant:
            out = step(x, case_params, variant, rng)
            assert out.p == 1.0

    def test_deterministic_p_update_without_noise(self):
        params = EpidemicParams(0.75, 0.5, 0.01, (2000,), sigma_delta=0.0)
        x = ReducedState(1990, 10, 0.1)
        out = step(x, params, ModelVariant.FULL3D, RngStream(8))
        assert out.p == pytest.approx(0.1 + 0.01 * 0.75 * 10 * (1 - 0.1), rel=1e-14)

    def test_lp2d_leaves_s1_untouched(self, case_params):
        x = ReducedState(1234, 42, 0.2)
        rng = RngStream(9)
        for _ in range(20):
            x = step(x, case_params, ModelVariant.LP2D, rng)
            assert x.s1 == 1234

    def test_drift_uses_pre_step_counts(self):
        """P' is built from the stage-start I1 and P, not the advanced ones."""
        params = EpidemicParams(0.75, 0.5, 0.01, (2000,), sigma_delta=0.0)
        x = ReducedState(1990, 10, 0.1)
        outs = {step(x, params, ModelVariant.FULL3D, RngStream(seed)).p
                for seed in range(25)}
        assert outs == {0.1 + 0.01 * 0.75 * 10 * 0.9}  # same P' whatever Pool 1 did

    @pytest.mark.slow
    def test_clamped_gaussian_expectation_oracle(self):
        """Empirical mean of P' vs the censored-normal closed form."""
        norm = pytest.importorskip("scipy.stats").norm
        params = EpidemicParams(0.75, 0.5, 0.01, (2000,), sigma_delta=0.01)
        x = ReducedState(1990, 10, 0.99)  # close to 1 so clamping binds
        a = x.p + drift(x.i1, x.p, params)
        sigma = params.sigma_delta

        # E[clip(a + delta, 0, 1)] for delta ~ N(0, sigma^2)
        zl = (0.0 - a) / sigma
        zu = (1.0 - a) / sigma
        expected = (
            0.0 * norm.cdf(zl)
            + 1.0 * norm.sf(zu)
            + a * (norm.cdf(zu) - norm.cdf(zl))
            - sigma * (norm.pdf(zu) - norm.pdf(zl))
        )

        n = 100_000
        root = RngStream(55)
        draws = np.array([
            step(x, params, ModelVariant.FULL3D, root.derive(j)).p for j in range(n)
        ])
        se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - expected) < 3 * se, (draws.mean(), expected, se)

    def test_pluggable_noise(self, case_params):
        x = ReducedState(1990, 10, 0.5)
        out = step(x, case_params, ModelVariant.FULL3D, FixedNoiseStream(2, 0.25))
        assert out.p == pytest.approx(0.5 + drift(x.i1, x.p, case_params) + 0.25, rel=1e-14)

    def test_clamp_to_unit_interval(self, case_params):
        x = ReducedState(1990, 10, 0.5)
        hi = step(x, case_params, ModelVariant.LP2D, FixedNoiseStream(2, 5.0))
        lo = step(x, case_params, ModelVariant.LP2D, FixedNoiseStream(2, -5.0))
        assert hi.p == 1.0
        assert lo.p == 0.0


class TestSimulateReduced:
    """Reduced-state trajectories as `simulate_paths` stores them."""

    def test_horizon_zero_rejected(self, case_params, case_x0):
        with pytest.raises(ValueError):
            simulate_paths(case_x0, 1, 0, case_params, ModelVariant.FULL3D, RngStream(1))

    def test_horizon_one_gives_two_states(self, case_params, case_x0):
        paths = simulate_paths(case_x0, 1, 1, case_params, ModelVariant.FULL3D, RngStream(1))
        assert paths.p.shape == (1, 2)
        assert (paths.s1[0, 0], paths.i1[0, 0], paths.p[0, 0]) == \
            (case_x0.s1, case_x0.i1, case_x0.p)

    def test_extinct_epidemic_is_pure_noise_walk(self, case_params):
        x0 = ReducedState(2000, 0, 0.3)
        paths = simulate_paths(x0, 1, 30, case_params, ModelVariant.FULL3D, RngStream(4))
        assert np.all(paths.i1 == 0) and np.all(paths.s1 == 2000)
        assert np.all((0.0 <= paths.p) & (paths.p <= 1.0))

    def test_absorption_is_permanent_along_paths(self, case_params):
        paths = simulate_paths(ReducedState(1990, 10, 0.9), 50, 20, case_params,
                               ModelVariant.FULL3D, RngStream(6))
        for p in paths.p:
            hit = False
            for p_t in p:
                if hit:
                    assert p_t == 1.0
                if p_t == 1.0:
                    hit = True

    def test_noise_free_p_strictly_increases_until_absorbed(self):
        params = EpidemicParams(0.75, 0.5, 0.01, (2000,), sigma_delta=0.0)
        paths = simulate_paths(ReducedState(1990, 50, 0.1), 1, 30, params,
                               ModelVariant.LP2D, RngStream(7))
        p, i1 = paths.p[0], paths.i1[0]
        for t in range(30):
            if p[t] < 1.0 and i1[t] > 0:
                assert p[t + 1] > p[t]
            if p[t] == 1.0:
                assert p[t + 1] == 1.0

    @pytest.mark.slow
    def test_mean_p_is_nondecreasing_over_time(self, case_params):
        """Positive drift: across paths the average P rises with t."""
        paths = simulate_paths(ReducedState(1995, 5, 0.0), 1000, 12, case_params,
                               ModelVariant.FULL3D, RngStream(12))
        mean_p = paths.p.mean(axis=0)
        assert np.all(np.diff(mean_p) > -1e-3), mean_p
