import numpy as np
import pytest

from epidetect import (
    EpidemicParams,
    ModelVariant,
    ReducedState,
    RngStream,
    simulate_paths,
)
from epidetect.reduced import drift
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
