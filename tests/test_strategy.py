import dataclasses
import hashlib
import math

import numpy as np
import pytest

from epidetect import (
    CostParams,
    ModelVariant,
    ReducedState,
    RngStream,
    SrmcConfig,
    ThresholdP,
    MapPolicy,
    evaluate_on,
    paired_compare,
    simulate_paths,
)
from epidetect.solver import DetectionMap, build_map
from epidetect.strategy import ThresholdT


def stage_block(s1, i1, p):
    """Stage-t states of a block of paths, as `evaluate_on` passes them."""
    return (np.asarray(s1, dtype=np.int64), np.asarray(i1, dtype=np.int64),
            np.asarray(p, dtype=float))


class TestDecide:
    def test_threshold_p_boundary_inclusive(self):
        block = stage_block([1990] * 3, [10] * 3, [0.81, 0.8, 0.79])
        out = ThresholdP(0.8).decide(*block, 3)
        assert out.dtype == bool
        assert out.tolist() == [True, True, False]

    def test_threshold_t_ignores_state(self):
        pol = ThresholdT(8)
        block = stage_block([0, 0], [0, 0], [0.0, 1.0])
        assert pol.decide(*block, 8).tolist() == [True, True]
        assert pol.decide(*block, 9).tolist() == [True, True]
        assert pol.decide(*block, 7).tolist() == [False, False]
        assert pol.decide(*block, 7).dtype == bool

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ThresholdP(1.0)
        with pytest.raises(ValueError):
            ThresholdP(0.0)
        with pytest.raises(ValueError):
            ThresholdT(0)


@pytest.fixture(scope="module")
def lp_map(case_params, case_costs):
    cfg = SrmcConfig(master_seed=606, n0=150, n_batch=150, n_end=600,
                     d_candidates=400, t_max=1)
    return build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D)


@pytest.fixture(scope="module")
def full_map(case_params, case_costs):
    cfg = SrmcConfig(master_seed=608, n0=150, n_batch=150, n_end=300,
                     d_candidates=300, t_max=1)
    return build_map(1, [], cfg, case_params, case_costs, ModelVariant.FULL3D)


def _lookahead_crossing(sigma, costs):
    """Root of C_Delay P = C_FA (sigma phi(P/sigma) - P Phi(-P/sigma)) by bisection."""
    def margin(p):
        z = p / sigma
        gain = (sigma * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
                - p * 0.5 * math.erfc(z / math.sqrt(2)))
        return costs.c_delay * p - costs.c_fa * gain

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if margin(mid) > 0 else (mid, hi)
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def frozen(case_params, case_x0):
    return simulate_paths(
        case_x0, 200, 40, case_params, ModelVariant.FULL3D, RngStream(99).derive(0, 0)
    )


class TestMapPolicy:
    def test_announces_at_certainty(self, lp_map):
        i1 = [0, 10, 50, 200, 400]
        out = MapPolicy(lp_map).decide(*stage_block([1500] * 5, i1, [1.0] * 5), 3)
        assert out.dtype == bool
        assert out.tolist() == [True] * 5

    @pytest.mark.parametrize("layout", ["lp2d", "full3d"])
    def test_extinct_line_follows_lookahead(self, layout, lp_map, full_map, case_costs):
        # I1 = 0 is absorbing: waiting a stage costs C_Delay P and gains only
        # the noise clamp at 0, C_FA E[max(P + delta, 0) - P]
        dmap = lp_map if layout == "lp2d" else full_map
        sigma = dmap.epidemic.sigma_delta
        p_star = _lookahead_crossing(sigma, case_costs)
        assert 0.01 < p_star < 0.015
        wait = [0.0, 0.5 * p_star, p_star - 1e-3]
        announce = [p_star + 1e-3, 0.05, 0.2, 0.5, 0.9, 0.999]
        for p in wait:
            assert not dmap.announce(ReducedState(1990, 0, p)), p
        for p in announce:
            assert dmap.announce(ReducedState(1990, 0, p)), p
        ps = np.array(wait + announce)
        locs = dmap.location(np.full(ps.size, 1990), np.zeros(ps.size), ps)
        assert np.array_equal(locs[0], dmap.location(1990, 0, ps[0]))
        expected = [False] * len(wait) + [True] * len(announce)
        assert (dmap.score_locations(locs) > 0).tolist() == expected

    def test_extinct_line_without_noise_announces_for_any_p(self, case_params, case_costs):
        params = dataclasses.replace(case_params, sigma_delta=0.0)
        cfg = SrmcConfig(master_seed=607, n0=100, n_batch=100, n_end=300,
                         d_candidates=200, t_max=1)
        dmap = build_map(1, [], cfg, params, case_costs, ModelVariant.LP2D)
        for p in np.linspace(1e-3, 0.999, 40):
            assert dmap.announce(ReducedState(1990, 0, float(p))), p

    @pytest.mark.parametrize("layout", ["lp2d", "full3d"])
    def test_extinct_paths_stop_at_once(self, layout, lp_map, full_map,
                                        case_params, case_costs):
        dmap = lp_map if layout == "lp2d" else full_map
        paths = simulate_paths(ReducedState(1990, 0, 0.1), 60, 30, case_params,
                               ModelVariant.FULL3D, RngStream(98).derive(0, 0))
        report = evaluate_on(MapPolicy(dmap), paths, case_costs)
        assert report.cap_hits == 0
        assert np.all(report.taus == 1)

    def test_name_tags_variant(self, lp_map):
        assert MapPolicy(lp_map).name == "lp_map"
        assert MapPolicy(lp_map, label="custom").name == "custom"


class TestEvaluate:
    def test_threshold_t_has_zero_sd(self, frozen, case_costs):
        report = evaluate_on(ThresholdT(8), frozen, case_costs)
        assert report.sd_tau == 0.0
        assert np.all(report.taus == 8)

    def test_threshold_p_overshoot(self, frozen, case_costs):
        report = evaluate_on(ThresholdP(0.8), frozen, case_costs)
        announced = report.taus < frozen.horizon
        assert np.all(report.p_taus[announced] >= 0.8)
        # discrete-time overshoot: PFA strictly below 1 - p_bar on average
        assert report.pfa < 0.2

    def test_pfa_definition(self, frozen, case_costs):
        report = evaluate_on(ThresholdT(5), frozen, case_costs)
        assert report.pfa == pytest.approx(float(np.mean(1 - report.p_taus)), rel=1e-12)
        assert 0.0 <= report.pfa <= 1.0

    def test_cap_hits_logged(self, frozen, case_costs):
        # a threshold nothing reaches: every path is force-announced at the cap
        report = evaluate_on(ThresholdP(0.999999), frozen, case_costs)
        assert report.cap_hits == int(np.sum(np.all(frozen.p[:, 1:] < 0.999999, axis=1)))
        assert np.all(report.taus <= frozen.horizon)

    def test_paths_validation(self, case_params, case_x0):
        with pytest.raises(ValueError):
            simulate_paths(case_x0, 0, 10, case_params, ModelVariant.FULL3D, RngStream(1))
        with pytest.raises(ValueError):
            simulate_paths(case_x0, 5, 0, case_params, ModelVariant.FULL3D, RngStream(1))

    def test_worker_count_does_not_change_paths(self, case_params, case_x0, forks):
        serial = simulate_paths(case_x0, 80, 10, case_params, ModelVariant.FULL3D,
                                RngStream(17).derive(0, 0), workers=1)
        assert forks == []
        forked = simulate_paths(case_x0, 80, 10, case_params, ModelVariant.FULL3D,
                                RngStream(17).derive(0, 0), workers=2)
        assert forks
        for name in ("s1", "i1", "p", "last"):
            assert np.array_equal(getattr(serial, name), getattr(forked, name)), name
        assert serial.announced == forked.announced == ()  # no policies, zero columns

    def test_frozen_arrays(self, frozen, case_x0):
        shape = (200, 41)
        assert (frozen.s1.shape, frozen.i1.shape, frozen.p.shape) == (shape,) * 3
        assert frozen.s1.dtype == frozen.i1.dtype == np.int64
        assert frozen.p.dtype == np.float64
        assert frozen.n_paths == 200
        assert np.all(frozen.s1[:, 0] == case_x0.s1)
        assert np.all(frozen.i1[:, 0] == case_x0.i1)
        assert np.all(frozen.p[:, 0] == case_x0.p)

    def test_policy_asked_once_per_stage_for_waiting_paths(self, frozen, case_costs):
        calls = []

        class Recording(ThresholdP):
            def decide(self, s1, i1, p, t):
                calls.append((t, p.size))
                return super().decide(s1, i1, p, t)

        report = evaluate_on(Recording(0.8), frozen, case_costs)
        stages = [t for t, _ in calls]
        assert stages == sorted(set(stages)) and stages[0] == 1
        assert len(stages) <= frozen.horizon
        # each path is asked at stages 1..tau and no further
        assert sum(rows for _, rows in calls) == int(np.sum(report.taus))


def _announces(policy, x: ReducedState, t: int) -> bool:
    if isinstance(policy, MapPolicy):
        return policy.dmap.announce(x)
    if isinstance(policy, ThresholdP):
        return x.p >= policy.p_bar
    return t >= policy.t_bar


def reference_evaluate(policy, paths, costs):
    """Path-by-path evaluation with one `ReducedState` and one decision per stage."""
    taus, path_costs, p_taus, cap_hits = [], [], [], 0
    for n in range(paths.n_paths):
        states = [ReducedState(int(s), int(i), float(p))
                  for s, i, p in zip(paths.s1[n], paths.i1[n], paths.p[n])]
        tau = next((t for t in range(1, paths.horizon + 1)
                    if _announces(policy, states[t], t)), None)
        if tau is None:
            tau = paths.horizon
            cap_hits += 1
        taus.append(tau)
        waiting = 0.0
        for st in states[:tau]:
            waiting += st.p
        path_costs.append(costs.c_delay * waiting + costs.c_fa * (1.0 - states[tau].p))
        p_taus.append(states[tau].p)
    return np.array(taus, dtype=float), np.array(path_costs), np.array(p_taus), cap_hits


class TestMatchesReference:
    @pytest.mark.parametrize("kind", ["lp_map", "full_map", "threshold_p", "threshold_t",
                                      "threshold_p_unreached"])
    def test_bit_identical(self, kind, lp_map, full_map, frozen, case_costs):
        policy = {
            "lp_map": lambda: MapPolicy(lp_map),
            "full_map": lambda: MapPolicy(full_map),
            "threshold_p": lambda: ThresholdP(0.8),
            "threshold_t": lambda: ThresholdT(8),
            "threshold_p_unreached": lambda: ThresholdP(0.999999),
        }[kind]()
        report = evaluate_on(policy, frozen, case_costs)
        taus, path_costs, p_taus, cap_hits = reference_evaluate(policy, frozen, case_costs)
        assert np.array_equal(report.taus, taus)
        assert np.array_equal(report.costs, path_costs)
        assert np.array_equal(report.p_taus, p_taus)
        assert report.cap_hits == cap_hits
        assert report.mean_cost == float(np.mean(path_costs))



class TestDemandDrivenPaths:
    """Paths simulated for a set of policies stop once every one has announced."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("layout", ["lp2d", "full3d"])
    def test_same_outcomes_as_full_horizon(self, layout, workers, lp_map, full_map,
                                           case_params, case_x0, case_costs, forks):
        variant = ModelVariant(layout)
        policies = [MapPolicy(lp_map if layout == "lp2d" else full_map),
                    ThresholdP(0.8), ThresholdT(8)]
        rng = RngStream(31).derive(0, 0)
        full = simulate_paths(case_x0, 64, 20, case_params, variant, rng)
        cut = simulate_paths(case_x0, 64, 20, case_params, variant, rng,
                             workers=workers, policies=policies)
        assert bool(forks) == (workers > 1)
        assert cut.fingerprint() == full.fingerprint()
        assert [pol for pol, _ in cut.announced] == policies
        for policy, stages in cut.announced:
            a = evaluate_on(policy, full, case_costs)  # replayed on the stored stages
            b = evaluate_on(policy, cut, case_costs)   # read off the record
            for name in ("taus", "costs", "p_taus"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), (policy.name, name)
            assert a.cap_hits == b.cap_hits == np.count_nonzero(stages == 0)
            assert np.array_equal(np.where(stages > 0, stages, 20), a.taus), policy.name
            assert np.all((stages >= 0) & (stages <= 20))
        assert np.all(full.last == 20)
        simulated = np.arange(21) <= cut.last[:, None]
        assert not simulated.all()   # some stages were never simulated
        for name in ("s1", "i1", "p"):
            assert np.array_equal(getattr(cut, name)[simulated],
                                  getattr(full, name)[simulated]), name
        assert np.all(cut.s1[~simulated] == -1) and np.all(cut.i1[~simulated] == -1)
        assert np.all(np.isnan(cut.p[~simulated]))

    def test_last_stage_is_the_largest_tau(self, lp_map, case_params, case_x0, case_costs):
        horizon = 20
        rng = RngStream(32).derive(0, 0)
        full = simulate_paths(case_x0, 100, horizon, case_params, ModelVariant.LP2D, rng)
        rare = ThresholdP(0.999)
        never = np.all(full.p[:, 1:] < rare.p_bar, axis=1)
        assert never.any() and not never.all()
        for policies in ([MapPolicy(lp_map), ThresholdP(0.8), ThresholdT(8)],
                         [MapPolicy(lp_map), ThresholdP(0.8), rare]):
            cut = simulate_paths(case_x0, 100, horizon, case_params, ModelVariant.LP2D,
                                 rng, policies=policies)
            taus = np.array([evaluate_on(p, cut, case_costs).taus for p in policies])
            assert np.array_equal(cut.last, taus.max(axis=0))
        assert np.all(cut.last[never] == horizon)
        assert np.any(cut.last[~never] < horizon)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_evaluation_reuses_the_announce_stages(self, workers, lp_map, case_params,
                                                   case_x0, case_costs, monkeypatch,
                                                   forks):
        """The map is asked once per path-stage, all of it while simulating:
        evaluating paths simulated with it asks nothing."""
        rows = []
        score = DetectionMap.score_locations

        def spy(dmap, locs):
            rows.append(len(locs))
            return score(dmap, locs)

        monkeypatch.setattr(DetectionMap, "score_locations", spy)
        horizon = 6
        rng = RngStream(34).derive(0, 0)
        policies = [MapPolicy(lp_map), ThresholdP(0.8)]
        full = simulate_paths(case_x0, 80, horizon, case_params, ModelVariant.LP2D, rng)
        full_report = evaluate_on(policies[0], full, case_costs)
        evaluation_rows = sum(rows)
        assert evaluation_rows == int(np.sum(full_report.taus))

        rows.clear()
        cut = simulate_paths(case_x0, 80, horizon, case_params, ModelVariant.LP2D, rng,
                             workers=workers, policies=policies)
        simulation_rows = sum(rows)  # forked spans count in their own process
        assert bool(forks) == (workers > 1)
        rows.clear()
        report = evaluate_on(policies[0], cut, case_costs)
        assert rows == []
        if workers == 1:
            assert simulation_rows == evaluation_rows
        # the record is the first announcing stage, and 0 exactly on cap hits
        said = np.array([policies[0].decide(full.s1[:, t], full.i1[:, t], full.p[:, t], t)
                         for t in range(1, horizon + 1)])
        cap = ~said.any(axis=0)
        assert 0 < np.count_nonzero(cap) < cut.n_paths
        stages = next(st for pol, st in cut.announced if pol is policies[0])
        assert np.array_equal(stages, np.where(cap, 0, said.argmax(axis=0) + 1))
        assert report.cap_hits == np.count_nonzero(cap)
        assert np.array_equal(report.taus, full_report.taus)
        assert np.array_equal(report.costs, full_report.costs)
        assert report.cap_hits == full_report.cap_hits

    def test_policy_waiting_past_the_simulated_stages_raises(self, case_params, case_x0,
                                                             case_costs):
        cut = simulate_paths(case_x0, 50, 30, case_params, ModelVariant.FULL3D,
                             RngStream(33).derive(0, 0), policies=[ThresholdP(0.8)])
        evaluate_on(ThresholdP(0.8), cut, case_costs)
        # the first path that runs out, at the first stage it lacks
        n = int(np.argmin(cut.last))
        assert cut.last[n] < 19
        with pytest.raises(ValueError, match=rf"threshold_t_20 .* path {n} at stage "
                                             rf"{cut.last[n] + 1},"):
            evaluate_on(ThresholdT(20), cut, case_costs)


class TestPairedCompare:
    def test_policy_against_itself_is_all_zeros(self, frozen, case_costs):
        a = evaluate_on(ThresholdP(0.8), frozen, case_costs)
        b = evaluate_on(ThresholdP(0.8), frozen, case_costs)
        cmp = paired_compare(a, b)
        assert np.all(cmp.diffs == 0.0)
        assert cmp.frac_a_better == 0.0 and cmp.frac_b_better == 0.0

    def test_mismatched_scenario_sets_rejected(self, frozen, case_params,
                                               case_costs, case_x0):
        other = simulate_paths(
            case_x0, 200, 40, case_params, ModelVariant.FULL3D,
            RngStream(100).derive(0, 0),
        )
        a = evaluate_on(ThresholdT(8), frozen, case_costs)
        b = evaluate_on(ThresholdT(8), other, case_costs)
        with pytest.raises(ValueError):
            paired_compare(a, b)

    def test_fractions_sum_to_at_most_one(self, frozen, case_costs):
        a = evaluate_on(ThresholdP(0.8), frozen, case_costs)
        b = evaluate_on(ThresholdT(8), frozen, case_costs)
        cmp = paired_compare(a, b)
        assert 0.0 <= cmp.frac_a_better + cmp.frac_b_better <= 1.0
        assert cmp.mean_diff == pytest.approx(a.mean_cost - b.mean_cost, rel=1e-10)



# sha256 of the paths and evaluations of the test below, recorded before the
# solver's horizon stage stopped simulating Pool 1: that change moves solver
# responses only, and the evaluation paths keep every byte
PATHS_DIGEST = "34020aaf89015a9fed813127b0d1429dbdaa57f781a84e01b22e71c91c533f24"


def test_paths_and_evaluations_match_the_recorded_digest(case_params, case_costs):
    digest = hashlib.sha256()
    policies = (ThresholdP(0.8), ThresholdT(8))
    for variant in ModelVariant:
        for simulated_with in ((), policies):
            paths = simulate_paths(ReducedState(1990, 10, 0.1), 60, 15, case_params, variant,
                                   RngStream(2718, (3,)), policies=simulated_with)
            for a in (paths.s1, paths.i1, paths.p, paths.last,
                      *(stages for _, stages in paths.announced)):
                digest.update(np.ascontiguousarray(a).tobytes())
            for policy in policies:
                report = evaluate_on(policy, paths, case_costs)
                for a in (report.taus, report.costs, report.p_taus):
                    digest.update(a.tobytes())
    assert digest.hexdigest() == PATHS_DIGEST
