import dataclasses
import json
import math
from typing import Sequence

import numpy as np
import pytest

from epidetect import (
    CostParams,
    EpidemicParams,
    ModelVariant,
    ReducedState,
    RngStream,
    SrmcConfig,
    solve,
)
from epidetect import reduced, simulate_paths, solver
from epidetect.loess import LoessModel
from epidetect.reduced import step
from epidetect.solver import (
    MAP_COORDS,
    DetectionMap,
    audit_grid,
    boundary_trace,
    build_map,
    default_box,
    draw_design,
    extinct_margin,
    path_and_cost,
    run_scenarios,
    surrogate_inputs,
    trace_distance,
)

from .forking import forked_spans

NO_NOISE = EpidemicParams(0.75, 0.5, 0.01, (2000, 2000), sigma_delta=0.0)


class StubMap:
    """Announce rule injected by tests in place of a fitted map.

    `fn` decides one `ReducedState`; scenarios ask a block of states at
    once through `location` and `score_locations`, which apply `fn` to each
    row (score +1 announces, -1 waits).
    """

    def __init__(self, fn):
        self._fn = fn

    def location(self, s1, i1, p):
        return np.stack([s1, i1, p], axis=-1, dtype=float)

    def score_locations(self, locs):
        return np.array([1.0 if self._fn(ReducedState(int(s1), int(i1), float(p))) else -1.0
                         for s1, i1, p in np.atleast_2d(locs)])


@pytest.fixture
def script_p(monkeypatch):
    """Deterministic dynamics for `path_and_cost`: P walks through the given
    values, counts frozen. Stages below t take them through `step`, the
    horizon stage t through its P-only update."""
    def install(p_values):
        it = iter(p_values)
        monkeypatch.setattr(solver, "step",
                            lambda s1, i1, p, *args, **kwargs: (s1, i1, next(it)))
        monkeypatch.setattr(solver, "update_p", lambda *args: next(it))

    return install


class TestPathAndCost:
    def test_t1_always_stops_at_one(self, case_params, case_costs):
        root = RngStream(21)
        for n in range(50):
            x0 = ReducedState(1990, 10, 0.1)
            tau, q = path_and_cost(
                x0, 1, [], case_params, case_costs, ModelVariant.FULL3D, root.derive(n)
            )
            assert tau == 1
            assert q >= 0.0

    def test_t1_cost_formula(self, case_costs, script_p):
        script_p([0.34])
        x0 = ReducedState(1990, 10, 0.1)
        tau, q = path_and_cost(
            x0, 1, [], NO_NOISE, case_costs, ModelVariant.FULL3D, RngStream(1),
        )
        assert tau == 1
        assert q == pytest.approx(1.0 * 0.1 + 20.0 * (1 - 0.34), rel=1e-12)

    def test_absorbed_paths_cost_pure_delay(self, case_params, case_costs):
        x0 = ReducedState(1990, 10, 1.0)
        never = StubMap(lambda x: False)
        root = RngStream(33)
        for t in (1, 3, 7):
            maps = [never] * (t - 1)
            tau, q = path_and_cost(
                x0, t, maps, case_params, case_costs, ModelVariant.FULL3D, root.derive(t)
            )
            assert tau == t  # nothing announces until the cap
            assert q == pytest.approx(case_costs.c_delay * tau, rel=1e-12)

    def test_deterministic_stub_oracle(self, case_costs, script_p):
        # P path 0.1 -> 0.3 -> 0.5 -> ...; maps announce at P >= 0.5
        script_p([0.3, 0.5, 0.8])
        announce_at_half = StubMap(lambda x: x.p >= 0.5)
        x0 = ReducedState(1990, 10, 0.1)
        tau, q = path_and_cost(
            x0, 3, [announce_at_half, announce_at_half], NO_NOISE, case_costs,
            ModelVariant.FULL3D, RngStream(2),
        )
        assert tau == 2
        assert q == pytest.approx(1.0 * (0.1 + 0.3) + 20.0 * (1 - 0.5), rel=1e-12)

    def test_tau_within_bounds_property(self, case_params, case_costs):
        root = RngStream(8)
        wait_some = StubMap(lambda x: x.p > 0.7)
        for n in range(30):
            t = 1 + n % 6
            x0 = ReducedState(1990, 10, 0.05 + 0.02 * (n % 10))
            tau, _ = path_and_cost(
                x0, t, [wait_some] * (t - 1), case_params, case_costs,
                ModelVariant.LP2D, root.derive(n),
            )
            assert 1 <= tau <= t

    def test_mpc_mode_uses_latest_map_only(self, case_costs, script_p):
        # Latest map never announces; earlier maps always announce.
        # Receding-horizon mode must ignore the earlier maps and hit the cap.
        t = 7
        maps = [StubMap(lambda x: True)] * (t - 2) + [StubMap(lambda x: False)]
        script_p([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        x0 = ReducedState(1990, 10, 0.1)
        tau_mpc, _ = path_and_cost(
            x0, t, maps, NO_NOISE, case_costs, ModelVariant.FULL3D, RngStream(3),
            mpc_switch=5,
        )
        assert tau_mpc == t

        script_p([0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        tau_plain, _ = path_and_cost(
            x0, t, maps, NO_NOISE, case_costs, ModelVariant.FULL3D, RngStream(3),
            mpc_switch=None,
        )
        assert tau_plain == 2  # s=1 tests the latest map, s=2 an always-announce map

    def test_mpc_switch_boundary_is_strict(self, case_costs, script_p):
        # at t == mpc_switch the stage-dependent rule still applies
        t = 5
        maps = [StubMap(lambda x: True)] * (t - 2) + [StubMap(lambda x: False)]
        script_p([0.2] * t)
        tau, _ = path_and_cost(
            ReducedState(1990, 10, 0.1), t, maps, NO_NOISE, case_costs,
            ModelVariant.FULL3D, RngStream(4), mpc_switch=5,
        )
        assert tau == 2

    def test_requires_enough_maps(self, case_params, case_costs):
        with pytest.raises(ValueError):
            path_and_cost(
                ReducedState(1990, 10, 0.1), 3, [], case_params, case_costs,
                ModelVariant.FULL3D, RngStream(5),
            )


def state_from_location(
    loc: np.ndarray, variant: ModelVariant, params: EpidemicParams
) -> ReducedState:
    """Initial detection state at a design location (S1 = M1 - I1 without an S1 axis)."""
    m1 = params.pool_sizes[0]
    i1, p = int(round(loc[-2])), float(loc[-1])
    if "s1" in MAP_COORDS[ModelVariant(variant)]:
        return ReducedState(min(int(round(loc[0])), m1 - i1), i1, p)
    return ReducedState(max(m1 - i1, 0), i1, p)


class TestDesignHelpers:
    def test_default_box_case_study(self, case_params):
        box3 = default_box(case_params, ModelVariant.FULL3D)
        assert box3.lower == (1000.0, 0.0, 0.0)
        assert box3.upper == (2000.0, 400.0, 0.999)
        box2 = default_box(case_params, ModelVariant.LP2D)
        assert box2.lower == (0.0, 0.0)
        assert box2.upper == (400.0, 0.999)

    def test_draw_design_respects_pool_invariant(self, case_params):
        box = default_box(case_params, ModelVariant.FULL3D)
        locs = draw_design(box, 500, RngStream(6), case_params, ModelVariant.FULL3D)
        assert np.all(locs[:, 0] + locs[:, 1] <= 2000)
        for loc in locs[:20]:
            st = state_from_location(loc, ModelVariant.FULL3D, case_params)
            assert st.s1 + st.i1 <= 2000

    def test_state_from_location_lp2d(self, case_params):
        st = state_from_location(np.array([42.0, 0.5]), ModelVariant.LP2D, case_params)
        assert st.i1 == 42 and st.p == 0.5
        assert st.s1 + st.i1 <= 2000


class TestScenarioStarts:
    """Scenarios step plain counts read off the block arrays."""

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    def test_design_starts_equal_state_from_location(self, variant, case_params,
                                                     case_costs, monkeypatch):
        seen = []
        scenario_costs = solver.scenario_costs

        def spy(starts, *args, **kwargs):
            seen.append(np.broadcast_arrays(*starts))
            return scenario_costs(starts, *args, **kwargs)

        monkeypatch.setattr(solver, "scenario_costs", spy)
        cfg = SrmcConfig(master_seed=808, n0=500, n_batch=1, n_end=500,
                         d_candidates=1, t_max=1)
        dmap = build_map(1, [], cfg, case_params, case_costs, ModelVariant(variant))
        s1, i1, p = (np.concatenate(col) for col in zip(*seen))
        assert dmap.locations.shape[0] == s1.size == 500
        expected = [state_from_location(loc, variant, case_params)
                    for loc in dmap.locations]
        np.testing.assert_array_equal(s1, [x.s1 for x in expected])
        np.testing.assert_array_equal(i1, [x.i1 for x in expected])
        np.testing.assert_array_equal(p, [x.p for x in expected])

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    def test_scalar_starts_equal_array_starts(self, variant, case_params):
        m, root = 40, RngStream(909)

        def run(starts):
            streams = [root.derive(j) for j in range(m)]
            return run_scenarios(starts, streams, 12, case_params, ModelVariant(variant),
                                 lambda s, rows, s1, i1, p: p >= 0.5)

        scalar = run((1990, 10, 0.1))
        arrays = run((np.full(m, 1990), np.full(m, 10), np.full(m, 0.1)))
        assert np.any(scalar[3] < 12)  # some rows stop early
        for a, b in zip(scalar, arrays):
            np.testing.assert_array_equal(a, b)

    def test_kernels_see_python_numbers(self, case_params, case_costs, monkeypatch):
        seen = set()

        def spy(owner, name, n_args):
            fn = getattr(owner, name)

            def wrapped(*args, **kwargs):
                seen.add((name, tuple(type(a) for a in args[:n_args])))
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapped)

        spy(solver, "step", 3)
        spy(reduced, "_branching_unit", 1)
        spy(reduced, "single_pool_interval", 3)
        cfg = SrmcConfig(master_seed=810, n0=40, n_batch=20, n_end=60,
                         d_candidates=50, t_max=1)
        for variant in ModelVariant:
            build_map(1, [], cfg, case_params, case_costs, variant)
            simulate_paths(ReducedState(1990, 10, 0.1), 5, 6, case_params, variant,
                           RngStream(11))
        assert seen == {("step", (int, int, float)), ("_branching_unit", (int,)),
                        ("single_pool_interval", (int, int, int))}

    def test_stop_rule_is_asked_at_every_stage(self, case_params):
        asked = []

        def never(s, rows, s1, i1, p):
            asked.append((s, rows.tolist()))
            return np.zeros(rows.size, dtype=bool)

        streams = [RngStream(911).derive(j) for j in range(6)]
        *_, last = run_scenarios((1990, 10, 0.1), streams, 5, case_params,
                                 ModelVariant.LP2D, never)
        # the horizon is an ordinary stage; rows still live there stop anyway
        assert asked == [(s, list(range(6))) for s in range(1, 6)]
        assert np.all(last == 5)


class TestScenarioCostsAsks:
    """`scenario_costs` asks map t - s at stages s < t; the cap s = t asks none."""

    @pytest.fixture
    def asked(self, monkeypatch):
        rows = []
        score = DetectionMap.score_locations

        def spy(dmap, locs):
            rows.append(len(locs))
            return score(dmap, locs)

        monkeypatch.setattr(DetectionMap, "score_locations", spy)
        return rows

    def test_cap_stage_asks_no_map(self, asked, small_lp_map, case_params, case_costs):
        dmap, _cfg = small_lp_map
        m = 40
        streams = [RngStream(912).derive(j) for j in range(m)]
        taus, _ = solver.scenario_costs((1990, 10, 0.1), streams, 3, [dmap, dmap],
                                        case_params, case_costs, ModelVariant.LP2D)
        assert np.any(taus == 3)  # some rows were live at the cap
        assert asked == [m, int(np.count_nonzero(taus >= 2))]  # stages 1 and 2

    def test_first_iteration_asks_nothing(self, asked, case_params, case_costs):
        streams = [RngStream(913).derive(j) for j in range(8)]
        taus, _ = solver.scenario_costs((1990, 10, 0.1), streams, 1, [], case_params,
                                        case_costs, ModelVariant.LP2D)
        assert asked == []
        assert np.all(taus == 1)


class NormalCounter:
    """A generator that counts its `normal` draws and passes every draw on."""

    def __init__(self, gen):
        self._gen = gen
        self.normals = 0

    def normal(self, *args):
        self.normals += 1
        return self._gen.normal(*args)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class TestHorizonStage:
    """Stage t of `scenario_costs` moves P alone: Pool 1 is simulated only at
    stages below t, and delta is the next draw of the scenario's stream."""

    @pytest.mark.parametrize("variant, kernel", [(ModelVariant.FULL3D, "single_pool_interval"),
                                                 (ModelVariant.LP2D, "_branching_unit")])
    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_pool_1_is_stepped_below_the_horizon_only(self, variant, kernel, t, case_params,
                                                      case_costs, monkeypatch):
        calls, horizon = [], []
        pool_1 = getattr(reduced, kernel)
        monkeypatch.setattr(reduced, kernel, lambda *args: calls.append(1) or pool_1(*args))

        def p_only(i1, p, params, gen):
            counter = NormalCounter(gen)
            out = reduced.update_p(i1, p, params, counter)
            horizon.append(counter.normals)
            return out

        monkeypatch.setattr(solver, "update_p", p_only)
        root = RngStream(914)
        m, x0 = 40, (1990, 10, 0.1)
        streams = root.derive_span((), 0, m)
        maps = [StubMap(lambda x: x.i1 > 12)] * (t - 1)
        taus, _ = solver.scenario_costs(x0, streams, t, maps, case_params, case_costs,
                                        variant)
        stepped = np.minimum(taus, t - 1)
        assert len(calls) == stepped.sum()  # one per live scenario and stage s < t
        if t == 1:
            assert not calls
        else:
            assert np.any(taus < t) and np.any(taus == t)
        assert horizon == [1] * int(np.count_nonzero(taus == t))  # one normal each
        # each stream stands where the reference draws leave it
        for j, (stream, tau) in enumerate(zip(streams, taus.tolist())):
            ref = root.derive(j)
            x = x0
            for _ in range(stepped[j]):
                x = step(*x, case_params, variant, ref)
            if tau == t:
                ref.generator.normal(0.0, case_params.sigma_delta)
            np.testing.assert_array_equal(stream.generator.random(8), ref.generator.random(8))


@pytest.fixture(scope="module")
def small_lp_map(case_params, case_costs):
    cfg = SrmcConfig(
        master_seed=404, n0=80, n_batch=40, n_end=160, d_candidates=200, t_max=1
    )
    return build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D), cfg


@pytest.fixture(scope="module")
def small_full_map(case_params, case_costs):
    cfg = SrmcConfig(
        master_seed=405, n0=80, n_batch=40, n_end=160, d_candidates=200, t_max=1
    )
    return build_map(1, [], cfg, case_params, case_costs, ModelVariant.FULL3D)


class TestBuildMap:
    def test_non_sequential_config_runs(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=11, n0=100, n_batch=50, n_end=100,
                         d_candidates=100, t_max=1)
        assert not cfg.sequential
        dmap = build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D)
        assert dmap.surrogate.n_points == 100
        assert dmap.build_info["rounds"] == []
        assert dmap.build_info["sequential"] is False

    def test_design_grows_to_n_end(self, small_lp_map):
        dmap, cfg = small_lp_map
        assert dmap.surrogate.n_points == cfg.n_end
        assert len(dmap.build_info["rounds"]) == (cfg.n_end - cfg.n0) // cfg.n_batch

    def test_surrogate_inputs_warp_i1_only(self):
        locs = np.array([[1990.0, 0.0, 0.2], [1500.0, 7.5, 0.9], [1000.0, 400.0, 0.0]])
        kept = locs.copy()
        warped = surrogate_inputs(locs)
        np.testing.assert_array_equal(locs, kept)  # a copy: the locations stay raw
        np.testing.assert_array_equal(warped[:, -2], np.log1p(locs[:, -2]))
        np.testing.assert_array_equal(warped[:, [0, 2]], locs[:, [0, 2]])
        assert surrogate_inputs(np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    def test_surrogate_is_fitted_on_warped_locations(self, variant, small_lp_map,
                                                     small_full_map):
        dmap = small_lp_map[0] if variant == "lp2d" else small_full_map
        assert dmap.locations.shape == dmap.surrogate.inputs.shape
        assert dmap.surrogate.inputs.tobytes() == surrogate_inputs(dmap.locations).tobytes()
        assert dmap.to_dict()["design"]["locations"] == dmap.locations.tolist()
        assert dmap.to_dict()["loess"]["i1_warp"] == "log1p"

    def test_determinism_same_seed(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=505, n0=60, n_batch=30, n_end=120,
                         d_candidates=100, t_max=1)
        a = build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D)
        b = build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D)
        assert a.to_dict() == b.to_dict()

    def test_parallel_workers_bit_identical(self, case_params, case_costs, forks):
        cfg = SrmcConfig(master_seed=506, n0=64, n_batch=64, n_end=128,
                         d_candidates=100, t_max=1)
        serial = build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D,
                           workers=1)
        assert forks == []
        forked = build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D,
                           workers=2)
        assert forks
        assert serial.to_dict() == forked.to_dict()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SrmcConfig(master_seed=1, n0=100, n_batch=64, n_end=200)  # not divisible
        with pytest.raises(ValueError):
            SrmcConfig(master_seed=1, n0=0)
        with pytest.raises(ValueError):
            SrmcConfig(master_seed=1, t_max=0)

    @pytest.mark.parametrize("tol", [-math.inf, -1.0, math.nan])
    def test_tol_must_be_nonnegative(self, tol):
        with pytest.raises(ValueError, match=f"tol must be nonnegative, got {tol}"):
            SrmcConfig(master_seed=1, tol=tol)
        assert SrmcConfig(master_seed=1, tol=math.inf).tol == math.inf

    def test_serialization_round_trip_bit_exact(self, small_lp_map, tmp_path):
        dmap, _cfg = small_lp_map
        path = tmp_path / "map.json"
        path.write_text(json.dumps(dmap.to_dict()))
        loaded = DetectionMap.load(path)
        rng = np.random.default_rng(0)
        grid = np.column_stack([
            rng.uniform(0, 400, 1000), rng.uniform(0, 0.999, 1000)
        ])
        a = dmap.score_locations(grid)
        b = loaded.score_locations(grid)
        assert a.tobytes() == b.tobytes()
        assert loaded.to_dict() == dmap.to_dict()

    def test_announce_consistent_with_score(self, small_lp_map):
        dmap, _cfg = small_lp_map
        rng = np.random.default_rng(1)
        for _ in range(20):
            loc = np.array([rng.uniform(0, 400), rng.uniform(0, 0.999)])
            st = ReducedState(1500, int(loc[0]), loc[1])
            assert dmap.announce(st) == (dmap.score_location(np.array([st.i1, st.p])) > 0)



def reference_path_and_cost(x0, t, maps, params, costs, variant, rng, mpc_switch):
    """One scenario stepped alone, asking `announce` of one state per stage.

    Stages below t step Pool 1 and P; the horizon stage t, which stops the
    scenario without reading its counts, updates P alone."""
    mpc = mpc_switch is not None and t > mpc_switch
    p_path, x = [x0.p], x0
    for s in range(1, t + 1):
        if s == t:
            p_path.append(reduced.update_p(x.i1, x.p, params, rng.generator))
            break
        x = ReducedState(*step(x.s1, x.i1, x.p, params, variant, rng))
        p_path.append(x.p)
        if (maps[t - 2] if mpc else maps[t - s - 1]).announce(x):
            break
    waiting = 0.0
    for p in p_path[:s]:
        waiting += p
    return s, costs.c_delay * waiting + costs.c_fa * (1.0 - p_path[s])


@pytest.fixture(scope="module", params=["lp2d", "full3d"])
def map_sequence(request, case_params, case_costs):
    """Maps of iterations 1..3, built with forked workers."""
    cfg = SrmcConfig(master_seed=707, n0=48, n_batch=48, n_end=96,
                     d_candidates=150, t_max=3)
    variant = ModelVariant(request.param)
    maps = []
    with forked_spans() as forks:
        for t in (1, 2, 3):
            maps.append(build_map(t, maps, cfg, case_params, case_costs, variant,
                                  workers=2))
    assert forks
    return cfg, maps


class TestStageBatchedScenarios:
    """`build_map` asks each map once per stage for a block of scenarios; every
    response equals the scenario simulated on its own."""

    def assert_responses_match(self, dmap, t, maps, cfg, params, costs):
        root = RngStream(cfg.master_seed)
        locs, responses = dmap.locations, dmap.surrogate.responses
        assert locs.shape[0] == cfg.n_end
        taus = []
        for j, loc in enumerate(locs):
            x0 = state_from_location(loc, dmap.variant, params)
            stream = root.derive(t, solver.LABEL_SCENARIO, j)
            ref = reference_path_and_cost(x0, t, maps, params, costs, dmap.variant,
                                          stream, cfg.mpc_switch)
            one = path_and_cost(x0, t, maps, params, costs, dmap.variant,
                                root.derive(t, solver.LABEL_SCENARIO, j),
                                mpc_switch=cfg.mpc_switch)
            assert one == ref, j
            assert responses[j] == ref[1], j
            taus.append(ref[0])
        return np.array(taus)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_responses_match_single_scenarios(self, t, map_sequence, case_params,
                                              case_costs):
        cfg, maps = map_sequence
        taus = self.assert_responses_match(maps[t - 1], t, maps[: t - 1], cfg,
                                           case_params, case_costs)
        if t > 1:
            assert np.any(taus < t)  # some scenarios stop on a map

    def test_receding_horizon_responses(self, map_sequence, case_params, case_costs,
                                        forks):
        cfg, maps = map_sequence
        mpc_cfg = dataclasses.replace(cfg, mpc_switch=2)
        dmap = build_map(3, maps[:2], mpc_cfg, case_params, case_costs,
                         maps[0].variant, workers=2)
        assert forks
        self.assert_responses_match(dmap, 3, maps[:2], mpc_cfg, case_params, case_costs)
        # stage 2 asks map 2, not map 1, so the design and its responses differ
        assert dmap.to_dict()["design"] != maps[2].to_dict()["design"]


class TestSolve:
    def test_infinite_tol_stops_after_second_iteration(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=31, n0=60, n_batch=30, n_end=90,
                         d_candidates=100, t_max=10, tol=math.inf)
        seq = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        assert seq.iterations == 2
        assert seq.converged

    def test_zero_tol_runs_to_t_max(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=32, n0=60, n_batch=30, n_end=90,
                         d_candidates=100, t_max=3, tol=0.0)
        seq = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        assert seq.iterations == 3
        assert not seq.converged
        assert seq.warning is None  # tol 0 disables the convergence demand

    def test_nonconvergence_warning(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=33, n0=60, n_batch=30, n_end=90,
                         d_candidates=100, t_max=2, tol=1e-9)
        seq = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        assert not seq.converged
        assert seq.warning is not None

    def test_single_iteration_is_not_converged(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=35, n0=60, n_batch=30, n_end=90,
                         d_candidates=100, t_max=1, tol=0.05)
        seq = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        assert seq.iterations == 1 and seq.sup_diffs == []
        assert not seq.converged
        assert seq.warning == ("boundary not converged after 1 iterations "
                               "(no earlier boundary was compared; tol 0.05)")

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    def test_sup_diffs_are_trace_distances(self, variant, case_params, case_costs,
                                           monkeypatch):
        off_line, scored, predicted = [], [], []
        score, predict = DetectionMap.score_locations, LoessModel.predict_mean_many

        def score_spy(dmap, locs):
            off = np.asarray(locs)[:, -2] != 0.0
            below_one = np.asarray(locs)[:, -1] != 1.0
            off_line.append(int(np.count_nonzero(off)))
            scored.append(int(np.count_nonzero(off & below_one)))
            return score(dmap, locs)

        def predict_spy(model, xs):
            predicted.append(len(xs))
            return predict(model, xs)

        monkeypatch.setattr(DetectionMap, "score_locations", score_spy)
        monkeypatch.setattr(LoessModel, "predict_mean_many", predict_spy)
        cfg = SrmcConfig(master_seed=36, n0=60, n_batch=60, n_end=60,
                         d_candidates=100, t_max=4)
        seq = solve(cfg, case_params, case_costs, variant)
        # every mean query scores a stop rule's or a trace's rows off the
        # extinct line and below P = 1: the surrogate is never asked on the
        # audit grid; scenarios do reach P = 1
        assert sum(predicted) == sum(scored) > 0
        assert sum(scored) < sum(off_line)
        assert len(seq.sup_diffs) == 3
        for k, shift in enumerate(seq.sup_diffs):
            assert shift == trace_distance(seq.traces[k], seq.traces[k + 1])
        assert seq.warning is None  # the default tol 0 runs to t_max

    def test_positive_tol_stops_at_first_shift_below_it(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=37, n0=60, n_batch=60, n_end=60,
                         d_candidates=100, t_max=6)
        shifts = solve(cfg, case_params, case_costs, ModelVariant.LP2D).sup_diffs
        tol = sorted(shifts)[2]
        first = next(k for k, shift in enumerate(shifts) if shift < tol)
        assert first < len(shifts) - 1
        seq = solve(dataclasses.replace(cfg, tol=tol), case_params, case_costs,
                    ModelVariant.LP2D)
        assert seq.converged and seq.warning is None
        assert seq.iterations == first + 2
        assert seq.sup_diffs == shifts[: first + 1]

    def test_solve_determinism(self, case_params, case_costs):
        cfg = SrmcConfig(master_seed=34, n0=60, n_batch=30, n_end=90,
                         d_candidates=100, t_max=2, tol=0.0)
        a = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        b = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        assert a.sup_diffs == b.sup_diffs
        for ma, mb in zip(a.maps, b.maps):
            assert ma.to_dict() == mb.to_dict()

    @pytest.mark.parametrize("variant, knobs, message", [
        ("lp2d", {"n0": 2, "n_end": 2}, "n0 must be at least 3, the local-linear basis "
                                        "size of a lp2d map, got 2"),
        ("full3d", {"n0": 3, "n_end": 3}, "n0 must be at least 4, the local-linear basis "
                                          "size of a full3d map, got 3"),
        ("full3d", {"trace_s1": -5}, "trace_s1 must lie on the S1 axis [1000, 2000] of "
                                     "the regression box, got -5"),
        ("full3d", {"trace_s1": 2001}, "trace_s1 must lie on the S1 axis [1000, 2000] of "
                                       "the regression box, got 2001"),
    ])
    def test_unsolvable_config_raises_before_any_scenario(self, variant, knobs, message,
                                                          case_params, case_costs,
                                                          monkeypatch):
        def no_scenarios(*args, **kwargs):
            raise AssertionError("a scenario ran")

        monkeypatch.setattr(solver, "run_scenarios", no_scenarios)
        cfg = SrmcConfig(master_seed=38, n_batch=1, t_max=1, **{"n0": 60, "n_end": 60, **knobs})
        with pytest.raises(ValueError) as info:
            solve(cfg, case_params, case_costs, variant)
        assert str(info.value) == message

    @pytest.mark.parametrize("variant, n0", [("lp2d", 3), ("full3d", 4)])
    def test_n0_at_the_basis_size_solves(self, variant, n0, case_params, case_costs):
        cfg = SrmcConfig(master_seed=39, n0=n0, n_batch=n0, n_end=2 * n0,
                         d_candidates=20, t_max=2, trace_s1=1000)
        seq = solve(cfg, case_params, case_costs, variant)
        assert seq.iterations == 2 and len(seq.sup_diffs) == 1

    def test_trace_distance_conventions(self):
        a = np.array([0.1, math.nan, 0.5])
        b = np.array([0.2, 0.9, math.nan])
        # nan counts as boundary at 1.0
        assert trace_distance(a, b) == pytest.approx(0.5)
        assert trace_distance(a, a) == 0.0

    @pytest.mark.slow
    def test_value_improves_with_iterations(self, case_params, case_costs):
        """min(d, qhat_t) trends down in t: later rules only add options.

        Checked on the audit-grid mean; individual grid points are too noisy
        (sparse-corner extrapolation), so the tolerance is Monte Carlo scale.
        """
        from epidetect.solver import audit_grid

        cfg = SrmcConfig(master_seed=11, n0=150, n_batch=150, n_end=600,
                         d_candidates=500, t_max=8, tol=0.0)
        seq = solve(cfg, case_params, case_costs, ModelVariant.LP2D)
        grid = audit_grid(seq.final().domain, seq.final().variant)
        d = case_costs.c_fa * (1.0 - grid[:, -1])
        means = []
        for dmap in seq.maps:
            v = np.minimum(d, dmap.surrogate.predict_mean_many(surrogate_inputs(grid)))
            means.append(float(v.mean()))
        assert means[-1] < means[0]  # overall improvement
        for prev, cur in zip(means, means[1:]):
            assert cur <= prev + 0.35, means  # no real regression, MC slack


def boundary_in_p(dmap: DetectionMap, prefix: Sequence[float]) -> float:
    """`boundary_trace` for the single lattice line fixed by `prefix`."""
    return float(boundary_trace(dmap, [list(prefix)])[0])


def line_by_line_boundary(dmap, prefix, p_lo, p_hi, resolution=1e-3):
    """Scalar bisection along one line, one point query per step."""
    def score(p):
        return dmap.score_location(np.array(list(prefix) + [p]))

    lo, hi = p_lo, p_hi
    if score(lo) > 0:
        return lo
    if score(hi) <= 0:
        return math.nan
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if score(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class CrossingMap:
    """Announces where P exceeds a per-line crossing I1 / 100 - 0.5."""

    def __init__(self, domain):
        self.domain = domain

    def score_location(self, loc):
        return float(self.score_locations(np.asarray(loc)[None])[0])

    def score_locations(self, locs):
        locs = np.asarray(locs, dtype=float)
        return locs[:, -1] - (locs[:, -2] / 100.0 - 0.5)


class TestExtinctLineAndBoundaries:
    def test_extinct_margin_agrees_with_ndtr(self, case_params, case_costs):
        ndtr = pytest.importorskip("scipy.special").ndtr
        sigma = case_params.sigma_delta
        p = np.linspace(0.0, 8.0 * sigma, 4001)
        z = p / sigma
        gain = sigma * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) - p * ndtr(-z)
        expected = case_costs.c_delay * p - case_costs.c_fa * gain
        np.testing.assert_allclose(extinct_margin(p, case_params, case_costs), expected,
                                   rtol=1e-13, atol=1e-13 * case_costs.c_fa * sigma)

    def test_extinct_margin_shapes(self, case_params, case_costs):
        scalar = extinct_margin(0.02, case_params, case_costs)
        assert np.ndim(scalar) == 0 and not isinstance(scalar, np.ndarray)
        assert scalar == extinct_margin(np.array([0.02]), case_params, case_costs)[0]
        grid = np.full((2, 3), 0.02)
        assert extinct_margin(grid, case_params, case_costs).shape == (2, 3)
        assert extinct_margin(grid, NO_NOISE, case_costs).shape == (2, 3)

    def test_score_locations_query_only_off_line_rows(self, small_lp_map, monkeypatch):
        dmap, _cfg = small_lp_map
        rng = np.random.default_rng(3)
        seen = []
        batch = dmap.surrogate.predict_mean_many

        def spy(xs):
            seen.append(np.array(xs))
            return batch(xs)

        monkeypatch.setattr(dmap.surrogate, "predict_mean_many", spy)
        for i1_range, rows, kinds in [((0, 4), 300, [False, True]),  # mixed
                                      ((0, 1), 300, [False]),  # every row on the line
                                      ((1, 4), 300, [True]),   # none on it
                                      ((0, 4), 0, [])]:        # no rows at all
            locs = np.column_stack([rng.integers(*i1_range, rows).astype(float),
                                    rng.uniform(0.0, 0.999, rows)])
            seen.clear()
            scores = dmap.score_locations(locs)
            off = locs[:, 0] != 0.0
            assert np.unique(off).tolist() == kinds
            assert len(seen) == 1  # one block of off-line rows, empty or not
            np.testing.assert_array_equal(seen[0], surrogate_inputs(locs[off]))
            assert scores.shape == (rows,) and scores.dtype == np.float64
            np.testing.assert_array_equal(scores, [dmap.score_location(loc) for loc in locs])

    def test_p_one_announces_by_the_exact_margin(self, small_lp_map, case_params,
                                                 case_costs, monkeypatch):
        dmap, _cfg = small_lp_map
        seen = []

        def waits(xs):  # a surrogate that waits everywhere: qhat - d = -1 at P = 1
            seen.append(np.array(xs))
            return np.full(len(xs), -1.0)

        monkeypatch.setattr(dmap.surrogate, "predict_mean_many", waits)
        locs = np.array([[0.0, 1.0], [3.0, 1.0], [400.0, 1.0], [3.0, 0.5], [0.0, 0.5]])
        scores = dmap.score_locations(locs)
        assert scores[:3].tolist() == [case_costs.c_delay] * 3
        assert scores[3] == -1.0 - 0.5 * case_costs.c_fa
        assert scores[4] == extinct_margin(0.5, case_params, case_costs)
        assert len(seen) == 1  # only the off-line row below P = 1 asks the surrogate
        np.testing.assert_array_equal(seen[0], surrogate_inputs(locs[[3]]))
        assert dmap.announce(ReducedState(1990, 3, 1.0))

    def test_build_map_scores_only_off_line_candidates(self, small_lp_map, case_params,
                                                       case_costs, monkeypatch):
        dmap, cfg = small_lp_map
        seen = []
        predict_many = LoessModel.predict_many

        def spy(model, xs):
            seen.append(np.array(xs))
            return predict_many(model, xs)

        monkeypatch.setattr(LoessModel, "predict_many", spy)
        again = build_map(1, [], cfg, case_params, case_costs, ModelVariant.LP2D)
        assert again.to_dict() == dmap.to_dict()
        box = default_box(case_params, ModelVariant.LP2D)
        root = RngStream(cfg.master_seed)
        assert len(seen) == len(dmap.build_info["rounds"])
        for rnd, rows in enumerate(seen, start=1):
            cands = draw_design(box, cfg.d_candidates,
                                root.derive(1, solver.LABEL_DESIGN, rnd),
                                case_params, ModelVariant.LP2D)
            np.testing.assert_array_equal(rows, surrogate_inputs(cands[cands[:, 0] != 0.0]))

    def test_all_extinct_candidate_round_takes_uniform_fallback(self, case_costs):
        # Pool 1 of 5 puts a lone candidate on I1 = 0 in some rounds: no
        # candidate has a sign error, so the round draws uniformly
        params = EpidemicParams(0.75, 0.5, 0.01, (5, 5), sigma_delta=0.01)
        cfg = SrmcConfig(master_seed=7, n0=3, n_batch=1, n_end=5, d_candidates=1, t_max=2)
        seq = solve(cfg, params, case_costs, ModelVariant.LP2D)
        assert seq.iterations == 2
        box = default_box(params, ModelVariant.LP2D)
        root = RngStream(cfg.master_seed)
        extinct = []
        for t, dmap in enumerate(seq.maps, start=1):
            for rnd in dmap.build_info["rounds"]:
                cands = draw_design(box, 1, root.derive(t, solver.LABEL_DESIGN, rnd["round"]),
                                    params, ModelVariant.LP2D)
                if cands[0, 0] == 0.0:
                    extinct.append(rnd["uniform_fallback"])
        assert extinct and all(extinct)

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    def test_trace_matches_line_by_line_bisection(self, variant, small_lp_map,
                                                  small_full_map):
        dmap = small_lp_map[0] if variant == "lp2d" else small_full_map
        lines = np.unique(audit_grid(dmap.domain, dmap.variant)[:, -2])[:, None]
        if variant == "full3d":  # one S1 per line, as `solve` traces them
            lines = np.column_stack([np.minimum(1990.0, 2000.0 - lines), lines])
        p_lo, p_hi = dmap.domain.lower[-1], dmap.domain.upper[-1]
        expected = [line_by_line_boundary(dmap, line, p_lo, p_hi) for line in lines.tolist()]
        np.testing.assert_array_equal(boundary_trace(dmap, lines), expected)
        for j in (0, 7):
            assert boundary_in_p(dmap, lines[j]) == expected[j]

    def test_trace_early_returns(self, small_lp_map):
        dmap = CrossingMap(small_lp_map[0].domain)
        i_axis = np.array([0.0, 20.0, 50.0, 80.0, 150.0, 160.0])
        expected = [line_by_line_boundary(dmap, [i1], 0.0, 0.999) for i1 in i_axis]
        trace = boundary_trace(dmap, i_axis[:, None])
        np.testing.assert_array_equal(trace, expected)
        assert trace[0] == trace[1] == 0.0       # announces on the whole line
        assert np.isnan(trace[-2]) and np.isnan(trace[-1])  # waits up to p_hi
        assert trace[3] == pytest.approx(0.3, abs=1e-3)
