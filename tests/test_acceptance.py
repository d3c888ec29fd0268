"""Acceptance suite: case-study reproduction at desk scale.

Each test prints one `[PASS]`/`[FAIL]` line per checked bound (run with
`pytest -s` to watch them live) and fails if any bound is violated. The
heavyweight solves are shared through session fixtures; the full module
takes a few minutes on a commodity machine.

Everything is pinned to fixed master seeds, so reruns are bit-identical.
"""
import numpy as np
import pytest

from epidetect import (
    CostParams,
    EpidemicParams,
    MapPolicy,
    ModelVariant,
    ReducedState,
    RngStream,
    SrmcConfig,
    ThresholdP,
    evaluate_on,
    paired_compare,
    simulate_paths,
    solve,
)
from epidetect.costs import immediate_cost, pathwise_cost
from epidetect.design import StateBox, acquisition_weight, lhs
from epidetect.loess import LoessConfig, fit
from epidetect.sir import simulate_interval
from epidetect.solver import build_map, path_and_cost, trace_distance
from epidetect.strategy import ThresholdT

from .forking import forked_spans
from .sir_oracle import transition_rates
from .test_loess import dense_wls_oracle, equivalent_kernel
from .test_solver import boundary_in_p

pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 2026
CASE_PARAMS = EpidemicParams(
    beta=0.75, gamma=0.5, alpha=0.01, pool_sizes=(2000, 2000), sigma_delta=0.01
)
X0 = ReducedState(1990, 10, 0.1)
N_PATHS = 1000
HORIZON = 50

CASE_SRMC = dict(
    master_seed=ACCEPT_SEED, n0=200, n_batch=200, n_end=2000, d_candidates=2500,
    t_max=20, mpc_switch=5, tol=0.0,
)


class Checker:
    """Collects bound checks, prints one line each, asserts at the end."""

    def __init__(self, criterion: str):
        self.criterion = criterion
        self.failures: list[str] = []

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {self.criterion}: {label}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            self.failures.append(line)

    def within(self, label: str, value: float, target: float, tol: float) -> None:
        self.check(
            label,
            abs(value - target) <= tol,
            f"got {value:.4g}, need {target:.4g} +- {tol:.4g}",
        )

    def finish(self) -> None:
        assert not self.failures, "\n".join(self.failures)


def _solve_full3d(c_fa: float):
    costs = CostParams(c_fa=c_fa, c_delay=1.0)
    seq = solve(SrmcConfig(**CASE_SRMC), CASE_PARAMS, costs, ModelVariant.FULL3D)
    return seq, costs


@pytest.fixture(scope="session")
def frozen_paths():
    return simulate_paths(
        X0, N_PATHS, HORIZON, CASE_PARAMS, ModelVariant.FULL3D,
        RngStream(ACCEPT_SEED).derive(0, 0),
    )


@pytest.fixture(scope="session")
def solved_cfa20():
    return _solve_full3d(20.0)


@pytest.fixture(scope="session")
def solved_cfa10():
    return _solve_full3d(10.0)


@pytest.fixture(scope="session")
def solved_cfa30():
    return _solve_full3d(30.0)


@pytest.fixture(scope="session")
def solved_lp2d():
    costs = CostParams(c_fa=20.0, c_delay=1.0)
    seq = solve(SrmcConfig(**CASE_SRMC), CASE_PARAMS, costs, ModelVariant.LP2D)
    return seq, costs


@pytest.fixture(scope="session")
def table2_reports(solved_cfa20, frozen_paths):
    seq, costs = solved_cfa20
    optimal = evaluate_on(MapPolicy(seq.final(), label="optimal"), frozen_paths, costs)
    thr_p = evaluate_on(ThresholdP(0.8), frozen_paths, costs)
    thr_t = evaluate_on(ThresholdT(8), frozen_paths, costs)
    return optimal, thr_p, thr_t


def test_criterion_1_table2_reproduction(table2_reports):
    """Strategy comparison on 1000 frozen paths from (1990, 10, 0.1)."""
    optimal, thr_p, thr_t = table2_reports
    c = Checker("criterion-1 (strategy comparison)")
    c.within("optimal mean cost", optimal.mean_cost, 6.53, 0.25)
    c.within("optimal mean tau", optimal.mean_tau, 8.86, 0.45)
    c.within("optimal PFA (pp)", 100 * optimal.pfa, 8.2, 2.5)
    c.within("threshold-P(0.8) mean cost", thr_p.mean_cost, 7.03, 0.25)
    c.within("threshold-P(0.8) PFA (pp)", 100 * thr_p.pfa, 15.3, 3.0)
    c.within("threshold-t(8) mean cost", thr_t.mean_cost, 7.18, 0.3)
    c.check("threshold-t(8) sd(tau) exactly 0", thr_t.sd_tau == 0.0,
            f"got {thr_t.sd_tau}")
    c.check(
        "strict cost ordering optimal < threshold-P < threshold-t",
        optimal.mean_cost < thr_p.mean_cost < thr_t.mean_cost,
        f"{optimal.mean_cost:.3f} vs {thr_p.mean_cost:.3f} vs {thr_t.mean_cost:.3f}",
    )
    c.finish()


def test_criterion_2_table3_sensitivity(solved_cfa10, solved_cfa20, solved_cfa30,
                                         frozen_paths):
    """False-alarm penalty sweep: detection gets later, false alarms rarer."""
    taus, pfas = {}, {}
    for c_fa, solved in ((10, solved_cfa10), (20, solved_cfa20), (30, solved_cfa30)):
        seq, costs = solved
        report = evaluate_on(
            MapPolicy(seq.final(), label=f"optimal_cfa{c_fa}"), frozen_paths, costs
        )
        taus[c_fa] = report.mean_tau
        pfas[c_fa] = 100 * report.pfa
    c = Checker("criterion-2 (penalty sensitivity)")
    for c_fa, target in ((10, 6.84), (20, 8.87), (30, 9.61)):
        c.within(f"mean tau at C_FA={c_fa}", taus[c_fa], target, 0.5)
    for c_fa, target in ((10, 21.4), (20, 8.3), (30, 5.3)):
        c.within(f"PFA (pp) at C_FA={c_fa}", pfas[c_fa], target, 3.0)
    c.check("mean tau strictly increasing in C_FA",
            taus[10] < taus[20] < taus[30],
            f"{taus[10]:.2f} < {taus[20]:.2f} < {taus[30]:.2f}")
    c.check("PFA strictly decreasing in C_FA",
            pfas[10] > pfas[20] > pfas[30],
            f"{pfas[10]:.1f} > {pfas[20]:.1f} > {pfas[30]:.1f}")
    c.finish()


def test_criterion_3_one_step_analytic_boundary():
    """The t=1 boundary at I1=10 vs the root of p = (C_FA/C_Delay) ab I (1-p)."""
    costs = CostParams(c_fa=20.0, c_delay=1.0)
    cfg = SrmcConfig(master_seed=3, n0=200, n_batch=200, n_end=2000,
                     d_candidates=2500, t_max=1)
    dmap = build_map(1, [], cfg, CASE_PARAMS, costs, ModelVariant.LP2D)
    p_star = boundary_in_p(dmap, [10.0])
    c = Checker("criterion-3 (one-step analytic oracle)")
    c.check("t=1 boundary at I1=10 inside [0.55, 0.65]",
            0.55 <= p_star <= 0.65, f"got {p_star:.4f}, analytic root 0.6")
    c.finish()


def test_criterion_4_loess_oracle_equivalence():
    """Means and equivalent kernels vs an independent dense WLS computation
    on >= 20 datasets; the kernel rows are read off the fitted mean."""
    rng = np.random.default_rng(12345)
    c = Checker("criterion-4 (loess oracle)")
    worst_mean, worst_kernel, worst_sum = 0.0, 0.0, 0.0
    n_datasets = 24
    for _ in range(n_datasets):
        n = int(rng.integers(15, 51))
        d = int(rng.integers(1, 4))
        span = float(rng.uniform(0.35, 1.0))
        X = rng.uniform(0, 4, size=(n, d))
        y = X.sum(axis=1) + rng.normal(0, 0.5, n)
        model = fit(X, y, LoessConfig(span=span))
        Q = rng.uniform(0.4, 3.6, size=(4, d))
        means, _ = model.predict_many(Q)
        for xq, mean, kernel in zip(Q, means, equivalent_kernel(model, Q)):
            mean_o, l_o = dense_wls_oracle(X, y, xq, span, 1)
            worst_mean = max(worst_mean, abs(mean - mean_o))
            worst_kernel = max(worst_kernel, float(np.max(np.abs(kernel - l_o))))
            worst_sum = max(worst_sum, abs(kernel.sum() - 1.0))
    c.check(f"mean agreement to 1e-8 over {n_datasets} datasets",
            worst_mean <= 1e-8, f"worst {worst_mean:.2e}")
    c.check("equivalent kernel agreement to 1e-8",
            worst_kernel <= 1e-8, f"worst {worst_kernel:.2e}")
    c.check("kernel rows sum to 1 within 1e-10",
            worst_sum <= 1e-10, f"worst {worst_sum:.2e}")
    c.finish()


def test_criterion_5_boundary_convergence(solved_lp2d):
    """Stabilization of the fitted boundary across the last two iterations."""
    seq, _costs = solved_lp2d
    c = Checker("criterion-5 (boundary convergence)")
    c.check("solver ran 20 iterations", seq.iterations == 20,
            f"got {seq.iterations}")
    dist = trace_distance(seq.traces[18], seq.traces[19])
    c.check("sup |boundary(t=19) - boundary(t=20)| <= 0.05 in P",
            dist <= 0.05, f"got {dist:.4f}")
    c.finish()


def test_criterion_6_property_bundle(solved_lp2d):
    """Structural invariants bundled as one gate."""
    c = Checker("criterion-6 (property suites)")
    costs = CostParams(c_fa=20.0, c_delay=1.0)

    # SSA conservation + rate count along a simulated 2-pool path
    s, i = (1990, 2000), (10, 0)
    rng = RngStream(61)
    conserved, count_ok = True, True
    for _ in range(12):
        rates = transition_rates(s, i, CASE_PARAMS)
        count_ok &= len(rates) == 2 * 2 + 2 * 1
        s, i = simulate_interval(s, i, CASE_PARAMS, 1.0, rng)
        for sk, ik, m in zip(s, i, CASE_PARAMS.pool_sizes):
            conserved &= 0 <= sk and 0 <= ik
            conserved &= sk + ik <= m
    c.check("SSA conservation along trajectory", conserved)
    c.check("rate count is 2K + K(K-1)", count_ok)

    # P absorption and clamping
    absorbed, clamped = True, True
    paths = simulate_paths(ReducedState(1990, 10, 0.9), 40, 15, CASE_PARAMS,
                           ModelVariant.FULL3D, RngStream(62))
    for path in paths.p.tolist():
        hit = False
        for p in path:
            clamped &= 0.0 <= p <= 1.0
            if hit:
                absorbed &= p == 1.0
            hit = hit or p == 1.0
    c.check("P stays in [0,1] (clamping)", clamped)
    c.check("P = 1 is absorbing", absorbed)

    # LHS marginal-bin property (continuous coordinates)
    box = StateBox(lower=(0.0, 0.0), upper=(1.0, 1.0), integer=(False, False))
    pts = lhs(box, 64, RngStream(63))
    bins_ok = all(
        sorted(np.floor(pts[:, j] * 64).astype(int).tolist()) == list(range(64))
        for j in range(2)
    )
    c.check("LHS marginal-bin property", bins_ok)

    # acquisition symmetry w(p) = w(1-p) of the min weight
    ps = np.linspace(0, 1, 41)
    sym = np.allclose(acquisition_weight(ps), acquisition_weight(ps[::-1]), atol=1e-12)
    c.check("acquisition weights symmetric", sym)

    # tau in [1, t] for the path generator
    tau_ok = True
    root = RngStream(64)
    for n in range(30):
        t = 1 + n % 5
        never = [_AlwaysWait()] * (t - 1)
        tau, _ = path_and_cost(ReducedState(1990, 10, 0.2), t, never, CASE_PARAMS,
                               costs, ModelVariant.LP2D, root.derive(n))
        tau_ok &= 1 <= tau <= t
    c.check("tau within [1, t] in path generation", tau_ok)

    # stopping now reproduces the immediate cost
    gen = np.random.default_rng(65)
    stop_now_ok = all(
        pathwise_cost([[p]], [0], costs)[0] == immediate_cost(p, costs)
        for p in gen.random(100)
    )
    c.check("pathwise_cost(., 0, .) == immediate_cost", stop_now_ok)

    # bit-identical reruns under a fixed seed, serial and parallel
    cfg = SrmcConfig(master_seed=66, n0=64, n_batch=64, n_end=128,
                     d_candidates=150, t_max=2, tol=0.0)
    with forked_spans() as forks:
        runs = [
            solve(cfg, CASE_PARAMS, costs, ModelVariant.LP2D, workers=w)
            for w in (1, 1, 2)
        ]
    docs = [[m.to_dict() for m in run.maps] for run in runs]
    c.check("bit-identical rerun (serial)", docs[0] == docs[1])
    c.check("bit-identical rerun (2 workers)", docs[0] == docs[2])
    c.check("the 2-worker rerun forked", bool(forks))

    # fitted maps announce wherever the outbreak is certain
    seq, _ = solved_lp2d
    certain_ok = all(
        dmap.score_location(np.array([i1, 1.0])) > 0.0
        for dmap in seq.maps
        for i1 in (0.0, 100.0, 250.0, 400.0)
    )
    c.check("announce everywhere at P = 1 (every fitted map)", certain_ok)
    c.finish()


class _AlwaysWait:
    def location(self, s1, i1, p):
        return np.stack([s1, i1, p], axis=-1, dtype=float)

    def score_locations(self, locs):
        return np.full(len(locs), -1.0)


def test_criterion_7_paired_comparison(solved_cfa20, frozen_paths):
    """Optimal map beats threshold-P scenario-by-scenario."""
    seq, costs = solved_cfa20
    optimal = evaluate_on(MapPolicy(seq.final(), label="optimal"), frozen_paths, costs)
    thr_p = evaluate_on(ThresholdP(0.8), frozen_paths, costs)
    cmp = paired_compare(optimal, thr_p)
    c = Checker("criterion-7 (paired comparison)")
    c.check("optimal strictly cheaper on > 70% of frozen scenarios",
            cmp.frac_a_better > 0.70, f"got {100 * cmp.frac_a_better:.1f}%")
    c.finish()
