"""End-to-end acceptance suite.

Each test prints a single pass/fail line so a scan of the output gives the
verdict per criterion. Numeric tolerances and trial counts are fixed here;
do not loosen them to make a failing criterion pass.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from vaxalloc.epi import CompartmentState, EpiParams, step, step_vaccinated
from vaxalloc.harness import export, gains, run
from vaxalloc.net import FlowMatrix, build_network, synth_world
from vaxalloc.policy import (AllocationProblem, PolicyState, loss_coefficients,
                             observe_and_update, solve_knapsack, ts_sample)
from vaxalloc.scenario import ScenarioConfig
from vaxalloc.sharing import redistribute

from oracles import direct_objective, grid_knapsack_optimum, own_inflow


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def world_config(**kwargs):
    base = dict(n_nodes=200, n_agents=5, epsilon=0.2, horizon=104)
    base.update(kwargs)
    return ScenarioConfig(**base)


def test_criterion_1_budget_balance():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(1000):
        k = int(rng.integers(2, 21))
        b = rng.uniform(0, 1000, k)
        r = rng.uniform(0, 1, k)
        if trial % 10 == 0:
            flows = np.zeros((k, k))  # degenerate: every offer retained
        else:
            flows = rng.uniform(0, 1, (k, k)) * (rng.random((k, k)) < 0.4)
            np.fill_diagonal(flows, 0.0)
        caps = rng.uniform(0.005, 1.0, k)
        out = redistribute(b, r, flows, caps)
        worst = max(worst, abs(out.sum() - b.sum()) / max(b.sum(), 1e-300))
    _report(1, "budget balance", worst <= 1e-9,
            f"max relative imbalance {worst:.3e} over 1000 trials")


def test_criterion_2_knapsack_oracle():
    rng = np.random.default_rng(202)
    step_sz = 0.01
    worst_gap = 0.0
    never_worse = True
    for _ in range(500):
        n = int(rng.integers(1, 7))
        costs = rng.integers(1, 9, n).astype(float)
        bounds = rng.integers(0, 101, n) * step_sz
        losses = rng.uniform(-5, 2, n)
        budget = float(rng.uniform(0.0, 0.9 * (costs * bounds).sum() + 1.0))
        out = solve_knapsack(AllocationProblem(losses=losses, costs=costs,
                                               budget=budget, bounds=bounds))
        obj = float(losses @ out)
        opt = grid_knapsack_optimum(losses, costs, budget, bounds, step_sz)
        never_worse &= obj <= opt + 1e-12
        gap = (opt - obj) / max(step_sz * np.abs(losses).max(), 1e-300)
        worst_gap = max(worst_gap, gap)
    ok = never_worse and worst_gap <= 1.0 + 1e-9
    _report(2, "knapsack vs grid oracle", ok,
            f"never worse: {never_worse}, worst gap {worst_gap:.3f} grid steps")


def test_criterion_3_objective_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 21))
        dense = rng.uniform(0, 150, (n, n)) * (rng.random((n, n)) < 0.5)
        np.fill_diagonal(dense, 0.0)
        net = FlowMatrix(sp.csr_matrix(dense), np.zeros(n, int), np.zeros((1, 1)),
                         rng.uniform(500, 5000, n))
        s = rng.uniform(0.4, 0.95, n)
        i = rng.uniform(0.0, 0.05, n)
        state = CompartmentState(s=s, i=i, r=1.0 - s - i, d=np.zeros(n), t=0)
        params = EpiParams(beta=rng.uniform(0.2, 0.5, n),
                           gamma=rng.uniform(0.1, 0.2, n), cfr=np.full(n, 0.01))
        agent_nodes = np.flatnonzero(rng.random(n) < 0.5)
        if agent_nodes.size == 0:
            agent_nodes = np.array([0])
        theta = rng.uniform(0.2, 0.95, n)
        l = loss_coefficients(state, params, net, agent_nodes, theta,
                              own_inflow(net, [agent_nodes]))
        p_dense = net.rates.toarray()
        const = direct_objective(s, i, params.beta, net.rho, p_dense,
                                 agent_nodes, theta, np.zeros(n))
        for _ in range(100):
            x = np.zeros(n)
            x[agent_nodes] = rng.uniform(0, 1, agent_nodes.size)
            direct = direct_objective(s, i, params.beta, net.rho, p_dense,
                                      agent_nodes, theta, x)
            linear = float(l @ x[agent_nodes])
            rel = abs((direct - const) - linear) / max(abs(direct - const), 1e-300)
            worst = max(worst, rel)
    _report(3, "loss coefficients vs direct objective", worst <= 1e-9,
            f"max relative deviation {worst:.3e} over 200 states x 100 x")


def test_criterion_4_closure_and_reduction():
    nodes, airports, table = synth_world(200, 5, seed=404)
    net = build_network(nodes, airports, table, D=100, alpha=0.11, planar=True)
    n = net.n
    params = EpiParams(beta=np.full(n, 0.4), gamma=np.full(n, 0.15),
                       cfr=np.full(n, 0.01))
    i0 = np.full(n, 0.001)
    state = CompartmentState(s=1.0 - i0, i=i0, r=np.zeros(n), d=np.zeros(n), t=0)
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(104):
        x = rng.uniform(0, 0.1, n)
        theta = rng.uniform(0.4, 0.9, n)
        state = step_vaccinated(state, params, net, x, theta)
        worst = max(worst, float(np.abs(state.s + state.i + state.r
                                        + state.d - 1.0).max()))
    closure_ok = worst <= 1e-12

    st = CompartmentState(s=1.0 - i0, i=i0, r=np.zeros(n), d=np.zeros(n), t=0)
    a = step(st, params, net)
    b = step_vaccinated(st, params, net, np.zeros(n), np.zeros(n))
    bitwise = (np.array_equal(a.s, b.s) and np.array_equal(a.i, b.i)
               and np.array_equal(a.r, b.r) and np.array_equal(a.d, b.d))
    _report(4, "compartment closure and zero-allocation reduction",
            closure_ok and bitwise,
            f"max closure error {worst:.3e}, bitwise reduction: {bitwise}")


def test_criterion_5_ts_learning():
    theta = np.array([0.9, 0.5])
    rates = []
    for seed in range(50):
        pol = PolicyState(n=2, horizon=500, window=np.ones(2, dtype=int))
        rng = np.random.default_rng(5000 + seed)
        hits = 0
        for t in range(1, 501):
            th = ts_sample(pol.a, pol.b, rng)
            prob = AllocationProblem(losses=-th, costs=[1.0, 1.0], budget=1.0,
                                     bounds=[1.0, 1.0])
            x = solve_knapsack(prob)
            observe_and_update(pol, x, theta, rng)
            if 400 <= t <= 500 and x[0] > 0.5:
                hits += 1
        rates.append(hits / 101)
    mean_rate = float(np.mean(rates))
    _report(5, "sampling converges to the best node", mean_rate >= 0.9,
            f"best-node selection rate {mean_rate:.3f} over periods 400-500, "
            f"50 seeds")


def test_criterion_6_policy_ordering():
    ts_le_gy = 0
    ts_cum, pb_cum = [], []
    gains_pos = True
    for seed in range(20):
        cfg = world_config(seed=seed)
        ts = run(cfg)
        gy = run(cfg.replace(policy="gy"))
        pb = run(cfg.replace(policy="pb"))
        ts_s = ts.global_totals[1:, 0].sum()
        ts_cum.append(ts_s)
        pb_cum.append(pb.global_totals[1:, 0].sum())
        ts_le_gy += ts_s <= gy.global_totals[1:, 0].sum()
        gains_pos &= gains(ts, pb).world_cumulative_pct > 0
    mean_ts, mean_pb = float(np.mean(ts_cum)), float(np.mean(pb_cum))
    ok = mean_ts < mean_pb and gains_pos and ts_le_gy >= 12
    _report(6, "policy ordering", ok,
            f"mean cumulative S ts {mean_ts:.4g} < pb {mean_pb:.4g}: "
            f"{mean_ts < mean_pb}, positive gain all seeds: {gains_pos}, "
            f"ts<=gy in {ts_le_gy}/20 seeds (need >=12)")


def test_criterion_7_sharing_benefit():
    wins = 0
    for seed in range(20):
        cfg = ScenarioConfig(n_nodes=100, n_agents=2, epsilon=0.2, horizon=104,
                             seed=seed, capacities=[0.004, 0.06],
                             ground_range_km=300.0)
        deaths_off = run(cfg).global_totals[-1, 3]
        deaths_on = run(cfg.replace(sharing=True)).global_totals[-1, 3]
        wins += deaths_on < deaths_off
    _report(7, "sharing reduces deaths", wins >= 15,
            f"sharing lowered final deaths in {wins}/20 paired seeds "
            f"(need >=15)")


def test_criterion_8_budget_monotonicity():
    final_s = {m: [] for m in (1, 2, 3)}
    final_d = {m: [] for m in (1, 2, 3)}
    for seed in range(20):
        for m in (1, 2, 3):
            res = run(world_config(seed=seed, budget_multiplier=float(m)))
            final_s[m].append(res.global_totals[-1, 0])
            final_d[m].append(res.global_totals[-1, 3])
    s = [float(np.mean(final_s[m])) for m in (1, 2, 3)]
    d = [float(np.mean(final_d[m])) for m in (1, 2, 3)]
    ok = s[0] >= s[1] >= s[2] and d[0] >= d[1] >= d[2]
    _report(8, "budget monotonicity", ok,
            f"mean final S {s[0]:.4g} >= {s[1]:.4g} >= {s[2]:.4g}, "
            f"mean final D {d[0]:.4g} >= {d[1]:.4g} >= {d[2]:.4g}")


def test_criterion_9_deterministic_exports(tmp_path):
    cfg = world_config(seed=3)
    export(run(cfg), tmp_path / "a")
    export(run(cfg), tmp_path / "b")
    mismatched = [fa.name for fa in sorted((tmp_path / "a").iterdir())
                  if fa.read_bytes() != (tmp_path / "b" / fa.name).read_bytes()]
    _report(9, "byte-identical exports", not mismatched,
            f"mismatched files: {mismatched or 'none'}")
