"""Simulation orchestration: the per-period policy/epidemic/sharing loop,
gain metrics against the population baseline, replication, and run export."""

from __future__ import annotations

import csv
import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import policy as polmod
from . import scenario as scmod
from . import sharing as shmod
from .epi import CompartmentState, step_vaccinated
from .policy import (Allocation, AllocationProblem, PolicyState,
                     loss_coefficients, own_inflow, pb_allocate,
                     solve_knapsack, update_bounds, window_width)
from .scenario import (Instance, ScenarioConfig, build_instance,
                       draw_realized_rates, stream)

_SCHEMA = 1


@dataclass
class RunResult:
    """Everything observable from one simulated horizon.

    Totals are in persons (population-weighted proportions); row t=0 of the
    totals arrays is the initial state. ``wall_clock`` is in-memory metadata
    only and is never exported, so exports stay seed-deterministic.
    """

    config: dict
    populations: np.ndarray
    agent_of: np.ndarray
    global_totals: np.ndarray       # (T+1, 4) S,I,R,D persons
    agent_totals: np.ndarray        # (T+1, K, 4)
    budgets: np.ndarray             # (T, K) configured
    budgets_effective: np.ndarray   # (T, K) after sharing
    allocations: np.ndarray         # (T, n)
    theta_hat: np.ndarray           # (T, n)
    theta_obs: np.ndarray           # (T, n), recorded where allocated
    bounds: np.ndarray              # (T, n)
    sharing_ratios: np.ndarray      # (T, K)
    priors_a: np.ndarray
    priors_b: np.ndarray
    wall_clock: float = 0.0

    @property
    def horizon(self) -> int:
        return self.allocations.shape[0]

    @property
    def n_agents(self) -> int:
        return self.agent_totals.shape[1]

    def equals(self, other: "RunResult") -> bool:
        """Exact equality of all exported content (wall clock ignored)."""
        if self.config != other.config:
            return False
        arrays = ("populations", "agent_of", "global_totals", "agent_totals",
                  "budgets", "budgets_effective", "allocations", "theta_hat",
                  "theta_obs", "bounds", "sharing_ratios", "priors_a", "priors_b")
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in arrays)


@dataclass
class GainReport:
    """Relative susceptible-mass reduction vs. a baseline run, in percent.
    Regions are agents; the world aggregate is kept separate."""

    cumulative_pct: np.ndarray    # per agent
    last_period_pct: np.ndarray   # per agent
    world_cumulative_pct: float
    world_last_period_pct: float


def _totals(state: CompartmentState, populations: np.ndarray,
            agent_of: np.ndarray, n_agents: int) -> tuple[np.ndarray, np.ndarray]:
    comps = np.stack([state.s, state.i, state.r, state.d], axis=1)
    weighted = comps * populations[:, None]
    glob = weighted.sum(axis=0)
    per_agent = np.zeros((n_agents, 4))
    np.add.at(per_agent, agent_of, weighted)
    return glob, per_agent


def run_instance(inst: Instance) -> RunResult:
    """Run the full horizon for one instance.

    Period ordering: effective budgets (carried over from the previous
    period in sharing mode), per-agent estimate + knapsack solve with
    windowed bounds, epidemic step with realized efficiencies, next-period
    sharing quantities from the stepped state, then Bernoulli prior updates.
    What the loop reads of the network's agent structure is static and is
    built once here: each node's own-agent inflow for the knapsack policies,
    and the agent coupling of the rate matrix when sharing is on.
    """
    t_start = time.perf_counter()
    cfg = inst.config
    net = inst.network
    n = net.n
    k = cfg.n_agents
    horizon = cfg.horizon
    pol_name = cfg.policy
    agent_nodes = [np.flatnonzero(inst.agent_of == a) for a in range(k)]
    knapsack = pol_name in ("ts", "gy", "ma")
    inflow = own_inflow(net, agent_nodes) if knapsack else None
    coupling = shmod.agent_coupling(net, inst.agent_of, k) if cfg.sharing else None

    pol = PolicyState(n=n, horizon=horizon,
                      window=window_width(inst.populations, net, horizon))
    b_conf = inst.base_budgets
    b_eff = b_conf.copy()

    global_totals = np.zeros((horizon + 1, 4))
    agent_totals = np.zeros((horizon + 1, k, 4))
    budgets_tr = np.zeros((horizon, k))
    budgets_eff_tr = np.zeros((horizon, k))
    alloc_tr = np.zeros((horizon, n))
    theta_hat_tr = np.zeros((horizon, n))
    theta_obs_tr = np.zeros((horizon, n))
    bounds_tr = np.zeros((horizon, n))
    ratios_tr = np.zeros((horizon, k))

    state = inst.initial
    global_totals[0], agent_totals[0] = _totals(state, inst.populations,
                                                inst.agent_of, k)

    for t in range(1, horizon + 1):
        row = t - 1
        budgets_tr[row] = b_conf
        budgets_eff_tr[row] = b_eff

        bounds = update_bounds(pol, t)
        bounds_tr[row] = bounds
        x = np.zeros(n)

        if pol_name == "ts":
            theta_hat = polmod.ts_sample(pol.a, pol.b,
                                         stream(cfg.seed, scmod.STREAM_TS, t))
        elif pol_name == "gy":
            theta_hat = polmod.gy_estimate(pol.a, pol.b)
        elif pol_name == "ma":
            theta_hat = polmod.ma_estimate(pol.obs_sum, pol.obs_count)
        else:
            theta_hat = np.zeros(n)
        theta_hat_tr[row] = theta_hat

        if knapsack:
            for a in range(k):
                idx = agent_nodes[a]
                losses = loss_coefficients(state, inst.params, net, idx, theta_hat,
                                           inflow)
                prob = AllocationProblem(losses=losses, costs=inst.costs[idx],
                                         budget=float(b_eff[a]), bounds=bounds[idx])
                x[idx] = solve_knapsack(prob).x
        elif pol_name == "pb":
            for a in range(k):
                idx = agent_nodes[a]
                x[idx] = pb_allocate(inst.costs[idx], float(b_eff[a]),
                                     bounds[idx]).x

        theta_t = draw_realized_rates(inst.efficiency.mean_rates,
                                      inst.efficiency.epsilon,
                                      stream(cfg.seed, scmod.STREAM_REALIZED, t))
        new_state = step_vaccinated(state, inst.params, net, x, theta_t)

        if cfg.sharing:
            plan = shmod.plan_sharing(new_state, inst.params, coupling, b_conf,
                                      inst.capacities)
            ratios_tr[row] = plan.ratios
            b_eff = plan.budgets_out

        polmod.observe_and_update(pol, x, theta_t,
                                  stream(cfg.seed, scmod.STREAM_TRIALS, t))

        pol.record_allocation(t, x)
        alloc_tr[row] = x
        theta_obs_tr[row] = np.where(x > 0, theta_t, 0.0)
        global_totals[t], agent_totals[t] = _totals(new_state, inst.populations,
                                                    inst.agent_of, k)
        state = new_state

    return RunResult(
        config=cfg.to_dict(), populations=inst.populations.copy(),
        agent_of=inst.agent_of.copy(), global_totals=global_totals,
        agent_totals=agent_totals, budgets=budgets_tr,
        budgets_effective=budgets_eff_tr, allocations=alloc_tr,
        theta_hat=theta_hat_tr, theta_obs=theta_obs_tr, bounds=bounds_tr,
        sharing_ratios=ratios_tr, priors_a=pol.a.copy(), priors_b=pol.b.copy(),
        wall_clock=time.perf_counter() - t_start)


def run(config: ScenarioConfig) -> RunResult:
    return run_instance(build_instance(config))


def gains(result: RunResult, baseline: RunResult) -> GainReport:
    """Gain of a policy run vs. its paired baseline, from susceptible-mass
    sums over periods 1..T (cumulative) and the final period."""
    own = dict(result.config)
    base = dict(baseline.config)
    own.pop("policy")
    base.pop("policy")
    if own != base:
        raise ValueError("runs differ beyond the policy; gains are undefined")

    def _pct(policy_sum, baseline_sum):
        policy_sum = np.asarray(policy_sum, dtype=float)
        baseline_sum = np.asarray(baseline_sum, dtype=float)
        out = np.zeros_like(baseline_sum)
        pos = baseline_sum != 0
        out[pos] = 100.0 * (1.0 - policy_sum[pos] / baseline_sum[pos])
        return out

    s_pol = result.agent_totals[1:, :, 0]
    s_base = baseline.agent_totals[1:, :, 0]
    cum = _pct(s_pol.sum(axis=0), s_base.sum(axis=0))
    last = _pct(s_pol[-1], s_base[-1])
    g_pol = result.global_totals[1:, 0]
    g_base = baseline.global_totals[1:, 0]
    world_cum = float(_pct(np.array([g_pol.sum()]), np.array([g_base.sum()]))[0])
    world_last = float(_pct(np.array([g_pol[-1]]), np.array([g_base[-1]]))[0])
    return GainReport(cumulative_pct=cum, last_period_pct=last,
                      world_cumulative_pct=world_cum,
                      world_last_period_pct=world_last)


def replicate(config: ScenarioConfig, n: int, seeds=None) -> dict:
    """Run n independently seeded instances and aggregate.

    When the configured policy is not PB, a paired PB run is executed per
    seed on the same instance, built once, so gains isolate the policy.
    """
    if n < 1:
        raise ValueError("replication count must be >= 1")
    if seeds is None:
        seeds = [config.seed + i for i in range(n)]
    seeds = list(seeds)
    if len(seeds) != n:
        raise ValueError("need one seed per replication")

    finals = []
    gains_world = []
    per_seed = []
    for sd in seeds:
        cfg = config.replace(seed=int(sd))
        inst = build_instance(cfg)
        res = run_instance(inst)
        entry = {"seed": int(sd),
                 "final_totals": res.global_totals[-1].tolist()}
        if config.policy not in ("pb", "none"):
            # build_instance never reads the policy
            base = run_instance(dataclasses.replace(
                inst, config=cfg.replace(policy="pb")))
            rep = gains(res, base)
            entry["world_cumulative_gain_pct"] = rep.world_cumulative_pct
            entry["world_last_period_gain_pct"] = rep.world_last_period_pct
            gains_world.append(rep.world_cumulative_pct)
        finals.append(res.global_totals[-1])
        per_seed.append(entry)

    finals = np.array(finals)
    out = {
        "policy": config.policy,
        "n": n,
        "seeds": [int(s) for s in seeds],
        "final_totals_mean": finals.mean(axis=0).tolist(),
        "final_totals_std": finals.std(axis=0).tolist(),
        "runs": per_seed,
    }
    if gains_world:
        out["world_cumulative_gain_pct_mean"] = float(np.mean(gains_world))
        out["world_cumulative_gain_pct_std"] = float(np.std(gains_world))
    return out


# ---------------------------------------------------------------------------
# export / import

def _write_matrix_csv(path, header, t_index, matrix):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for ti, row in zip(t_index, matrix):
            w.writerow([ti] + [repr(float(v)) for v in row])


def export(result: RunResult, directory, overwrite: bool = False) -> None:
    """Write the run to a directory of delimited tables plus a manifest.

    Refuses to touch a non-empty directory unless ``overwrite`` is set.
    """
    directory = Path(directory)
    if directory.exists() and any(directory.iterdir()) and not overwrite:
        raise FileExistsError(
            f"{directory}: directory not empty; pass overwrite to replace")
    directory.mkdir(parents=True, exist_ok=True)

    manifest = {"schema": _SCHEMA, "config": result.config}
    with open(directory / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    horizon = result.horizon
    k = result.n_agents
    n = result.populations.shape[0]

    with open(directory / "nodes.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "population", "agent_id"])
        for i in range(n):
            w.writerow([i, repr(float(result.populations[i])),
                        int(result.agent_of[i])])

    _write_matrix_csv(directory / "global.csv", ["t", "S", "I", "R", "D"],
                      range(horizon + 1), result.global_totals)

    with open(directory / "agents.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent_id", "S", "I", "R", "D", "budget",
                    "budget_effective"])
        for t in range(horizon + 1):
            for a in range(k):
                budget = repr(float(result.budgets[t - 1, a])) if t >= 1 else ""
                beff = repr(float(result.budgets_effective[t - 1, a])) if t >= 1 else ""
                w.writerow([t, a] + [repr(float(v)) for v in result.agent_totals[t, a]]
                           + [budget, beff])

    with open(directory / "allocations.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent_id", "node_id", "x", "theta_hat", "theta_obs",
                    "bound"])
        for t in range(1, horizon + 1):
            row = t - 1
            for i in range(n):
                w.writerow([t, int(result.agent_of[i]), i,
                            repr(float(result.allocations[row, i])),
                            repr(float(result.theta_hat[row, i])),
                            repr(float(result.theta_obs[row, i])),
                            repr(float(result.bounds[row, i]))])

    with open(directory / "sharing.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "agent_id", "ratio", "budget_in", "budget_out",
                    "budget_effective"])
        for t in range(1, horizon + 1):
            row = t - 1
            for a in range(k):
                ratio = float(result.sharing_ratios[row, a])
                b_in = float(result.budgets[row, a])
                w.writerow([t, a, repr(ratio), repr(b_in),
                            repr(b_in * ratio),
                            repr(float(result.budgets_effective[row, a]))])

    with open(directory / "priors.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "a", "b"])
        for i in range(n):
            w.writerow([i, int(result.priors_a[i]), int(result.priors_b[i])])


def import_result(directory) -> RunResult:
    """Rebuild a RunResult from an exported directory."""
    directory = Path(directory)
    with open(directory / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = manifest["config"]
    horizon = int(config["horizon"])
    k = int(config["n_agents"])

    with open(directory / "nodes.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    n = len(rows)
    populations = np.array([float(r["population"]) for r in rows])
    agent_of = np.array([int(r["agent_id"]) for r in rows], dtype=int)

    global_totals = np.zeros((horizon + 1, 4))
    with open(directory / "global.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            t = int(r["t"])
            global_totals[t] = [float(r[c]) for c in ("S", "I", "R", "D")]

    agent_totals = np.zeros((horizon + 1, k, 4))
    budgets = np.zeros((horizon, k))
    budgets_eff = np.zeros((horizon, k))
    with open(directory / "agents.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            t, a = int(r["t"]), int(r["agent_id"])
            agent_totals[t, a] = [float(r[c]) for c in ("S", "I", "R", "D")]
            if t >= 1:
                budgets[t - 1, a] = float(r["budget"])
                budgets_eff[t - 1, a] = float(r["budget_effective"])

    allocations = np.zeros((horizon, n))
    theta_hat = np.zeros((horizon, n))
    theta_obs = np.zeros((horizon, n))
    bounds = np.zeros((horizon, n))
    with open(directory / "allocations.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            t, i = int(r["t"]) - 1, int(r["node_id"])
            allocations[t, i] = float(r["x"])
            theta_hat[t, i] = float(r["theta_hat"])
            theta_obs[t, i] = float(r["theta_obs"])
            bounds[t, i] = float(r["bound"])

    ratios = np.zeros((horizon, k))
    with open(directory / "sharing.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            ratios[int(r["t"]) - 1, int(r["agent_id"])] = float(r["ratio"])

    priors_a = np.zeros(n, dtype=np.int64)
    priors_b = np.zeros(n, dtype=np.int64)
    with open(directory / "priors.csv", newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            priors_a[int(r["node_id"])] = int(r["a"])
            priors_b[int(r["node_id"])] = int(r["b"])

    return RunResult(
        config=config, populations=populations, agent_of=agent_of,
        global_totals=global_totals, agent_totals=agent_totals,
        budgets=budgets, budgets_effective=budgets_eff, allocations=allocations,
        theta_hat=theta_hat, theta_obs=theta_obs, bounds=bounds,
        sharing_ratios=ratios, priors_a=priors_a, priors_b=priors_b)


def export_gains(report: GainReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["region", "cumulative_gain_pct", "last_period_gain_pct"])
        w.writerow(["world", repr(report.world_cumulative_pct),
                    repr(report.world_last_period_pct)])
        for a in range(report.cumulative_pct.shape[0]):
            w.writerow([a, repr(float(report.cumulative_pct[a])),
                        repr(float(report.last_period_pct[a]))])
