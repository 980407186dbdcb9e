"""Allocation policies: sampled losses, greedy knapsack, Beta-Bernoulli learning.

Four per-agent policies are supported. TS samples node efficiencies from Beta
posteriors, GY uses the posterior mean, MA uses the running mean of observed
efficiencies, and PB spreads budget proportionally to population. TS/GY/MA all
minimize the same one-period-ahead loss through the greedy fractional knapsack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .epi import CompartmentState, EpiParams
from .net import FlowMatrix

POLICIES = ("ts", "gy", "ma", "pb", "none")

# A knapsack take at or below DUST, or a remainder at or below DUST times
# the budget, is rounding left over from the spend: funding it would count a
# full Bernoulli trial for a node that was given nothing.
DUST = 1e-12


@dataclass
class PolicyState:
    """Per-node learning state shared across periods.

    ``alloc_csum[t]`` holds cumulative allocations through period t
    (1-indexed periods; row 0 is all zeros) so windowed bound sums are two
    lookups. ``obs_sum`` and ``obs_count`` accumulate the observed
    efficiencies of periods with a positive allocation, in period order.
    """

    n: int
    horizon: int
    window: np.ndarray  # per-node m_i
    a: np.ndarray = field(init=False)
    b: np.ndarray = field(init=False)
    obs_sum: np.ndarray = field(init=False)
    obs_count: np.ndarray = field(init=False)
    alloc_csum: np.ndarray = field(init=False)

    def __post_init__(self):
        self.window = np.asarray(self.window, dtype=int)
        if np.any(self.window < 1):
            raise ValueError("window widths must be >= 1")
        self.a = np.ones(self.n, dtype=np.int64)
        self.b = np.ones(self.n, dtype=np.int64)
        self.obs_sum = np.zeros(self.n)
        self.obs_count = np.zeros(self.n, dtype=np.int64)
        self.alloc_csum = np.zeros((self.horizon + 1, self.n))

    def record_allocation(self, t: int, x: np.ndarray) -> None:
        self.alloc_csum[t] = self.alloc_csum[t - 1] + x


def loss_coefficients(state: CompartmentState, params: EpiParams, net: FlowMatrix,
                      theta_hat: np.ndarray, inflow: np.ndarray) -> np.ndarray:
    """Coefficient of each node's allocation in its agent's one-period-ahead
    susceptible objective, assuming other agents allocate nothing.

    l_i = theta_i * S_i * (-(1 - beta_i I_i) + rho * sum_j p_ij
          - rho * sum over same-agent rows j with i in N_j of p_ji),
    where the last sum is ``inflow``: c[i, agent of i] for the run's
    ``sharing.AgentCoupling``.
    """
    th = np.asarray(theta_hat, dtype=float)
    return th * state.s * (-(1.0 - params.beta * state.i) + net.rho * net.rate_row_sum
                           - net.rho * inflow)


def _fill(x: np.ndarray, order: np.ndarray, caps: np.ndarray, costs: np.ndarray,
          budget: float, dust: float) -> None:
    """Greedy fill of ``x`` at the nodes ``order``, whose caps (each above
    ``dust``) and costs are given in that order: each takes as much of its
    cap as the budget left buys, a take at or below ``dust`` is skipped, and
    the fill ends once at most ``dust`` times the budget remains. The leading
    full takes are made at once by np.subtract.accumulate, which subtracts
    in the loop's order, so every remainder is the loop's bit for bit."""
    floor = dust * budget
    remains = np.subtract.accumulate(np.concatenate(([budget], caps * costs)))
    # a remainder over a tiny cost may overflow to inf: it buys the whole cap
    with np.errstate(over="ignore"):
        full = (remains[:-1] / costs >= caps) & (remains[1:] > floor)
        k = int(np.argmin(full)) if not full.all() else full.size
        x[order[:k]] += caps[:k]
        remaining = remains[k]
        for j in range(k, order.size):
            take = min(caps[j], remaining / costs[j])
            if take <= dust:
                continue
            x[order[j]] += take
            remaining -= take * costs[j]
            if remaining <= floor:
                break


def _fill_agents(x: np.ndarray, order: np.ndarray, agents: np.ndarray, caps: np.ndarray,
                 costs: np.ndarray, budgets: list, dust: float) -> None:
    """``_fill`` of each agent's segment of ``order``, sorted by agent, from its
    entry of the list ``budgets``; ``agents`` are the agents of ``order``'s
    nodes in any order, ``caps`` and ``costs`` are in ``order``'s order."""
    ends = np.cumsum(np.bincount(agents, minlength=len(budgets))).tolist()
    for budget, lo, hi in zip(budgets, [0] + ends, ends):
        if budget > 0 and hi > lo:
            _fill(x, order[lo:hi], caps[lo:hi], costs[lo:hi], budget, dust)


def solve_knapsack(losses: np.ndarray, costs: np.ndarray, budgets: np.ndarray,
                   bounds: np.ndarray, agent_of: np.ndarray) -> np.ndarray:
    """Greedy fractional knapsack of every agent a over its nodes
    ``agent_of == a`` with budget ``budgets[a]``: fund nodes by increasing
    loss-to-cost ratio (ties broken by ascending index) while the loss is
    negative and budget remains, each up to its bound; the last funded node
    gets the fractional remainder. Takes and remainders within ``DUST`` are
    not funded. One sort by (agent, ratio, index), then each agent's segment
    is filled from its own budget.

    ValueError unless costs > 0, budgets >= 0, 0 <= bounds <= 1 and every
    ``agent_of`` indexes ``budgets``; NaN fails each check."""
    l, c, budgets, ub = (np.asarray(v, dtype=float) for v in (losses, costs, budgets, bounds))
    agent_of = np.asarray(agent_of)
    # min and max carry a NaN through, so a comparison with it fails
    if not c.min(initial=np.inf) > 0:
        raise ValueError("costs must be positive")
    if not budgets.min(initial=0.0) >= 0:
        raise ValueError("budgets must be nonnegative")
    if not (ub.min(initial=0.0) >= 0 and ub.max(initial=0.0) <= 1):
        raise ValueError("bounds must be in [0, 1]")
    if not (agent_of.min(initial=0) >= 0 and agent_of.max(initial=-1) < budgets.size):
        raise ValueError(f"agent ids must index the {budgets.size} budgets")
    x = np.zeros(l.shape[0])
    # a bound within DUST is never funded, whatever budget remains
    candidates = np.flatnonzero((l < 0) & (ub > DUST))
    agents = agent_of[candidates]
    with np.errstate(over="ignore"):  # a loss over a subnormal cost is -inf: it sorts first
        ratio = l[candidates] / c[candidates]
    order = candidates[np.lexsort((candidates, ratio, agents))]
    _fill_agents(x, order, agents, ub[order], c[order], budgets.tolist(), DUST)
    return x


def ts_sample(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent Beta(a_i, b_i) draws per node."""
    return rng.beta(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def gy_estimate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Posterior means a / (a + b)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a / (a + b)


def ma_estimate(obs_sum: np.ndarray, obs_count: np.ndarray) -> np.ndarray:
    """Running mean of observed efficiencies; 0.5 for unobserved nodes to
    match the uniform-prior mean used by TS/GY."""
    obs_count = np.asarray(obs_count)
    seen = obs_count > 0
    return np.where(seen, obs_sum / np.where(seen, obs_count, 1), 0.5)


def pb_allocate(costs: np.ndarray, budgets: np.ndarray, bounds: np.ndarray,
                agent_of: np.ndarray, nodes: list, totals: np.ndarray,
                order: np.ndarray) -> np.ndarray:
    """Population-proportional coverage of each agent a over its nodes
    ``nodes[a]`` (in index order) of cost sum ``totals[a]``: the fraction
    budgets[a] / totals[a], capped by bounds, with any residual spilled in
    ``order``, every node by (agent, descending cost, index); zeros for an
    agent whose budget or cost total is not positive. Independent of epidemic
    state and efficiencies. An agent spends ``x[nodes[a]] @ costs[nodes[a]]``
    before its spill, which is ``_fill_agents`` over the nodes with room left."""
    live = (totals > 0) & (budgets > 0)
    base = np.divide(budgets, totals, out=np.zeros(len(budgets)), where=live)
    x = np.minimum(bounds, base[agent_of])
    residuals = [budget - float(x[idx] @ costs[idx]) if ok else 0.0
                 for budget, idx, ok in zip(budgets.tolist(), nodes, live.tolist())]
    room = bounds - x
    # a node without room takes nothing and spends nothing
    order = order[room[order] > 0]
    _fill_agents(x, order, agent_of[order], room[order], costs[order], residuals, 0.0)
    return x


def update_bounds(pol: PolicyState, t: int) -> np.ndarray:
    """Upper bounds for period t from allocations in [max(t - m_i, 1), t - 1].

    The window covers decisions strictly before t so the current period's
    decision is never deducted from its own bound.
    """
    if t < 1:
        raise ValueError("periods are 1-indexed")
    start = np.maximum(t - pol.window, 1)
    window_sum = (pol.alloc_csum[t - 1]
                  - np.take_along_axis(pol.alloc_csum, start[None] - 1, axis=0)[0])
    return np.maximum(0.0, 1.0 - window_sum)


def window_width(populations: np.ndarray, net: FlowMatrix, horizon: int) -> np.ndarray:
    """m_i = ceil(P_i / inflow_i), at most the horizon, which already reaches
    back to period 1; nodes with zero inflow are never renewed and get the
    full horizon."""
    populations = np.asarray(populations, dtype=float)
    inflow = net.inflow()
    m = np.full(populations.shape[0], horizon, dtype=int)
    pos = inflow > 0
    with np.errstate(over="ignore"):  # a subnormal inflow: inf, capped below
        ratio = populations[pos] / inflow[pos]
    m[pos] = np.ceil(np.minimum(ratio, horizon)).astype(int)
    return np.maximum(m, 1)


def observe_and_update(pol: PolicyState, x: np.ndarray, theta_obs: np.ndarray,
                       rng: np.random.Generator) -> None:
    """Bernoulli trials at the realized efficiencies for allocated nodes;
    successes bump a_i, failures bump b_i. Unallocated nodes are untouched.

    One uniform is drawn per node regardless of allocation so the trial
    outcome at a node depends only on the stream position, keeping paired
    policy runs aligned.
    """
    x = np.asarray(x, dtype=float)
    theta_obs = np.asarray(theta_obs, dtype=float)
    u = rng.random(pol.n)
    active = x > 0
    hit = u < theta_obs
    pol.a += active & hit
    pol.b += active & ~hit
    np.add(pol.obs_sum, theta_obs, out=pol.obs_sum, where=active)
    pol.obs_count += active
