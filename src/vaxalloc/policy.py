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


@dataclass
class AllocationProblem:
    losses: np.ndarray
    costs: np.ndarray
    budget: float
    bounds: np.ndarray

    def __post_init__(self):
        self.losses = np.asarray(self.losses, dtype=float)
        self.costs = np.asarray(self.costs, dtype=float)
        self.bounds = np.asarray(self.bounds, dtype=float)
        # written so that NaN fails each check
        if not np.all(self.costs > 0):
            raise ValueError("costs must be positive")
        if not self.budget >= 0:
            raise ValueError("budget must be nonnegative")
        if not np.all((self.bounds >= 0) & (self.bounds <= 1)):
            raise ValueError("bounds must be in [0, 1]")


def loss_coefficients(state: CompartmentState, params: EpiParams, net: FlowMatrix,
                      agent_nodes: np.ndarray, theta_hat: np.ndarray,
                      inflow: np.ndarray) -> np.ndarray:
    """Coefficient of each agent node's allocation in the one-period-ahead
    susceptible objective, assuming other agents allocate nothing.

    l_i = theta_i * S_i * (-(1 - beta_i I_i) + rho * sum_j p_ij
          - rho * sum over same-agent rows j with i in N_j of p_ji),
    where the last sum is ``inflow``: c[i, agent of i] for the run's
    ``sharing.AgentCoupling``.
    """
    agent_nodes = np.asarray(agent_nodes, dtype=int)
    s = state.s[agent_nodes]
    beta = params.beta[agent_nodes]
    inf = state.i[agent_nodes]
    out_sum = net.rate_row_sum[agent_nodes]
    th = np.asarray(theta_hat, dtype=float)[agent_nodes]
    return th * s * (-(1.0 - beta * inf) + net.rho * out_sum
                     - net.rho * inflow[agent_nodes])


def _full_takes(remaining: float, caps: np.ndarray, costs: np.ndarray,
                floor: float) -> tuple[int, np.ndarray]:
    """The greedy fill's leading run of full takes, and what remains before
    each take. Take j spends caps[j] * costs[j]; it is full while caps[j]
    fits in what remains and leaves more than ``floor``. Subtracting with
    np.subtract.accumulate runs in the order of the loop's
    ``remaining -= take * cost``, so every remainder is the loop's, bit for bit."""
    remains = np.subtract.accumulate(np.concatenate(([remaining], caps * costs)))
    full = (remains[:-1] / costs >= caps) & (remains[1:] > floor)
    return (int(np.argmin(full)) if not full.all() else full.size), remains


def solve_knapsack(problem: AllocationProblem) -> np.ndarray:
    """Greedy fractional knapsack: fund nodes by increasing loss-to-cost ratio
    (ties broken by ascending index) while the loss is negative and budget
    remains; the last funded node gets the fractional remainder. Takes and
    remainders within ``DUST`` are not funded."""
    return _greedy_fill(problem.losses, problem.costs, problem.budget, problem.bounds)


def _greedy_fill(l: np.ndarray, c: np.ndarray, budget: float,
                 ub: np.ndarray) -> np.ndarray:
    """``solve_knapsack`` on inputs already checked as ``AllocationProblem``
    checks them. Every full take is made at once (``_full_takes``); the loop
    runs only from the first fractional take or the first take that ends the
    spend."""
    x = np.zeros(l.shape[0])
    # a bound within DUST is never funded, whatever budget remains
    candidates = np.flatnonzero((l < 0) & (ub > DUST))
    if candidates.size == 0 or budget <= 0:
        return x
    order = candidates[np.lexsort((candidates, l[candidates] / c[candidates]))]
    floor = DUST * budget
    k, remains = _full_takes(float(budget), ub[order], c[order], floor)
    x[order[:k]] = ub[order[:k]]
    remaining = remains[k]
    for idx in order[k:]:
        take = min(ub[idx], remaining / c[idx])
        if take <= DUST:
            continue
        x[idx] = take
        remaining -= take * c[idx]
        if remaining <= floor:
            break
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


def spill_order(costs: np.ndarray) -> np.ndarray:
    """``pb_allocate``'s spill order: descending cost, ties by ascending index."""
    costs = np.asarray(costs, dtype=float)
    return np.lexsort((np.arange(costs.shape[0]), -costs))


def pb_allocate(costs: np.ndarray, budget: float, bounds: np.ndarray,
                order: np.ndarray | None = None) -> np.ndarray:
    """Population-proportional coverage: uniform fraction budget/total cost,
    capped by bounds, with any residual spilled in descending-population
    order (``spill_order(costs)``, which a caller may pass in once for
    many calls). Independent of epidemic state and efficiencies.

    The spill makes every full take at once (``_full_takes``) and loops only
    from the first fractional take."""
    costs = np.asarray(costs, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    n = costs.shape[0]
    total = costs.sum()
    if total <= 0 or budget <= 0:
        return np.zeros(n)
    base = budget / total
    x = np.minimum(bounds, base)
    residual = budget - float(x @ costs)
    if residual > 0:
        if order is None:
            order = spill_order(costs)
        room = bounds - x
        # a node without room takes nothing and spends nothing
        order = order[room[order] > 0]
        k, remains = _full_takes(residual, room[order], costs[order], 0.0)
        x[order[:k]] += room[order[:k]]
        residual = remains[k]
        for idx in order[k:]:
            if residual <= 0:
                break
            add = min(room[idx], residual / costs[idx])
            x[idx] += add
            residual -= add * costs[idx]
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
    """m_i = ceil(P_i / inflow_i); nodes with zero inflow are never renewed
    and get the full horizon."""
    populations = np.asarray(populations, dtype=float)
    inflow = net.inflow()
    m = np.full(populations.shape[0], horizon, dtype=int)
    pos = inflow > 0
    m[pos] = np.ceil(populations[pos] / inflow[pos]).astype(int)
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
