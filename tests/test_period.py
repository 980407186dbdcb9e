"""The per-period paths against the loops they replaced (tests/oracles.py):
the allocators, the airport-level slot sums, the efficiency draws, the prior
updates and the stability check of the epidemic step, each bit for bit, and
whole runs with every oracle swapped in."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from vaxalloc import harness
from vaxalloc import net as netmod
from vaxalloc import policy as polmod
from vaxalloc.epi import (STABILITY_BAND, CompartmentState, EpidemicInstabilityError,
                          EpiParams, step_vaccinated)
from vaxalloc.harness import run_instance
from vaxalloc.policy import PolicyState, observe_and_update, pb_allocate, solve_knapsack
from vaxalloc.scenario import ScenarioConfig, build_instance, draw_realized_rates

from oracles import (air_dot_bincount, allocate_knapsack_loop, allocate_pb_loop,
                     draw_mean_rates_uniform, draw_realized_rates_uniform,
                     observe_and_update_masked,
                     pb_statics, solve_knapsack_loop, step_vaccinated_per_array,
                     totals_add_at)
from worlds import random_airport_net


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_bounds(rng, n):
    """Bounds of 0, 1e-13 and 1 among uniform ones."""
    pick = rng.integers(0, 4, n)
    return np.choose(pick, [np.zeros(n), np.full(n, 1e-13), np.ones(n),
                            rng.uniform(0, 1, n)])


def random_costs(rng, n):
    if rng.random() < 0.3:  # few distinct costs, so many ratios tie
        return rng.integers(1, 4, n).astype(float)
    return 10.0 ** rng.uniform(0, 5, n)


def random_budget(rng, total, spends=None):
    """0, or 0.01x to 2x ``total``, or the float sum of a prefix of
    ``spends``, which leaves the greedy spend with only rounding."""
    draw = rng.random()
    if draw < 0.1:
        return 0.0
    if spends is not None and spends.size and draw < 0.3:
        budget = 0.0
        for spend in spends[:int(rng.integers(1, spends.size + 1))]:
            budget += spend
        return budget
    return float(total * 10.0 ** rng.uniform(-2, math.log10(2)))


def random_knapsack(rng):
    """One agent's knapsack as (losses, costs, budget, bounds)."""
    n = int(rng.integers(1, 401))
    costs = random_costs(rng, n)
    losses = -(10.0 ** rng.uniform(-9, 1, n)) * np.where(rng.random(n) < 0.8, 1, -1)
    if rng.random() < 0.3:  # few distinct losses, so many ratios tie
        losses = rng.choice([-1.0, -0.5, 0.25], n)
    # some nodes repeat another node's loss and cost: an exact ratio tie
    copy = rng.random(n) < 0.2
    src = rng.integers(0, n, n)
    losses[copy], costs[copy] = losses[src[copy]], costs[src[copy]]
    bounds = random_bounds(rng, n)
    order = np.lexsort((np.arange(n), losses / costs))
    order = order[losses[order] < 0]
    budget = random_budget(rng, costs.sum(), bounds[order] * costs[order])
    return losses, costs, budget, bounds


def test_knapsack_matches_loop():
    rng = np.random.default_rng(1301)
    funded = stopped_early = 0
    for _ in range(2000):
        losses, costs, budget, bounds = prob = random_knapsack(rng)
        got = solve_knapsack(losses, costs, [budget], bounds, np.zeros(losses.size, dtype=int))
        want = solve_knapsack_loop(*prob)
        assert same_bits(got, want), prob
        funded += np.any(want > 0)
        stopped_early += 0 < float(want @ costs) < budget
    # the problems reach both ends of the spend
    assert funded > 1000 and stopped_early > 100


def random_agents(rng):
    """Every agent's knapsack as (losses, costs, budgets, bounds, agent_of):
    the problems of random_knapsack, one per agent, their nodes interleaved
    at random in index order, each agent's kept in its own order. Two agents
    may share one problem, so that ratios tie across agents; the last may
    have only nonnegative losses; and one more agent, with a budget, has no
    node at all."""
    k = int(rng.integers(1, 6))
    probs = [random_knapsack(rng) for _ in range(k)]
    if k > 1 and rng.random() < 0.3:
        probs[1] = probs[0]
    if rng.random() < 0.3:
        losses, *rest = probs[-1]
        probs[-1] = (np.abs(losses), *rest)
    agent_of = rng.permutation(np.repeat(np.arange(k), [p[0].size for p in probs]))
    columns = np.empty((3, agent_of.size))
    for a, (losses, costs, _, bounds) in enumerate(probs):
        columns[:, agent_of == a] = losses, costs, bounds
    losses, costs, bounds = columns
    budgets = np.array([p[2] for p in probs] + [float(costs.sum())])
    return losses, costs, budgets, bounds, agent_of


def test_allocate_knapsack_matches_loop():
    rng = np.random.default_rng(1303)
    shared = 0
    for _ in range(600):
        problem = random_agents(rng)
        want = allocate_knapsack_loop(*problem)
        assert same_bits(solve_knapsack(*problem), want), problem
        shared += np.unique(problem[-1][want > 0]).size > 1
    # most problems fund more than one agent
    assert shared > 200


def random_pb_agents(rng):
    """Every agent's pb problem as (costs, budgets, bounds, agent_of): two to
    six agents, their nodes interleaved at random in index order, with
    random_costs, random_bounds and a budget from random_budget over the
    agent's own nodes; one agent, with a budget of 1, has no node at all."""
    k = int(rng.integers(2, 7))
    sizes = rng.integers(1, 201, k)
    sizes[rng.integers(0, k)] = 0
    agent_of = rng.permutation(np.repeat(np.arange(k), sizes))
    costs, bounds = random_costs(rng, agent_of.size), random_bounds(rng, agent_of.size)
    budgets = np.ones(k)
    for a in np.flatnonzero(sizes):
        idx = np.flatnonzero(agent_of == a)
        order = idx[np.lexsort((idx, -costs[idx]))]
        budgets[a] = random_budget(rng, costs[idx].sum(), bounds[order] * costs[order])
    return costs, budgets, bounds, agent_of


def test_pb_allocate_matches_loop():
    rng = np.random.default_rng(1302)
    spilled = 0
    for _ in range(600):
        costs, budgets, bounds, agent_of = problem = random_pb_agents(rng)
        _, totals, _ = statics = pb_statics(costs, agent_of, budgets.size)
        want = allocate_pb_loop(*problem)
        assert same_bits(pb_allocate(*problem, *statics), want), problem
        uniform = np.minimum(bounds, budgets[agent_of] / totals[agent_of])
        # agents whose residual spilled past the uniform fraction
        spilled += np.unique(agent_of[want != uniform]).size
    assert spilled > 1000


def random_net_many_slots(rng):
    """Up to 400 nodes over up to 120 airport slots, some slots empty."""
    n = int(rng.integers(1, 401))
    m = int(rng.integers(1, 121))
    ground = sp.random(n, n, density=min(1.0, 10 / n), random_state=rng) * 50
    ground.setdiag(0.0)
    g = rng.uniform(0, 500, (m, m)) * (rng.random((m, m)) < 0.6)
    np.fill_diagonal(g, 0.0)
    return netmod.FlowMatrix(ground.tocsr(), rng.integers(0, m, n), g,
                             rng.uniform(500, 5000, n))


@pytest.mark.parametrize("c", [1, 3, 10])
def test_air_dot_matches_per_column_bincount(c):
    """The slot sums of one membership product against one bincount per
    column, for H and H.T, with v in either memory order; and the products
    built on them against the sums they stand for."""
    rng = np.random.default_rng(1303 + c)
    for k in range(60):
        net = random_airport_net(rng, int(rng.integers(1, 61))) if k % 2 else (
            random_net_many_slots(rng))
        n = net.n
        v = 10.0 ** rng.uniform(-300, 300, (n, c)) * rng.choice([-1.0, 0.0, 1.0], (n, c))
        for layout in (v, np.asfortranarray(v)):
            for h in (net.h, net.h.T):
                assert same_bits(net._air_dot(h, layout).T, air_dot_bincount(net, h, v))
            assert same_bits(net.rates_dot(layout),
                             (net.ground @ v + air_dot_bincount(net, net.h, v))
                             / net._divisor[:, None])
            u = v / net._divisor[:, None]
            assert same_bits(net.rates_t_dot(layout),
                             net.ground.T @ u + air_dot_bincount(net, net.h.T, u))


def test_realized_rates_match_uniform():
    rng = np.random.default_rng(1307)
    for _ in range(200):
        n = int(rng.integers(1, 401))
        mean = np.choose(rng.integers(0, 3, n), [np.zeros(n), np.ones(n),
                                                 rng.uniform(0, 1, n)])
        eps = float(rng.choice([0.0, 0.5, rng.uniform(0, 0.5)]))
        seed = int(rng.integers(2 ** 32))
        got = draw_realized_rates(mean, eps, np.random.default_rng(seed))
        assert same_bits(got, draw_realized_rates_uniform(mean, eps,
                                                          np.random.default_rng(seed)))


def test_mean_rates_match_uniform():
    rng = np.random.default_rng(1308)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(k, 401))
        base = np.choose(rng.integers(0, 3, k), [np.zeros(k), np.ones(k),
                                                 rng.uniform(0, 1, k)])
        agent_of = rng.integers(0, k, n)
        eps = float(rng.choice([0.0, 0.5, rng.uniform(0, 0.5)]))
        seed = int(rng.integers(2 ** 32))
        got = draw_realized_rates(base[agent_of], eps, np.random.default_rng(seed))
        assert same_bits(got, draw_mean_rates_uniform(base, agent_of, eps,
                                                      np.random.default_rng(seed)))


def test_observe_and_update_matches_masked():
    rng = np.random.default_rng(1304)
    for _ in range(50):
        n = int(rng.integers(1, 401))
        fast = PolicyState(n=n, horizon=4, window=np.ones(n, int))
        slow = PolicyState(n=n, horizon=4, window=np.ones(n, int))
        for t in range(4):
            x = rng.uniform(0, 1, n) * (rng.random(n) < 0.5)
            theta = np.choose(rng.integers(0, 3, n),
                              [np.zeros(n), np.ones(n), rng.uniform(0, 1, n)])
            # where nothing is allocated, an efficiency is never read
            theta[(x == 0) & (rng.random(n) < 0.3)] = np.nan
            observe_and_update(fast, x, theta, np.random.default_rng(t))
            observe_and_update_masked(slow, x, theta, np.random.default_rng(t))
        for name in ("a", "b", "obs_count"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name))
        assert same_bits(fast.obs_sum, slow.obs_sum)


COMPARTMENTS = "sird"
BAD = {"NaN": math.nan, "+inf": math.inf, "-inf": -math.inf,
       "below the band": -2 * STABILITY_BAND, "above the band": 1 + 2 * STABILITY_BAND}


def injected_case(targets):
    """A step on an 8-node world whose s, i and r (k = 0, 1, 2) come out at
    node j as ``targets[j, k]``, set through the mobility terms, which enter
    one compartment each."""
    rng = np.random.default_rng(1305)
    n = 8
    net = random_airport_net(rng, n, rho=0.3)
    params = EpiParams(beta=np.full(n, 0.3), gamma=np.full(n, 0.1), cfr=np.full(n, 0.02))
    s = rng.uniform(0.6, 0.9, n)
    i = rng.uniform(0.0, 0.05, n)
    state = CompartmentState(s=s, i=i, r=1.0 - s - i, d=np.zeros(n), t=6)
    x = rng.uniform(0, 0.2, n)
    theta = rng.uniform(0.5, 0.9, n)
    # each compartment without its mobility term, and the term's own-row part
    vx = theta * x
    new_inf = params.beta * s * i
    rv = state.r + s * vx
    base = [(s - new_inf) * (1 - vx), i + new_inf * (1 - vx) - params.gamma * i,
            rv + (1.0 - params.cfr) * params.gamma * i]
    own = [s * (1 - vx), i, rv]
    real = net.rates_dot

    def injected(v):
        out = np.array(real(v))
        for (node, k), value in targets.items():
            out[node, k] = ((value - base[k][node]) / net.rho
                            + net.rate_row_sum[node] * own[k][node])
        return out
    net.rates_dot = injected
    return state, params, net, x, theta


# d = 1 - s - i - r is finite while s, i and r are, so only s, i and r can
# be the first compartment to leave the band as NaN or an infinity
@pytest.mark.parametrize("comp,kind", [(comp, kind) for comp in COMPARTMENTS
                                       for kind in sorted(BAD)
                                       if comp != "d" or math.isfinite(BAD[kind])])
def test_step_raises_as_the_per_array_check(comp, kind):
    """Compartment ``comp`` comes out as BAD[kind] at node 5; for s, i and r,
    d also leaves the band at node 0, so the first compartment must win over
    the lowest node."""
    if comp == "d":  # s, i and r each within the band, d out of it
        row = (0.6, 0.6, 0.0) if BAD[kind] < 0 else (-0.9 * STABILITY_BAND,) * 3
        targets = {(5, k): row[k] for k in range(3)}
    else:
        targets = {(5, COMPARTMENTS.index(comp)): BAD[kind],
                   (0, 0): 0.6, (0, 1): 0.6, (0, 2): 0.0}
    case = injected_case(targets)
    with pytest.raises(EpidemicInstabilityError) as want:
        step_vaccinated_per_array(*case)
    with pytest.raises(EpidemicInstabilityError) as got:
        step_vaccinated(*case)
    assert (got.value.period, got.value.node) == (want.value.period, want.value.node) == (7, 5)
    assert same_bits(got.value.value, want.value.value)
    assert str(got.value) == str(want.value)


def test_step_clips_as_the_per_array_path():
    """s, i and r within the band outside [0, 1], signed zeros, and a d
    within the band below 0 are clipped and rescaled as the per-array path
    does, bit for bit."""
    b = 0.9 * STABILITY_BAND
    # (s, i, r) in some order; each sums to 1 within the band
    triples = [(-b, 0.5, 0.5), (1 + b, 0.0, -b), (0.5, 0.5 + b, 0.0), (-0.0, 0.3, 0.7),
               (1.0, -b, -0.0), (0.25, 0.25, 0.5 + b / 2)]
    rng = np.random.default_rng(1306)
    for _ in range(200):
        targets = {}
        for node in np.flatnonzero(rng.random(8) < 0.5):
            row = rng.permutation(triples[rng.integers(len(triples))])
            targets.update({(node, k): row[k] for k in range(3)})
        case = injected_case(targets)
        got = step_vaccinated(*case)
        want = step_vaccinated_per_array(*case)
        for name in "sird":
            assert same_bits(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("sharing", [False, True])
@pytest.mark.parametrize("policy", polmod.POLICIES)
def test_run_equals_run_on_the_oracles(monkeypatch, policy, sharing):
    """A run against one built and run with every replaced path swapped back
    in: the knapsack and per-agent spill loops, per-column slot sums, masked
    prior updates, the per-array stability check, uniform's array draws and
    np.add.at totals."""
    cfg = ScenarioConfig(n_nodes=300, n_agents=4, horizon=30, seed=7, policy=policy,
                         sharing=sharing, initial_infected=0.005)
    fast = run_instance(build_instance(cfg))
    monkeypatch.setattr(netmod.FlowMatrix, "_air_dot",
                        lambda net, h, v: air_dot_bincount(net, h, v).T)
    monkeypatch.setattr(harness, "solve_knapsack", allocate_knapsack_loop)
    monkeypatch.setattr(harness, "pb_allocate",
                        lambda costs, budgets, bounds, agent_of, *statics: allocate_pb_loop(
                            costs, budgets, bounds, agent_of))
    monkeypatch.setattr(polmod, "observe_and_update", observe_and_update_masked)
    monkeypatch.setattr(harness, "step_vaccinated", step_vaccinated_per_array)
    monkeypatch.setattr(harness, "draw_realized_rates", draw_realized_rates_uniform)
    inst = build_instance(cfg)
    monkeypatch.setattr(harness, "_totals", lambda state, pop, world, members: totals_add_at(
        state, pop, inst.agent_of, cfg.n_agents))
    slow = run_instance(inst)
    assert np.any(fast.allocations > 0) == (policy != "none")
    assert fast.equals(slow)
